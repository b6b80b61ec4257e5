"""Columnar fault traces against the object-based code they replaced.

The oracle section is the ``FaultEvent``-based synthetic generator, 8-to-4
GPU conversion, outage sampling, correlated overlay and event-log
normalization, kept verbatim apart from the ``oracle_`` names and one
dropped docstring example.  The RNG draw order is the contract -- every
golden and result digest is a function of it -- so the columnar trace must
be array-equal to the oracle's events for every configuration, and the
vectorized normalizer array-equal to the per-node merge loop on arbitrary
runs.  (The oracle conversion reads the mean ratio
through ``FaultTrace.statistics()``, whose event log is the normalizer the
second differential checks against ``oracle_log_from_runs``.)

The remaining tests pin down the :class:`FaultTrace` column contract and
that a runner builds no ``FaultEvent`` at all.
"""

from collections.abc import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.typing import NDArray

import repro.api.spec as spec_module
from repro.api import (
    ArchitectureSpec,
    ExperimentRunner,
    ExperimentSpec,
    Scenario,
    TraceSpec,
)
from repro.api.spec import WorkloadSpec
from repro.faults.convert import conversion_probability, convert_trace_8gpu_to_4gpu
from repro.faults.correlated import (
    _OVERLAY_STREAM,
    CorrelatedFaultConfig,
    DomainOutage,
    _mmpp_arrival_hours,
    correlated_trace_with_outages,
    fault_domains,
    generate_correlated_trace,
)
from repro.faults.events import EVENT_DTYPE, columnar_event_log, event_log_from_columns
from repro.faults.synthetic import (
    SyntheticTraceConfig,
    _daily_ratio_targets,
    generate_synthetic_trace,
)
from repro.faults.trace import HOURS_PER_DAY, FaultEvent, FaultTrace


# ===================================================================== oracle
def oracle_generate_synthetic_trace(config: SyntheticTraceConfig | None = None) -> FaultTrace:
    """Generate a synthetic node-fault trace matching ``config``'s statistics."""
    config = config if config is not None else SyntheticTraceConfig()
    rng = np.random.default_rng(config.seed)
    targets = _daily_ratio_targets(config, rng)
    persistence = 1.0 - 1.0 / config.mean_repair_days

    faulty: set[int] = set()
    membership: list[set[int]] = []
    all_nodes = np.arange(config.n_nodes)

    for day in range(config.duration_days):
        target_count = int(round(targets[day] * config.n_nodes))
        target_count = min(target_count, config.n_nodes)

        # Nodes repaired today (those that do not persist).  Iterate the
        # fault set in sorted order so the node-to-draw pairing is a pure
        # function of the seed, not of set-insertion history.
        survivors = {
            node for node in sorted(faulty) if rng.random() < persistence
        }
        faulty = survivors

        if len(faulty) > target_count:
            # Repair surplus nodes (oldest-first is irrelevant for the
            # marginal statistics; repair uniformly at random).
            surplus = len(faulty) - target_count
            to_repair = rng.choice(sorted(faulty), size=surplus, replace=False)
            faulty.difference_update(int(n) for n in to_repair)
        elif len(faulty) < target_count:
            healthy = np.setdiff1d(all_nodes, np.fromiter(faulty, dtype=int, count=len(faulty)))
            needed = min(target_count - len(faulty), healthy.size)
            if needed > 0:
                new_faults = rng.choice(healthy, size=needed, replace=False)
                faulty.update(int(n) for n in new_faults)

        membership.append(set(faulty))

    events = oracle_membership_to_events(membership)
    return FaultTrace(
        n_nodes=config.n_nodes,
        duration_days=config.duration_days,
        events=events,
        gpus_per_node=config.gpus_per_node,
    )


def oracle_membership_to_events(membership: list[set[int]]) -> list[FaultEvent]:
    """Merge per-day faulty membership into contiguous fault events."""
    events: list[FaultEvent] = []
    open_since: dict = {}
    for day, members in enumerate(membership):
        # Close events for nodes that recovered.
        for node in list(open_since):
            if node not in members:
                events.append(
                    FaultEvent(
                        node_id=node,
                        start_hour=open_since.pop(node) * HOURS_PER_DAY,
                        end_hour=day * HOURS_PER_DAY,
                    )
                )
        # Open events for newly faulty nodes.
        for node in members:
            if node not in open_since:
                open_since[node] = day
    horizon = len(membership)
    for node, start_day in open_since.items():
        events.append(
            FaultEvent(
                node_id=node,
                start_hour=start_day * HOURS_PER_DAY,
                end_hour=horizon * HOURS_PER_DAY,
            )
        )
    events.sort(key=lambda e: (e.start_hour, e.node_id))
    return events


def oracle_convert_trace_8gpu_to_4gpu(
    trace: FaultTrace,
    seed: int = 0,
    mean_node_fault_ratio: float | None = None,
) -> FaultTrace:
    """Convert an 8-GPU-node trace into a 4-GPU-node trace.

    Each source node ``n`` maps to target nodes ``2n`` and ``2n + 1``.  For
    every source fault event, each target node independently inherits the
    event with the Bayes conversion probability.

    Parameters
    ----------
    trace:
        The source trace (must use 8 GPUs per node).
    seed:
        Seed for the per-event coin flips.
    mean_node_fault_ratio:
        Mean faulty-node ratio of the source trace used to derive the
        conversion probability.  Defaults to the trace's own measured mean.
    """
    if trace.gpus_per_node != 8:
        raise ValueError("convert_trace_8gpu_to_4gpu expects an 8-GPU-node trace")
    rng = np.random.default_rng(seed)
    if mean_node_fault_ratio is None:
        mean_node_fault_ratio = trace.statistics().mean_fault_ratio
    p_convert = conversion_probability(
        source_node_ratio=mean_node_fault_ratio,
        source_gpus_per_node=8,
        target_gpus_per_node=4,
    )

    events: list[FaultEvent] = []
    for event in trace.events:
        for half in (0, 1):
            if rng.random() < p_convert:
                events.append(
                    FaultEvent(
                        node_id=event.node_id * 2 + half,
                        start_hour=event.start_hour,
                        end_hour=event.end_hour,
                    )
                )
    return FaultTrace(
        n_nodes=trace.n_nodes * 2,
        duration_days=trace.duration_days,
        events=events,
        gpus_per_node=4,
    )


def oracle_sample_domain_outages(
    config: CorrelatedFaultConfig,
    domains: tuple[tuple[int, ...], ...],
    rng: np.random.Generator,
) -> list[DomainOutage]:
    """Draw the correlated overlay: burst-arriving whole-domain outages."""
    duration_hours = config.base.duration_days * HOURS_PER_DAY
    outages: list[DomainOutage] = []
    for start in _mmpp_arrival_hours(config, duration_hours, rng):
        index = int(rng.integers(len(domains)))
        repair = config.repair_median_hours * float(
            np.exp(config.repair_sigma * rng.standard_normal())
        )
        outages.append(
            DomainOutage(
                domain=index,
                nodes=domains[index],
                start_hour=start,
                end_hour=min(start + repair, duration_hours),
            )
        )
    return outages


def oracle_correlated_trace_with_outages(
    config: CorrelatedFaultConfig,
    domains: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[FaultTrace, tuple[DomainOutage, ...]]:
    """Generate the correlated trace plus its domain-outage ground truth.

    The returned trace merges the independent base trace with one per-node
    :class:`~repro.faults.trace.FaultEvent` for every node of every domain
    outage; the outage tuple is the generator's own record of which events
    were correlated (used by blast-radius studies and the property tests).

    Determinism: the overlay draws from a dedicated seed stream
    (``(base.seed, overlay tag)``), so the base trace is bit-identical to
    ``generate_synthetic_trace(config.base)`` at every correlation level and
    the whole output is a pure function of the config.
    """
    base = oracle_generate_synthetic_trace(config.base)
    if config.correlation == 0.0:
        return base, ()
    if domains is None:
        domains = fault_domains(config.base.n_nodes, config.domain_size)
    for domain in domains:
        for node in domain:
            if not 0 <= node < config.base.n_nodes:
                raise ValueError(f"domain node {node} outside cluster of {config.base.n_nodes}")
    rng = np.random.default_rng((config.base.seed, _OVERLAY_STREAM))
    outages = oracle_sample_domain_outages(config, domains, rng)
    events = list(base.events)
    for outage in outages:
        events.extend(
            FaultEvent(node_id=node, start_hour=outage.start_hour, end_hour=outage.end_hour)
            for node in outage.nodes
        )
    trace = FaultTrace(
        n_nodes=config.base.n_nodes,
        duration_days=config.base.duration_days,
        events=events,
        gpus_per_node=config.base.gpus_per_node,
    )
    return trace, tuple(outages)


def oracle_log_from_runs(
    node_ids: list[int], starts: list[float], ends: list[float], duration_hours: float
) -> NDArray[np.void]:
    """Normalized event log from clipped per-event downtime runs.

    The runs may overlap or touch per node; they are unioned into maximal
    disjoint windows first, exactly matching the open-counter semantics of
    the original sweep (a node is faulty while *any* run covers it).
    """
    runs: dict[int, list[tuple[float, float]]] = {}
    for node, start, end in zip(node_ids, starts, ends, strict=True):
        runs.setdefault(node, []).append((start, end))

    times: list[float] = []
    nodes: list[int] = []
    kinds: list[int] = []
    for node in sorted(runs):
        windows = sorted(runs[node])
        merged_start, merged_end = windows[0]
        merged: list[tuple[float, float]] = []
        for start, end in windows[1:]:
            if start <= merged_end:  # overlapping or touching: one outage
                merged_end = max(merged_end, end)
            else:
                merged.append((merged_start, merged_end))
                merged_start, merged_end = start, end
        merged.append((merged_start, merged_end))
        for start, end in merged:
            times.append(start)
            nodes.append(node)
            kinds.append(1)
            if end < duration_hours:
                times.append(end)
                nodes.append(node)
                kinds.append(-1)

    log = np.empty(len(times), dtype=EVENT_DTYPE)
    log["time"] = times
    log["node"] = nodes
    log["kind"] = kinds
    order = np.lexsort((log["kind"], log["node"], log["time"]))
    return log[order]


def oracle_columnar_event_log(
    events: Iterable[FaultEvent], duration_hours: float
) -> NDArray[np.void]:
    """The normalized columnar event log of a raw fault event list.

    Events are clipped to ``[0, duration_hours)``; empty and out-of-window
    events are dropped.  See the module docstring for the normalization
    guarantees.
    """
    if duration_hours <= 0:
        raise ValueError("duration_hours must be positive")
    node_ids: list[int] = []
    starts: list[float] = []
    ends: list[float] = []
    for event in events:
        start = max(0.0, event.start_hour)
        end = min(duration_hours, event.end_hour)
        if end <= start:
            continue
        node_ids.append(event.node_id)
        starts.append(start)
        ends.append(end)
    return oracle_log_from_runs(node_ids, starts, ends, duration_hours)


# =============================================================== differential
def assert_trace_matches(trace: FaultTrace, expected: FaultTrace) -> None:
    """The columnar trace holds exactly the oracle's events, in its order."""
    assert (trace.n_nodes, trace.duration_days, trace.gpus_per_node) == (
        expected.n_nodes,
        expected.duration_days,
        expected.gpus_per_node,
    )
    events = expected.events
    assert trace.node_ids.dtype == np.int64
    assert trace.start_hours.dtype == trace.end_hours.dtype == np.float64
    np.testing.assert_array_equal(trace.node_ids, [e.node_id for e in events])
    np.testing.assert_array_equal(trace.start_hours, [e.start_hour for e in events])
    np.testing.assert_array_equal(trace.end_hours, [e.end_hour for e in events])


def assert_logs_equal(got: NDArray[np.void], expected: NDArray[np.void]) -> None:
    assert got.dtype == expected.dtype == EVENT_DTYPE
    for field in ("time", "node", "kind"):
        np.testing.assert_array_equal(got[field], expected[field])


@settings(max_examples=60, deadline=None)
@given(
    days=st.integers(1, 60),
    source_nodes=st.integers(1, 64),
    mean_ratio=st.floats(0.005, 0.3),
    p99_over_mean=st.floats(1.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    gpus_per_node=st.sampled_from((4, 8)),
    correlation=st.sampled_from((0.0, 0.5, 1.0)),
    domain_size=st.integers(1, 8),
)
def test_trace_columns_equal_the_oracle(
    days, source_nodes, mean_ratio, p99_over_mean, seed, gpus_per_node, correlation,
    domain_size,
):
    base = SyntheticTraceConfig(
        n_nodes=source_nodes,
        duration_days=days,
        mean_fault_ratio=mean_ratio,
        p99_fault_ratio=min(mean_ratio * p99_over_mean, 0.99),
        seed=seed,
    )
    config = CorrelatedFaultConfig(
        base=base, correlation=correlation, domain_size=domain_size, domain_rate_per_day=2.0
    )
    expected, expected_outages = oracle_correlated_trace_with_outages(config)
    trace = generate_correlated_trace(config) if correlation else generate_synthetic_trace(base)
    assert_trace_matches(trace, expected)
    with_outages, outages = correlated_trace_with_outages(config)
    assert_trace_matches(with_outages, expected)
    assert outages == expected_outages
    if gpus_per_node == 4:
        assert_trace_matches(
            convert_trace_8gpu_to_4gpu(trace, seed=seed),
            oracle_convert_trace_8gpu_to_4gpu(expected, seed=seed),
        )


def test_paper_trace_equals_the_oracle():
    """The 348-day, 400-node Appendix A trace and its 4-GPU conversion."""
    expected = oracle_generate_synthetic_trace()
    trace = generate_synthetic_trace()
    assert_trace_matches(trace, expected)
    assert_trace_matches(
        convert_trace_8gpu_to_4gpu(trace, seed=348),
        oracle_convert_trace_8gpu_to_4gpu(expected, seed=348),
    )


#: Runs on a coarse grid so overlaps, touching runs, exact ties and runs
#: outside ``[0, duration)`` are all common.
_RUNS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(-8, 48), st.integers(0, 16)), max_size=40
)


@settings(max_examples=300, deadline=None)
@given(runs=_RUNS, duration=st.integers(1, 40), scale=st.sampled_from((1.0, 0.5, 0.1)))
def test_normalizer_equals_the_merge_loop(runs, duration, scale):
    nodes = [node for node, _, _ in runs]
    starts = [start * scale for _, start, _ in runs]
    ends = [(start + length) * scale for _, start, length in runs]
    events = [FaultEvent(n, s, e) for n, s, e in zip(nodes, starts, ends, strict=True)]
    expected = oracle_columnar_event_log(events, duration)
    assert_logs_equal(event_log_from_columns(nodes, starts, ends, duration), expected)
    assert_logs_equal(columnar_event_log(events, duration), expected)


def test_normalizer_rejects_an_empty_window():
    with pytest.raises(ValueError, match="duration_hours must be positive"):
        event_log_from_columns([0], [0.0], [1.0], 0.0)


# ============================================================ column contract
class TestFaultTraceColumns:
    def test_sorted_by_start_then_node_with_ties_in_input_order(self):
        events = [
            FaultEvent(2, 5.0, 9.0),
            FaultEvent(1, 1.0, 2.0),
            FaultEvent(2, 5.0, 6.0),
            FaultEvent(0, 5.0, 7.0),
        ]
        trace = FaultTrace.from_columns(
            3,
            1,
            [e.node_id for e in events],
            [e.start_hour for e in events],
            [e.end_hour for e in events],
        )
        assert trace.events == FaultTrace(3, 1, events).events
        assert trace.node_ids.tolist() == [1, 0, 2, 2]
        assert trace.end_hours.tolist() == [2.0, 7.0, 9.0, 6.0]

    @pytest.mark.parametrize(
        ("columns", "match"),
        [
            (([0, 7], [0.0, 1.0], [1.0, 2.0]), "event node 7 outside cluster of 4 nodes"),
            (([0, -1], [0.0, 1.0], [1.0, 2.0]), "node_id must be non-negative"),
            (([0, 1], [0.0, 3.0], [1.0, 2.0]), "end_hour must be >= start_hour"),
            (([0, 1], [0.0], [1.0, 2.0]), "equally long"),
        ],
        ids=["outside-cluster", "negative-node", "end-before-start", "ragged"],
    )
    def test_from_columns_checks(self, columns, match):
        with pytest.raises(ValueError, match=match):
            FaultTrace.from_columns(4, 1, *columns)

    def test_columns_are_read_only(self):
        trace = generate_synthetic_trace(SyntheticTraceConfig(n_nodes=16, duration_days=10))
        for column in (trace.node_ids, trace.start_hours, trace.end_hours):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_events_are_built_only_when_read(self, monkeypatch):
        built = count_fault_events(monkeypatch)
        trace = convert_trace_8gpu_to_4gpu(
            generate_synthetic_trace(SyntheticTraceConfig(n_nodes=32, duration_days=30, seed=5))
        )
        restricted = trace.restrict_nodes(40)
        trace.statistics()
        restricted.interval_timeline()
        assert trace.faulty_nodes_at(10_000.0) == set()
        assert built == []
        events = trace.events
        assert len(built) == len(events) == len(trace)
        assert trace.events is events  # built once

    def test_event_built_trace_keeps_its_objects(self):
        event = FaultEvent(1, 10, 20)
        trace = FaultTrace(n_nodes=2, duration_days=1, events=[event])
        assert trace.events[0] is event
        assert trace.to_csv().splitlines()[1] == "1,10,20"
        assert trace.start_hours.tolist() == [10.0]


# ============================================================ runner contract
def count_fault_events(monkeypatch) -> list[FaultEvent]:
    """Record every ``FaultEvent`` built from now on."""
    built: list[FaultEvent] = []
    check = FaultEvent.__post_init__

    def counting(event: FaultEvent) -> None:
        built.append(event)
        check(event)

    monkeypatch.setattr(FaultEvent, "__post_init__", counting)
    return built


def _runner_spec(experiments, trace, **overrides):
    return ExperimentSpec.of(
        scenario=Scenario(
            name="columnar",
            trace=trace,
            architectures=(
                ArchitectureSpec(name="InfiniteHBD(K=2)"),
                ArchitectureSpec(name="NVL-72"),
            ),
            tp_sizes=(32,),
            n_nodes=288,
            job_gpus=512,
            workload=WorkloadSpec(n_jobs=6, seed=3),
        ),
        experiments=experiments,
        max_workers=1,
        **overrides,
    )


@pytest.mark.parametrize(
    "spec",
    [
        _runner_spec(
            ("waste", "goodput"), TraceSpec(days=20, seed=4242, gpus_per_node=4), num_seeds=2
        ),
        _runner_spec(
            ("blast_radius",),
            TraceSpec(days=20, seed=4242, gpus_per_node=8),
            options={"blast_radius": {"correlations": [0.5]}},
        ),
    ],
    ids=["two-seed-waste-goodput", "blast-radius-correlated"],
)
def test_runner_builds_no_fault_event(monkeypatch, spec):
    # An empty trace memo, so the run generates every trace.
    monkeypatch.setattr(spec_module, "_TRACE_CACHE", {})
    built = count_fault_events(monkeypatch)
    generated = []
    build = TraceSpec.build
    monkeypatch.setattr(TraceSpec, "build", lambda trace: generated.append(trace) or build(trace))
    assert len(ExperimentRunner(spec).run()) > 0
    assert generated  # the run did build its traces
    assert built == []
