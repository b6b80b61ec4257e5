"""Batched Monte-Carlo replay (repro.mc) vs the scalar engines.

The contract under test: every per-seed result out of ``replay_batch`` is
**bit-for-bit** the scalar ``replay_intervals`` output for that seed's
timeline -- through all three of its paths: the count pass (architectures
with a fault-count decomposition), the K-hop segment pass (InfiniteHBD on a
ring or a line, any K) and the per-seed scalar fallback, which only a
plugin architecture without a decomposition reaches (``_PrefixHBD`` here).
``BatchSeries`` is the one implementation of the capacity aggregates; its
per-seed values answer to the plain-Python oracle below.
"""

import builtins
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api.spec as spec_module
from repro.api.runner import ExperimentRunner
from repro.api.spec import (
    ArchitectureSpec,
    ExperimentSpec,
    Scenario,
    TraceSpec,
    WorkloadSpec,
)
from repro.faults.events import event_log_from_intervals
from repro.faults.timeline import IntervalTimeline
from repro.faults.trace import FaultEvent, FaultTrace
from repro.hbd import (
    BigSwitchHBD,
    HBDArchitecture,
    InfiniteHBDArchitecture,
    NVLHBD,
    SiPRingHBD,
    TPUv4HBD,
)
import repro.mc.engine as mc_engine
from repro.mc import (
    BatchSeries,
    BatchTraceConfig,
    TraceBatch,
    kernel_for,
    replay_batch,
    sample_trace_batch,
    seed_stats,
)
from repro.simulation.cluster import replay_intervals


class _PrefixHBD(HBDArchitecture):
    """Plugin-style architecture with no fault-count decomposition.

    Only the healthy prefix before the first faulty node is usable, so
    ``replay_batch`` can only serve it through the per-seed scalar fallback.
    """

    name = "Prefix"

    def usable_gpus(self, n_nodes, faulty_nodes, tp_size):
        faulty = set(faulty_nodes)
        prefix = next((node for node in range(n_nodes) if node in faulty), n_nodes)
        return self._fit(prefix * self.gpus_per_node, tp_size)


ARCHITECTURES = [
    BigSwitchHBD(4),
    NVLHBD(72, 4),
    NVLHBD(36, 4),
    TPUv4HBD(4, 64),
    SiPRingHBD(4),
    InfiniteHBDArchitecture(k=2, gpus_per_node=4),
    InfiniteHBDArchitecture(k=1, gpus_per_node=4),
    InfiniteHBDArchitecture(k=3, gpus_per_node=4),
    InfiniteHBDArchitecture(k=2, gpus_per_node=4, ring=False),
    _PrefixHBD(4),
]


def _arch_id(architecture):
    if getattr(architecture, "ring", True):
        return architecture.name
    return f"{architecture.name}-line"


TP_SIZES = (8, 32, 128)


def _timeline(n_nodes, duration_hours, runs, gpus_per_node=4):
    """Exact scalar timeline from (node, start, end) fault runs."""
    events = [
        FaultEvent(node_id=node, start_hour=float(start), end_hour=float(end))
        for node, start, end in runs
        if end > start
    ]
    trace = FaultTrace(
        n_nodes=n_nodes,
        duration_days=duration_hours / 24.0,
        events=events,
        gpus_per_node=gpus_per_node,
    )
    return IntervalTimeline.from_trace(trace)


SERIES_COLUMNS = (
    "starts_hours",
    "ends_hours",
    "waste_ratios",
    "usable_gpus",
    "faulty_gpus",
    "interval_offsets",
)


def _assert_series_equal(got, ref):
    for column in SERIES_COLUMNS:
        got_column, ref_column = getattr(got, column), getattr(ref, column)
        assert got_column.dtype == ref_column.dtype, column
        assert np.array_equal(got_column, ref_column), column
    assert got.total_gpus == ref.total_gpus


# --------------------------------------------------------------------------
# plain-Python aggregate oracle
# --------------------------------------------------------------------------
# Plain-Python reference bodies of every BatchSeries aggregate, reading one
# seed's columns as Python lists.  Every sum is an explicit left fold in
# interval order, so the oracle does not depend on the interpreter's sum()
# (CPython >= 3.12 compensates its float rounding).
@dataclasses.dataclass
class _Columns:
    starts_hours: list
    ends_hours: list
    waste_ratios: list
    usable_gpus: list


def _columns(series):
    """A one-seed series' interval columns as the oracle's Python lists."""
    return _Columns(
        series.starts_hours.tolist(),
        series.ends_hours.tolist(),
        series.waste_ratios.tolist(),
        series.usable_gpus.tolist(),
    )


def _fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


def _durations(series):
    return [e - s for s, e in zip(series.starts_hours, series.ends_hours, strict=True)]


def _total_hours(series):
    return series.ends_hours[-1] - series.starts_hours[0] if series.starts_hours else 0.0


def oracle_mean_waste_ratio(series):
    total = _total_hours(series)
    if total == 0:
        return 0.0
    weighted = _fold(
        w * d for w, d in zip(series.waste_ratios, _durations(series), strict=True)
    )
    return weighted / total


def oracle_weighted_quantile(values, weights, q):
    if not values:
        return 0.0
    pairs = sorted(zip(values, weights, strict=True))
    total = _fold(weight for _, weight in pairs)
    if total <= 0:
        return pairs[0][0]
    target = q * total
    cumulative = 0.0
    for value, weight in pairs:
        cumulative += weight
        if cumulative >= target:
            return value
    return pairs[-1][0]


def oracle_waste_ratio_quantile(series, q):
    return oracle_weighted_quantile(series.waste_ratios, _durations(series), q)


def oracle_min_usable_gpus(series):
    return int(min(series.usable_gpus)) if series.usable_gpus else 0


def oracle_fault_waiting_rate(series, job_gpus):
    total = _total_hours(series)
    if total == 0:
        return 0.0
    waiting = _fold(
        d
        for usable, d in zip(series.usable_gpus, _durations(series), strict=True)
        if usable < job_gpus
    )
    return waiting / total


def oracle_supported_job_scale(series, availability):
    if not series.usable_gpus:
        return 0
    if availability == 1.0:
        return oracle_min_usable_gpus(series)
    pairs = sorted(zip(series.usable_gpus, _durations(series), strict=True))
    budget = (1.0 - availability) * _total_hours(series)
    cumulative = 0.0
    for usable, duration in pairs:
        cumulative += duration
        if cumulative > budget * (1.0 + 1e-12):
            return int(usable)
    return int(pairs[-1][0])


def oracle_mean_waste_in_window(series, start_day, end_day):
    start_h, end_h = start_day * 24.0, end_day * 24.0
    weighted = covered = 0.0
    for s, e, w in zip(series.starts_hours, series.ends_hours, series.waste_ratios, strict=True):
        overlap = min(e, end_h) - max(s, start_h)
        if overlap > 0:
            weighted += w * overlap
            covered += overlap
    return weighted / covered if covered else 0.0


def _assert_aggregates_match_oracle(
    batch, index, ref, q, availability, job_gpus, window=(0.25, 1.5)
):
    """Seed ``index`` of ``batch`` and the one-seed ``ref`` vs the oracle."""
    columns = _columns(ref)
    expected = (
        oracle_mean_waste_ratio(columns),
        oracle_waste_ratio_quantile(columns, q),
        oracle_waste_ratio_quantile(columns, 0.99),
        oracle_min_usable_gpus(columns),
        oracle_supported_job_scale(columns, availability),
        oracle_fault_waiting_rate(columns, job_gpus),
        oracle_mean_waste_in_window(columns, *window),
    )
    assert (
        batch.mean_waste_ratios()[index],
        batch.waste_ratio_quantiles(q)[index],
        batch.p99_waste_ratios()[index],
        batch.min_usable_gpus()[index],
        batch.supported_job_scales(availability)[index],
        batch.fault_waiting_rates(job_gpus)[index],
        batch.mean_waste_in_window(*window)[index],
    ) == expected
    assert (
        ref.mean_waste_ratios()[0],
        ref.waste_ratio_quantiles(q)[0],
        ref.p99_waste_ratios()[0],
        ref.min_usable_gpus()[0],
        ref.supported_job_scales(availability)[0],
        ref.fault_waiting_rates(job_gpus)[0],
        ref.mean_waste_in_window(*window)[0],
    ) == expected


# --------------------------------------------------------------------------
# hypothesis strategies
# --------------------------------------------------------------------------
DURATION = 48

run_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=23),          # node
        st.integers(min_value=0, max_value=DURATION - 1),  # start
        st.integers(min_value=1, max_value=DURATION),      # length
    ),
    max_size=25,
)

float_run_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=23),
        st.floats(min_value=0.0, max_value=DURATION - 0.5, allow_nan=False),
        st.floats(min_value=0.25, max_value=DURATION, allow_nan=False),
    ),
    max_size=25,
)


class TestBatchedMatchesScalar:
    @given(st.lists(run_lists, min_size=1, max_size=4), st.sampled_from(TP_SIZES))
    @settings(max_examples=60, deadline=None)
    def test_integer_time_traces_bit_for_bit(self, per_seed_runs, tp_size):
        timelines = [
            _timeline(24, float(DURATION), [(n, s, min(s + d, DURATION)) for n, s, d in runs])
            for runs in per_seed_runs
        ]
        batch = TraceBatch.from_timelines(timelines)
        for architecture in ARCHITECTURES:
            series = replay_batch(architecture, batch, tp_size)
            for index, timeline in enumerate(timelines):
                ref = replay_intervals(architecture, timeline, tp_size)
                _assert_series_equal(series.seed(index), ref)

    @given(st.lists(float_run_lists, min_size=1, max_size=3), st.sampled_from(TP_SIZES))
    @settings(max_examples=40, deadline=None)
    def test_float_time_traces_within_tolerance(self, per_seed_runs, tp_size):
        timelines = [
            _timeline(24, float(DURATION), [(n, s, min(s + d, DURATION)) for n, s, d in runs])
            for runs in per_seed_runs
        ]
        batch = TraceBatch.from_timelines(timelines)
        for architecture in ARCHITECTURES:
            series = replay_batch(architecture, batch, tp_size)
            for index, timeline in enumerate(timelines):
                ref = replay_intervals(architecture, timeline, tp_size)
                got = series.seed(index)
                # Integer capacity columns are always exact; float columns
                # must agree to full precision (the pipeline reuses the
                # scalar sweep's boundary floats).
                assert np.array_equal(got.usable_gpus, ref.usable_gpus)
                assert np.array_equal(got.faulty_gpus, ref.faulty_gpus)
                for a, b in zip(got.starts_hours, ref.starts_hours, strict=True):
                    assert math.isclose(a, b, rel_tol=0.0, abs_tol=0.0) or a == b
                for a, b in zip(got.waste_ratios, ref.waste_ratios, strict=True):
                    assert math.isclose(a, b, rel_tol=1e-15, abs_tol=1e-15)

    @pytest.mark.parametrize("architecture", ARCHITECTURES, ids=_arch_id)
    def test_synthetic_batch_and_aggregates(self, architecture):
        batch = sample_trace_batch(
            BatchTraceConfig(n_seeds=4, n_nodes=64, duration_days=15, gpus_per_node=4, seed=9)
        )
        for tp_size in TP_SIZES:
            series = replay_batch(architecture, batch, tp_size)
            for index in range(batch.n_seeds):
                ref = replay_intervals(
                    architecture, batch.timeline_for_seed(index), tp_size
                )
                _assert_series_equal(series.seed(index), ref)
                _assert_aggregates_match_oracle(series, index, ref, 0.5, 0.99, 64)

    def test_infinitehbd_has_no_count_kernel(self):
        architecture = InfiniteHBDArchitecture(k=2, gpus_per_node=4)
        assert architecture.fault_count_decomposition(24, 8) is None
        assert kernel_for(architecture, 24, 8) is None

    def test_only_plugins_reach_the_scalar_fallback(self, monkeypatch):
        calls = []

        def counting_replay(architecture, timeline, tp_size):
            calls.append(architecture.name)
            return replay_intervals(architecture, timeline, tp_size)

        monkeypatch.setattr(mc_engine, "replay_intervals", counting_replay)
        batch = sample_trace_batch(
            BatchTraceConfig(n_seeds=3, n_nodes=32, duration_days=5, gpus_per_node=4, seed=4)
        )
        for architecture in ARCHITECTURES:
            replay_batch(architecture, batch, 8)
        assert calls == ["Prefix"] * batch.n_seeds


# One interval per entry: (duration, waste ratio, usable GPUs).  Small pools
# give tied values and zero-length intervals; the float draws give the rest.
interval_columns = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 24.0]), st.floats(0.0, 50.0)),
        st.one_of(st.sampled_from([0.0, 0.125, 0.25, 1.0 / 3.0]), st.floats(0.0, 1.0)),
        st.sampled_from([0, 16, 32, 48, 64, 128]),
    ),
    max_size=30,
)


def _series_from_columns(start_hours, columns):
    starts, ends = [], []
    hour = start_hours
    for duration, _, _ in columns:
        starts.append(hour)
        hour += duration
        ends.append(hour)
    return BatchSeries(
        starts_hours=np.array(starts, dtype=np.float64),
        ends_hours=np.array(ends, dtype=np.float64),
        waste_ratios=np.array([waste for _, waste, _ in columns], dtype=np.float64),
        usable_gpus=np.array([usable for _, _, usable in columns], dtype=np.int64),
        faulty_gpus=np.zeros(len(columns), dtype=np.int64),
        interval_offsets=np.array([0, len(columns)], dtype=np.int64),
        total_gpus=128,
    )


class TestAggregateOracle:
    """``BatchSeries`` aggregates vs the oracle on arbitrary interval columns."""

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1000.0), interval_columns), min_size=1, max_size=4
        ),
        st.one_of(st.sampled_from([0.0, 0.5, 0.99, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(
            st.sampled_from([0.5, 0.99, 1.0]),
            st.floats(0.0, 1.0, exclude_min=True),
        ),
        st.sampled_from([0, 1, 16, 40, 64, 129]),
        st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_seed_matches_the_oracle(self, seeds, q, availability, job_gpus, window):
        series = [_series_from_columns(start, columns) for start, columns in seeds]
        batch = BatchSeries.concat(series)
        for index, ref in enumerate(series):
            _assert_aggregates_match_oracle(
                batch, index, ref, q, availability, job_gpus, window
            )

    def test_empty_series(self):
        empty = _series_from_columns(0.0, [])
        batch = BatchSeries.concat([empty, empty])
        _assert_aggregates_match_oracle(batch, 1, empty, 0.5, 0.9, 16)
        assert batch.mean_waste_ratios() == [0.0, 0.0]
        assert empty.supported_job_scales(1.0) == [0]
        # Validation comes first: an empty series rejects a bad availability
        # instead of answering 0.
        with pytest.raises(ValueError, match="availability"):
            empty.supported_job_scales(0.0)

    def test_seed_slices_and_concat_restacks(self):
        parts = [
            _series_from_columns(0.0, [(1.0, 0.25, 16), (2.0, 0.0, 32)]),
            _series_from_columns(0.0, []),
            _series_from_columns(5.0, [(0.5, 1.0, 0)]),
        ]
        batch = BatchSeries.concat([parts[0], BatchSeries.concat(parts[1:])])
        assert batch.n_seeds == 3
        assert batch.interval_offsets.tolist() == [0, 2, 2, 3]
        for index, part in enumerate(parts):
            _assert_series_equal(batch.seed(index), part)
        assert np.shares_memory(batch.seed(2).starts_hours, batch.starts_hours)
        _assert_series_equal(BatchSeries.concat([batch.seed(i) for i in range(3)]), batch)
        for index in (3, -1):
            with pytest.raises(IndexError):
                batch.seed(index)
        with pytest.raises(ValueError, match="total_gpus"):
            BatchSeries.concat([parts[0], dataclasses.replace(parts[1], total_gpus=64)])


class TestSegmentPass:
    """Edge cases of InfiniteHBD's K-hop segment pass."""

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 5])
    def test_tiny_rings_and_lines(self, n_nodes):
        last = n_nodes - 1
        runs = [
            (last, 0, 12),  # down from t=0 ...
            (0, 0, 6),  # ... next to node 0: one run across the wrap
            (1 % n_nodes, 3, 9),  # grows the wrap run to three nodes
            *[(node, 20, 30) for node in range(n_nodes)],  # every node down
            (last // 2, 26, 40),
        ]
        timeline = _timeline(n_nodes, float(DURATION), runs)
        assert timeline.intervals[0].start_hour == 0.0 and timeline.intervals[0].nodes
        assert any(len(interval.nodes) == n_nodes for interval in timeline.intervals)
        batch = TraceBatch.from_timelines([timeline, _timeline(n_nodes, float(DURATION), [])])
        for k in range(1, 7):  # K < n, K == n and K > n
            for ring in (True, False):
                architecture = InfiniteHBDArchitecture(k=k, gpus_per_node=4, ring=ring)
                for tp_size in (4, 8, 16):
                    series = replay_batch(architecture, batch, tp_size)
                    _assert_series_equal(
                        series.seed(0),
                        replay_intervals(architecture, timeline, tp_size),
                    )
                    assert series.usable_gpus[-1] == (n_nodes * 4 // tp_size) * tp_size

    def test_wrap_run_is_one_cut(self):
        # Nodes 7 and 0 are one K=2 run across the wrap; with {3, 4} the
        # ring splits into [1, 2] and [5, 6], too short for a 4-node group.
        runs = [(7, 0, 10), (0, 0, 10), (3, 2, 10), (4, 2, 10)]
        timeline = _timeline(8, float(DURATION), runs)
        batch = TraceBatch.from_timelines([timeline])
        architecture = InfiniteHBDArchitecture(k=2, gpus_per_node=4)
        series = replay_batch(architecture, batch, 16)
        assert series.usable_gpus.tolist() == [16, 0, 32]
        _assert_series_equal(
            series.seed(0), replay_intervals(architecture, timeline, 16)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=1, max_value=4),
        ring=st.booleans(),
        tp_size=st.sampled_from((2, 4, 8, 16)),
        initial=st.sets(st.integers(min_value=0, max_value=39), max_size=12),
        flips=st.lists(st.integers(min_value=0, max_value=39), max_size=60),
    )
    def test_random_flip_walk_matches_scalar(self, n, k, ring, tp_size, initial, flips):
        """A random walk of single-node flips, one per hour, on one seed.

        Each flip merges or splits runs around one node, so the walk covers
        wrap-around runs, bridged runs turning into cuts and back, and the
        ring with no breakpoint, across K, ring/line mode and TP sizes.
        """
        failed_at = {node: 0 for node in initial if node < n}
        runs = []
        for hour, node in enumerate(flips, start=1):
            node %= n
            if node in failed_at:
                runs.append((node, failed_at.pop(node), hour))
            else:
                failed_at[node] = hour
        end = len(flips) + 1
        runs.extend((node, start, end) for node, start in failed_at.items())
        timeline = _timeline(n, float(end), runs)
        architecture = InfiniteHBDArchitecture(k=k, gpus_per_node=4, ring=ring)
        series = replay_batch(architecture, TraceBatch.from_timelines([timeline]), tp_size)
        _assert_series_equal(
            series.seed(0), replay_intervals(architecture, timeline, tp_size)
        )

    @pytest.mark.parametrize("ring", [True, False])
    def test_chunked_pass_matches_single_chunk(self, monkeypatch, ring):
        architecture = InfiniteHBDArchitecture(k=2, gpus_per_node=4, ring=ring)
        batch = sample_trace_batch(
            BatchTraceConfig(n_seeds=5, n_nodes=64, duration_days=15, gpus_per_node=4, seed=9)
        )
        whole = replay_batch(architecture, batch, 16)
        chunks = []
        segment_groups = mc_engine._segment_groups

        def counting_groups(*args):
            chunks.append(len(args[3]))
            return segment_groups(*args)

        monkeypatch.setattr(mc_engine, "_segment_groups", counting_groups)
        monkeypatch.setattr(mc_engine, "_SEGMENT_CHUNK_ENTRIES", 1)
        chunked = replay_batch(architecture, batch, 16)
        assert len(chunks) == batch.n_seeds  # every seed is its own chunk
        assert sum(chunks) == len(whole)
        for column in (
            "starts_hours",
            "ends_hours",
            "waste_ratios",
            "usable_gpus",
            "faulty_gpus",
            "interval_offsets",
        ):
            assert np.array_equal(getattr(chunked, column), getattr(whole, column))


class TestCorrelatedDifferential:
    """Correlated traces are ordinary traces to the batched engine.

    The overlay emits plain per-node events, so a correlated timeline must
    replay through ``replay_batch`` bit-for-bit equal to the scalar
    ``replay_intervals`` on every registry architecture -- same contract as
    the independent generator, no special-casing anywhere downstream.
    """

    def _correlated_timelines(self, correlations, seed=11):
        from repro.faults.correlated import CorrelatedFaultConfig, generate_correlated_trace
        from repro.faults.synthetic import SyntheticTraceConfig

        return [
            generate_correlated_trace(
                CorrelatedFaultConfig(
                    base=SyntheticTraceConfig(
                        n_nodes=64, duration_days=20, gpus_per_node=4, seed=seed
                    ),
                    correlation=c,
                    domain_rate_per_day=1.0,
                )
            ).interval_timeline()
            for c in correlations
        ]

    def test_correlated_batch_bit_for_bit_across_registry(self):
        timelines = self._correlated_timelines((0.0, 0.5, 1.0))
        batch = TraceBatch.from_timelines(timelines)
        for architecture in ARCHITECTURES:
            for tp_size in TP_SIZES:
                series = replay_batch(architecture, batch, tp_size)
                for index, timeline in enumerate(timelines):
                    ref = replay_intervals(architecture, timeline, tp_size)
                    _assert_series_equal(series.seed(index), ref)

    def test_correlation_zero_timeline_equals_independent(self):
        from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace

        zero = self._correlated_timelines((0.0,))[0]
        independent = generate_synthetic_trace(
            SyntheticTraceConfig(n_nodes=64, duration_days=20, gpus_per_node=4, seed=11)
        ).interval_timeline()
        assert zero.intervals == independent.intervals
        assert np.array_equal(zero.event_log, independent.event_log)


class TestFaultCountDecompositions:
    @given(
        st.integers(min_value=1, max_value=300).flatmap(
            lambda n: st.tuples(
                st.just(n), st.sets(st.integers(min_value=0, max_value=n + 2), max_size=40)
            )
        ),
        st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256]),
    )
    @settings(max_examples=120, deadline=None)
    def test_decomposition_matches_usable_gpus(self, n_and_faults, tp_size):
        # Sizes that leave partial cubes and units, or no complete one, and
        # ids past the last node, which usable_gpus ignores.
        n_nodes, faults = n_and_faults
        in_range = {node for node in faults if node < n_nodes}
        for architecture in (*ARCHITECTURES, NVLHBD(576, 4)):
            decomposition = architecture.fault_count_decomposition(n_nodes, tp_size)
            if decomposition is None:
                continue
            expected = architecture.usable_gpus(n_nodes, faults, tp_size)
            assert decomposition.usable_gpus(in_range) == expected, architecture.name


class TestEventLogCanonical:
    def test_intervals_round_trip_through_the_log(self):
        timeline = _timeline(24, 48.0, [(3, 1, 7), (3, 5, 12), (9, 0, 48), (11, 47, 48)])
        rebuilt = event_log_from_intervals(timeline.intervals)
        assert np.array_equal(rebuilt, timeline.event_log)

    def test_batch_timeline_for_seed_round_trips(self):
        timeline = _timeline(24, 48.0, [(1, 2, 9), (5, 9, 20), (1, 8, 10)])
        batch = TraceBatch.from_timelines([timeline])
        recovered = batch.timeline_for_seed(0)
        assert recovered.intervals == timeline.intervals
        assert np.array_equal(recovered.event_log, timeline.event_log)


class TestSeedStats:
    def test_stddev_is_zero_when_seeds_share_a_trace(self):
        timeline = _timeline(24, 48.0, [(2, 1, 10), (7, 5, 30)])
        batch = TraceBatch.from_timelines([timeline, timeline, timeline])
        series = replay_batch(NVLHBD(72, 4), batch, 32)
        means = series.mean_waste_ratios()
        assert means[0] == means[1] == means[2]
        stats = seed_stats(means)
        assert stats.stddev == 0.0
        assert stats.ci95 == 0.0
        assert stats.mean == means[0]
        assert stats.n_seeds == 3

    def test_single_seed_degrades_to_point_estimate(self):
        stats = seed_stats([0.25])
        assert (stats.mean, stats.stddev, stats.ci95, stats.n_seeds) == (0.25, 0.0, 0.0, 1)

    def test_spread_matches_textbook_formulas(self):
        values = [1.0, 2.0, 4.0]
        stats = seed_stats(values)
        assert stats.mean == pytest.approx(7.0 / 3.0)
        variance = sum((v - stats.mean) ** 2 for v in values) / 2
        assert stats.stddev == pytest.approx(math.sqrt(variance))
        assert stats.ci95 == pytest.approx(1.96 * stats.stddev / math.sqrt(3))


# --------------------------------------------------------------------------
# spec / runner plumbing
# --------------------------------------------------------------------------
SWEEP_EXPERIMENTS = (
    "waste", "max_job_scale", "fault_waiting", "goodput", "schedule", "blast_radius"
)


def _sweep_spec(num_seeds=1, experiments=SWEEP_EXPERIMENTS, options=None):
    """Three architectures x two TP sizes on 144 nodes over 20 days."""
    return ExperimentSpec.of(
        scenario=Scenario(
            name="sweep",
            trace=TraceSpec(days=20, seed=348),
            architectures=(
                ArchitectureSpec(name="InfiniteHBD(K=2)"),
                ArchitectureSpec(name="NVL-72"),
                ArchitectureSpec(name="TPUv4"),
            ),
            tp_sizes=(16, 32),
            n_nodes=144,
            job_gpus=256,
            workload=WorkloadSpec(n_jobs=20, seed=3),
        ),
        experiments=experiments,
        options=options,
        max_workers=1,
        num_seeds=num_seeds,
    )


def _at_seed(spec, seed):
    """``spec`` as a single-seed run at trace seed ``seed``."""
    trace = dataclasses.replace(spec.scenario.trace, seed=seed)
    scenario = dataclasses.replace(spec.scenario, trace=trace)
    return dataclasses.replace(spec, scenario=scenario, num_seeds=1)


def _spec(num_seeds=1, experiments=("waste",)):
    return ExperimentSpec.of(
        scenario=Scenario(
            name="mc",
            trace=TraceSpec(days=4, seed=5),
            architectures=(
                ArchitectureSpec(name="Big-Switch"),
                ArchitectureSpec(name="NVL-72"),
            ),
            tp_sizes=(32,),
            n_nodes=192,
        ),
        experiments=experiments,
        options={"goodput": {"job_gpus": 256}} if "goodput" in experiments else None,
        max_workers=1,
        num_seeds=num_seeds,
    )


class TestSpecPlumbing:
    def test_single_seed_digest_is_unchanged(self):
        spec = _spec(num_seeds=1)
        assert "num_seeds" not in spec.to_dict()
        # A pre-num_seeds spec file (no such key) parses to the same digest.
        assert ExperimentSpec.from_dict(spec.to_dict()).digest() == spec.digest()

    def test_multi_seed_round_trips_and_changes_digest(self):
        spec = _spec(num_seeds=5)
        assert spec.to_dict()["num_seeds"] == 5
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.digest() != _spec(num_seeds=1).digest()

    def test_num_seeds_must_be_positive(self):
        with pytest.raises(ValueError, match="num_seeds"):
            _spec(num_seeds=0)

    def test_runner_override_becomes_the_effective_spec(self):
        runner = ExperimentRunner(_spec(num_seeds=1), num_seeds=3)
        assert runner.spec.num_seeds == 3
        assert runner.spec.digest() == _spec(num_seeds=3).digest()


class TestRunnerMonteCarlo:
    def test_multi_seed_results_grow_stats_columns(self):
        results = ExperimentRunner(_spec(num_seeds=3)).run()
        assert len(results) == 2
        for result in results:
            metrics = result.metrics_dict
            assert metrics["num_seeds"] == 3
            for name in ("mean_waste_ratio", "p99_waste_ratio", "min_usable_gpus"):
                assert f"{name}_mean" in metrics
                assert f"{name}_stddev" in metrics
                assert f"{name}_ci95" in metrics
                stats = result.metric_stats(name)
                assert stats["n_seeds"] == 3
                assert stats["stddev"] >= 0.0
            # Cluster constants keep their exact single-seed value and type.
            assert isinstance(metrics["total_gpus"], int)

    def test_single_seed_results_have_no_stats_columns(self):
        results = ExperimentRunner(_spec(num_seeds=1)).run()
        for result in results:
            metrics = result.metrics_dict
            assert "num_seeds" not in metrics
            assert not any(key.endswith("_stddev") for key in metrics)
            stats = result.metric_stats("mean_waste_ratio")
            assert stats["stddev"] == 0.0
            assert stats["n_seeds"] == 1

    def test_seed_stats_and_series_match_single_seed_runs(self):
        """Per-seed values are what single-seed runs at s, s+1, s+2 produce."""
        # A 512-GPU goodput job waits on some seeds and not on others, so a
        # capacity column handed to the wrong seed would show.
        spec = _sweep_spec(
            num_seeds=3,
            experiments=("waste", "max_job_scale", "fault_waiting", "goodput"),
            options={"goodput": {"job_gpus": 512}},
        )
        multi = ExperimentRunner(spec).run()
        base_seed = spec.scenario.trace.seed
        singles = [
            ExperimentRunner(_at_seed(spec, base_seed + offset)).run() for offset in range(3)
        ]
        checked = set()
        for index, many in enumerate(multi):
            # The emitted series is always the base (spec) seed's.
            assert many.series == singles[0][index].series
            for name in (
                "mean_waste_ratio",
                "p99_waste_ratio",
                "min_usable_gpus",
                "max_job_scale",
                "fault_waiting_rate",
                "goodput",
                "waiting_fraction",
                "job_impacting_faults",
            ):
                if name not in many.metrics_dict:
                    continue
                stats = seed_stats([float(single[index].metric(name)) for single in singles])
                assert many.metric(f"{name}_mean") == stats.mean
                assert many.metric(f"{name}_stddev") == stats.stddev
                checked.add(name)
        assert len(checked) == 8

    def test_stats_table_shape(self):
        table = ExperimentRunner(_spec(num_seeds=2)).run().stats_table(
            "waste", "mean_waste_ratio"
        )
        assert set(table) == {"Big-Switch", "NVL-72"}
        cell = table["NVL-72"][32]
        assert set(cell) == {"mean", "stddev", "ci95", "n_seeds"}
        assert cell["n_seeds"] == 2


class TestInterpreterIndependence:
    """Results must not depend on how builtin ``sum()`` rounds floats.

    CPython >= 3.12 compensates float rounding in ``sum()``; a ``math.fsum``
    stand-in for float inputs plays that part here on any interpreter, and
    int inputs go through the real ``sum()``.
    """

    @staticmethod
    def _fresh_run(monkeypatch, spec):
        # Traces and their timelines are rebuilt, so the stand-in reaches them too.
        monkeypatch.setattr(spec_module, "_TRACE_CACHE", {})
        return ExperimentRunner(spec).run().to_json()

    @pytest.mark.parametrize("num_seeds", [1, 3])
    def test_results_do_not_depend_on_builtin_sum(self, monkeypatch, num_seeds):
        spec = _sweep_spec(num_seeds=num_seeds)
        plain = self._fresh_run(monkeypatch, spec)
        real_sum = builtins.sum

        def compensated_sum(iterable, /, start=0):
            items = list(iterable)
            if any(isinstance(item, float) for item in items):
                return math.fsum([start, *items])
            return real_sum(items, start)

        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert self._fresh_run(monkeypatch, spec) == plain
