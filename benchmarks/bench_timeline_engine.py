"""Timeline engine: exact event-driven replay vs the seed's grid-sampled replay.

The seed computed every trace-driven metric by sampling the fault trace on a
fixed grid, with a full O(n_events) scan per sample -- O(samples x events)
total.  The event-driven engine sweeps the trace once into its exact interval
timeline and replays O(intervals) memoized breakdowns, independent of the
sampling resolution, and its aggregates are exact (duration-weighted) rather
than grid-dependent.

This benchmark replays a 90-day, 5,000-node trace at the seed's hourly
resolution both ways and asserts the exact path wins by >= 5x while agreeing
on the replayed metrics (the synthetic trace is day-granular, so the hourly
grid mean is already exact and the two paths must coincide).

The second benchmark gates the *incremental* layer on top of the exact
engine: on a 1-year, 10,000-node sub-hourly trace almost every interval has
a distinct fault set, so the memoized full-recompute replay pays
O(n_nodes) per interval while the delta walk
(``architecture.breakdown_delta``) pays O(events at the boundary).  The
delta replay must win by >= 3x while agreeing bit-for-bit.
"""

import time

import numpy as np
from conftest import emit_report, format_table

from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.faults.trace import FaultEvent, FaultTrace, HOURS_PER_DAY
from repro.hbd import NVLHBD
from repro.simulation.cluster import replay_intervals

N_NODES = 5000
DURATION_DAYS = 90
TP_SIZE = 32
SAMPLE_INTERVAL_HOURS = 1.0
MIN_SPEEDUP = 5.0

DELTA_N_NODES = 10_000
DELTA_DURATION_DAYS = 365
DELTA_N_EVENTS = 6_000
MIN_DELTA_SPEEDUP = 3.0


def _seed_grid_replay(arch, trace):
    """The seed algorithm: per-sample trace scans + one breakdown per sample."""
    times = trace.sample_times(SAMPLE_INTERVAL_HOURS)
    waste_ratios = []
    usable = []
    for t in times:
        fault_set = frozenset(e.node_id for e in trace.events if e.active_at(t))
        breakdown = arch.breakdown(trace.n_nodes, fault_set, TP_SIZE)
        waste_ratios.append(breakdown.waste_ratio)
        usable.append(breakdown.usable_gpus)
    return waste_ratios, usable


def _exact_replay(arch, trace):
    # First call pays the (cached thereafter) O(events log events) sweep.
    return replay_intervals(arch, trace.interval_timeline(), TP_SIZE)


def test_timeline_engine_speedup(benchmark):
    trace = generate_synthetic_trace(
        SyntheticTraceConfig(n_nodes=N_NODES, duration_days=DURATION_DAYS, seed=90)
    )
    arch = NVLHBD(72, gpus_per_node=8)

    start = time.perf_counter()
    grid_waste, grid_usable = _seed_grid_replay(arch, trace)
    seed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    series = _exact_replay(arch, trace)
    exact_seconds = time.perf_counter() - start
    speedup = seed_seconds / max(exact_seconds, 1e-9)

    # Report the (cached-sweep) steady-state replay through the bench harness.
    benchmark.pedantic(
        _exact_replay, rounds=1, iterations=1, args=(arch, trace)
    )

    grid_mean = sum(grid_waste) / len(grid_waste)
    text = format_table(
        ["metric", "value"],
        [
            ["trace nodes (8-GPU)", trace.n_nodes],
            ["trace days", trace.duration_days],
            ["fault events", len(trace)],
            ["exact intervals", len(series)],
            ["grid samples (hourly)", len(grid_waste)],
            ["seed grid replay (s)", seed_seconds],
            ["exact interval replay (s)", exact_seconds],
            ["speedup", speedup],
            ["exact mean waste", series.mean_waste_ratio],
            ["exact p99 waste", series.p99_waste_ratio],
            ["exact min usable GPUs", series.min_usable_gpus],
        ],
    )
    emit_report(
        "timeline_engine",
        text,
        gates=[
            ("exact replay >= 5x seed grid scan", speedup, MIN_SPEEDUP, ">="),
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        f"exact replay only {speedup:.1f}x faster than the seed grid path"
    )
    # The synthetic trace is day-granular, so the hourly grid misses nothing:
    # both paths must agree exactly on the replayed aggregates.
    assert series.mean_waste_ratio == grid_mean or abs(
        series.mean_waste_ratio - grid_mean
    ) < 1e-12
    assert series.min_usable_gpus == min(grid_usable)


def _subhourly_trace(n_nodes, duration_days, n_events, seed):
    """Production-style sub-hourly trace: float start times, short repairs."""
    duration_hours = duration_days * HOURS_PER_DAY
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, duration_hours, n_events)
    repairs = rng.exponential(4.0, n_events) + 0.05
    nodes = rng.integers(0, n_nodes, n_events)
    events = [
        FaultEvent(
            node_id=int(node),
            start_hour=float(start),
            end_hour=float(min(start + repair, duration_hours)),
        )
        for node, start, repair in zip(nodes, starts, repairs)
    ]
    return FaultTrace(
        n_nodes=n_nodes, duration_days=duration_days, events=events, gpus_per_node=8
    )


def test_delta_replay_speedup(benchmark):
    trace = _subhourly_trace(
        DELTA_N_NODES, DELTA_DURATION_DAYS, DELTA_N_EVENTS, seed=365
    )
    arch = NVLHBD(72, gpus_per_node=8)
    timeline = trace.interval_timeline()  # swept once, shared by both paths

    start = time.perf_counter()
    full = replay_intervals(arch, timeline, TP_SIZE, incremental=False)
    full_seconds = time.perf_counter() - start

    start = time.perf_counter()
    delta = replay_intervals(arch, timeline, TP_SIZE, incremental=True)
    delta_seconds = time.perf_counter() - start
    speedup = full_seconds / max(delta_seconds, 1e-9)

    benchmark.pedantic(
        replay_intervals,
        rounds=1,
        iterations=1,
        args=(arch, timeline, TP_SIZE),
        kwargs={"incremental": True},
    )

    text = format_table(
        ["metric", "value"],
        [
            ["trace nodes (8-GPU)", trace.n_nodes],
            ["trace days", trace.duration_days],
            ["fault events", len(trace.events)],
            ["exact intervals", len(timeline)],
            ["distinct fault sets", len(set(i.nodes for i in timeline))],
            ["full-recompute replay (s)", full_seconds],
            ["delta replay (s)", delta_seconds],
            ["speedup", speedup],
            ["mean waste", delta.mean_waste_ratio],
            ["p99 waste", delta.p99_waste_ratio],
            ["min usable GPUs", delta.min_usable_gpus],
        ],
    )
    emit_report(
        "delta_replay",
        text,
        gates=[
            ("NVL delta replay >= 3x full recompute", speedup, MIN_DELTA_SPEEDUP, ">="),
        ],
    )

    # Correctness first: the delta walk must be bit-for-bit the full replay.
    assert delta == full
    assert speedup >= MIN_DELTA_SPEEDUP, (
        f"delta replay only {speedup:.1f}x faster than full recompute"
    )


def test_infinitehbd_delta_replay_speedup(benchmark):
    """The K-hop local update vs the full segment recompute.

    InfiniteHBD's ``usable_gpus`` rebuilds every healthy segment -- O(n)
    Python per interval -- while the local update only re-sweeps the faults
    between the breakpoints around each flipped node.  A smaller sub-hourly
    trace keeps the (gated, slow) full-recompute side affordable in CI.
    """
    from repro.hbd import InfiniteHBDArchitecture

    trace = _subhourly_trace(2000, 120, 2500, seed=120)
    arch = InfiniteHBDArchitecture(k=3, gpus_per_node=8)
    timeline = trace.interval_timeline()

    start = time.perf_counter()
    full = replay_intervals(arch, timeline, TP_SIZE, incremental=False)
    full_seconds = time.perf_counter() - start

    start = time.perf_counter()
    delta = replay_intervals(arch, timeline, TP_SIZE, incremental=True)
    delta_seconds = time.perf_counter() - start
    speedup = full_seconds / max(delta_seconds, 1e-9)

    benchmark.pedantic(
        replay_intervals,
        rounds=1,
        iterations=1,
        args=(arch, timeline, TP_SIZE),
        kwargs={"incremental": True},
    )

    text = format_table(
        ["metric", "value"],
        [
            ["trace nodes (8-GPU)", trace.n_nodes],
            ["trace days", trace.duration_days],
            ["fault events", len(trace.events)],
            ["exact intervals", len(timeline)],
            ["full-recompute replay (s)", full_seconds],
            ["K-hop local delta replay (s)", delta_seconds],
            ["speedup", speedup],
            ["mean waste", delta.mean_waste_ratio],
            ["min usable GPUs", delta.min_usable_gpus],
        ],
    )
    emit_report(
        "infinitehbd_delta_replay",
        text,
        gates=[
            (
                "InfiniteHBD K-hop delta >= 3x full recompute",
                speedup,
                MIN_DELTA_SPEEDUP,
                ">=",
            ),
        ],
    )

    assert delta == full
    assert speedup >= MIN_DELTA_SPEEDUP, (
        f"InfiniteHBD delta replay only {speedup:.1f}x faster than full recompute"
    )
