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
"""

import time

from conftest import emit_report, format_table

from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.hbd import NVLHBD
from repro.simulation.cluster import replay_intervals

N_NODES = 5000
DURATION_DAYS = 90
TP_SIZE = 32
SAMPLE_INTERVAL_HOURS = 1.0
MIN_SPEEDUP = 5.0


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
            ["exact mean waste", series.mean_waste_ratios()[0]],
            ["exact p99 waste", series.p99_waste_ratios()[0]],
            ["exact min usable GPUs", series.min_usable_gpus()[0]],
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
    exact_mean = series.mean_waste_ratios()[0]
    assert exact_mean == grid_mean or abs(exact_mean - grid_mean) < 1e-12
    assert series.min_usable_gpus()[0] == min(grid_usable)

