"""Monte-Carlo replay: one vectorized batch pass vs a loop of scalar replays.

A 100-seed uncertainty sweep used to mean 100 independent Python interval
replays.  ``repro.mc.replay_batch`` replays the whole seed block in one
vectorized pass over the stacked columnar event log, with per-seed results
bit-for-bit equal to the scalar ``replay_intervals`` output.  This benchmark
stacks 100 synthetic seeds and replays them both ways for two architectures,
one per vectorized pass, verifying the bit-for-bit contract for each:

* NVL-72 takes the count pass (segmented cumsums + per-domain table
  gathers), gated at >= 10x over the scalar loop;
* InfiniteHBD (K=2) takes the K-hop segment pass, gated at >= 5x over the
  scalar loop.

The scalar loop is ``replay_intervals``, the memoized full recompute that
single-seed runs replay every architecture with.

Trace sampling and the per-seed timeline materialisation both happen
*outside* the timed regions: the comparison is replay vs replay.
"""

import time

import numpy as np
import pytest
from conftest import emit_report, format_table

from repro.hbd import NVLHBD, InfiniteHBDArchitecture
from repro.mc import BatchTraceConfig, replay_batch, sample_trace_batch
from repro.simulation.cluster import replay_intervals

N_SEEDS = 100
N_NODES = 400
DURATION_DAYS = 348
TP_SIZE = 32
MIN_SPEEDUP = 10.0
MIN_INFINITEHBD_SPEEDUP = 5.0


def _scalar_loop(architecture, timelines):
    return [replay_intervals(architecture, tl, TP_SIZE) for tl in timelines]


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def seed_block():
    batch = sample_trace_batch(
        BatchTraceConfig(
            n_seeds=N_SEEDS,
            n_nodes=N_NODES,
            duration_days=DURATION_DAYS,
            gpus_per_node=8,
            seed=120,
        )
    )
    # Materialised outside the timed region: the scalar loop is charged for
    # its replays only, not for slicing timelines back out of the batch.
    timelines = [batch.timeline_for_seed(i) for i in range(batch.n_seeds)]
    return batch, timelines


def _replay_both_ways(benchmark, architecture, batch, timelines):
    """Time both paths, assert per-seed bit-for-bit equality; return the
    speedup and the report rows."""
    # Warm-up: one untimed pass each, so neither side is charged for
    # first-call setup (columnar caches, numpy kernel dispatch).
    scalar_series = _scalar_loop(architecture, timelines)
    batch_series = replay_batch(architecture, batch, TP_SIZE)

    scalar_seconds = min(
        _timed(_scalar_loop, architecture, timelines) for _ in range(3)
    )
    batch_seconds = min(
        _timed(replay_batch, architecture, batch, TP_SIZE) for _ in range(3)
    )
    speedup = scalar_seconds / max(batch_seconds, 1e-9)

    benchmark.pedantic(
        replay_batch, rounds=1, iterations=1, args=(architecture, batch, TP_SIZE)
    )

    # The whole point of the batched engine: per-seed bit-for-bit equality.
    for index, reference in enumerate(scalar_series):
        got = batch_series.seed(index)
        assert np.array_equal(got.starts_hours, reference.starts_hours)
        assert np.array_equal(got.ends_hours, reference.ends_hours)
        assert np.array_equal(got.waste_ratios, reference.waste_ratios)
        assert np.array_equal(got.usable_gpus, reference.usable_gpus)
        assert np.array_equal(got.faulty_gpus, reference.faulty_gpus)
    means = batch_series.mean_waste_ratios()
    assert all(
        means[i] == scalar_series[i].mean_waste_ratios()[0] for i in range(N_SEEDS)
    )

    rows = [
        ["architecture", architecture.name],
        ["seeds", N_SEEDS],
        ["trace nodes (8-GPU)", N_NODES],
        ["trace days", DURATION_DAYS],
        ["stacked events", len(batch.log)],
        ["stacked intervals", len(batch_series)],
        ["scalar loop (s)", scalar_seconds],
        ["batched pass (s)", batch_seconds],
        ["speedup", speedup],
        ["mean waste (seed 0)", means[0]],
        ["cross-seed mean waste", sum(means) / len(means)],
    ]
    return speedup, rows


def test_mc_replay_speedup(benchmark, seed_block):
    batch, timelines = seed_block
    speedup, rows = _replay_both_ways(
        benchmark, NVLHBD(72, gpus_per_node=8), batch, timelines
    )
    emit_report(
        "mc_replay",
        format_table(["metric", "value"], rows),
        gates=[
            (
                f"batched {N_SEEDS}-seed replay >= {MIN_SPEEDUP:.0f}x scalar loop",
                speedup,
                MIN_SPEEDUP,
                ">=",
            ),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched replay only {speedup:.1f}x faster than the scalar loop"
    )


def test_mc_replay_infinitehbd_speedup(benchmark, seed_block):
    batch, timelines = seed_block
    speedup, rows = _replay_both_ways(
        benchmark, InfiniteHBDArchitecture(k=2, gpus_per_node=8), batch, timelines
    )
    emit_report(
        "mc_replay_infinitehbd",
        format_table(["metric", "value"], rows),
        gates=[
            (
                f"InfiniteHBD(K=2) batched {N_SEEDS}-seed replay >= "
                f"{MIN_INFINITEHBD_SPEEDUP:.0f}x scalar loop",
                speedup,
                MIN_INFINITEHBD_SPEEDUP,
                ">=",
            ),
        ],
    )
    assert speedup >= MIN_INFINITEHBD_SPEEDUP, (
        f"batched InfiniteHBD replay only {speedup:.1f}x faster than the scalar loop"
    )
