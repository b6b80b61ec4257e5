"""Result cache: a warm cached sweep vs the cold run that fills the cache.

The gated workload is a 348-day 4-GPU trace on 720 nodes, the
8-architecture line-up at TP=32: the full 3-seed Monte-Carlo waste sweep
with ``cache="disk"`` run twice against an empty cache directory.  The cold
run pays for per-seed trace sampling, timeline sweeps and the batched
replay -- everything a cache hit skips; the warm run serves every task from
the content-addressed store and must be >= 10x faster, with bit-for-bit
identical results.
"""

import json
import time

from conftest import SIM_NODES_4GPU, emit_report, format_table

from repro.api import ExperimentRunner, ExperimentSpec, Scenario, TraceSpec
from repro.cache import clear_memory_cache

TP_SIZE = 32
MIN_WARM_SPEEDUP = 10.0
NUM_SEEDS = 3


def _bench_spec():
    return ExperimentSpec.of(
        scenario=Scenario.default(
            "runner-cache",
            trace=TraceSpec(days=348, seed=348, gpus_per_node=4),
            tp_sizes=(TP_SIZE,),
            n_nodes=SIM_NODES_4GPU,
        ),
        experiments=("waste",),
        cache="disk",
        num_seeds=NUM_SEEDS,
    )


def test_warm_cache_beats_cold_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memory_cache()
    spec = _bench_spec()

    start = time.perf_counter()
    cold = ExperimentRunner(spec, max_workers=1).run()
    cold_seconds = time.perf_counter() - start

    clear_memory_cache()  # the warm run must prove the *disk* tier, not the LRU
    start = time.perf_counter()
    warm = ExperimentRunner(spec, max_workers=1).run()
    warm_seconds = time.perf_counter() - start
    speedup = cold_seconds / max(warm_seconds, 1e-9)

    # Cached results are bit-for-bit the fresh computation.
    assert cold.cache_stats.misses == len(cold) and cold.cache_stats.hits == 0
    assert warm.cache_stats.hits == len(warm) and warm.cache_stats.misses == 0
    assert warm.results == cold.results
    assert json.dumps([r.to_dict() for r in warm]) == json.dumps(
        [r.to_dict() for r in cold]
    )

    emit_report(
        "runner_cache",
        format_table(
            ["metric", "value"],
            [
                ["tasks", len(cold)],
                ["seeds per task", NUM_SEEDS],
                ["cold sweep (s)", cold_seconds],
                ["warm cached sweep (s)", warm_seconds],
                ["speedup", speedup],
            ],
        ),
        gates=[
            (
                f"warm cached sweep >= {MIN_WARM_SPEEDUP:.0f}x cold",
                speedup,
                MIN_WARM_SPEEDUP,
                ">=",
            ),
        ],
    )
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm cached sweep only {speedup:.1f}x faster than cold"
    )

