"""Batched Monte-Carlo replay engine (seeds x scenarios in one pass).

Every paper figure used to come from a single trace seed.  This package
replays a whole block of seeds at once over the shared columnar event log
(:mod:`repro.faults.events`), so per-metric variance -- the substrate for
mean / stddev / CI columns on every figure -- costs one vectorized pass
instead of N independent Python sweeps:

* :class:`TraceBatch` stacks per-seed event logs
  (:meth:`~repro.mc.batch.TraceBatch.from_timelines` for exact runner
  seeds, :func:`sample_trace_batch` for single-draw synthetic blocks);
* :func:`replay_batch` replays the block against one architecture via its
  fault-count kernel (:mod:`repro.mc.kernels`) or, for InfiniteHBD, a K-hop
  segment pass, falling back to the exact scalar replay per seed for any
  other architecture without a kernel -- per-seed series are bit-for-bit
  the scalar ``replay_intervals`` output every way;
* :class:`BatchSeries`, its result and the scalar ``replay_intervals``'s
  one-seed result, is the one implementation of the capacity aggregates for
  one seed or many, with every sum a left fold in interval order;
* :func:`seed_stats` reduces per-seed metric values to the mean / stddev /
  CI columns ``ExperimentRunner(num_seeds=N)`` reports.
"""

from repro.mc.batch import BatchTraceConfig, TraceBatch, sample_trace_batch
from repro.mc.engine import BatchSeries, replay_batch
from repro.mc.kernels import AdditiveKernel, HealthyGroupsKernel, kernel_for
from repro.mc.stats import SeedStats, seed_stats

__all__ = [
    "AdditiveKernel",
    "BatchSeries",
    "BatchTraceConfig",
    "HealthyGroupsKernel",
    "SeedStats",
    "TraceBatch",
    "kernel_for",
    "replay_batch",
    "sample_trace_batch",
    "seed_stats",
]
