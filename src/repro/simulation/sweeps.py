"""Architecture comparison sweeps used by the benchmark harness.

These helpers glue together the fault substrate, the HBD architecture models
and the trace replay simulator to produce the exact data series behind the
paper's fault-resilience figures:

* :func:`architecture_comparison_over_trace` -- Figures 13, 20, 21
  (waste-ratio time series and CDFs over the production-style trace).
* :func:`waste_ratio_vs_fault_ratio` -- Figures 14 and 22 (i.i.d. fault-ratio
  sweep).
* :func:`max_job_scale_comparison` -- Figure 15.
* :func:`fault_waiting_comparison` -- Figures 16 and 23.

The trace-driven helpers sweep the trace once into a shared exact
:class:`~repro.faults.timeline.IntervalTimeline` and replay it serially
against every architecture with
:func:`~repro.simulation.cluster.replay_intervals` (each replay returns an
exact, duration-weighted :class:`~repro.simulation.cluster.IntervalSeries`).
Prefer :class:`repro.api.ExperimentRunner` for new code -- it adds
declarative specs, memoized traces, process parallelism and serializable
results.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.faults.model import IIDFaultModel
from repro.faults.trace import FaultTrace
from repro.hbd.base import HBDArchitecture
from repro.simulation.cluster import IntervalSeries, replay_intervals


def architecture_comparison_over_trace(
    architectures: Sequence[HBDArchitecture],
    trace: FaultTrace,
    tp_size: int,
    n_nodes: int | None = None,
) -> dict[str, IntervalSeries]:
    """Replay ``trace`` against every architecture for one TP size (exact)."""
    timeline = trace.interval_timeline(n_nodes)
    return {arch.name: replay_intervals(arch, timeline, tp_size) for arch in architectures}


def waste_ratio_vs_fault_ratio(
    architectures: Sequence[HBDArchitecture],
    n_nodes: int,
    tp_size: int,
    fault_ratios: Sequence[float],
    n_samples: int = 20,
    seed: int = 0,
) -> dict[str, list[float]]:
    """Mean GPU waste ratio versus node fault ratio (Figures 14 / 22)."""
    model = IIDFaultModel(n_nodes=n_nodes, seed=seed, n_samples=n_samples)
    results: dict[str, list[float]] = {}
    for arch in architectures:
        def metric(fault_set: set[int], _arch=arch) -> float:
            return _arch.waste_ratio(n_nodes, fault_set, tp_size)

        results[arch.name] = model.sweep(fault_ratios, metric)
    return results


def max_job_scale_comparison(
    architectures: Sequence[HBDArchitecture],
    trace: FaultTrace,
    tp_sizes: Sequence[int],
    n_nodes: int | None = None,
    availability: float = 1.0,
) -> dict[str, dict[int, int]]:
    """Maximum job scale (GPUs) supported through the trace (Figure 15)."""
    timeline = trace.interval_timeline(n_nodes)
    return {
        arch.name: {
            tp: replay_intervals(arch, timeline, tp).supported_job_scale(availability)
            for tp in tp_sizes
        }
        for arch in architectures
    }


def fault_waiting_comparison(
    architectures: Sequence[HBDArchitecture],
    trace: FaultTrace,
    tp_size: int,
    job_scales: Sequence[int],
    n_nodes: int | None = None,
) -> dict[str, dict[int, float]]:
    """Job fault-waiting rate versus job scale (Figures 16 / 23)."""
    comparison = architecture_comparison_over_trace(
        architectures, trace, tp_size, n_nodes=n_nodes
    )
    return {
        name: {scale: series.fault_waiting_rate(scale) for scale in job_scales}
        for name, series in comparison.items()
    }
