"""Trace-driven cluster simulation (section 6.2 metrics).

:class:`repro.simulation.cluster.ClusterSimulator` replays a node-fault trace
against an HBD architecture model and produces the fault-resilience metrics
of the paper: GPU waste ratio over time and as a CDF, the maximum supported
job scale, and the job fault-waiting rate.  Replays are event-driven over the
exact interval timeline (:func:`repro.simulation.cluster.replay_intervals`).
:mod:`repro.simulation.sweeps` provides the fault-ratio sweep counterparts
(Figures 14 and 22) and the architecture comparison helpers used by the
benchmark harness.
"""

from repro.simulation.cluster import (
    ClusterSimulator,
    IntervalSeries,
    replay_intervals,
)
from repro.simulation.goodput import (
    GoodputConfig,
    GoodputReport,
    GoodputSimulator,
    goodput_comparison,
)
from repro.simulation.schedule_sim import (
    LinkMap,
    ScheduleSimulator,
    Transfer,
    binary_exchange_schedule,
    ring_allreduce_schedule,
    simulate_degraded_ring,
)
from repro.simulation.sweeps import (
    architecture_comparison_over_trace,
    waste_ratio_vs_fault_ratio,
    max_job_scale_comparison,
    fault_waiting_comparison,
)

__all__ = [
    "ClusterSimulator",
    "IntervalSeries",
    "replay_intervals",
    "GoodputConfig",
    "GoodputReport",
    "GoodputSimulator",
    "goodput_comparison",
    "LinkMap",
    "ScheduleSimulator",
    "Transfer",
    "binary_exchange_schedule",
    "ring_allreduce_schedule",
    "simulate_degraded_ring",
    "architecture_comparison_over_trace",
    "waste_ratio_vs_fault_ratio",
    "max_job_scale_comparison",
    "fault_waiting_comparison",
]
