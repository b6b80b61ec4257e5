"""Trace-driven cluster simulation (section 6.2 metrics).

:func:`repro.simulation.cluster.replay_intervals` replays the exact interval
timeline of a node-fault trace against an HBD architecture model and returns
an :class:`~repro.simulation.cluster.IntervalSeries`, whose exact
duration-weighted aggregates are the fault-resilience metrics of the paper:
GPU waste ratio over time and as a CDF, the maximum supported job scale, and
the job fault-waiting rate.  :class:`~repro.simulation.goodput.
GoodputSimulator` replays one training job against the same timeline.  The
paper's trace-driven figures run both through :class:`repro.api.
ExperimentRunner`; :mod:`repro.simulation.sweeps` provides the i.i.d.
fault-ratio sweep (Figures 14 and 22).
"""

from repro.simulation.cluster import (
    IntervalSeries,
    replay_intervals,
)
from repro.simulation.goodput import (
    GoodputConfig,
    GoodputReport,
    GoodputSimulator,
)
from repro.simulation.schedule_sim import (
    LinkMap,
    ScheduleSimulator,
    Transfer,
    binary_exchange_schedule,
    ring_allreduce_schedule,
    simulate_degraded_ring,
)
from repro.simulation.sweeps import waste_ratio_vs_fault_ratio

__all__ = [
    "IntervalSeries",
    "replay_intervals",
    "GoodputConfig",
    "GoodputReport",
    "GoodputSimulator",
    "LinkMap",
    "ScheduleSimulator",
    "Transfer",
    "binary_exchange_schedule",
    "ring_allreduce_schedule",
    "simulate_degraded_ring",
    "waste_ratio_vs_fault_ratio",
]
