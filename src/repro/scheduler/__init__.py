"""Multi-job cluster scheduling over the exact fault timeline.

This package turns the per-architecture metric replays into a cluster
workload simulator: a queue of jobs (Poisson arrivals, heavy-tailed sizes
and durations) competes for the piecewise-constant usable capacity that an
HBD architecture preserves under faults.

* :mod:`repro.scheduler.jobs` -- :class:`JobSpec` (frozen job description)
  and :class:`JobReport` (per-job outcome; productive + waiting + restart
  hours partition the job's wall-clock time).
* :mod:`repro.scheduler.policies` -- pluggable policies: FIFO,
  smallest-job-first, shortest-remaining-work, Tiresias-style Gittins
  attained-service queues, Horus-style k-job look-ahead scoring and an
  AdaptDL-style global re-allocation optimizer, each with or without
  preemption.
* :mod:`repro.scheduler.placement` -- node-placement policies (packed /
  spread) for placed mode, where jobs hold concrete node ids and fault
  hits are deterministic.
* :mod:`repro.scheduler.engine` -- :class:`ClusterScheduler`, the
  event-driven sweep merging fault-interval boundaries with job events,
  with optional node-level placement and EASY backfill.
* :mod:`repro.scheduler.workload` -- the synthetic workload generator.
* :mod:`repro.scheduler.report` -- :class:`ClusterReport` (makespan, JCT
  distribution, queueing delay, cluster goodput).

The single-job goodput replay (:class:`repro.simulation.goodput.
GoodputSimulator`) is a thin wrapper over this engine.
"""

from repro.scheduler.engine import ClusterScheduler
from repro.scheduler.jobs import JobReport, JobSpec
from repro.scheduler.placement import (
    PLACEMENT_NAMES,
    PackedPlacement,
    PlacementPolicy,
    SpreadPlacement,
    placement_by_name,
)
from repro.scheduler.policies import (
    FifoPolicy,
    GittinsPolicy,
    LookaheadPolicy,
    OptimizerPolicy,
    POLICY_NAMES,
    SchedulingPolicy,
    ShortestRemainingPolicy,
    SmallestFirstPolicy,
    policy_by_name,
)
from repro.scheduler.report import ClusterReport
from repro.scheduler.workload import WorkloadConfig, generate_workload

__all__ = [
    "ClusterReport",
    "ClusterScheduler",
    "FifoPolicy",
    "GittinsPolicy",
    "JobReport",
    "JobSpec",
    "LookaheadPolicy",
    "OptimizerPolicy",
    "PLACEMENT_NAMES",
    "POLICY_NAMES",
    "PackedPlacement",
    "PlacementPolicy",
    "SchedulingPolicy",
    "ShortestRemainingPolicy",
    "SmallestFirstPolicy",
    "SpreadPlacement",
    "WorkloadConfig",
    "generate_workload",
    "placement_by_name",
    "policy_by_name",
]
