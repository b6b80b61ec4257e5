"""Training-job goodput over a fault trace.

The section 6.2 metrics measure *capacity* (how many GPUs could run TP
groups).  This module adds the job-centric view used when arguing about
end-to-end training efficiency: a single large job replayed against the fault
trace accumulates

* **productive time** -- enough healthy, non-fragmented GPUs are available;
* **waiting time** -- usable capacity fell below the job size (the
  fault-waiting behaviour of Figure 16);
* **restart overhead** -- every fault that hits the job's allocation costs
  the work since the last checkpoint plus a fixed restart time.

Goodput is productive time net of restart losses over the wall-clock
duration.  Architectures only differ through their usable-capacity function,
so the comparison isolates the effect of fault isolation and fragmentation.

:class:`GoodputSimulator` is a thin wrapper over the multi-job cluster
scheduler (:class:`repro.scheduler.ClusterScheduler`): the single job is the
special case of a one-element workload with unbounded work and the trace
window as the horizon.  The engine walks the exact interval timeline
(:class:`repro.faults.timeline.IntervalTimeline`), so productive / waiting
hours are exact interval durations, a fault arrival is observed exactly once
(at the interval boundary where it starts), faults already active at t=0 are
never charged as job-impacting restarts, and the expected number of
job-impacting faults accumulates as a float (``len(new_faults) * job_share``
per arrival).

The job depends on the architecture only through each interval's usable
GPUs, which a capacity replay of the same cell has already computed.  A
caller holding that column (``replay_intervals(...).usable_gpus.tolist()``)
passes it as ``usable_gpus=`` and the scheduler reads it instead of
recomputing it; the experiment runner hands every goodput seed its column of
the run's shared capacity cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.faults.trace import FaultTrace
from repro.hbd.base import HBDArchitecture


@dataclass(frozen=True)
class GoodputConfig:
    """Parameters of the replayed training job."""

    job_gpus: int
    tp_size: int
    checkpoint_interval_hours: float = 1.0
    restart_overhead_hours: float = 0.25

    def __post_init__(self) -> None:
        if self.job_gpus < 1 or self.tp_size < 1:
            raise ValueError("job_gpus and tp_size must be positive")
        if self.job_gpus % self.tp_size:
            raise ValueError(
                f"job_gpus ({self.job_gpus}) must be a multiple of tp_size ({self.tp_size})"
            )
        if self.checkpoint_interval_hours <= 0:
            raise ValueError(
                f"checkpoint_interval_hours ({self.checkpoint_interval_hours}) must be positive"
            )
        if self.restart_overhead_hours < 0:
            raise ValueError(
                f"restart_overhead_hours ({self.restart_overhead_hours}) must be non-negative"
            )


@dataclass
class GoodputReport:
    """Outcome of one goodput replay.

    ``job_impacting_faults`` is the *expected* number of faults landing in
    the job's allocation (a float: each arrival contributes the job's share
    of the cluster).
    """

    total_hours: float
    productive_hours: float
    waiting_hours: float
    restart_hours: float
    job_impacting_faults: float

    @property
    def goodput(self) -> float:
        """Fraction of wall-clock time spent making training progress."""
        if self.total_hours == 0:
            return 0.0
        return max(0.0, self.productive_hours - self.restart_hours) / self.total_hours

    @property
    def waiting_fraction(self) -> float:
        if self.total_hours == 0:
            return 0.0
        return self.waiting_hours / self.total_hours


class GoodputSimulator:
    """Replay one job against a fault trace for a given HBD architecture.

    ``usable_gpus`` optionally gives the usable GPUs of each interval of
    ``trace.interval_timeline(n_nodes)`` at ``config.tp_size``, as a
    capacity replay computed them.  Each value must equal
    ``architecture.usable_gpus(n_nodes, interval.nodes, config.tp_size)``;
    the scheduler then reads the column instead of recomputing it, and the
    report is the same:

    >>> from repro.faults.trace import FaultEvent, FaultTrace
    >>> from repro.hbd import NVLHBD
    >>> from repro.simulation.cluster import replay_intervals
    >>> trace = FaultTrace(n_nodes=36, duration_days=2,
    ...                    events=[FaultEvent(3, 6.0, 30.0)], gpus_per_node=4)
    >>> nvl, config = NVLHBD(72), GoodputConfig(job_gpus=144, tp_size=8)
    >>> column = replay_intervals(nvl, trace.interval_timeline(), 8).usable_gpus.tolist()
    >>> column
    [144, 136, 144]
    >>> report = GoodputSimulator(nvl, trace, config).run()
    >>> report.waiting_hours
    24.0
    >>> GoodputSimulator(nvl, trace, config, usable_gpus=column).run() == report
    True
    """

    def __init__(
        self,
        architecture: HBDArchitecture,
        trace: FaultTrace,
        config: GoodputConfig,
        n_nodes: int | None = None,
        usable_gpus: Sequence[int] | None = None,
    ) -> None:
        if trace.gpus_per_node != architecture.gpus_per_node:
            raise ValueError("trace and architecture GPU-per-node mismatch")
        self.architecture = architecture
        self.config = config
        self.n_nodes = n_nodes if n_nodes is not None else trace.n_nodes
        if self.n_nodes > trace.n_nodes:
            raise ValueError("simulated cluster larger than the fault trace")
        # Keep the source trace: its per-size timeline cache is shared, so a
        # whole architecture line-up replays one swept timeline.
        self._source_trace = trace
        cluster_gpus = self.n_nodes * architecture.gpus_per_node
        if config.job_gpus > cluster_gpus:
            raise ValueError(
                f"job_gpus ({config.job_gpus}) larger than the cluster ({cluster_gpus} GPUs)"
            )
        self.usable_gpus = usable_gpus

    def run(self) -> GoodputReport:
        from repro.scheduler.engine import ClusterScheduler
        from repro.scheduler.jobs import JobSpec

        cfg = self.config
        timeline = self._source_trace.interval_timeline(self.n_nodes)
        job = JobSpec(
            name="goodput-job",
            gpus=cfg.job_gpus,
            tp_size=cfg.tp_size,
            work_hours=None,  # the job spans the whole trace window
            submit_hour=0.0,
            checkpoint_interval_hours=cfg.checkpoint_interval_hours,
            restart_overhead_hours=cfg.restart_overhead_hours,
        )
        usable = None if self.usable_gpus is None else {cfg.tp_size: self.usable_gpus}
        report = ClusterScheduler(
            self.architecture,
            timeline,
            [job],
            horizon_hours=timeline.duration_hours,
            usable_gpus=usable,
        ).run()
        outcome = report.jobs[0]

        # The engine splits allocated time into productive vs restarting;
        # the classic goodput accounting reports the whole allocated span as
        # productive and subtracts the *charged* restart debt (capped by the
        # time the job actually held an allocation) inside ``goodput``.
        productive = outcome.productive_hours + outcome.restart_hours
        return GoodputReport(
            total_hours=timeline.duration_hours,
            productive_hours=productive,
            waiting_hours=outcome.waiting_hours,
            restart_hours=min(outcome.restart_charged_hours, productive),
            job_impacting_faults=outcome.impacting_faults,
        )

