"""Cluster-level outcome of one scheduler run.

:class:`ClusterReport` aggregates the per-job :class:`~repro.scheduler.jobs.
JobReport` records into the workload-level metrics the multi-job evaluation
is about: makespan, the JCT distribution, queueing delay, cluster goodput
(productive GPU-hours over the GPU-hours the cluster offered while the
workload was in flight), and finish-time fairness (the per-job slowdown
``rho`` with its max / mean and Jain's index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.cdf import left_sum
from repro.scheduler.jobs import JobReport


@dataclass(frozen=True)
class ClusterReport:
    """Aggregate outcome of replaying one workload on one architecture.

    >>> from repro.faults.trace import FaultTrace
    >>> from repro.hbd import BigSwitchHBD
    >>> from repro.scheduler.engine import ClusterScheduler
    >>> from repro.scheduler.jobs import JobSpec
    >>> trace = FaultTrace(n_nodes=8, duration_days=1, events=[], gpus_per_node=4)
    >>> jobs = [JobSpec(name=f"j{i}", gpus=16, tp_size=4, work_hours=2.0,
    ...                 submit_hour=float(i)) for i in range(3)]
    >>> report = ClusterScheduler(
    ...     BigSwitchHBD(4), trace.interval_timeline(), jobs).run()
    >>> (report.n_jobs, report.finished_jobs, report.all_finished)
    (3, 3, True)
    >>> report.makespan_hours   # two jobs always run side by side
    4.0
    >>> report.mean_jct_hours
    2.0
    >>> report.cluster_goodput  # 3 jobs x 2h x 16 GPUs / (32 GPUs x 4h)
    0.75
    """

    jobs: tuple[JobReport, ...]
    n_nodes: int
    total_gpus: int
    policy: str
    preemptive: bool
    horizon_hours: float
    #: Placement-policy name in placed mode, None for expected-value replay.
    placement: str | None = None
    #: Whether EASY backfilling past a blocked head was enabled.
    backfill: bool = False
    #: Fault transitions that brought down at least one new node (placed mode).
    fault_events: int = 0
    #: Running jobs descheduled by a direct fault hit, summed over transitions.
    jobs_killed: int = 0
    #: Most jobs any single fault transition descheduled at once.
    max_blast_radius: int = 0

    # ------------------------------------------------------------ population
    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def finished_jobs(self) -> int:
        return sum(1 for job in self.jobs if job.finished)

    @property
    def all_finished(self) -> bool:
        return self.finished_jobs == self.n_jobs

    # -------------------------------------------------------------- makespan
    @property
    def makespan_hours(self) -> float:
        """First submission to the last completion (or the horizon).

        Only jobs that actually entered the system count: a job submitted
        after the horizon never existed as far as the replay is concerned,
        so it must not stretch the makespan (or dilute the goodput
        denominator).
        """
        entered = [
            job for job in self.jobs
            if job.finished or job.end_hour > job.submit_hour
        ]
        if not entered:
            return 0.0
        start = min(job.submit_hour for job in entered)
        end = max(job.end_hour for job in entered)
        return end - start

    # ------------------------------------------------------------------- JCT
    def jct_hours(self) -> list[float]:
        """Completion times of the finished jobs, in submission order."""
        return [job.jct_hours for job in self.jobs if job.jct_hours is not None]

    @property
    def mean_jct_hours(self) -> float:
        jcts = self.jct_hours()
        return float(np.mean(jcts)) if jcts else 0.0

    @property
    def p50_jct_hours(self) -> float:
        jcts = self.jct_hours()
        return float(np.percentile(jcts, 50)) if jcts else 0.0

    @property
    def p99_jct_hours(self) -> float:
        jcts = self.jct_hours()
        return float(np.percentile(jcts, 99)) if jcts else 0.0

    # -------------------------------------------------------------- queueing
    def queueing_delays_hours(self) -> list[float]:
        """Submit-to-first-start delays of the jobs that ever ran."""
        return [
            job.queueing_delay_hours
            for job in self.jobs
            if job.queueing_delay_hours is not None
        ]

    @property
    def mean_queueing_delay_hours(self) -> float:
        delays = self.queueing_delays_hours()
        return float(np.mean(delays)) if delays else 0.0

    @property
    def p99_queueing_delay_hours(self) -> float:
        delays = self.queueing_delays_hours()
        return float(np.percentile(delays, 99)) if delays else 0.0

    # --------------------------------------------------------------- goodput
    @property
    def productive_gpu_hours(self) -> float:
        return left_sum(job.productive_hours * job.gpus for job in self.jobs)

    @property
    def restart_gpu_hours(self) -> float:
        return left_sum(job.restart_hours * job.gpus for job in self.jobs)

    @property
    def cluster_goodput(self) -> float:
        """Productive GPU-hours over the cluster GPU-hours of the makespan."""
        span = self.makespan_hours
        if span <= 0 or self.total_gpus == 0:
            return 0.0
        return self.productive_gpu_hours / (self.total_gpus * span)

    @property
    def cluster_utilization(self) -> float:
        """Allocated (productive + restarting) share of the cluster GPU-hours."""
        span = self.makespan_hours
        if span <= 0 or self.total_gpus == 0:
            return 0.0
        busy = self.productive_gpu_hours + self.restart_gpu_hours
        return busy / (self.total_gpus * span)

    # -------------------------------------------------------------- fairness
    def finish_time_fairness(self) -> list[float]:
        """Per-job rho = JCT / ideal JCT, for the finished bounded jobs."""
        return [
            rho
            for rho in (job.finish_time_fairness for job in self.jobs)
            if rho is not None
        ]

    @property
    def mean_finish_time_fairness(self) -> float:
        rhos = self.finish_time_fairness()
        return float(np.mean(rhos)) if rhos else 0.0

    @property
    def max_finish_time_fairness(self) -> float:
        rhos = self.finish_time_fairness()
        return float(max(rhos)) if rhos else 0.0

    @property
    def jain_fairness_index(self) -> float:
        """Jain's index over the per-job rho values.

        ``(sum rho)^2 / (n * sum rho^2)`` -- 1.0 when every job suffers the
        same slowdown, towards ``1/n`` when one job absorbs all of it; 0.0
        when no job finished (no data).
        """
        rhos = self.finish_time_fairness()
        if not rhos:
            return 0.0
        total = left_sum(rhos)
        squares = left_sum(rho * rho for rho in rhos)
        return (total * total) / (len(rhos) * squares)

    # ---------------------------------------------------------- blast radius
    @property
    def mean_blast_radius(self) -> float:
        """Jobs descheduled per fault transition (0.0 when no transitions)."""
        if self.fault_events == 0:
            return 0.0
        return self.jobs_killed / self.fault_events

    # ------------------------------------------------------------- serialise
    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "preemptive": self.preemptive,
            "placement": self.placement,
            "backfill": self.backfill,
            "n_nodes": self.n_nodes,
            "total_gpus": self.total_gpus,
            "horizon_hours": self.horizon_hours,
            "makespan_hours": self.makespan_hours,
            "n_jobs": self.n_jobs,
            "finished_jobs": self.finished_jobs,
            "mean_jct_hours": self.mean_jct_hours,
            "p50_jct_hours": self.p50_jct_hours,
            "p99_jct_hours": self.p99_jct_hours,
            "mean_queueing_delay_hours": self.mean_queueing_delay_hours,
            "p99_queueing_delay_hours": self.p99_queueing_delay_hours,
            "cluster_goodput": self.cluster_goodput,
            "cluster_utilization": self.cluster_utilization,
            "mean_finish_time_fairness": self.mean_finish_time_fairness,
            "max_finish_time_fairness": self.max_finish_time_fairness,
            "jain_fairness_index": self.jain_fairness_index,
            "fault_events": self.fault_events,
            "jobs_killed": self.jobs_killed,
            "max_blast_radius": self.max_blast_radius,
            "mean_blast_radius": self.mean_blast_radius,
            "jobs": [job.to_dict() for job in self.jobs],
        }


__all__ = ["ClusterReport"]
