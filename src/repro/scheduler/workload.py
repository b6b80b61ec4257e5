"""Synthetic workload generation for the cluster scheduler.

Production GPU clusters see Poisson-ish job arrivals with heavy-tailed job
sizes and durations: most jobs are small and short, a few are enormous and
run for days (the Philly / Helios / PAI trace shape).  This module generates
such queues deterministically from a seed:

* **arrivals** -- exponential inter-arrival times (a Poisson process) with a
  configurable mean;
* **sizes** -- log-normal in units of TP groups, clipped to the cluster, so
  every job demand is a valid multiple of the TP size;
* **durations** -- log-normal hours of productive work.

The generator emits frozen :class:`~repro.scheduler.jobs.JobSpec` records,
so a generated workload serializes into spec files like everything else.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.scheduler.jobs import JobSpec, check_finite, check_known_fields


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a synthetic job queue.

    ``median_tp_groups`` / ``sigma_tp_groups`` shape the log-normal job-size
    distribution (in TP-group units); ``median_work_hours`` /
    ``sigma_work_hours`` shape the log-normal duration distribution.  The
    defaults give a heavy-tailed mix of mostly-small, mostly-short jobs with
    a fat tail of near-cluster-scale multi-day jobs.

    >>> config = WorkloadConfig(n_jobs=50, seed=7, tp_size=32, max_gpus=1024)
    >>> WorkloadConfig.from_dict(config.to_dict()) == config
    True
    >>> WorkloadConfig(n_jobs=1, tp_size=64, max_gpus=32)
    Traceback (most recent call last):
        ...
    ValueError: max_gpus must be at least one TP group
    """

    n_jobs: int = 100
    seed: int = 0
    tp_size: int = 32
    max_gpus: int = 2048
    mean_interarrival_hours: float = 1.0
    median_tp_groups: float = 4.0
    sigma_tp_groups: float = 1.2
    median_work_hours: float = 8.0
    sigma_work_hours: float = 1.0
    checkpoint_interval_hours: float = 1.0
    restart_overhead_hours: float = 0.25

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be positive")
        if self.tp_size < 1:
            raise ValueError("tp_size must be positive")
        if self.max_gpus < self.tp_size:
            raise ValueError("max_gpus must be at least one TP group")
        check_finite(
            self,
            "mean_interarrival_hours",
            "median_tp_groups",
            "sigma_tp_groups",
            "median_work_hours",
            "sigma_work_hours",
            "checkpoint_interval_hours",
            "restart_overhead_hours",
        )
        if self.mean_interarrival_hours < 0:
            raise ValueError("mean_interarrival_hours must be non-negative")
        if self.median_tp_groups <= 0 or self.median_work_hours <= 0:
            raise ValueError("median job size and work must be positive")
        if self.sigma_tp_groups < 0 or self.sigma_work_hours < 0:
            raise ValueError("sigmas must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> WorkloadConfig:
        check_known_fields(cls, data)
        return cls(**data)


def generate_workload(config: WorkloadConfig) -> tuple[JobSpec, ...]:
    """Deterministically sample a job queue from a :class:`WorkloadConfig`.

    >>> jobs = generate_workload(WorkloadConfig(n_jobs=3, seed=1, tp_size=8,
    ...                                         max_gpus=64))
    >>> [job.name for job in jobs]
    ['job-0', 'job-1', 'job-2']
    >>> jobs[0].submit_hour   # the first job always arrives at t=0
    0.0
    >>> all(job.gpus % 8 == 0 and 8 <= job.gpus <= 64 for job in jobs)
    True
    >>> generate_workload(WorkloadConfig(n_jobs=3, seed=1, tp_size=8,
    ...                                  max_gpus=64)) == jobs
    True
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_jobs
    max_groups = config.max_gpus // config.tp_size

    gaps = (
        rng.exponential(config.mean_interarrival_hours, size=n)
        if config.mean_interarrival_hours > 0
        else np.zeros(n)
    )
    submits = np.cumsum(gaps) - gaps[0]  # first job arrives at t=0

    groups = np.rint(
        np.exp(rng.normal(np.log(config.median_tp_groups), config.sigma_tp_groups, size=n))
    ).astype(int)
    groups = np.clip(groups, 1, max_groups)

    work = np.exp(rng.normal(np.log(config.median_work_hours), config.sigma_work_hours, size=n))

    width = len(str(n - 1))
    return tuple(
        JobSpec(
            name=f"job-{i:0{width}d}",
            gpus=int(groups[i]) * config.tp_size,
            tp_size=config.tp_size,
            work_hours=float(work[i]),
            submit_hour=float(submits[i]),
            checkpoint_interval_hours=config.checkpoint_interval_hours,
            restart_overhead_hours=config.restart_overhead_hours,
        )
        for i in range(n)
    )


__all__ = ["WorkloadConfig", "generate_workload"]
