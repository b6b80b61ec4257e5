"""Job descriptions and per-job accounting for the cluster scheduler.

A :class:`JobSpec` is the frozen, JSON-round-trippable description of one
training job in a workload: how many GPUs it needs (a multiple of its TP
size), how much productive work it has to accumulate, when it is submitted,
and its checkpoint / restart parameters.  ``work_hours=None`` denotes a job
that runs for the whole simulation horizon -- the single-job goodput replay
(:class:`repro.simulation.goodput.GoodputSimulator`) is exactly that special
case.

:class:`JobReport` is the per-job outcome of one scheduler run.  Its three
time buckets partition the job's wall-clock time in the system::

    productive_hours + waiting_hours + restart_hours
        == (completion_hour or horizon) - submit_hour

which is the conservation invariant the scheduler tests enforce across
random workloads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any


def check_known_fields(cls: type[Any], data: Mapping[str, Any]) -> None:
    """Reject mappings with keys that are not fields of ``cls``.

    Shared by every ``from_dict`` in the spec layer (including
    :mod:`repro.api.spec`) so typos in spec files fail loudly with the same
    message everywhere.

    >>> check_known_fields(JobSpec, {"name": "j", "gpus": 64})   # fine
    >>> try:
    ...     check_known_fields(JobSpec, {"name": "j", "gpuz": 64})
    ... except ValueError as error:
    ...     "unknown field(s) ['gpuz']" in str(error)
    True
    """
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"{cls.__name__}: unknown field(s) {unknown}; known: {sorted(known)}"
        )


def check_finite(obj: Any, *names: str, context: str = "") -> None:
    """Reject NaN and infinite values of the named numeric fields of ``obj``.

    NaN passes every ``<= 0`` range check, so the scheduler specs call this
    before their range checks.  ``None`` passes: where a field allows it,
    it is the spelling for "unbounded".

    >>> check_finite(JobSpec(name="j", gpus=8, tp_size=8), "submit_hour")
    >>> try:
    ...     JobSpec(name="j", gpus=8, tp_size=8, work_hours=float("inf"))
    ... except ValueError as error:
    ...     print(error)
    job 'j': work_hours must be finite, got inf
    """
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{context}{name} must be finite, got {value!r}")


def check_int(field_name: str, value: Any) -> None:
    """Reject a non-``int`` in an integer field; a ``bool`` or ``8.0`` too.

    >>> check_int("n_jobs", 6)
    >>> try:
    ...     check_int("n_jobs", 6.0)
    ... except ValueError as error:
    ...     print(error)
    n_jobs must be an int, got 6.0
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field_name} must be an int, got {value!r}")


@dataclass(frozen=True)
class JobSpec:
    """One training job in a scheduled workload.

    ``work_hours`` is the productive time the job must accumulate to
    complete; ``None`` means the job never completes on its own (it runs
    until the simulation horizon -- the single-job goodput replay).  Every
    float field must be finite.

    >>> job = JobSpec(name="llama-pretrain", gpus=2560, tp_size=32,
    ...               work_hours=72.0, submit_hour=6.0)
    >>> JobSpec.from_dict(job.to_dict()) == job
    True
    >>> JobSpec(name="odd", gpus=48, tp_size=32)
    Traceback (most recent call last):
        ...
    ValueError: job 'odd': gpus (48) must be a multiple of tp_size (32)
    """

    name: str
    gpus: int
    tp_size: int
    work_hours: float | None = None
    submit_hour: float = 0.0
    checkpoint_interval_hours: float = 1.0
    restart_overhead_hours: float = 0.25

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        for name in ("gpus", "tp_size"):
            check_int(f"job {self.name!r}: {name}", getattr(self, name))
        if self.gpus < 1 or self.tp_size < 1:
            raise ValueError("gpus and tp_size must be positive")
        if self.gpus % self.tp_size:
            raise ValueError(
                f"job {self.name!r}: gpus ({self.gpus}) must be a multiple of "
                f"tp_size ({self.tp_size})"
            )
        check_finite(
            self,
            "work_hours",
            "submit_hour",
            "checkpoint_interval_hours",
            "restart_overhead_hours",
            context=f"job {self.name!r}: ",
        )
        if self.work_hours is not None and self.work_hours <= 0:
            raise ValueError(f"job {self.name!r}: work_hours must be positive")
        if self.submit_hour < 0:
            raise ValueError(f"job {self.name!r}: submit_hour must be non-negative")
        if self.checkpoint_interval_hours <= 0:
            raise ValueError(
                f"job {self.name!r}: checkpoint_interval_hours must be positive"
            )
        if self.restart_overhead_hours < 0:
            raise ValueError(
                f"job {self.name!r}: restart_overhead_hours must be non-negative"
            )

    # ------------------------------------------------------------- serialise
    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> JobSpec:
        check_known_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class JobReport:
    """Outcome of one job in a scheduler run.

    ``restart_hours`` is wall-clock time spent re-doing lost work / paying
    restart overhead (the job holds its allocation but makes no progress);
    ``restart_charged_hours`` is the total restart debt ever charged, which
    can exceed ``restart_hours`` when the simulation horizon cuts a restart
    short.  ``impacting_faults`` is the *expected* number of faults landing
    in the job's allocation (each arrival contributes the job's share of the
    cluster), matching the single-job goodput accounting.

    The three time buckets partition the job's wall-clock time:

    >>> from repro.faults.trace import FaultTrace
    >>> from repro.hbd import BigSwitchHBD
    >>> from repro.scheduler.engine import ClusterScheduler
    >>> trace = FaultTrace(n_nodes=8, duration_days=1, events=[], gpus_per_node=4)
    >>> job = JobSpec(name="j", gpus=16, tp_size=4, work_hours=2.5, submit_hour=1.0)
    >>> outcome = ClusterScheduler(
    ...     BigSwitchHBD(4), trace.interval_timeline(), [job]).run().jobs[0]
    >>> (outcome.jct_hours, outcome.queueing_delay_hours, outcome.goodput)
    (2.5, 0.0, 1.0)
    >>> buckets = (outcome.productive_hours + outcome.waiting_hours
    ...            + outcome.restart_hours)
    >>> buckets == outcome.wall_clock_hours
    True
    """

    name: str
    gpus: int
    tp_size: int
    submit_hour: float
    work_hours: float | None
    first_start_hour: float | None
    completion_hour: float | None
    end_hour: float
    productive_hours: float
    waiting_hours: float
    restart_hours: float
    restart_charged_hours: float
    impacting_faults: float
    preemptions: int

    @property
    def finished(self) -> bool:
        return self.completion_hour is not None

    @property
    def wall_clock_hours(self) -> float:
        """Time the job spent in the system (to completion or the horizon)."""
        return self.end_hour - self.submit_hour

    @property
    def jct_hours(self) -> float | None:
        """Job completion time (None when the job did not finish)."""
        if self.completion_hour is None:
            return None
        return self.completion_hour - self.submit_hour

    @property
    def queueing_delay_hours(self) -> float | None:
        """Submit-to-first-allocation delay (None when never scheduled)."""
        if self.first_start_hour is None:
            return None
        return self.first_start_hour - self.submit_hour

    @property
    def goodput(self) -> float:
        """Fraction of in-system wall-clock time spent making progress."""
        wall = self.wall_clock_hours
        if wall <= 0:
            return 0.0
        return self.productive_hours / wall

    @property
    def finish_time_fairness(self) -> float | None:
        """Tiresias/Themis-style rho = JCT / ideal JCT on dedicated capacity.

        The ideal JCT is the job's productive work on a dedicated, fault-free
        allocation (``work_hours``), so ``rho >= 1`` and ``rho == 1`` means
        the job never waited, restarted or was preempted.  ``None`` for jobs
        that did not finish (or have unbounded work).
        """
        if self.jct_hours is None or not self.work_hours:
            return None
        return self.jct_hours / self.work_hours

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["finished"] = self.finished
        data["jct_hours"] = self.jct_hours
        data["queueing_delay_hours"] = self.queueing_delay_hours
        data["finish_time_fairness"] = self.finish_time_fairness
        return data


__all__ = ["JobReport", "JobSpec", "check_finite", "check_int", "check_known_fields"]
