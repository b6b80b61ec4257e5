"""Pluggable scheduling policies for the cluster scheduler.

A policy decides, at every event boundary, which of the jobs in the system
hold an allocation.  It does so through the knobs the engine consumes:

* :meth:`SchedulingPolicy.runtime_key` -- a sort key over jobs (smaller
  runs first).  Static policies derive it purely from the job spec via
  :meth:`SchedulingPolicy.priority_key`; history-aware policies (Gittins,
  the optimizer) also read the job's attained service, waiting time and
  allocation state.
* ``preemptive`` -- whether a higher-priority job may take the place of a
  running lower-priority one.  Non-preemptive policies only deschedule a
  running job when a fault pushes the usable capacity below the running
  set's demand.
* ``strict_order`` -- whether a job that does not fit blocks every job behind
  it (classic head-of-line FIFO) or the scheduler may skip over it and
  backfill smaller jobs.
* ``dynamic_priority`` -- the key drifts as attained service / waiting time
  accumulate, so the engine re-keys every queued job at every event and
  schedules wake-ups at the exact crossings
  (:meth:`SchedulingPolicy.next_priority_change_hours`).  Without the flag
  the engine keys a queued job once, when it enters the queue.
* ``lookahead_k`` -- selection runs a k-job look-ahead over the queue head,
  scoring each fitting candidate with
  :meth:`SchedulingPolicy.lookahead_score` instead of a plain priority walk.

Six policies cover the comparison space: arrival-order FIFO,
smallest-job-first (by GPU demand), shortest-remaining-work first,
Tiresias-style discretized attained-service (Gittins-index) queues
(``gittins``), Horus-style k-job look-ahead placement scoring
(``lookahead``), and an AdaptDL-style global re-allocation optimizer
(``optimizer``).  ``policy_by_name`` resolves the spec/CLI names, with
difflib suggestions on typos to match the architecture registry's
ergonomics.
"""

from __future__ import annotations

import abc
import difflib
import math
from typing import Any

from repro.scheduler.jobs import JobSpec


class SchedulingPolicy(abc.ABC):
    """Priority order plus preemption behaviour for the engine.

    Subclasses only supply a sort key; the engine does the rest:

    >>> job = JobSpec(name="j", gpus=64, tp_size=32, submit_hour=3.0)
    >>> FifoPolicy().priority_key(job, remaining_work_hours=5.0, sequence=7)
    (3.0, 7)
    >>> SmallestFirstPolicy().priority_key(job, 5.0, 7)
    (64, 3.0, 7)
    """

    #: Spec / CLI name of the policy.
    name: str = "abstract"
    #: Whether higher-priority jobs may displace allocated lower-priority ones.
    preemptive: bool = False
    #: Whether a non-fitting job blocks all lower-priority jobs (no backfill).
    strict_order: bool = False
    #: Preemption mode ``policy_by_name(..., preemptive=None)`` applies.
    default_preemptive: bool = False
    #: Whether keys drift with attained service / waiting time, requiring
    #: engine wake-ups at :meth:`next_priority_change_hours` crossings.  A
    #: policy whose :meth:`runtime_key` reads ``attained_hours`` or
    #: ``waiting_hours`` must set it: without it the engine computes a
    #: queued job's key once, when the job enters the queue, and keeps the
    #: queue sorted by those stored keys.
    dynamic_priority: bool = False
    #: Look-ahead window size; ``None`` keeps the plain priority walk.
    lookahead_k: int | None = None

    @abc.abstractmethod
    def priority_key(
        self, job: JobSpec, remaining_work_hours: float, sequence: int
    ) -> tuple[Any, ...]:
        """Sort key; the engine runs jobs in ascending key order.

        ``remaining_work_hours`` is the job's outstanding productive work
        (``inf`` for horizon-bound jobs); ``sequence`` is the submission
        sequence number, the deterministic tie-breaker every key must end
        with.
        """

    def runtime_key(
        self,
        job: JobSpec,
        remaining_work_hours: float,
        sequence: int,
        *,
        attained_hours: float = 0.0,
        waiting_hours: float = 0.0,
        allocated: bool = False,
    ) -> tuple[Any, ...]:
        """Sort key with the job's runtime history folded in.

        The engine always ranks jobs through this hook.  The default ignores
        the runtime fields and delegates to :meth:`priority_key`; history-aware
        policies (Gittins attained-service queues, the optimizer's stability
        bonus) override it.  ``attained_hours`` is cumulative productive time,
        ``waiting_hours`` cumulative queued time, ``allocated`` whether the
        job currently holds an allocation.

        Contract: unless the policy sets ``dynamic_priority``, the key may
        read only the spec, ``remaining_work_hours``, ``sequence`` and
        ``allocated`` -- the inputs frozen while a job waits -- because the
        engine keys a queued job once, when it enters the queue.  Running
        jobs are re-keyed at every event.
        """
        return self.priority_key(job, remaining_work_hours, sequence)

    def next_priority_change_hours(
        self,
        job: JobSpec,
        remaining_work_hours: float,
        sequence: int,
        *,
        attained_hours: float,
        waiting_hours: float,
        allocated: bool,
    ) -> float | None:
        """Hours until this job's priority class changes on its own.

        Only consulted when ``dynamic_priority`` is set.  For an allocated
        job the clock is productive time (attained service grows); for a
        waiting job it is wall-clock waiting time.  ``None`` means no
        autonomous change is coming.
        """
        return None

    def lookahead_score(
        self, job: JobSpec, remaining_work_hours: float, fill: float
    ) -> float:
        """Goodput-weighted placement score (look-ahead policies only).

        ``fill`` is the fraction of the candidate placement's open capacity
        the job would occupy (``(0, 1]``); higher scores are admitted first.
        """
        raise NotImplementedError(f"{self.name!r} is not a look-ahead policy")

    def reset(self) -> None:
        """Clear any per-run policy state (called by the engine at run start)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        mode = "preemptive" if self.preemptive else "non-preemptive"
        return f"{type(self).__name__}({self.name}, {mode})"


class FifoPolicy(SchedulingPolicy):
    """First-in-first-out with head-of-line blocking (no backfill).

    >>> FifoPolicy().strict_order
    True
    >>> FifoPolicy(preemptive=True)
    FifoPolicy(fifo, preemptive)
    """

    name = "fifo"
    strict_order = True

    def __init__(self, preemptive: bool = False) -> None:
        self.preemptive = preemptive

    def priority_key(
        self, job: JobSpec, remaining_work_hours: float, sequence: int
    ) -> tuple[Any, ...]:
        return (job.submit_hour, sequence)


class SmallestFirstPolicy(SchedulingPolicy):
    """Smallest GPU demand first; backfills around jobs that do not fit.

    >>> small = JobSpec(name="s", gpus=32, tp_size=32)
    >>> large = JobSpec(name="l", gpus=512, tp_size=32)
    >>> policy = SmallestFirstPolicy()
    >>> policy.priority_key(small, 1.0, 1) < policy.priority_key(large, 1.0, 0)
    True
    """

    name = "smallest-first"

    def __init__(self, preemptive: bool = False) -> None:
        self.preemptive = preemptive

    def priority_key(
        self, job: JobSpec, remaining_work_hours: float, sequence: int
    ) -> tuple[Any, ...]:
        return (job.gpus, job.submit_hour, sequence)


class ShortestRemainingPolicy(SchedulingPolicy):
    """Shortest remaining productive work first (SRTF when preemptive).

    >>> job = JobSpec(name="j", gpus=32, tp_size=32)
    >>> ShortestRemainingPolicy().priority_key(job, remaining_work_hours=0.5,
    ...                                        sequence=4)
    (0.5, 0.0, 4)
    """

    name = "shortest-remaining"

    def __init__(self, preemptive: bool = False) -> None:
        self.preemptive = preemptive

    def priority_key(
        self, job: JobSpec, remaining_work_hours: float, sequence: int
    ) -> tuple[Any, ...]:
        return (remaining_work_hours, job.submit_hour, sequence)


class GittinsPolicy(SchedulingPolicy):
    """Tiresias-style discretized two-dimensional attained-service queues.

    The Gittins-index argument for unknown job durations says: serve the job
    whose *attained service* (GPU-hours of productive work, the 2D product
    of GPU count and time) is smallest, since it has the best odds of
    finishing soon.  Tiresias discretizes this into K priority queues with
    exponentially spaced demotion thresholds so jobs are not re-ranked on
    every quantum: a job starts in the highest queue and drops one level
    each time the GPU-hours attained since its last promotion cross
    ``threshold_gpu_hours * 2**level``.

    Starvation is bounded by the Tiresias PROMOTE rule: a demoted job whose
    waiting time since its last promotion reaches ``starve_limit`` times its
    total executed time returns to the top queue, *with its demotion clock
    reset* -- a promoted job runs a full top-queue quantum before it can be
    demoted (and must be demoted again before it can re-promote), so
    promotion cannot oscillate.  Within a queue ties break by submit time,
    so an old starved job outranks fresh arrivals.

    Preemptive by default -- demotions and promotions move work between
    queues mid-flight, charged through the engine's restart accounting.
    The promotion baselines are per-run state; the engine calls
    :meth:`reset` at the start of every run.

    >>> policy = GittinsPolicy(threshold_gpu_hours=64.0, levels=3)
    >>> job = JobSpec(name="j", gpus=128, tp_size=32, submit_hour=1.0)
    >>> policy.runtime_key(job, 10.0, 5, attained_hours=0.0)
    (0, 1.0, 5)
    >>> policy.runtime_key(job, 10.0, 5, attained_hours=1.0,
    ...                    allocated=True)      # 128 GPU-h >= 2nd threshold
    (2, 1.0, 5)
    >>> policy.runtime_key(job, 10.0, 5, attained_hours=1.0,
    ...                    waiting_hours=4.0)   # starved: promoted to the top
    (0, 1.0, 5)
    >>> policy.runtime_key(job, 10.0, 5, attained_hours=1.2,
    ...                    waiting_hours=9.0)   # fresh quantum, no oscillation
    (0, 1.0, 5)
    """

    name = "gittins"
    default_preemptive = True
    dynamic_priority = True

    def __init__(
        self,
        preemptive: bool = True,
        threshold_gpu_hours: float = 2048.0,
        levels: int = 3,
        starve_limit: float = 4.0,
    ) -> None:
        if threshold_gpu_hours <= 0:
            raise ValueError("threshold_gpu_hours must be positive")
        if levels < 1:
            raise ValueError("levels must be >= 1")
        if starve_limit <= 0:
            raise ValueError("starve_limit must be positive")
        self.preemptive = preemptive
        self.threshold_gpu_hours = threshold_gpu_hours
        self.levels = levels
        self.starve_limit = starve_limit
        # Per-run promotion baselines: sequence -> (attained_hours,
        # waiting_hours) at the job's last promotion.
        self._promo_base: dict[int, tuple[float, float]] = {}

    def reset(self) -> None:
        self._promo_base.clear()

    def level_of(self, attained_gpu_hours: float) -> int:
        """Discretized queue level (0 = highest priority)."""
        level = 0
        threshold = self.threshold_gpu_hours
        while level < self.levels - 1 and attained_gpu_hours >= threshold:
            level += 1
            threshold *= 2.0
        return level

    def _effective(
        self, job: JobSpec, sequence: int, attained_hours: float, waiting_hours: float
    ) -> float:
        """GPU-hours attained since the last promotion, applying PROMOTE.

        A job is promoted (baseline reset to *now*) once it has been demoted
        since its last promotion (a full top-queue quantum attained) and its
        waiting time since that promotion reaches ``starve_limit`` times its
        total executed time.
        """
        base_attained, base_waiting = self._promo_base.get(sequence, (0.0, 0.0))
        effective = (attained_hours - base_attained) * job.gpus
        if (
            effective >= self.threshold_gpu_hours
            and waiting_hours - base_waiting >= self.starve_limit * attained_hours
        ):
            self._promo_base[sequence] = (attained_hours, waiting_hours)
            return 0.0
        return effective

    def priority_key(
        self, job: JobSpec, remaining_work_hours: float, sequence: int
    ) -> tuple[Any, ...]:
        return self.runtime_key(job, remaining_work_hours, sequence)

    def runtime_key(
        self,
        job: JobSpec,
        remaining_work_hours: float,
        sequence: int,
        *,
        attained_hours: float = 0.0,
        waiting_hours: float = 0.0,
        allocated: bool = False,
    ) -> tuple[Any, ...]:
        effective = self._effective(job, sequence, attained_hours, waiting_hours)
        return (self.level_of(effective), job.submit_hour, sequence)

    def next_priority_change_hours(
        self,
        job: JobSpec,
        remaining_work_hours: float,
        sequence: int,
        *,
        attained_hours: float,
        waiting_hours: float,
        allocated: bool,
    ) -> float | None:
        base_attained, base_waiting = self._promo_base.get(sequence, (0.0, 0.0))
        effective = (attained_hours - base_attained) * job.gpus
        if allocated:
            # Attained service grows, waiting is frozen: the next crossing
            # is the demotion threshold of the current level (at which
            # instant a starved job promotes instead of demoting -- either
            # way the key changes there).
            level = self.level_of(effective)
            if level >= self.levels - 1:
                return None
            threshold = self.threshold_gpu_hours * (2.0**level)
            return (threshold - effective) / job.gpus
        # Waiting grows, attained service is frozen: the only autonomous
        # crossing is the PROMOTE rule, armed once the job has been demoted
        # since its last promotion.
        if effective < self.threshold_gpu_hours:
            return None
        return self.starve_limit * attained_hours - (waiting_hours - base_waiting)


class LookaheadPolicy(SchedulingPolicy):
    """Horus-style k-job look-ahead placement scoring.

    Instead of admitting strictly in queue order, the engine repeatedly
    scores the first ``k`` queued jobs that fit the current capacity and
    admits the best-scoring one.  The score prefers candidates that fill
    their placement tightly (less fragmentation left behind) and turn over
    quickly (goodput weight ``1 / (1 + remaining_work)``), so short
    well-fitting jobs flow around a head that would strand capacity --
    without ever reaching past the k-job fairness window.

    Non-preemptive by default: look-ahead shapes admission, not eviction.

    >>> policy = LookaheadPolicy(k=3)
    >>> tight = JobSpec(name="t", gpus=96, tp_size=32)
    >>> loose = JobSpec(name="l", gpus=32, tp_size=32)
    >>> policy.lookahead_score(tight, 1.0, fill=0.75)
    0.375
    >>> policy.lookahead_score(loose, 1.0, fill=0.25)
    0.125
    """

    name = "lookahead"

    def __init__(self, preemptive: bool = False, k: int = 5) -> None:
        if k < 1:
            raise ValueError("look-ahead window k must be >= 1")
        self.preemptive = preemptive
        self.k = k
        self.lookahead_k = k

    def priority_key(
        self, job: JobSpec, remaining_work_hours: float, sequence: int
    ) -> tuple[Any, ...]:
        # The look-ahead window slides over the queue in arrival order.
        return (job.submit_hour, sequence)

    def lookahead_score(
        self, job: JobSpec, remaining_work_hours: float, fill: float
    ) -> float:
        if not math.isfinite(remaining_work_hours):
            return 0.0
        return fill / (1.0 + max(remaining_work_hours, 0.0))


class OptimizerPolicy(SchedulingPolicy):
    """AdaptDL-style global re-allocation solved as a greedy LP each boundary.

    At every interval boundary the engine re-solves the job -> capacity
    assignment as the fractional knapsack LP

    ``maximize   sum_j x_j * gpus_j * (phi(r_j) + beta * alloc_j)``
    ``subject to sum_j x_j * gpus_j <= usable capacity,  x_j in [0, 1]``

    where ``phi(r) = h / (h + r)`` is the goodput utility density of a job
    with ``r`` remaining hours over the planning horizon ``h``
    (``horizon_hours``), and ``beta`` (``stability_bonus``) is the
    AdaptDL-style migration penalty credited to already-allocated jobs so
    marginal gains do not churn the cluster.  Greedy admission in
    descending density order is the exact LP optimum; the engine's walk
    rounds the one fractional job down.  Deterministic throughout: equal
    densities break by submit time then sequence, and in placed mode the
    banded placement machinery re-assigns domains with node-stability, so
    only genuinely moved jobs are charged migrations (as preemptions).

    >>> policy = OptimizerPolicy(horizon_hours=8.0, stability_bonus=0.5)
    >>> policy.utility_density(8.0, allocated=False)
    0.5
    >>> policy.utility_density(24.0, allocated=True)  # 0.25 + 0.5 bonus
    0.75
    """

    name = "optimizer"
    default_preemptive = True

    def __init__(
        self,
        preemptive: bool = True,
        horizon_hours: float = 8.0,
        stability_bonus: float = 0.5,
    ) -> None:
        if horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")
        if stability_bonus < 0:
            raise ValueError("stability_bonus must be non-negative")
        self.preemptive = preemptive
        self.horizon_hours = horizon_hours
        self.stability_bonus = stability_bonus

    def utility_density(self, remaining_work_hours: float, allocated: bool) -> float:
        """Per-GPU utility rate ``phi(r) + beta * [allocated]``."""
        h = self.horizon_hours
        density = h / (h + max(remaining_work_hours, 0.0))
        return density + (self.stability_bonus if allocated else 0.0)

    def priority_key(
        self, job: JobSpec, remaining_work_hours: float, sequence: int
    ) -> tuple[Any, ...]:
        return self.runtime_key(job, remaining_work_hours, sequence)

    def runtime_key(
        self,
        job: JobSpec,
        remaining_work_hours: float,
        sequence: int,
        *,
        attained_hours: float = 0.0,
        waiting_hours: float = 0.0,
        allocated: bool = False,
    ) -> tuple[Any, ...]:
        density = self.utility_density(remaining_work_hours, allocated)
        return (-density, job.submit_hour, sequence)


_POLICIES: dict[str, type[SchedulingPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    SmallestFirstPolicy.name: SmallestFirstPolicy,
    ShortestRemainingPolicy.name: ShortestRemainingPolicy,
    GittinsPolicy.name: GittinsPolicy,
    LookaheadPolicy.name: LookaheadPolicy,
    OptimizerPolicy.name: OptimizerPolicy,
}

#: Spec / CLI names of the built-in policies, in presentation order.
POLICY_NAMES: tuple[str, ...] = tuple(_POLICIES)


def policy_by_name(
    name: str, preemptive: bool | None = None, **knobs: Any
) -> SchedulingPolicy:
    """Instantiate a policy by its spec name (``fifo``, ``gittins``, ...).

    ``preemptive=None`` (the default) keeps each policy's own preemption
    mode -- off for the classic queue orders, on for ``gittins`` and
    ``optimizer``, whose whole point is moving work mid-flight.  Extra
    keyword knobs go to the policy constructor.

    >>> policy_by_name("smallest-first", preemptive=True)
    SmallestFirstPolicy(smallest-first, preemptive)
    >>> policy_by_name("FIFO").name   # case-insensitive
    'fifo'
    >>> policy_by_name("gittins")     # preemptive by default
    GittinsPolicy(gittins, preemptive)
    >>> policy_by_name("lookahead", k=3).lookahead_k
    3
    """
    key = name.strip().lower()
    cls = _POLICIES.get(key)
    if cls is None:
        close = difflib.get_close_matches(key, _POLICIES, n=2)
        hint = f"; did you mean {close}?" if close else ""
        raise KeyError(
            f"unknown scheduling policy {name!r}; known: {list(_POLICIES)}{hint}"
        )
    if preemptive is None:
        preemptive = cls.default_preemptive
    return cls(preemptive=preemptive, **knobs)


__all__ = [
    "FifoPolicy",
    "GittinsPolicy",
    "LookaheadPolicy",
    "OptimizerPolicy",
    "POLICY_NAMES",
    "SchedulingPolicy",
    "ShortestRemainingPolicy",
    "SmallestFirstPolicy",
    "policy_by_name",
]
