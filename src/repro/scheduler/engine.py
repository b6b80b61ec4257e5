"""Event-driven multi-job cluster scheduler over the exact fault timeline.

The single-job goodput replay asks "how does *one* job fare on this
architecture"; the cluster scheduler asks the question the paper's capacity
metrics ultimately serve: how much of a *queue* of jobs does an architecture
push through when faults keep reshaping the usable capacity?

:class:`ClusterScheduler` merges two event streams into one sweep:

* the fault-interval boundaries of the exact
  :class:`~repro.faults.timeline.IntervalTimeline` (the piecewise-constant
  capacity process), and
* job events -- arrivals, completions, restart-debt pay-off instants --
  which it derives on the fly.

Between consecutive events nothing changes, so every job's time is accounted
exactly: each in-system job is in exactly one of three states (waiting for
capacity, productively running, or restarting), and the engine's core
invariant is that the three buckets partition the job's wall-clock time.

The engine runs in one of two capacity models:

**Expected-value mode** (``placement=None``, the default, and the model the
single-job :class:`~repro.simulation.goodput.GoodputSimulator` wraps):
capacity is memoized per distinct ``(fault set, TP size)``.  It comes from
the caller's per-interval column when one is given (``usable_gpus={tp_size:
column}``, the usable GPUs a capacity replay already computed), and from
``architecture.usable_gpus(n_nodes, faults, tp_size)`` otherwise -- for TP
sizes without a column and fault sets no interval has.  Jobs hold GPU
*counts*, not nodes, so a fault arrival charges every allocated job its
*expected* share of the damage (``new_faults x job_gpus / cluster_gpus``
hits, each costing half a checkpoint interval plus the restart overhead) as
restart *debt*, paid as wall-clock restart time before the job makes
further progress:

* faults already active at t=0 are pre-existing capacity loss, never charged
  as arrivals;
* a job descheduled because the usable capacity can no longer host it at
  all simply waits (no extra charge -- the expected-damage charge above
  already accounts for the fault);
* a job that still fits but lost its slot to higher-priority work --
  policy preemption, or a capacity squeeze that displaced the
  lowest-priority job -- checkpoints on the way out and pays only the
  restart overhead when it resumes.

**Placed mode** (``placement=`` a
:class:`~repro.scheduler.placement.PlacementPolicy` or its name): every
running job holds a concrete, deterministic set of node ids carved out of
the architecture's placement domains
(:meth:`~repro.hbd.base.HBDArchitecture.placement_groups` -- rings, cubes,
units, healthy segments, or one flat domain for Big-Switch).  A fault
interval then deschedules exactly the jobs whose held nodes went down:
each direct hit charges half a checkpoint interval plus the restart
overhead (``impacting_faults`` counts real hits, not expectations), the
job's nodes are released, and it re-enters the queue at its policy
priority.  Jobs whose nodes survived are untouched -- there is no
expected-value broadcast charge, and under non-preemptive policies no
capacity squeeze can move a running job (its concrete nodes are healthy).
Placement is node-granular (each TP group occupies whole
nodes inside one domain), so the placed capacity equals the expected-value
capacity whenever the TP size is a multiple of the node size (every
evaluated configuration) and is a conservative lower bound otherwise.  A
job that stays allocated but is moved to different nodes by a preemptive
policy pays the restart overhead for the migration; a job a preemptive
reshuffle leaves unplaceable after a capacity drop waits uncharged, like
the expected-value engine's squeezed jobs.

**Backfill** (``backfill=True``): under a strict-order policy (FIFO), a job
that does not fit normally blocks every job behind it.  With backfill
enabled the engine computes an EASY-style reservation for the blocked head
-- the earliest instant the head could start if the current fault interval
lasted (``shadow``) and the capacity left over at that instant (``extra``)
-- and lets later jobs jump the queue only when they fit now *and* either
finish before ``shadow`` or fit inside ``extra``, so the head's projected
start is never delayed.  Non-strict policies skip blocked jobs anyway, so
the flag is a no-op for them.

**Policy machinery**: jobs are ranked through
:meth:`~repro.scheduler.policies.SchedulingPolicy.runtime_key`, which sees
each job's attained service, waiting time and allocation state, so
history-aware policies (Gittins attained-service queues, the optimizer's
stability bonus) plug into the same greedy walk.  Policies flagged
``dynamic_priority`` additionally get wake-up events at their exact
demotion/promotion crossings, and policies with a ``lookahead_k`` window
replace the admission walk with a k-job look-ahead that scores every
fitting window candidate and admits the best one.

**One allocation round** serves both capacity models: ``_select`` starts
the round (preemptive, non-preemptive placed or non-preemptive
expected-value), then walks the admission order -- greedily, or through
the look-ahead window -- and the capacity model supplies only how one job
is taken: a GPU count checked against the usable capacity, or a node plan
carved out of the placement domains.  The look-ahead scores dry-run
probes (a plan is pure) and commits only the winner.  What stays per
model is where fault damage is charged: placed hits deschedule their
victims before the round, expected-value restart debt is charged after it
to the running set the round produced.

**Event core**: the sweep keeps the in-system jobs in two lists.
``running`` holds the allocated jobs -- few, since each holds at least one
TP group.  ``queue`` holds the jobs without an allocation, in policy-key
order.  A queued job's key is computed once, when it enters the queue
(arrival, eviction or fault hit, after its allocation flag is cleared),
and the job is placed with :func:`bisect.insort`.  That is exact because a
policy without ``dynamic_priority`` keys only on the spec, the remaining
work (frozen while queued), the sequence number and the allocation flag,
and every key ends in the sequence number, so the order is total.
Running jobs are re-keyed at every event (their remaining work drifts):
non-preemptive selection walks them first and merges any capacity-displaced
ones into the queue order; preemptive selection walks running and queued
jobs merged into one key order.  The next-event minimum, running-time
accrual, completions, fault hits, restart debt and reallocation
bookkeeping touch only ``running`` and the jobs whose allocation changed.
The queue is walked from its head only as far as admission needs (a
strict-order policy stops at the first job that does not fit), and
adding ``dt`` to each queued job's waiting time is the one per-event loop
over all of ``queue``.  A ``dynamic_priority`` policy re-keys and
re-sorts the whole queue at every event instead.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Mapping, Sequence
from operator import attrgetter
from typing import Any

from repro.faults.timeline import IntervalTimeline
from repro.hbd.base import HBDArchitecture, PlacementGroup
from repro.scheduler.jobs import JobReport, JobSpec, check_finite
from repro.scheduler.placement import PlacementPolicy, placement_by_name
from repro.scheduler.policies import FifoPolicy, SchedulingPolicy
from repro.scheduler.report import ClusterReport

#: Tolerance for "this phase is over" comparisons on accumulated floats.
_EPS = 1e-9

#: Sort accessor for the policy key cached on each :class:`_JobRuntime`.
_by_key = attrgetter("key")


class _JobRuntime:
    """Mutable per-job state while the sweep runs."""

    __slots__ = (
        "spec",
        "sequence",
        "remaining_work",
        "restart_debt",
        "productive",
        "waiting",
        "restart_time",
        "restart_charged",
        "impacting_faults",
        "preemptions",
        "first_start",
        "completion",
        "end",
        "in_system",
        "allocated",
        "nodes",
        "key",
    )

    def __init__(self, spec: JobSpec, sequence: int) -> None:
        self.spec = spec
        self.sequence = sequence
        self.remaining_work = math.inf if spec.work_hours is None else spec.work_hours
        self.restart_debt = 0.0
        self.productive = 0.0
        self.waiting = 0.0
        self.restart_time = 0.0
        self.restart_charged = 0.0
        self.impacting_faults = 0.0
        self.preemptions = 0
        self.first_start: float | None = None
        self.completion: float | None = None
        self.end: float | None = None
        self.in_system = False
        self.allocated = False
        self.nodes: frozenset[int] = frozenset()
        # Policy sort key as of the job's last keying (see ``run``).
        self.key: tuple[Any, ...] = ()

    @property
    def done(self) -> bool:
        return self.completion is not None

    def report(self) -> JobReport:
        spec = self.spec
        end = self.end if self.end is not None else spec.submit_hour
        return JobReport(
            name=spec.name,
            gpus=spec.gpus,
            tp_size=spec.tp_size,
            submit_hour=spec.submit_hour,
            work_hours=spec.work_hours,
            first_start_hour=self.first_start,
            completion_hour=self.completion,
            end_hour=end,
            productive_hours=self.productive,
            waiting_hours=self.waiting,
            restart_hours=self.restart_time,
            restart_charged_hours=self.restart_charged,
            impacting_faults=self.impacting_faults,
            preemptions=self.preemptions,
        )


class _TpPlacementState:
    """Free-node bookkeeping for one TP size under one fault set.

    Rebuilt on every fault transition; domains whose ``PlacementGroup``
    object survived the transition (architectures keep untouched domains
    identity-stable, e.g. NVL units without faults) carry their free lists
    over, so a rebuild costs O(changed domains), not O(n_nodes).
    """

    __slots__ = (
        "faults", "groups", "free", "avail", "avail_total", "npg",
        "node_group", "buckets",
    )

    def __init__(
        self,
        faults: frozenset[int],
        groups: tuple[PlacementGroup, ...],
        held: set[int],
        prior: _TpPlacementState | None = None,
    ) -> None:
        self.faults = faults
        self.groups = groups
        self.npg: list[int] = [group.nodes_per_group for group in groups]
        prior_of: list[PlacementGroup] | None = None
        prior_index: dict[int, int] = {}
        if prior is not None and len(prior.groups) == len(groups):
            # Positions are identity-stable for architectures that patch
            # only the touched domains (NVL units); fall back to an id map
            # when the domain count shifted (segments splitting, etc.).
            prior_of = list(prior.groups)
        elif prior is not None:
            prior_index = {id(group): i for i, group in enumerate(prior.groups)}
        self.free: list[list[int]] = []
        self.avail: list[int] = []
        for index, group in enumerate(groups):
            j = (
                prior_index.get(id(group))
                if prior_of is None
                else (index if prior_of[index] is group else None)
            )
            if j is not None and prior is not None:
                # Same domain object => same healthy membership, and stale
                # states were kept in step with the held set by
                # ``_placed_sync``, so the old free list is still exact.
                self.free.append(prior.free[j])
                self.avail.append(prior.avail[j])
            else:
                free = [node for node in group.nodes if node not in held]
                self.free.append(free)
                self.avail.append(len(free) // self.npg[index])
        self.avail_total = sum(self.avail)
        # Slot-count bands: slots -> ascending domain indices, the iteration
        # structure behind banded placement policies.
        self.buckets: dict[int, list[int]] = {}
        for index, slots in enumerate(self.avail):
            self.buckets.setdefault(slots, []).append(index)
        if prior_of is not None:
            # Positional identity: indices are unchanged, so only the
            # domains that were replaced need their entries refreshed (the
            # prior state is discarded, so adopting its dict is safe).
            self.node_group: dict[int, int] = prior.node_group
            for index, group in enumerate(groups):
                if prior_of[index] is not group:
                    for node in group.nodes:
                        self.node_group[node] = index
        else:
            self.node_group = {
                node: index
                for index, group in enumerate(groups)
                for node in group.nodes
            }

    def set_avail(self, index: int, slots: int) -> None:
        """Move a domain to its new slot band and update the totals."""
        old = self.avail[index]
        if slots == old:
            return
        bucket = self.buckets[old]
        del bucket[bisect.bisect_left(bucket, index)]
        bisect.insort(self.buckets.setdefault(slots, []), index)
        self.avail_total += slots - old
        self.avail[index] = slots

    def refresh(self, index: int, held: set[int]) -> None:
        """Recompute one domain's free list from the global held set."""
        self.free[index] = [
            node for node in self.groups[index].nodes if node not in held
        ]
        self.set_avail(index, len(self.free[index]) // self.npg[index])


#: What a look-ahead probe plans for one job: the TP size's free-node state
#: and its ``(domain index, TP groups)`` picks in placed mode, nothing in
#: expected-value mode.
_Plan = tuple[_TpPlacementState, list[tuple[int, int]]] | None


class ClusterScheduler:
    """Replay a queue of jobs against one architecture over the fault timeline.

    Parameters
    ----------
    architecture:
        The HBD architecture supplying ``usable_gpus`` (and, in placed mode,
        ``placement_groups``).
    timeline:
        The exact fault timeline of the trace (``trace.interval_timeline()``).
        Beyond the traced window the cluster is assumed fault-free.
    jobs:
        The workload.  Submission order is irrelevant; ties are broken by
        position in this sequence.
    policy:
        A :class:`~repro.scheduler.policies.SchedulingPolicy` (default:
        non-preemptive FIFO).
    horizon_hours:
        Hard stop of the simulation, positive and finite.  ``None``
        (default) runs until every job completes -- which requires every
        job to fit the fault-free cluster and to have finite work.
    placement:
        ``None`` (default) keeps the expected-value capacity model.  A
        :class:`~repro.scheduler.placement.PlacementPolicy` (or its spec
        name, e.g. ``"packed"``) switches to node-level placement with
        deterministic fault hits.
    backfill:
        Allow EASY backfilling past a blocked head under strict-order
        (FIFO) policies.
    usable_gpus:
        Capacity the caller has already replayed: a TP size mapped to the
        usable GPUs of each interval of ``timeline``, in order (for example
        ``replay_intervals(architecture, timeline, tp_size).usable_gpus``
        as a list).  Each value must equal ``architecture.usable_gpus(
        timeline.n_nodes, interval.nodes, tp_size)``; the scheduler reads it
        instead of recomputing it.  TP sizes without a column, and fault sets no
        interval has (the fault-free cluster beyond the trace), are computed
        as usual.  A column whose length is not ``len(timeline)`` is
        rejected.

    A 32-GPU cluster, one 10-hour fault on node 0, two jobs back to back:

    >>> from repro.faults.trace import FaultEvent, FaultTrace
    >>> from repro.hbd import BigSwitchHBD
    >>> from repro.scheduler.jobs import JobSpec
    >>> trace = FaultTrace(n_nodes=8, duration_days=2,
    ...                    events=[FaultEvent(0, 10.0, 20.0)], gpus_per_node=4)
    >>> jobs = [JobSpec(name="big", gpus=32, tp_size=4, work_hours=4.0),
    ...         JobSpec(name="small", gpus=8, tp_size=4, work_hours=2.0,
    ...                 submit_hour=1.0)]
    >>> report = ClusterScheduler(
    ...     BigSwitchHBD(4), trace.interval_timeline(), jobs).run()
    >>> [(job.name, job.finished) for job in report.jobs]
    [('big', True), ('small', True)]
    >>> report.jobs[1].waiting_hours   # queued behind "big" from t=1 to t=4
    3.0
    >>> report.makespan_hours
    6.0

    Handing over capacity that has already been replayed gives the same
    report:

    >>> from repro.simulation.cluster import replay_intervals
    >>> timeline = trace.interval_timeline()
    >>> column = replay_intervals(BigSwitchHBD(4), timeline, 4).usable_gpus.tolist()
    >>> ClusterScheduler(BigSwitchHBD(4), timeline, jobs,
    ...                  usable_gpus={4: column}).run() == report
    True

    In placed mode jobs hold concrete nodes, so the fault starting at t=10
    on node 0 is a deterministic hit on exactly the job holding it:

    >>> long_job = JobSpec(name="long", gpus=32, tp_size=4, work_hours=12.0)
    >>> placed = ClusterScheduler(
    ...     BigSwitchHBD(4), trace.interval_timeline(), [long_job],
    ...     placement="packed").run()
    >>> placed.jobs[0].impacting_faults   # a real hit count, not an expectation
    1.0
    >>> placed.jobs[0].waiting_hours      # descheduled while node 0 is down
    10.0
    """

    def __init__(
        self,
        architecture: HBDArchitecture,
        timeline: IntervalTimeline,
        jobs: Sequence[JobSpec],
        policy: SchedulingPolicy | None = None,
        horizon_hours: float | None = None,
        placement: PlacementPolicy | str | None = None,
        backfill: bool = False,
        usable_gpus: Mapping[int, Sequence[int]] | None = None,
    ) -> None:
        if timeline.gpus_per_node != architecture.gpus_per_node:
            raise ValueError(
                f"timeline GPUs/node ({timeline.gpus_per_node}) must match the "
                f"architecture ({architecture.gpus_per_node})"
            )
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique within a workload")
        self.architecture = architecture
        self.timeline = timeline
        self.policy = policy if policy is not None else FifoPolicy()
        self.horizon_hours = horizon_hours
        check_finite(self, "horizon_hours")
        if horizon_hours is not None and horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")
        if isinstance(placement, str):
            placement = placement_by_name(placement)
        self.placement = placement
        self.backfill = bool(backfill)
        self.n_nodes = timeline.n_nodes
        self.total_gpus = architecture.total_gpus(timeline.n_nodes)
        self.jobs: tuple[JobSpec, ...] = tuple(jobs)
        for job in self.jobs:
            if job.gpus > self.total_gpus:
                raise ValueError(
                    f"job {job.name!r} ({job.gpus} GPUs) larger than the "
                    f"cluster ({self.total_gpus} GPUs)"
                )
        self._usable: dict[tuple[frozenset[int], int], int] = {}
        for tp_size, column in (usable_gpus or {}).items():
            if len(column) != len(timeline.intervals):
                raise ValueError(
                    f"usable_gpus for TP-{tp_size} has {len(column)} values, "
                    f"but the timeline has {len(timeline.intervals)} intervals"
                )
            for interval, value in zip(timeline.intervals, column, strict=True):
                self._usable[(interval.nodes, tp_size)] = int(value)
        # Placed-mode bookkeeping: memoized placement domains per (fault
        # set, TP), the nodes currently held by allocated jobs, and per-TP
        # free-node states (rebuilt whenever the fault set moves).
        self._groups: dict[tuple[frozenset[int], int], tuple[PlacementGroup, ...]] = {}
        self._placed_cap: dict[tuple[frozenset[int], int], int] = {}
        self._held: set[int] = set()
        self._tp_states: dict[int, _TpPlacementState] = {}

    # ------------------------------------------------------------- capacity
    def _capacity(self, faults: frozenset[int], tp_size: int) -> int:
        # Expected-value capacity: the caller's replayed column where one was
        # given, else one full ``usable_gpus`` recompute per distinct (fault
        # set, TP size); fault sets recur along the sweep.
        key = (faults, tp_size)
        usable = self._usable.get(key)
        if usable is None:
            usable = self.architecture.usable_gpus(self.n_nodes, faults, tp_size)
            self._usable[key] = usable
        return usable

    def _validate_runs_to_completion(
        self, capacity: Callable[[frozenset[int], int], int]
    ) -> None:
        empty: frozenset[int] = frozenset()
        for job in self.jobs:
            if job.work_hours is None:
                raise ValueError(
                    f"job {job.name!r} has unbounded work; set horizon_hours"
                )
            if job.gpus > capacity(empty, job.tp_size):
                raise ValueError(
                    f"job {job.name!r} ({job.gpus} GPUs at TP-{job.tp_size}) "
                    f"cannot run even on the fault-free cluster; set "
                    f"horizon_hours to simulate it waiting forever"
                )

    # -------------------------------------------------- placed-mode plumbing
    def _placement_groups(
        self, faults: frozenset[int], tp_size: int
    ) -> tuple[PlacementGroup, ...]:
        key = (faults, tp_size)
        groups = self._groups.get(key)
        if groups is None:
            groups = self.architecture.placement_groups(
                self.n_nodes, faults, tp_size
            )
            self._groups[key] = groups
        return groups

    def _placed_capacity(self, faults: frozenset[int], tp_size: int) -> int:
        key = (faults, tp_size)
        capacity = self._placed_cap.get(key)
        if capacity is None:
            capacity = sum(
                g.capacity_gpus for g in self._placement_groups(faults, tp_size)
            )
            self._placed_cap[key] = capacity
        return capacity

    def _tp_state(self, tp_size: int, faults: frozenset[int]) -> _TpPlacementState:
        state = self._tp_states.get(tp_size)
        if state is None or state.faults != faults:
            state = _TpPlacementState(
                faults,
                self._placement_groups(faults, tp_size),
                self._held,
                prior=state,
            )
            self._tp_states[tp_size] = state
        return state

    def _placed_sync(self, nodes: frozenset[int], skip: int | None = None) -> None:
        """Refresh the free lists of every domain touching ``nodes``.

        Free lists are a pure function of (domain nodes, held set), so a
        refresh after any hold/release keeps every TP size consistent
        (``skip`` names a TP size already updated in place).  Stale states
        (built for an older fault set) are refreshed too -- harmlessly,
        since they are rebuilt wholesale on their next use.
        """
        for tp_size, state in self._tp_states.items():
            if tp_size == skip:
                continue
            touched = {
                state.node_group[node]
                for node in nodes
                if node in state.node_group
            }
            for index in sorted(touched):
                state.refresh(index, self._held)

    def _release_nodes(self, nodes: frozenset[int]) -> None:
        # Expected-value jobs hold no nodes, so this is a no-op there.
        if nodes:
            self._held -= nodes
            self._placed_sync(nodes)

    def _place_plan(
        self, state: _TpPlacementState, needed: int
    ) -> list[tuple[int, int]] | None:
        """Pick ``(domain index, TP groups)`` per the placement policy, or fail.

        Pure planning: no nodes are taken, so look-ahead selection can dry-run
        candidate placements and commit only the winner.  Domains are filled
        band by band -- the slot-count bands in the policy's ``bands`` order,
        index order within a band -- so no domain list is ever sorted.
        """
        if state.avail_total < needed:
            return None
        placement = self.placement
        assert placement is not None  # placed mode only
        plan: list[tuple[int, int]] = []
        for slots in sorted(state.buckets, reverse=placement.bands == "descending"):
            if not slots:
                continue
            for index in state.buckets[slots]:
                take = min(slots, needed)
                plan.append((index, take))
                needed -= take
                if not needed:
                    return plan
        return plan

    def _commit_plan(
        self, state: _TpPlacementState, plan: list[tuple[int, int]], tp_size: int
    ) -> frozenset[int]:
        """Take the planned nodes.  The nodes handed out are always the first
        free nodes of each chosen domain (deployment order), so the outcome
        is a deterministic function of the schedule history.
        """
        taken: list[int] = []
        for index, take in plan:
            count = take * state.npg[index]
            taken.extend(state.free[index][:count])
            del state.free[index][:count]
            state.set_avail(index, state.avail[index] - take)
        nodes = frozenset(taken)
        self._held |= nodes
        self._placed_sync(nodes, skip=tp_size)
        return nodes

    # ----------------------------------------------------------- allocation
    def _backfill_window(
        self,
        head: _JobRuntime,
        allocated: list[_JobRuntime],
        faults: frozenset[int],
        t: float,
    ) -> tuple[float, float]:
        """EASY reservation for a blocked head: (shadow start, extra GPUs).

        Projects the currently allocated jobs' completions under the current
        fault interval's capacity (at the head's TP granularity) and finds
        the earliest instant the head could start; ``extra`` is the capacity
        still free at that instant after the head's reservation.  When the
        head has no projected start (an unbounded job hogs the cluster),
        both are infinite -- backfilling cannot delay a start that never
        comes.

        The reservation is count-granular: exact for the expected-value
        engine and for placed single-TP workloads (slot accounting is
        exact there), conservative under placed-mode fragmentation -- when
        the count says the head fits *now* but placement failed (mixed-TP
        node fragmentation), no reservation can be trusted and backfill is
        blocked outright rather than risk delaying the head.
        """
        capacity = self._capacity(faults, head.spec.tp_size)
        free = capacity - sum(rt.spec.gpus for rt in allocated)
        if free >= head.spec.gpus:
            return t, 0.0
        completions = sorted(
            (t + rt.restart_debt + rt.remaining_work, rt.spec.gpus)
            for rt in allocated
            if rt.remaining_work < math.inf
        )
        for end, gpus in completions:
            free += gpus
            if free >= head.spec.gpus:
                return end, free - head.spec.gpus
        return math.inf, math.inf

    def _may_backfill(
        self, rt: _JobRuntime, t: float, shadow: float, extra: float
    ) -> tuple[bool, bool]:
        """(admit past the blocked head?, does it consume ``extra``?)."""
        projected = t + rt.restart_debt + rt.remaining_work
        if projected <= shadow + _EPS:
            return True, False
        if rt.spec.gpus <= extra:
            return True, True
        return False, False

    def _runtime_key(self, rt: _JobRuntime) -> tuple[Any, ...]:
        """Policy sort key with the job's runtime history folded in."""
        return self.policy.runtime_key(
            rt.spec,
            rt.remaining_work,
            rt.sequence,
            attained_hours=rt.productive,
            waiting_hours=rt.waiting,
            allocated=rt.allocated,
        )

    def _lookahead(
        self,
        admission: list[_JobRuntime],
        chosen: list[_JobRuntime],
        probe: Callable[[_JobRuntime], tuple[float, _Plan] | None],
        commit: Callable[[_JobRuntime, _Plan], None],
    ) -> None:
        """k-job look-ahead admission, appending winners to ``chosen``.

        Repeatedly score the first ``k`` candidates that fit now
        (``lookahead_score`` on the fill fraction ``probe`` reports) and
        admit the best-scoring one: only the winner's plan is committed,
        then the window re-scores against the updated capacity.  Stop when
        nothing in the window fits.  Ties break by submit time then
        sequence, so the outcome is deterministic.
        """
        policy = self.policy
        k = policy.lookahead_k
        assert k is not None
        queue = list(admission)
        while queue:
            best = -1
            best_rank: tuple[float, float, int] | None = None
            best_plan: _Plan = None
            for index, rt in enumerate(queue[:k]):
                probed = probe(rt)
                if probed is None:
                    continue
                fill, plan = probed
                score = policy.lookahead_score(rt.spec, rt.remaining_work, fill)
                rank = (-score, rt.spec.submit_hour, rt.sequence)
                if best_rank is None or rank < best_rank:
                    best_rank = rank
                    best = index
                    best_plan = plan
            if best < 0:
                break
            winner = queue.pop(best)
            chosen.append(winner)
            commit(winner, best_plan)

    def _keyed(self, running: list[_JobRuntime]) -> list[_JobRuntime]:
        """Re-key the running jobs and return them in policy order.

        Running keys drift (remaining work shrinks, the optimizer credits
        allocated jobs a stability bonus), so they are recomputed at every
        event; there are few running jobs.
        """
        for rt in running:
            rt.key = self._runtime_key(rt)
        return sorted(running, key=_by_key)

    def _walk(
        self,
        admission: list[_JobRuntime],
        chosen: list[_JobRuntime],
        take: Callable[[_JobRuntime], bool],
        faults: frozenset[int],
        t: float,
    ) -> None:
        """Greedy admission in policy order, appending winners to ``chosen``.

        ``take`` tries to allocate one job (and records the allocation).  A
        job that does not fit blocks everything behind it under a
        strict-order policy, unless backfill opens an EASY reservation for
        it: later jobs are then admitted only when they cannot delay it.
        """
        strict = self.policy.strict_order
        shadow: float | None = None
        extra = 0.0
        for rt in admission:
            if shadow is not None:
                admit, consumes = self._may_backfill(rt, t, shadow, extra)
                if admit and take(rt):
                    chosen.append(rt)
                    if consumes:
                        extra -= rt.spec.gpus
                continue
            if take(rt):
                chosen.append(rt)
            elif strict:
                if not self.backfill:
                    break
                shadow, extra = self._backfill_window(rt, chosen, faults, t)

    def _select(
        self,
        running: list[_JobRuntime],
        queue: list[_JobRuntime],
        faults: frozenset[int],
        t: float,
    ) -> tuple[list[_JobRuntime], list[_JobRuntime], dict[int, frozenset[int]]]:
        """One allocation round: (admitted, evicted, nodes per chosen job).

        Both capacity models run this round; the nodes map is empty in
        expected-value mode.  ``queue`` is already in policy order, and the
        round starts in one of three ways:

        * preemptive: running and queued jobs compete in one merged key
          order (placed mode first releases every held node, so jobs are
          re-placed in priority order);
        * non-preemptive, placed: running jobs keep their nodes -- those are
          healthy, since fault hits released their victims' nodes already;
        * non-preemptive, expected-value: running jobs outrank every queued
          job and are re-checked by count.  One the capacity can no longer
          host falls back into the queue at its priority position, so under
          a strict-order policy it still blocks every younger job (no
          backfill past the descheduled queue head).

        The capacity model supplies only how one job is taken, as three
        closures: ``take`` allocates it now (a GPU count, or a node plan
        committed at once); ``probe`` is pure and returns the fill fraction
        and the plan of a job that fits now; ``commit`` takes what ``probe``
        planned.  ``take`` is not built from the other two because
        non-strict preemptive walks call it for every queued and running
        job.
        """
        policy = self.policy
        placed = self.placement is not None
        chosen: list[_JobRuntime] = []
        nodes_of: dict[int, frozenset[int]] = {}
        used = 0  # GPUs allocated so far (expected-value mode)
        admission = queue
        if policy.preemptive:
            if placed:
                self._held.clear()
                self._tp_states.clear()
            # Two sorted runs over cached keys: the sort is a linear merge.
            admission = sorted(queue + self._keyed(running), key=_by_key)
        elif placed:
            for rt in running:
                nodes_of[rt.sequence] = rt.nodes
                chosen.append(rt)
        else:
            displaced: list[_JobRuntime] = []
            for rt in self._keyed(running):
                if used + rt.spec.gpus <= self._capacity(faults, rt.spec.tp_size):
                    chosen.append(rt)
                    used += rt.spec.gpus
                else:
                    displaced.append(rt)
            if displaced:
                admission = sorted(queue + displaced, key=_by_key)

        if placed:

            def take(rt: _JobRuntime) -> bool:
                # Only preemptive re-placement walks allocated jobs: one
                # keeps its exact nodes whenever no higher-priority job
                # claimed them (stability -- an unmoved job is never charged).
                if rt.allocated and rt.nodes and not (rt.nodes & self._held):
                    self._held |= rt.nodes
                    self._placed_sync(rt.nodes)
                    nodes_of[rt.sequence] = rt.nodes
                    return True
                spec = rt.spec
                state = self._tp_state(spec.tp_size, faults)
                plan = self._place_plan(state, spec.gpus // spec.tp_size)
                if plan is None:
                    return False
                nodes_of[rt.sequence] = self._commit_plan(state, plan, spec.tp_size)
                return True

            def probe(rt: _JobRuntime) -> tuple[float, _Plan] | None:
                # Fill: the TP groups needed over the open slots of the
                # domains the dry-run plan touches.
                spec = rt.spec
                state = self._tp_state(spec.tp_size, faults)
                needed = spec.gpus // spec.tp_size
                plan = self._place_plan(state, needed)
                if plan is None:
                    return None
                return needed / sum(state.avail[i] for i, _ in plan), (state, plan)

            def commit(rt: _JobRuntime, planned: _Plan) -> None:
                assert planned is not None
                state, plan = planned
                nodes_of[rt.sequence] = self._commit_plan(state, plan, rt.spec.tp_size)

        else:

            def take(rt: _JobRuntime) -> bool:
                nonlocal used
                if used + rt.spec.gpus > self._capacity(faults, rt.spec.tp_size):
                    return False
                used += rt.spec.gpus
                return True

            def probe(rt: _JobRuntime) -> tuple[float, _Plan] | None:
                # Fill: the job's GPUs over the free GPUs.
                free = self._capacity(faults, rt.spec.tp_size) - used
                if rt.spec.gpus > free:
                    return None
                return rt.spec.gpus / free, None

            def commit(rt: _JobRuntime, planned: _Plan) -> None:
                nonlocal used
                used += rt.spec.gpus

        if policy.lookahead_k is not None:
            self._lookahead(admission, chosen, probe, commit)
        else:
            self._walk(admission, chosen, take, faults, t)
        kept = {rt.sequence for rt in chosen if rt.allocated}
        admitted = [rt for rt in chosen if not rt.allocated]
        evicted = [rt for rt in running if rt.sequence not in kept]
        return admitted, evicted, nodes_of

    # ------------------------------------------------------------ the sweep
    def run(self) -> ClusterReport:
        horizon = self.horizon_hours
        placed = self.placement is not None
        capacity = self._placed_capacity if placed else self._capacity
        if horizon is None:
            self._validate_runs_to_completion(capacity)
        policy = self.policy
        dynamic = policy.dynamic_priority
        policy.reset()
        self._held.clear()
        self._tp_states.clear()

        # Blast-radius accounting (placed mode): per fault transition that
        # introduces new down nodes, how many running jobs it descheduled.
        fault_events = 0
        jobs_killed = 0
        max_blast_radius = 0

        runtimes = [_JobRuntime(spec, i) for i, spec in enumerate(self.jobs)]
        pending = sorted(runtimes, key=lambda rt: (rt.spec.submit_hour, rt.sequence))
        pending_index = 0
        # Every in-system job is in exactly one of the two lists: ``running``
        # holds the allocated jobs, ``queue`` the rest in policy-key order.
        running: list[_JobRuntime] = []
        queue: list[_JobRuntime] = []
        unfinished = len(runtimes)

        intervals = self.timeline.intervals
        # Interval end times come off the shared columnar view as plain
        # Python floats (bit-identical to the interval fields): the hot
        # event-time comparisons below skip the per-access attribute chain.
        interval_ends = self.timeline.columnar.ends_list
        interval_index = 0
        empty: frozenset[int] = frozenset()
        faults: frozenset[int] = intervals[0].nodes if intervals else empty

        def enqueue(rt: _JobRuntime) -> None:
            """File an unallocated job at its policy key.

            A static key cannot move while the job waits (its remaining work
            and allocation flag are frozen), so it is computed once, here;
            dynamic-priority queues are re-keyed at every event instead.
            """
            rt.key = self._runtime_key(rt)
            bisect.insort(queue, rt, key=_by_key)

        def settle_completions(now: float) -> None:
            """Mark running jobs whose work and restart debt are both done."""
            nonlocal unfinished, running
            released: set[int] = set()
            before = unfinished
            for rt in running:
                if rt.restart_debt <= _EPS and rt.remaining_work <= _EPS:
                    rt.restart_debt = 0.0
                    rt.remaining_work = 0.0
                    rt.completion = now
                    rt.end = now
                    rt.allocated = False
                    rt.in_system = False
                    released |= rt.nodes
                    rt.nodes = frozenset()
                    unfinished -= 1
            if unfinished != before:
                running = [rt for rt in running if rt.in_system]
            self._release_nodes(frozenset(released))

        t = 0.0
        while unfinished:
            if horizon is not None and t >= horizon:
                break

            # ---------------------------------------------- next event time
            t_next = math.inf
            if interval_index < len(intervals):
                t_next = interval_ends[interval_index]
            if pending_index < len(pending):
                t_next = min(t_next, pending[pending_index].spec.submit_hour)
            if dynamic:
                for rt in (*running, *queue):
                    if rt.restart_debt > _EPS:
                        # Jobs paying restart debt change neither clock, and
                        # the debt pay-off is an event of its own.
                        continue
                    # Dynamic-priority policies (Gittins) drift between
                    # queues as attained service / waiting time accumulate;
                    # wake exactly at the next crossing so the boundary
                    # re-sort never misses a demotion or promotion.
                    change = policy.next_priority_change_hours(
                        rt.spec,
                        rt.remaining_work,
                        rt.sequence,
                        attained_hours=rt.productive,
                        waiting_hours=rt.waiting,
                        allocated=rt.allocated,
                    )
                    if change is not None and change > _EPS:
                        t_next = min(t_next, t + change)
            for rt in running:
                if rt.restart_debt > _EPS:
                    t_next = min(t_next, t + rt.restart_debt)
                elif rt.remaining_work < math.inf:
                    t_next = min(t_next, t + rt.remaining_work)
            if horizon is not None:
                t_next = min(t_next, horizon)
            if not math.isfinite(t_next):
                stuck = [rt.spec.name for rt in runtimes if not rt.done]
                raise RuntimeError(
                    f"scheduler stalled with unfinished jobs {stuck}; no "
                    f"event can ever unblock them"
                )

            # --------------------------------------------------- accrue time
            dt = t_next - t
            if dt > 0:
                for rt in queue:
                    rt.waiting += dt
                for rt in running:
                    if rt.restart_debt > _EPS:
                        rt.restart_debt = max(0.0, rt.restart_debt - dt)
                        rt.restart_time += dt
                    else:
                        rt.productive += dt
                        rt.remaining_work -= dt
            t = t_next
            if horizon is not None and t >= horizon:
                # Work finishing exactly at the horizon still counts as a
                # completion before the replay is cut off.
                settle_completions(t)
                break

            # ----------------------------------------- fault-set transition
            new_faults: frozenset[int] = empty
            while (
                interval_index < len(intervals)
                and interval_ends[interval_index] <= t
            ):
                previous = faults
                interval_index += 1
                faults = (
                    intervals[interval_index].nodes
                    if interval_index < len(intervals)
                    else empty
                )
                new_faults = faults - previous

            # ------------------------------------------------------ arrivals
            while (
                pending_index < len(pending)
                and pending[pending_index].spec.submit_hour <= t
            ):
                rt = pending[pending_index]
                rt.in_system = True
                enqueue(rt)
                pending_index += 1

            # --------------------------------------------------- completions
            settle_completions(t)

            # ------------------------------------- deterministic fault hits
            if placed and new_faults:
                # Exactly the jobs whose held nodes went down restart: each
                # direct hit costs half a checkpoint interval plus the
                # restart overhead, and the job's nodes are released.
                fault_events += 1
                released: set[int] = set()
                survivors: list[_JobRuntime] = []
                for rt in running:
                    hits = len(rt.nodes & new_faults)
                    if not hits:
                        survivors.append(rt)
                        continue
                    spec = rt.spec
                    debt = hits * (
                        spec.checkpoint_interval_hours / 2.0
                        + spec.restart_overhead_hours
                    )
                    rt.impacting_faults += hits
                    rt.restart_debt += debt
                    rt.restart_charged += debt
                    rt.allocated = False
                    released |= rt.nodes
                    rt.nodes = frozenset()
                    enqueue(rt)
                killed = len(running) - len(survivors)
                running = survivors
                jobs_killed += killed
                max_blast_radius = max(max_blast_radius, killed)
                self._release_nodes(frozenset(released))

            # -------------------------------------------------- reallocation
            if dynamic:
                # Waiting and attained service move dynamic keys: re-key and
                # re-sort the whole queue at every event.
                for rt in queue:
                    rt.key = self._runtime_key(rt)
                queue.sort(key=_by_key)
            admitted, evicted, placements = self._select(running, queue, faults, t)
            if placed:
                for rt in running:
                    # Policy pressure moves placed jobs (fault hits released
                    # their victims above): migration checkpoints and pays
                    # the restart overhead on resume, like eviction below.
                    nodes = placements.get(rt.sequence)
                    if nodes is not None and nodes != rt.nodes:
                        rt.preemptions += 1
                        rt.restart_debt += rt.spec.restart_overhead_hours
                        rt.restart_charged += rt.spec.restart_overhead_hours
                        rt.nodes = nodes
                for rt in admitted:
                    rt.nodes = placements[rt.sequence]
            for rt in evicted:
                # Classify the eviction per job, independent of whether a
                # fault boundary shares the timestamp: a job the current
                # capacity could not host at all just waits (matching the
                # single-job goodput accounting; in placed mode a
                # preemptive reshuffle that leaves a job no room *anywhere*
                # is a squeeze, not a preemption), while a job that still
                # fits but lost its slot to higher-priority work was
                # preempted -- it checkpoints on the way out and pays the
                # restart overhead when it resumes.
                if rt.spec.gpus <= capacity(faults, rt.spec.tp_size):
                    rt.preemptions += 1
                    rt.restart_debt += rt.spec.restart_overhead_hours
                    rt.restart_charged += rt.spec.restart_overhead_hours
                rt.allocated = False
                rt.nodes = frozenset()
                enqueue(rt)
            for rt in admitted:
                del queue[bisect.bisect_left(queue, rt.key, key=_by_key)]
                if rt.first_start is None:
                    rt.first_start = t
                rt.allocated = True
            if evicted or admitted:
                running = [rt for rt in running if rt.allocated] + admitted

            # ------------------------------------------- fault restart debt
            if new_faults and not placed:
                arrivals = len(new_faults)
                for rt in running:
                    spec = rt.spec
                    expected_hits = arrivals * spec.gpus / self.total_gpus
                    debt = expected_hits * (
                        spec.checkpoint_interval_hours / 2.0
                        + spec.restart_overhead_hours
                    )
                    rt.impacting_faults += expected_hits
                    rt.restart_debt += debt
                    rt.restart_charged += debt

        # ------------------------------------------------------- wind down
        end_hour = t if horizon is None else horizon
        for rt in runtimes:
            if rt.done:
                continue
            if rt.in_system:
                rt.end = end_hour
            else:
                # Never entered the system (submitted after the horizon).
                rt.end = rt.spec.submit_hour

        return ClusterReport(
            jobs=tuple(rt.report() for rt in runtimes),
            n_nodes=self.n_nodes,
            total_gpus=self.total_gpus,
            policy=self.policy.name,
            preemptive=self.policy.preemptive,
            horizon_hours=end_hour if horizon is None else horizon,
            placement=self.placement.name if self.placement is not None else None,
            backfill=self.backfill,
            fault_events=fault_events,
            jobs_killed=jobs_killed,
            max_blast_radius=max_blast_radius,
        )


__all__ = ["ClusterScheduler"]
