"""Vectorized multi-seed replay of trace batches against one architecture.

:func:`replay_batch` is the batched sibling of
:func:`repro.simulation.cluster.replay_intervals`: it replays every seed of
a :class:`~repro.mc.batch.TraceBatch` in one numpy pass instead of N Python
sweeps.  Both vectorized passes share one interval layout: segmented
cumulative sums over the stacked event log give each seed's faulty-node
count after every event, coincident events collapse to the last record per
(seed, time) boundary, and ``np.searchsorted`` slices the merged boundaries
back into per-seed interval arrays.  Capacity then comes from one of:

* the **count pass** -- the architecture's fault-count kernel
  (:mod:`repro.mc.kernels`) turns per-(seed, domain) count transitions into
  usable-GPU deltas via table gathers; one stable argsort groups every
  (seed, domain) pair at once;
* the **segment pass** for InfiniteHBD, whose K-hop capacity depends on
  *which* nodes failed: every fault run expands into one (interval, node)
  entry per interval it covers, a sort by ``interval * n_nodes + node``
  ranks the faults inside each interval, and a fault of rank ``r`` at node
  ``p`` has ``p - r`` healthy nodes before it.  That count is constant along
  a run of adjacent faults, so runs of ``>= K`` (the Appendix C
  breakpoints) are cuts, and the segments between consecutive cuts hold the
  differences of their healthy-before counts.

Every per-seed series is **bit-for-bit** the scalar ``replay_intervals``
output for that seed: interval boundaries are the same floats the scalar
sweep produces and integer capacity arithmetic is exact.  Any other
architecture without a count decomposition (a plugin) falls back to the
exact scalar replay per seed, so ``replay_batch`` is total over every
registry.

:class:`BatchSeries` is what both replays return -- ``replay_batch`` for a
block of seeds, ``replay_intervals`` for one -- and the one implementation of
the capacity aggregates (mean / p99 waste, minimum usable GPUs, supported job
scale, fault-waiting rate, windowed mean waste).  Sums run left to right in
interval order (``np.cumsum``, not the pairwise ``np.sum`` or the
interpreter's ``sum()``), and the quantile and job-scale walks sort with
lexsort and stop with ``searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.analysis.cdf import weighted_quantile
from repro.faults.trace import HOURS_PER_DAY
from repro.hbd.base import HBDArchitecture
from repro.hbd.infinitehbd import InfiniteHBDArchitecture
from repro.mc.batch import TraceBatch
from repro.mc.kernels import AdditiveKernel, HealthyGroupsKernel, kernel_for
from repro.simulation.cluster import replay_intervals

_IntArray = NDArray[np.int64]
_FloatArray = NDArray[np.float64]

#: Most (interval, faulty node) entries one chunk of the segment pass
#: expands.  Whole seeds are grouped up to this budget (a seed larger than it
#: is a chunk of its own), which bounds the pass's working memory on large
#: seed blocks without splitting any seed.
_SEGMENT_CHUNK_ENTRIES = 1 << 18


def _segmented_cumsum(values: _IntArray, offsets: _IntArray) -> _IntArray:
    """Cumulative sum restarted at every segment boundary."""
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64)
    cumulative = np.cumsum(values)
    counts = np.diff(offsets)
    base = np.zeros(len(counts), dtype=np.int64)
    starts = offsets[:-1]
    nonzero = starts > 0
    base[nonzero] = cumulative[starts[nonzero] - 1]
    result: _IntArray = cumulative - np.repeat(base, counts)
    return result


def _domain_transitions(
    seed_of_event: _IntArray, domains: _IntArray, kinds: _IntArray, n_domains: int
) -> tuple[_IntArray, _IntArray, _IntArray, _IntArray, _IntArray]:
    """Per-(seed, domain) fault counts around every in-domain event.

    Returns ``(positions, domains_sorted, kinds_sorted, before, after)``
    where ``positions`` maps each row back into the original event order.
    One stable argsort on the composite (seed, domain) key groups all pairs
    while preserving time order inside each group.
    """
    in_domain = np.flatnonzero(domains >= 0)
    if len(in_domain) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty, empty
    key = seed_of_event[in_domain] * np.int64(n_domains) + domains[in_domain]
    order = np.argsort(key, kind="stable")
    positions = in_domain[order]
    key_sorted = key[order]
    kinds_sorted = kinds[positions]
    cumulative = np.cumsum(kinds_sorted)
    new_group = np.empty(len(order), dtype=bool)
    new_group[0] = True
    new_group[1:] = key_sorted[1:] != key_sorted[:-1]
    group_id = np.cumsum(new_group) - 1
    group_start = np.flatnonzero(new_group)
    carried = np.where(group_start > 0, cumulative[group_start - 1], 0)
    after: _IntArray = cumulative - carried[group_id]
    before: _IntArray = after - kinds_sorted
    return positions, domains[positions], kinds_sorted, before, after


def _usable_after_events(
    kernel: AdditiveKernel | HealthyGroupsKernel,
    seed_of_event: _IntArray,
    node_ids: _IntArray,
    kinds: _IntArray,
    offsets: _IntArray,
) -> _IntArray:
    """Usable-GPU level after each event, per seed."""
    n_events = len(node_ids)
    domains = kernel.domain_of_node[node_ids] if n_events else np.zeros(0, np.int64)
    positions, domains_sorted, kinds_sorted, before, after = _domain_transitions(
        seed_of_event, domains, kinds, max(kernel.n_domains, 1)
    )
    delta = np.zeros(n_events, dtype=np.int64)
    if len(positions):
        if isinstance(kernel, AdditiveKernel):
            table_base = kernel.table_offset_of_domain[domains_sorted]
            delta[positions] = (
                kernel.table_flat[table_base + after]
                - kernel.table_flat[table_base + before]
            )
        else:
            healthy_delta = np.zeros(len(positions), dtype=np.int64)
            healthy_delta[(kinds_sorted > 0) & (before == 0)] = -1
            healthy_delta[(kinds_sorted < 0) & (after == 0)] = 1
            delta[positions] = healthy_delta
    if isinstance(kernel, AdditiveKernel):
        return kernel.base_usable + _segmented_cumsum(delta, offsets)
    healthy = kernel.n_domains + _segmented_cumsum(delta, offsets)
    usable: _IntArray = (healthy // kernel.group_size) * kernel.tp_size
    return usable


@dataclass(frozen=True, eq=False)
class BatchSeries:
    """Per-seed interval replay results, stacked: one seed or many.

    The five per-interval columns concatenate every seed's series;
    ``interval_offsets[i]:interval_offsets[i+1]`` is seed ``i``'s slice.
    :meth:`seed` slices one seed out without copying, and :meth:`concat`
    stacks series back into one batch.  Aggregate methods return one value
    per seed and are the only implementation of each aggregate.  A column
    may share memory with the replayed timeline: treat the arrays as
    immutable.
    """

    starts_hours: _FloatArray
    ends_hours: _FloatArray
    waste_ratios: _FloatArray
    usable_gpus: _IntArray
    faulty_gpus: _IntArray
    interval_offsets: _IntArray
    total_gpus: int

    @property
    def n_seeds(self) -> int:
        return len(self.interval_offsets) - 1

    def __len__(self) -> int:
        return len(self.starts_hours)

    @property
    def times_days(self) -> _FloatArray:
        """Interval start times in days (for plotting step series)."""
        result: _FloatArray = self.starts_hours / HOURS_PER_DAY
        return result

    @property
    def durations_hours(self) -> _FloatArray:
        result: _FloatArray = self.ends_hours - self.starts_hours
        return result

    @classmethod
    def concat(cls, parts: Sequence[BatchSeries]) -> BatchSeries:
        """Every seed of ``parts``, in order, as one batch."""
        if not parts:
            raise ValueError("at least one series is required")
        total_gpus = parts[0].total_gpus
        if any(part.total_gpus != total_gpus for part in parts):
            raise ValueError("all series must share total_gpus")
        sizes = np.concatenate([np.diff(part.interval_offsets) for part in parts])
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(
            starts_hours=np.concatenate([part.starts_hours for part in parts]),
            ends_hours=np.concatenate([part.ends_hours for part in parts]),
            waste_ratios=np.concatenate([part.waste_ratios for part in parts]),
            usable_gpus=np.concatenate([part.usable_gpus for part in parts]),
            faulty_gpus=np.concatenate([part.faulty_gpus for part in parts]),
            interval_offsets=offsets,
            total_gpus=total_gpus,
        )

    # ------------------------------------------------------------ per seed
    def _bounds(self, index: int) -> tuple[int, int]:
        return int(self.interval_offsets[index]), int(self.interval_offsets[index + 1])

    def seed(self, index: int) -> BatchSeries:
        """Seed ``index`` as a one-seed series of column slices (no copy)."""
        if not 0 <= index < self.n_seeds:
            raise IndexError(f"seed index {index} out of range for {self.n_seeds} seeds")
        lo, hi = self._bounds(index)
        return BatchSeries(
            starts_hours=self.starts_hours[lo:hi],
            ends_hours=self.ends_hours[lo:hi],
            waste_ratios=self.waste_ratios[lo:hi],
            usable_gpus=self.usable_gpus[lo:hi],
            faulty_gpus=self.faulty_gpus[lo:hi],
            interval_offsets=np.array([0, hi - lo], dtype=np.int64),
            total_gpus=self.total_gpus,
        )

    def total_hours_for_seed(self, index: int) -> float:
        lo, hi = self._bounds(index)
        if lo == hi:
            return 0.0
        return float(self.ends_hours[hi - 1] - self.starts_hours[lo])

    # ----------------------------------------------------- aggregate columns
    def mean_waste_ratios(self) -> list[float]:
        """Per-seed exact time-averaged waste ratio."""
        result = []
        for index in range(self.n_seeds):
            lo, hi = self._bounds(index)
            total = self.total_hours_for_seed(index)
            if total == 0:
                result.append(0.0)
                continue
            weighted = self.waste_ratios[lo:hi] * (
                self.ends_hours[lo:hi] - self.starts_hours[lo:hi]
            )
            # cumsum is a sequential left fold in interval order.
            result.append(float(np.cumsum(weighted)[-1] / total))
        return result

    def waste_ratio_quantiles(self, q: float) -> list[float]:
        """Per-seed exact duration-weighted waste-ratio quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        result = []
        for index in range(self.n_seeds):
            lo, hi = self._bounds(index)
            durations = self.ends_hours[lo:hi] - self.starts_hours[lo:hi]
            result.append(weighted_quantile(self.waste_ratios[lo:hi], durations, q))
        return result

    def p99_waste_ratios(self) -> list[float]:
        return self.waste_ratio_quantiles(0.99)

    def min_usable_gpus(self) -> list[int]:
        result = []
        for index in range(self.n_seeds):
            lo, hi = self._bounds(index)
            result.append(0 if lo == hi else int(self.usable_gpus[lo:hi].min()))
        return result

    def supported_job_scales(self, availability: float = 1.0) -> list[int]:
        """Per-seed largest job scale available ``availability`` of the time."""
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        result = []
        for index in range(self.n_seeds):
            lo, hi = self._bounds(index)
            if lo == hi:
                result.append(0)
                continue
            usable = self.usable_gpus[lo:hi]
            if availability == 1.0:
                result.append(int(usable.min()))
                continue
            # Smallest usable level u with P(usable <= u) > 1 - availability:
            # the job can be any scale up to u and still wait at most
            # 1 - availability.
            durations = self.ends_hours[lo:hi] - self.starts_hours[lo:hi]
            order = np.lexsort((durations, usable))
            usable_sorted = usable[order]
            cumulative = np.cumsum(durations[order])
            budget = (1.0 - availability) * self.total_hours_for_seed(index)
            position = int(
                np.searchsorted(cumulative, budget * (1.0 + 1e-12), side="right")
            )
            result.append(int(usable_sorted[min(position, len(usable_sorted) - 1)]))
        return result

    def fault_waiting_rates(self, job_gpus: int) -> list[float]:
        """Per-seed exact fraction of time ``job_gpus`` cannot run."""
        result = []
        for index in range(self.n_seeds):
            lo, hi = self._bounds(index)
            total = self.total_hours_for_seed(index)
            if total == 0:
                result.append(0.0)
                continue
            durations = self.ends_hours[lo:hi] - self.starts_hours[lo:hi]
            waiting = durations * (self.usable_gpus[lo:hi] < job_gpus)
            result.append(float(np.cumsum(waiting)[-1] / total))
        return result

    def mean_waste_in_window(self, start_day: float, end_day: float) -> list[float]:
        """Per-seed duration-weighted mean waste ratio over ``[start_day, end_day)``.

        A seed with no interval inside the window reads 0.0.
        """
        start_h, end_h = start_day * HOURS_PER_DAY, end_day * HOURS_PER_DAY
        overlap = np.minimum(self.ends_hours, end_h) - np.maximum(self.starts_hours, start_h)
        result = []
        for index in range(self.n_seeds):
            lo, hi = self._bounds(index)
            inside = overlap[lo:hi] > 0
            covered = overlap[lo:hi][inside]
            if len(covered) == 0:
                result.append(0.0)
                continue
            weighted = self.waste_ratios[lo:hi][inside] * covered
            result.append(float(np.cumsum(weighted)[-1] / np.cumsum(covered)[-1]))
        return result


def replay_batch(
    architecture: HBDArchitecture, batch: TraceBatch, tp_size: int
) -> BatchSeries:
    """Replay every seed of ``batch`` against ``architecture`` at ``tp_size``.

    One vectorized pass when the architecture exposes a fault-count kernel
    (the count pass) or is InfiniteHBD (the K-hop segment pass); exact
    scalar replay per seed otherwise.  Either way every per-seed result is
    bit-for-bit the scalar ``replay_intervals`` output.
    """
    if batch.gpus_per_node != architecture.gpus_per_node:
        raise ValueError(
            f"batch GPUs/node ({batch.gpus_per_node}) must match the "
            f"architecture ({architecture.gpus_per_node})"
        )
    kernel = kernel_for(architecture, batch.n_nodes, tp_size)
    if kernel is not None:
        return _replay_batch_vectorized(architecture, batch, tp_size, kernel)
    if isinstance(architecture, InfiniteHBDArchitecture):
        return _replay_batch_segments(architecture, batch, tp_size)
    return BatchSeries.concat(
        [
            replay_intervals(architecture, batch.timeline_for_seed(index), tp_size)
            for index in range(batch.n_seeds)
        ]
    )


@dataclass(frozen=True, eq=False)
class _IntervalLayout:
    """Every seed's interval arrays after collapsing coincident events.

    ``offsets[i]:offsets[i+1]`` is seed ``i``'s slice of the interval
    columns.  ``event_interval[e]`` is the interval whose state begins at
    event ``e`` (coincident events share one); ``last_events`` are the
    events whose after-state each non-lead interval holds.
    """

    seed_of_event: _IntArray
    kinds: _IntArray
    starts: _FloatArray
    ends: _FloatArray
    fault_counts: _IntArray
    offsets: _IntArray
    event_interval: _IntArray
    last_events: _IntArray

    def at_intervals(self, after: _IntArray, lead: int) -> _IntArray:
        """Per-interval value of a per-event running level.

        ``after[e]`` is the level once event ``e`` has applied; a seed's
        lead interval (before its first event) holds ``lead``.
        """
        values = np.full(len(self.starts), lead, dtype=np.int64)
        values[self.event_interval[self.last_events]] = after[self.last_events]
        return values


def _interval_layout(batch: TraceBatch) -> _IntervalLayout:
    """Collapse ``batch``'s stacked event log into per-seed interval arrays."""
    offsets = batch.event_offsets
    n_seeds = batch.n_seeds
    times: _FloatArray = batch.log["time"]
    kinds: _IntArray = batch.log["kind"].astype(np.int64)
    n_events = len(times)
    seed_of_event = np.repeat(np.arange(n_seeds, dtype=np.int64), np.diff(offsets))

    # Collapse coincident events: the state that holds after a boundary is
    # the last record at that (seed, time).  Normalization guarantees no
    # record sits at or beyond the trace end.
    is_last = np.empty(n_events, dtype=bool)
    if n_events:
        is_last[-1] = True
        is_last[:-1] = (times[1:] != times[:-1]) | (
            seed_of_event[1:] != seed_of_event[:-1]
        )
    last_events = np.flatnonzero(is_last)
    boundary_seed = seed_of_event[last_events]
    boundary_offsets = np.searchsorted(
        boundary_seed, np.arange(n_seeds + 1, dtype=np.int64)
    )
    boundary_counts = np.diff(boundary_offsets)

    # A seed gets a lead interval from t=0 in the base (zero-fault) state
    # unless its first boundary already sits at t=0.
    lead = np.ones(n_seeds, dtype=np.int64)
    has_boundary = boundary_counts > 0
    first_time = np.zeros(n_seeds, dtype=np.float64)
    first_time[has_boundary] = times[last_events[boundary_offsets[:-1][has_boundary]]]
    lead[has_boundary & (first_time == 0.0)] = 0

    out_offsets = np.zeros(n_seeds + 1, dtype=np.int64)
    np.cumsum(boundary_counts + lead, out=out_offsets[1:])
    n_intervals = int(out_offsets[-1])

    boundary_interval = (
        np.arange(len(last_events), dtype=np.int64)
        - np.repeat(boundary_offsets[:-1], boundary_counts)
        + np.repeat(out_offsets[:-1] + lead, boundary_counts)
    )
    # Event e belongs to the boundary of the first last-record at or after it.
    event_interval = boundary_interval[np.cumsum(is_last) - is_last]

    starts = np.zeros(n_intervals, dtype=np.float64)
    starts[boundary_interval] = times[last_events]
    ends = np.empty(n_intervals, dtype=np.float64)
    ends[:-1] = starts[1:]
    ends[out_offsets[1:] - 1] = batch.duration_hours

    fault_counts = np.zeros(n_intervals, dtype=np.int64)
    fault_counts[boundary_interval] = _segmented_cumsum(kinds, offsets)[last_events]

    return _IntervalLayout(
        seed_of_event=seed_of_event,
        kinds=kinds,
        starts=starts,
        ends=ends,
        fault_counts=fault_counts,
        offsets=out_offsets,
        event_interval=event_interval,
        last_events=last_events,
    )


def _batch_series(
    architecture: HBDArchitecture,
    batch: TraceBatch,
    layout: _IntervalLayout,
    usable: _IntArray,
) -> BatchSeries:
    """Stack the per-interval usable GPUs into the batch result."""
    total_gpus = architecture.total_gpus(batch.n_nodes)
    faulty_gpus = layout.fault_counts * np.int64(batch.gpus_per_node)
    if total_gpus:
        # int64 arithmetic then one float64 division: IEEE-identical to the
        # scalar WasteBreakdown's python int / int true division.
        waste = (total_gpus - faulty_gpus - usable) / float(total_gpus)
    else:
        waste = np.zeros(len(usable), dtype=np.float64)
    return BatchSeries(
        starts_hours=layout.starts,
        ends_hours=layout.ends,
        waste_ratios=waste,
        usable_gpus=usable,
        faulty_gpus=faulty_gpus,
        interval_offsets=layout.offsets,
        total_gpus=total_gpus,
    )


def _replay_batch_vectorized(
    architecture: HBDArchitecture,
    batch: TraceBatch,
    tp_size: int,
    kernel: AdditiveKernel | HealthyGroupsKernel,
) -> BatchSeries:
    """The count pass: usable GPUs from per-domain fault-count tables."""
    layout = _interval_layout(batch)
    usable_after = _usable_after_events(
        kernel,
        layout.seed_of_event,
        batch.log["node"],
        layout.kinds,
        batch.event_offsets,
    )
    usable = layout.at_intervals(usable_after, kernel.base_usable)
    return _batch_series(architecture, batch, layout, usable)


def _replay_batch_segments(
    architecture: InfiniteHBDArchitecture, batch: TraceBatch, tp_size: int
) -> BatchSeries:
    """The segment pass: exact K-hop segment capacity for every interval."""
    layout = _interval_layout(batch)
    n_nodes = batch.n_nodes
    nodes_per_group = architecture.nodes_per_tp_group(tp_size)

    # Fault runs: pair each fail record with the node's next record (its
    # recovery), or with the seed's end when the node never recovers.  A
    # stable sort on (seed, node) keeps each node's records in time order.
    node_ids: _IntArray = batch.log["node"]
    key = layout.seed_of_event * np.int64(n_nodes) + node_ids
    order = np.argsort(key, kind="stable")
    fails = np.flatnonzero(layout.kinds[order] > 0)
    fail_events = order[fails]
    next_events = order[np.minimum(fails + 1, len(order) - 1)]
    recovers = (fails + 1 < len(order)) & (key[next_events] == key[fail_events])
    run_seed = layout.seed_of_event[fail_events]
    run_node = node_ids[fail_events]
    run_first = layout.event_interval[fail_events]
    run_end = np.where(
        recovers, layout.event_interval[next_events], layout.offsets[run_seed + 1]
    )

    # Chunk whole seeds so no chunk expands more than the entry budget.
    entry_offsets = np.zeros(len(layout.fault_counts) + 1, dtype=np.int64)
    np.cumsum(layout.fault_counts, out=entry_offsets[1:])
    seed_entries = entry_offsets[layout.offsets]
    usable = np.empty(len(layout.fault_counts), dtype=np.int64)
    for seed_lo, seed_hi in _seed_chunks(seed_entries, _SEGMENT_CHUNK_ENTRIES):
        lo, hi = int(layout.offsets[seed_lo]), int(layout.offsets[seed_hi])
        run_lo, run_hi = np.searchsorted(run_seed, (seed_lo, seed_hi))
        usable[lo:hi] = _segment_groups(
            run_first[run_lo:run_hi] - lo,
            run_end[run_lo:run_hi] - lo,
            run_node[run_lo:run_hi],
            layout.fault_counts[lo:hi],
            n_nodes,
            architecture.k,
            architecture.ring,
            nodes_per_group,
        ) * np.int64(tp_size)
    return _batch_series(architecture, batch, layout, usable)


def _seed_chunks(seed_entries: _IntArray, budget: int) -> list[tuple[int, int]]:
    """Consecutive seed ranges ``[lo, hi)`` of at most ``budget`` entries.

    ``seed_entries[i]`` is the cumulative entry count before seed ``i``; a
    seed larger than the budget is a chunk of its own.
    """
    n_seeds = len(seed_entries) - 1
    chunks: list[tuple[int, int]] = []
    lo = 0
    for seed in range(1, n_seeds):
        if seed_entries[seed + 1] - seed_entries[lo] > budget:
            chunks.append((lo, seed))
            lo = seed
    chunks.append((lo, n_seeds))
    return chunks


def _segment_groups(
    run_first: _IntArray,
    run_end: _IntArray,
    run_node: _IntArray,
    fault_counts: _IntArray,
    n_nodes: int,
    k: int,
    ring: bool,
    nodes_per_group: int,
) -> _IntArray:
    """TP groups that fit in every interval's K-hop segments.

    Fault run ``j`` keeps ``run_node[j]`` faulty over the intervals
    ``[run_first[j], run_end[j])``; ``fault_counts[i]`` is interval ``i``'s
    faulty-node count, so the expansion holds ``fault_counts.sum()``
    (interval, node) entries.
    """
    n_intervals = len(fault_counts)
    healthy = n_nodes - fault_counts

    # Expand the runs into (interval, node) entries, ordered by interval and
    # node; interval i's entries are then its faulty nodes in ascending order.
    lengths = run_end - run_first
    n_entries = int(lengths.sum())
    entry_index = np.arange(n_entries, dtype=np.int64)
    run_offsets = np.cumsum(lengths) - lengths
    entry_key = np.repeat(run_first - run_offsets, lengths) + entry_index
    entry_key *= np.int64(n_nodes)
    entry_key += np.repeat(run_node, lengths)
    entry_key.sort()
    entry_interval = np.repeat(np.arange(n_intervals, dtype=np.int64), fault_counts)
    interval_offsets = np.cumsum(fault_counts) - fault_counts

    # Healthy nodes before each fault: node - rank within its interval.
    # Constant along a run of adjacent faults, so runs are maximal groups of
    # equal (interval, healthy-before).
    node = entry_key - entry_interval * np.int64(n_nodes)
    rank = entry_index - np.repeat(interval_offsets, fault_counts)
    healthy_before = node - rank
    new_run = np.ones(n_entries, dtype=bool)
    new_run[1:] = (healthy_before[1:] != healthy_before[:-1]) | (
        entry_interval[1:] != entry_interval[:-1]
    )
    run_start = np.flatnonzero(new_run)
    run_length = np.diff(np.append(run_start, n_entries))
    run_hb = healthy_before[run_start]
    run_interval = entry_interval[run_start]

    if ring:
        # A run ending at node n-1 (all healthy nodes before it) continues
        # into the interval's run starting at node 0: one run, at hb 0.
        tail = np.flatnonzero(
            (run_hb == healthy[run_interval]) & (healthy[run_interval] > 0)
        )
        head = np.searchsorted(run_interval, run_interval[tail])
        joined = run_hb[head] == 0
        run_length[head[joined]] += run_length[tail[joined]]
        run_length[tail[joined]] = 0

    # Cuts are the runs of >= K faults; the segments between consecutive
    # cuts of one interval hold the differences of their hb values.
    is_cut = run_length >= k
    cut_hb = run_hb[is_cut]
    cut_interval = run_interval[is_cut]
    cut_offsets = np.zeros(n_intervals + 1, dtype=np.int64)
    np.cumsum(np.bincount(cut_interval, minlength=n_intervals), out=cut_offsets[1:])
    has_cut = cut_offsets[1:] > cut_offsets[:-1]
    first_hb = np.zeros(n_intervals, dtype=np.int64)
    last_hb = np.zeros(n_intervals, dtype=np.int64)
    first_hb[has_cut] = cut_hb[cut_offsets[:-1][has_cut]]
    last_hb[has_cut] = cut_hb[cut_offsets[1:][has_cut] - 1]

    inner = np.zeros(len(cut_hb) + 1, dtype=np.int64)
    if len(cut_hb) > 1:
        same = cut_interval[1:] == cut_interval[:-1]
        inner[2:] = np.cumsum(((cut_hb[1:] - cut_hb[:-1]) // nodes_per_group) * same)
    groups: _IntArray = inner[cut_offsets[1:]] - inner[cut_offsets[:-1]]
    if ring:
        # Cyclic: the segment after the last cut wraps to the first one.  A
        # ring with no cut, or with one, is a single segment of H nodes.
        groups += (first_hb + healthy - last_hb) // nodes_per_group
    else:
        groups += first_hb // nodes_per_group + (healthy - last_hb) // nodes_per_group
    return groups


__all__ = [
    "BatchSeries",
    "replay_batch",
]
