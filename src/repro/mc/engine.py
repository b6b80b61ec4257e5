"""Vectorized multi-seed replay of trace batches against one architecture.

:func:`replay_batch` is the batched sibling of
:func:`repro.simulation.cluster.replay_intervals`: it replays every seed of
a :class:`~repro.mc.batch.TraceBatch` in one numpy pass instead of N Python
sweeps.  The pipeline:

1. segmented cumulative sums over the stacked event log give each seed's
   faulty-node count after every event;
2. the architecture's fault-count kernel (:mod:`repro.mc.kernels`) turns
   per-(seed, domain) count transitions into usable-GPU deltas via table
   gathers -- one stable argsort groups every (seed, domain) pair at once;
3. coincident events collapse to the last record per (seed, time) boundary
   and ``np.searchsorted`` slices the merged boundaries back into per-seed
   interval arrays.

Every per-seed result is **bit-for-bit** the scalar
``replay_intervals`` output for that seed: interval boundaries are the same
floats the scalar sweep produces, integer capacity arithmetic is exact, and
the per-seed aggregates replicate the scalar left-fold summations with
``np.cumsum`` (sequential, unlike pairwise ``np.sum``) and the exact
quantile / job-scale walks with lexsort + ``searchsorted``.  Architectures
without a count decomposition (InfiniteHBD) fall back to the exact scalar
replay per seed, so ``replay_batch`` is total over the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.hbd.base import HBDArchitecture
from repro.mc.batch import TraceBatch
from repro.mc.kernels import AdditiveKernel, HealthyGroupsKernel, kernel_for
from repro.simulation.cluster import IntervalSeries, replay_intervals

_IntArray = NDArray[np.int64]
_FloatArray = NDArray[np.float64]


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


def _weighted_quantile_cols(
    values: _FloatArray, weights: _FloatArray, q: float
) -> float:
    """Vectorized twin of :func:`repro.analysis.cdf.weighted_quantile`."""
    n = len(values)
    if n == 0:
        return 0.0
    order = np.lexsort((weights, values))
    values_sorted = values[order]
    cumulative = np.cumsum(weights[order])
    total = cumulative[-1]
    if total <= 0:
        return float(values_sorted[0])
    index = int(np.searchsorted(cumulative, q * total, side="left"))
    return float(values_sorted[min(index, n - 1)])


@dataclass(frozen=True, eq=False)
class BatchSeries:
    """Per-seed interval replay results, stacked (the multi-seed IntervalSeries).

    The five per-interval columns concatenate every seed's series;
    ``interval_offsets[i]:interval_offsets[i+1]`` is seed ``i``'s slice.
    Aggregate methods return one value per seed, each bit-for-bit what the
    corresponding :class:`~repro.simulation.cluster.IntervalSeries` property
    computes; :meth:`series_for_seed` materialises a seed's actual
    ``IntervalSeries`` for direct comparison or downstream scalar use.
    """

    starts_hours: _FloatArray
    ends_hours: _FloatArray
    waste_ratios: _FloatArray
    usable_gpus: _IntArray
    faulty_gpus: _IntArray
    interval_offsets: _IntArray
    total_gpus: int
    seeds: tuple[int, ...]

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    def __len__(self) -> int:
        return len(self.starts_hours)

    @classmethod
    def from_interval_series(
        cls, series: Sequence[IntervalSeries], seeds: Sequence[int] | None = None
    ) -> BatchSeries:
        """Stack scalar per-seed series (the exact-fallback constructor)."""
        if not series:
            raise ValueError("at least one series is required")
        total_gpus = series[0].total_gpus
        for entry in series:
            if entry.total_gpus != total_gpus:
                raise ValueError("all series must share total_gpus")
        offsets = np.zeros(len(series) + 1, dtype=np.int64)
        np.cumsum([len(entry) for entry in series], out=offsets[1:])
        return cls(
            starts_hours=_concat([s.starts_hours for s in series], np.float64),
            ends_hours=_concat([s.ends_hours for s in series], np.float64),
            waste_ratios=_concat([s.waste_ratios for s in series], np.float64),
            usable_gpus=_concat([s.usable_gpus for s in series], np.int64),
            faulty_gpus=_concat([s.faulty_gpus for s in series], np.int64),
            interval_offsets=offsets,
            total_gpus=total_gpus,
            seeds=tuple(seeds) if seeds is not None else tuple(range(len(series))),
        )

    # ------------------------------------------------------------ per seed
    def _bounds(self, index: int) -> tuple[int, int]:
        return int(self.interval_offsets[index]), int(self.interval_offsets[index + 1])

    def series_for_seed(self, index: int) -> IntervalSeries:
        """Seed ``index``'s scalar :class:`IntervalSeries` (exact floats)."""
        lo, hi = self._bounds(index)
        return IntervalSeries(
            starts_hours=self.starts_hours[lo:hi].tolist(),
            ends_hours=self.ends_hours[lo:hi].tolist(),
            waste_ratios=self.waste_ratios[lo:hi].tolist(),
            usable_gpus=self.usable_gpus[lo:hi].tolist(),
            faulty_gpus=self.faulty_gpus[lo:hi].tolist(),
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
            # cumsum is a sequential left fold -- bit-for-bit the scalar sum().
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
            result.append(
                _weighted_quantile_cols(self.waste_ratios[lo:hi], durations, q)
            )
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


def _concat(
    parts: Sequence[Sequence[float] | Sequence[int]], dtype: type
) -> NDArray[np.float64] | NDArray[np.int64]:
    arrays = [np.asarray(part, dtype=dtype) for part in parts]
    if not arrays:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(arrays)


def replay_batch(
    architecture: HBDArchitecture, batch: TraceBatch, tp_size: int
) -> BatchSeries:
    """Replay every seed of ``batch`` against ``architecture`` at ``tp_size``.

    One vectorized pass when the architecture exposes a fault-count kernel;
    exact scalar replay per seed otherwise.  Either way every per-seed
    result is bit-for-bit the scalar ``replay_intervals`` output.
    """
    if batch.gpus_per_node != architecture.gpus_per_node:
        raise ValueError(
            f"batch GPUs/node ({batch.gpus_per_node}) must match the "
            f"architecture ({architecture.gpus_per_node})"
        )
    kernel = kernel_for(architecture, batch.n_nodes, tp_size)
    if kernel is None:
        scalar = [
            replay_intervals(architecture, batch.timeline_for_seed(index), tp_size)
            for index in range(batch.n_seeds)
        ]
        return BatchSeries.from_interval_series(scalar, seeds=batch.seeds)
    return _replay_batch_vectorized(architecture, batch, tp_size, kernel)


def _replay_batch_vectorized(
    architecture: HBDArchitecture,
    batch: TraceBatch,
    tp_size: int,
    kernel: AdditiveKernel | HealthyGroupsKernel,
) -> BatchSeries:
    offsets = batch.event_offsets
    n_seeds = batch.n_seeds
    duration = batch.duration_hours
    total_gpus = architecture.total_gpus(batch.n_nodes)

    times: _FloatArray = batch.log["time"]
    node_ids: _IntArray = batch.log["node"]
    kinds: _IntArray = batch.log["kind"].astype(np.int64)
    n_events = len(batch.log)
    counts = np.diff(offsets)
    seed_of_event = np.repeat(np.arange(n_seeds, dtype=np.int64), counts)

    faulty_after = _segmented_cumsum(kinds, offsets)
    usable_after = _usable_after_events(
        kernel, seed_of_event, node_ids, kinds, offsets
    )

    # Collapse coincident events: the state that holds after a boundary is
    # the last record at that (seed, time).  Normalization guarantees no
    # record sits at or beyond the trace end.
    if n_events:
        is_last = np.empty(n_events, dtype=bool)
        is_last[-1] = True
        is_last[:-1] = (times[1:] != times[:-1]) | (
            seed_of_event[1:] != seed_of_event[:-1]
        )
        boundary_time = times[is_last]
        boundary_faulty = faulty_after[is_last]
        boundary_usable = usable_after[is_last]
        boundary_seed = seed_of_event[is_last]
    else:
        boundary_time = np.zeros(0, dtype=np.float64)
        boundary_faulty = np.zeros(0, dtype=np.int64)
        boundary_usable = np.zeros(0, dtype=np.int64)
        boundary_seed = np.zeros(0, dtype=np.int64)

    boundary_offsets = np.searchsorted(
        boundary_seed, np.arange(n_seeds + 1, dtype=np.int64)
    )
    boundary_counts = np.diff(boundary_offsets)

    # A seed gets a lead interval from t=0 in the base (zero-fault) state
    # unless its first boundary already sits at t=0.
    lead = np.ones(n_seeds, dtype=np.int64)
    has_boundary = boundary_counts > 0
    first_time = np.zeros(n_seeds, dtype=np.float64)
    first_time[has_boundary] = boundary_time[boundary_offsets[:-1][has_boundary]]
    lead[has_boundary & (first_time == 0.0)] = 0

    out_offsets = np.zeros(n_seeds + 1, dtype=np.int64)
    np.cumsum(boundary_counts + lead, out=out_offsets[1:])
    n_intervals = int(out_offsets[-1])

    starts = np.empty(n_intervals, dtype=np.float64)
    fault_counts = np.empty(n_intervals, dtype=np.int64)
    usable = np.empty(n_intervals, dtype=np.int64)

    lead_positions = out_offsets[:-1][lead == 1]
    starts[lead_positions] = 0.0
    fault_counts[lead_positions] = 0
    usable[lead_positions] = kernel.base_usable

    if len(boundary_seed):
        destinations = (
            np.arange(len(boundary_seed), dtype=np.int64)
            - np.repeat(boundary_offsets[:-1], boundary_counts)
            + np.repeat(out_offsets[:-1] + lead, boundary_counts)
        )
        starts[destinations] = boundary_time
        fault_counts[destinations] = boundary_faulty
        usable[destinations] = boundary_usable

    ends = np.empty(n_intervals, dtype=np.float64)
    ends[:-1] = starts[1:]
    ends[out_offsets[1:] - 1] = duration

    faulty_gpus = fault_counts * np.int64(batch.gpus_per_node)
    if total_gpus:
        # int64 arithmetic then one float64 division: IEEE-identical to the
        # scalar WasteBreakdown's python int / int true division.
        waste = (total_gpus - faulty_gpus - usable) / float(total_gpus)
    else:
        waste = np.zeros(n_intervals, dtype=np.float64)

    return BatchSeries(
        starts_hours=starts,
        ends_hours=ends,
        waste_ratios=waste,
        usable_gpus=usable,
        faulty_gpus=faulty_gpus,
        interval_offsets=out_offsets,
        total_gpus=total_gpus,
        seeds=batch.seeds,
    )


__all__ = [
    "BatchSeries",
    "replay_batch",
]
