"""Event-driven fault timeline engine (sweep-line over fault boundaries).

The section 6.2 metrics were originally computed by sampling the fault trace
on a fixed grid, with every sample doing a full O(n_events) scan -- so cost
grew as O(samples x events) and every aggregate depended on an arbitrary
``sample_interval_hours`` (short faults between grid points were invisible).

This module replaces the grid with the *exact* representation of the fault
process: a sweep-line over the sorted fault start/end boundaries yields the
piecewise-constant sequence of ``(interval_start, interval_end,
frozenset(faulty_nodes))`` in O(events log events), independent of the trace
duration.  Every downstream metric (waste CDF, supported job scale, waiting
fraction, fault-ratio statistics) becomes a duration-weighted exact quantity
over these intervals.

The sweep itself runs over the *columnar event log*
(:mod:`repro.faults.events`): the normalized ``(time, node, kind)`` numpy
structured array built once per trace and shared -- zero copy -- with the
replay layer, the scheduler's capacity walk and the batched Monte-Carlo
engine (:mod:`repro.mc`).  :attr:`IntervalTimeline.event_log` exposes that
array, and :attr:`IntervalTimeline.columnar` the per-interval
``starts/ends/fault_counts`` column view.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Iterator

import numpy as np
from numpy.typing import NDArray

from repro.analysis.cdf import left_sum, weighted_quantile
from repro.faults.events import (
    ColumnarIntervals,
    columnar_event_log,
    event_log_from_columns,
    event_log_from_intervals,
)
from repro.faults.trace import FaultEvent, FaultTrace


@dataclass(frozen=True)
class FaultInterval:
    """One maximal interval ``[start_hour, end_hour)`` of a constant fault set."""

    start_hour: float
    end_hour: float
    nodes: frozenset[int]

    @property
    def duration_hours(self) -> float:
        return self.end_hour - self.start_hour


def sweep_intervals(
    events: Iterable[FaultEvent], duration_hours: float
) -> tuple[FaultInterval, ...]:
    """Exact piecewise-constant fault-set sequence covering ``[0, duration)``.

    Events are clipped to the trace window; overlapping events on the same
    node are unioned (columnar-log normalization), so every boundary changes
    the fault set and consecutive intervals always differ.
    """
    log = columnar_event_log(events, duration_hours)
    return intervals_from_event_log(log, duration_hours)


def intervals_from_event_log(
    log: NDArray[np.void], duration_hours: float
) -> tuple[FaultInterval, ...]:
    """Sweep a normalized columnar event log into the interval sequence.

    The log must be normalized (see :mod:`repro.faults.events`): each record
    flips one node's state, records are sorted by time, and no record sits
    at or beyond ``duration_hours``.  Because every distinct timestamp
    genuinely changes the fault set, no adjacent-interval merging is needed.
    """
    if duration_hours <= 0:
        raise ValueError("duration_hours must be positive")
    times: list[float] = log["time"].tolist()
    node_ids: list[int] = log["node"].tolist()
    kinds: list[int] = log["kind"].tolist()

    intervals: list[FaultInterval] = []
    open_nodes: set[int] = set()
    cursor = 0.0
    index = 0
    n = len(times)
    while index < n:
        t = times[index]
        if t > cursor:
            intervals.append(FaultInterval(cursor, t, frozenset(open_nodes)))
            cursor = t
        while index < n and times[index] == t:
            if kinds[index] > 0:
                open_nodes.add(node_ids[index])
            else:
                open_nodes.discard(node_ids[index])
            index += 1
    if cursor < duration_hours:
        intervals.append(FaultInterval(cursor, duration_hours, frozenset(open_nodes)))
    return tuple(intervals)


@dataclass(frozen=True)
class IntervalTimeline:
    """The exact fault timeline of a trace over a (possibly restricted) cluster.

    Computed once per (trace, cluster size) and shared across every
    architecture x TP replay -- unlike a sampled grid it is lossless: any
    instant's fault set is one :meth:`fault_set_at` lookup away, and every
    aggregate is an exact duration-weighted quantity.
    """

    intervals: tuple[FaultInterval, ...]
    n_nodes: int
    gpus_per_node: int

    @classmethod
    def from_trace(
        cls, trace: FaultTrace, n_nodes: int | None = None
    ) -> IntervalTimeline:
        nodes = n_nodes if n_nodes is not None else trace.n_nodes
        if nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if nodes > trace.n_nodes:
            raise ValueError("simulated cluster larger than the fault trace")
        keep = trace.node_ids < nodes
        log = event_log_from_columns(
            trace.node_ids[keep],
            trace.start_hours[keep],
            trace.end_hours[keep],
            trace.duration_hours,
        )
        timeline = cls(
            intervals=intervals_from_event_log(log, trace.duration_hours),
            n_nodes=nodes,
            gpus_per_node=trace.gpus_per_node,
        )
        # The log is canonical, so pre-seed the cached property rather than
        # re-deriving it from the swept intervals later.
        timeline.__dict__["event_log"] = log
        return timeline

    # ------------------------------------------------------------------ query
    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[FaultInterval]:
        return iter(self.intervals)

    @property
    def duration_hours(self) -> float:
        return self.intervals[-1].end_hour if self.intervals else 0.0

    @cached_property
    def event_log(self) -> NDArray[np.void]:
        """The normalized columnar ``(time, node, kind)`` event log.

        Pre-seeded by :meth:`from_trace` (the log the sweep consumed);
        recovered from the intervals otherwise.  Shared zero-copy with every
        consumer -- treat it as immutable.
        """
        return event_log_from_intervals(self.intervals)

    @cached_property
    def columnar(self) -> ColumnarIntervals:
        """Zero-copy per-interval column view (starts / ends / fault counts)."""
        return ColumnarIntervals.from_intervals(self.intervals)

    @cached_property
    def _starts(self) -> list[float]:
        return [interval.start_hour for interval in self.intervals]

    @property
    def durations_hours(self) -> list[float]:
        return [interval.duration_hours for interval in self.intervals]

    @property
    def fault_ratios(self) -> list[float]:
        return [len(interval.nodes) / self.n_nodes for interval in self.intervals]

    def fault_set_at(self, hour: float) -> frozenset[int]:
        """The exact fault set at ``hour`` (O(log intervals))."""
        if not self.intervals or not 0.0 <= hour < self.duration_hours:
            return frozenset()
        index = bisect_right(self._starts, hour) - 1
        return self.intervals[index].nodes

    # ------------------------------------------------------------- statistics
    def mean_fault_ratio(self) -> float:
        """Duration-weighted (exact) mean of the faulty-node ratio."""
        total = self.duration_hours
        if total == 0:
            return 0.0
        weighted = left_sum(
            len(interval.nodes) * interval.duration_hours for interval in self.intervals
        )
        return weighted / (self.n_nodes * total)

    def fault_ratio_quantile(self, q: float) -> float:
        """Duration-weighted quantile (in [0, 1]) of the faulty-node ratio."""
        return weighted_quantile(self.fault_ratios, self.durations_hours, q)

    def max_fault_ratio(self) -> float:
        if not self.intervals:
            return 0.0
        return max(len(interval.nodes) for interval in self.intervals) / self.n_nodes


__all__ = [
    "FaultInterval",
    "IntervalTimeline",
    "intervals_from_event_log",
    "sweep_intervals",
]
