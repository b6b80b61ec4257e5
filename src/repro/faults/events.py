"""Columnar fault event log: the shared numpy representation of a trace.

Three engines used to re-derive the fault process independently -- the
sweep line in :mod:`repro.faults.timeline`, the interval replay in
:func:`repro.simulation.cluster.replay_intervals` and the scheduler's
capacity walk.  This module is the one representation all of them (and the
batched Monte-Carlo engine in :mod:`repro.mc`) now consume: a numpy
structured array of **normalized node-state transitions**.

The log is *normalized*: overlapping or touching raw fault events on the
same node are unioned into maximal downtime runs before emission, so

* every ``kind=+1`` record is a healthy node becoming faulty and every
  ``kind=-1`` record a faulty node recovering (per-node counts are plain
  cumulative sums -- no open-counter bookkeeping needed downstream),
* every distinct timestamp changes the fault set, so the interval walk
  never has to merge adjacent identical intervals, and
* recoveries at or beyond the trace end are dropped (they cannot start a
  new interval inside ``[0, duration)``), making the log canonical: the
  log derived back from the swept intervals is array-equal to the log
  built from the raw events.

Records are sorted by ``(time, node, kind)``.  The array is shared
zero-copy between consumers -- treat it as immutable.

One vectorized normalizer, :func:`event_log_from_columns`, builds the log
from per-fault ``(node, start, end)`` columns: a trace's own columns in
``IntervalTimeline.from_trace``, a seed's sampled block in
:func:`repro.mc.batch.sample_trace_batch`.  :func:`columnar_event_log`
wraps it for a ``FaultEvent`` list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.faults.trace import FaultEvent

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.timeline import FaultInterval

#: One normalized fault transition: ``kind=+1`` the node goes down at
#: ``time``, ``kind=-1`` it recovers.  Times are hours from the trace start.
EVENT_DTYPE = np.dtype([("time", np.float64), ("node", np.int64), ("kind", np.int8)])


def event_log_from_columns(
    node_ids: ArrayLike,
    start_hours: ArrayLike,
    end_hours: ArrayLike,
    duration_hours: float,
) -> NDArray[np.void]:
    """The normalized event log of per-fault downtime columns.

    Runs are clipped to ``[0, duration_hours)`` and empty ones dropped; the
    rest may overlap or touch per node and are unioned into maximal disjoint
    windows, matching the open-counter semantics of the original sweep (a
    node is faulty while *any* run covers it).  See the module docstring
    for the normalization guarantees.

    >>> log = event_log_from_columns([1, 1, 0], [0.0, 5.0, 2.0], [5.0, 8.0, 20.0], 10.0)
    >>> [(float(t), int(n), int(k)) for t, n, k in log.tolist()]
    [(0.0, 1, 1), (2.0, 0, 1), (8.0, 1, -1)]
    """
    if duration_hours <= 0:
        raise ValueError("duration_hours must be positive")
    nodes = np.asarray(node_ids, dtype=np.int64)
    starts = np.maximum(np.asarray(start_hours, dtype=np.float64), 0.0)
    ends = np.minimum(np.asarray(end_hours, dtype=np.float64), duration_hours)
    keep = ends > starts
    nodes, starts, ends = nodes[keep], starts[keep], ends[keep]
    order = np.lexsort((ends, starts, nodes))
    nodes, starts, ends = nodes[order], starts[order], ends[order]

    # Running maximum of the end times, restarted at every node: shift each
    # node's integer end ranks above every earlier node's, so one global
    # ``maximum.accumulate`` never carries a value across nodes and no float
    # offset can round.
    first = np.ones(len(nodes), dtype=bool)
    first[1:] = nodes[1:] != nodes[:-1]
    unique_ends, ranks = np.unique(ends, return_inverse=True)
    shift = (np.cumsum(first) - 1) * len(unique_ends)
    reach = unique_ends[np.maximum.accumulate(ranks + shift) - shift]
    # A run opens a new window unless it starts at or before the reach of
    # the same node's earlier runs (overlapping or touching: one outage).
    opens = first.copy()
    opens[1:] |= starts[1:] > reach[:-1]
    last = np.ones(len(nodes), dtype=bool)
    last[:-1] = opens[1:]
    window_nodes = nodes[opens]
    window_ends = reach[last]
    closes = window_ends < duration_hours

    times = np.concatenate((starts[opens], window_ends[closes]))
    log_nodes = np.concatenate((window_nodes, window_nodes[closes]))
    kinds = np.concatenate(
        (np.ones(len(window_nodes), dtype=np.int8), np.full(int(closes.sum()), -1, dtype=np.int8))
    )
    order = np.lexsort((kinds, log_nodes, times))
    log = np.empty(len(times), dtype=EVENT_DTYPE)
    log["time"] = times[order]
    log["node"] = log_nodes[order]
    log["kind"] = kinds[order]
    return log


def columnar_event_log(
    events: Iterable[FaultEvent], duration_hours: float
) -> NDArray[np.void]:
    """The normalized columnar event log of a raw fault event list.

    Events are clipped to ``[0, duration_hours)``; empty and out-of-window
    events are dropped (see :func:`event_log_from_columns`).
    """
    ordered = list(events)
    count = len(ordered)
    return event_log_from_columns(
        np.fromiter((e.node_id for e in ordered), dtype=np.int64, count=count),
        np.fromiter((e.start_hour for e in ordered), dtype=np.float64, count=count),
        np.fromiter((e.end_hour for e in ordered), dtype=np.float64, count=count),
        duration_hours,
    )


def event_log_from_intervals(
    intervals: Sequence[FaultInterval],
) -> NDArray[np.void]:
    """Recover the canonical event log from a swept interval sequence.

    Consecutive intervals differ exactly by the transitions at their shared
    boundary, so this is the inverse of the sweep: for a timeline built
    from raw events, the result is array-equal to
    :func:`columnar_event_log` over those events.
    """
    times: list[float] = []
    nodes: list[int] = []
    kinds: list[int] = []
    previous: frozenset[int] = frozenset()
    for interval in intervals:
        t = interval.start_hour
        current = interval.nodes
        for node in sorted(previous ^ current):
            times.append(t)
            nodes.append(node)
            kinds.append(1 if node in current else -1)
        previous = current
    log = np.empty(len(times), dtype=EVENT_DTYPE)
    log["time"] = times
    log["node"] = nodes
    log["kind"] = kinds
    return log


@dataclass(frozen=True, eq=False)
class ColumnarIntervals:
    """Zero-copy columnar view of a swept interval sequence.

    Parallel numpy arrays, one entry per interval.  Built once per
    :class:`~repro.faults.timeline.IntervalTimeline` (cached) and shared by
    the replay and scheduler engines; ``tolist()`` on the float columns
    yields bit-identical Python floats, so consumers that need lists get
    the exact same values.  Treat the arrays as immutable.
    """

    starts_hours: NDArray[np.float64]
    ends_hours: NDArray[np.float64]
    fault_counts: NDArray[np.int64]

    @classmethod
    def from_intervals(cls, intervals: Sequence[FaultInterval]) -> ColumnarIntervals:
        n = len(intervals)
        starts = np.fromiter(
            (interval.start_hour for interval in intervals), dtype=np.float64, count=n
        )
        ends = np.fromiter(
            (interval.end_hour for interval in intervals), dtype=np.float64, count=n
        )
        counts = np.fromiter(
            (len(interval.nodes) for interval in intervals), dtype=np.int64, count=n
        )
        return cls(starts_hours=starts, ends_hours=ends, fault_counts=counts)

    def __len__(self) -> int:
        return len(self.starts_hours)

    @cached_property
    def durations_hours(self) -> NDArray[np.float64]:
        result: NDArray[np.float64] = self.ends_hours - self.starts_hours
        return result

    @cached_property
    def ends_list(self) -> list[float]:
        """Interval end hours as Python floats (cached; do not mutate)."""
        result: list[float] = self.ends_hours.tolist()
        return result


__all__ = [
    "EVENT_DTYPE",
    "ColumnarIntervals",
    "columnar_event_log",
    "event_log_from_columns",
    "event_log_from_intervals",
]
