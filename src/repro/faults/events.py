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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.faults.trace import FaultEvent

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.timeline import FaultInterval

#: One normalized fault transition: ``kind=+1`` the node goes down at
#: ``time``, ``kind=-1`` it recovers.  Times are hours from the trace start.
EVENT_DTYPE = np.dtype([("time", np.float64), ("node", np.int64), ("kind", np.int8)])


def _log_from_runs(
    node_ids: list[int], starts: list[float], ends: list[float], duration_hours: float
) -> NDArray[np.void]:
    """Normalized event log from clipped per-event downtime runs.

    The runs may overlap or touch per node; they are unioned into maximal
    disjoint windows first, exactly matching the open-counter semantics of
    the original sweep (a node is faulty while *any* run covers it).
    """
    runs: dict[int, list[tuple[float, float]]] = {}
    for node, start, end in zip(node_ids, starts, ends, strict=True):
        runs.setdefault(node, []).append((start, end))

    times: list[float] = []
    nodes: list[int] = []
    kinds: list[int] = []
    for node in sorted(runs):
        windows = sorted(runs[node])
        merged_start, merged_end = windows[0]
        merged: list[tuple[float, float]] = []
        for start, end in windows[1:]:
            if start <= merged_end:  # overlapping or touching: one outage
                merged_end = max(merged_end, end)
            else:
                merged.append((merged_start, merged_end))
                merged_start, merged_end = start, end
        merged.append((merged_start, merged_end))
        for start, end in merged:
            times.append(start)
            nodes.append(node)
            kinds.append(1)
            if end < duration_hours:
                times.append(end)
                nodes.append(node)
                kinds.append(-1)

    log = np.empty(len(times), dtype=EVENT_DTYPE)
    log["time"] = times
    log["node"] = nodes
    log["kind"] = kinds
    order = np.lexsort((log["kind"], log["node"], log["time"]))
    return log[order]


def columnar_event_log(
    events: Iterable[FaultEvent], duration_hours: float
) -> NDArray[np.void]:
    """The normalized columnar event log of a raw fault event list.

    Events are clipped to ``[0, duration_hours)``; empty and out-of-window
    events are dropped.  See the module docstring for the normalization
    guarantees.
    """
    if duration_hours <= 0:
        raise ValueError("duration_hours must be positive")
    node_ids: list[int] = []
    starts: list[float] = []
    ends: list[float] = []
    for event in events:
        start = max(0.0, event.start_hour)
        end = min(duration_hours, event.end_hour)
        if end <= start:
            continue
        node_ids.append(event.node_id)
        starts.append(start)
        ends.append(end)
    return _log_from_runs(node_ids, starts, ends, duration_hours)


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
    "event_log_from_intervals",
]
