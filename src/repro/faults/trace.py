"""Fault trace data structures.

A fault trace is a set of node faults (node id, start time, end time) plus
the number of nodes in the traced cluster and the trace duration, mirroring
the schema described in Appendix A ("fault start time, fault end time, and
the ID of the faulty node").

:class:`FaultTrace` stores the faults as three read-only numpy columns
(``node_ids``, ``start_hours``, ``end_hours``) sorted by (start, node): the
generator, the 8-to-4-GPU conversion, the correlated overlay and the
columnar event log (:mod:`repro.faults.events`) all work on those columns.
Per-fault :class:`FaultEvent` records are built only when a caller reads
:attr:`FaultTrace.events`; a trace constructed from ``FaultEvent`` objects
keeps them as given.

:class:`FaultTrace` supports the queries the simulations need:

* the set of faulty nodes at a given time,
* a sampled time series of the faulty-node ratio (Figure 18a),
* the CDF of that ratio (Figure 18b),
* summary statistics (mean, p50, p99) and the mean repair duration,
* (de)serialisation to a simple CSV format so generated traces can be saved
  alongside benchmark outputs.

Point queries, series and statistics are backed by the event-driven interval
engine (:mod:`repro.faults.timeline`): the trace is swept once into its exact
piecewise-constant fault-set sequence, statistics and the CDF are exact
duration-weighted quantities, and the Figure 18a daily series reads that
sequence at each grid instant.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from numpy.typing import ArrayLike, NDArray

    from repro.faults.timeline import IntervalTimeline

#: Hours per day -- trace times are expressed in hours from the trace start.
HOURS_PER_DAY = 24.0


@dataclass(frozen=True)
class FaultEvent:
    """One node fault: the node is down in ``[start_hour, end_hour)``."""

    node_id: int
    start_hour: float
    end_hour: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if self.end_hour < self.start_hour:
            raise ValueError("end_hour must be >= start_hour")

    @property
    def duration_hours(self) -> float:
        return self.end_hour - self.start_hour

    def active_at(self, hour: float) -> bool:
        """Whether the node is faulty at ``hour``."""
        return self.start_hour <= hour < self.end_hour


def merge_overlapping_events(events: Iterable[FaultEvent]) -> list[FaultEvent]:
    """Merge overlapping or touching events on the same node.

    The sweep-line timeline already handles overlaps exactly (per-node open
    counters), but *event-level* statistics -- ``mean_repair_hours``,
    ``n_events`` -- would silently double-count a node whose single outage
    was logged as several overlapping rows.  Merging turns each node's event
    list into its maximal disjoint downtime windows; disjoint events are
    returned unchanged.
    """
    per_node: dict[int, list[FaultEvent]] = {}
    for event in events:
        per_node.setdefault(event.node_id, []).append(event)
    merged: list[FaultEvent] = []
    for node_id, node_events in per_node.items():
        node_events.sort(key=lambda e: (e.start_hour, e.end_hour))
        current_start = current_end = None
        for event in node_events:
            if current_start is None:
                current_start, current_end = event.start_hour, event.end_hour
            elif event.start_hour <= current_end:
                current_end = max(current_end, event.end_hour)
            else:
                merged.append(
                    FaultEvent(node_id=node_id, start_hour=current_start, end_hour=current_end)
                )
                current_start, current_end = event.start_hour, event.end_hour
        if current_start is not None:
            merged.append(
                FaultEvent(node_id=node_id, start_hour=current_start, end_hour=current_end)
            )
    merged.sort(key=lambda e: (e.start_hour, e.node_id))
    return merged


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of the faulty-node-ratio process."""

    mean_fault_ratio: float
    p50_fault_ratio: float
    p99_fault_ratio: float
    max_fault_ratio: float
    mean_repair_hours: float
    n_events: int


class FaultTrace:
    """A node-level fault trace over a fixed-size cluster.

    The faults live in three read-only columns sorted by (start, node):
    ``node_ids`` (int64), ``start_hours`` and ``end_hours`` (float64).

    >>> trace = FaultTrace.from_columns(4, 1, [2, 0], [6.0, 6.0], [9.0, 12.0])
    >>> trace.node_ids.tolist(), len(trace)
    ([0, 2], 2)
    >>> trace.events[0]
    FaultEvent(node_id=0, start_hour=6.0, end_hour=12.0)
    """

    def __init__(
        self,
        n_nodes: int,
        duration_days: float,
        events: Iterable[FaultEvent],
        gpus_per_node: int = 8,
    ) -> None:
        ordered = sorted(events, key=lambda e: (e.start_hour, e.node_id))
        count = len(ordered)
        self._set_columns(
            n_nodes,
            duration_days,
            gpus_per_node,
            np.fromiter((e.node_id for e in ordered), dtype=np.int64, count=count),
            np.fromiter((e.start_hour for e in ordered), dtype=np.float64, count=count),
            np.fromiter((e.end_hour for e in ordered), dtype=np.float64, count=count),
        )
        # The caller's objects, kept so ``to_csv`` writes their values as given.
        self._events: list[FaultEvent] | None = ordered

    @classmethod
    def from_columns(
        cls,
        n_nodes: int,
        duration_days: float,
        node_ids: ArrayLike,
        start_hours: ArrayLike,
        end_hours: ArrayLike,
        gpus_per_node: int = 8,
    ) -> FaultTrace:
        """A trace from per-fault columns, in any order; builds no ``FaultEvent``.

        The columns are sorted by (start, node) with a stable sort, so ties
        keep their input order, and are checked with the messages of
        :class:`FaultEvent` and the constructor.
        """
        nodes = np.asarray(node_ids, dtype=np.int64)
        starts = np.asarray(start_hours, dtype=np.float64)
        ends = np.asarray(end_hours, dtype=np.float64)
        if nodes.ndim != 1 or starts.shape != nodes.shape or ends.shape != nodes.shape:
            raise ValueError("node_ids, start_hours and end_hours must be 1-D and equally long")
        if (nodes < 0).any():
            raise ValueError("node_id must be non-negative")
        if (ends < starts).any():
            raise ValueError("end_hour must be >= start_hour")
        order = np.lexsort((nodes, starts))
        trace = cls.__new__(cls)
        trace._set_columns(
            n_nodes, duration_days, gpus_per_node, nodes[order], starts[order], ends[order]
        )
        trace._events = None
        return trace

    def _set_columns(
        self,
        n_nodes: int,
        duration_days: float,
        gpus_per_node: int,
        node_ids: NDArray[np.int64],
        start_hours: NDArray[np.float64],
        end_hours: NDArray[np.float64],
    ) -> None:
        """Validate and store sorted columns (shared by both constructors)."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if duration_days <= 0:
            raise ValueError("duration_days must be positive")
        outside = np.flatnonzero(node_ids >= n_nodes)
        if outside.size:
            raise ValueError(
                f"event node {node_ids[outside[0]]} outside cluster of {n_nodes} nodes"
            )
        for column in (node_ids, start_hours, end_hours):
            # TraceSpec.build memoizes traces per process: every consumer
            # shares these arrays.
            column.flags.writeable = False
        self.n_nodes = n_nodes
        self.duration_days = duration_days
        self.gpus_per_node = gpus_per_node
        self.node_ids = node_ids
        self.start_hours = start_hours
        self.end_hours = end_hours
        # Lazily swept exact timelines, keyed by simulated cluster size so
        # every consumer of the same (trace, n_nodes) shares one sweep.
        self._interval_timelines: dict[int, IntervalTimeline] = {}

    @property
    def events(self) -> list[FaultEvent]:
        """The faults as :class:`FaultEvent` records, sorted by (start, node).

        Built once, on first read, for a trace made from columns.
        """
        if self._events is None:
            self._events = [
                FaultEvent(node_id=node, start_hour=start, end_hour=end)
                for node, start, end in zip(
                    self.node_ids.tolist(),
                    self.start_hours.tolist(),
                    self.end_hours.tolist(),
                    strict=True,
                )
            ]
        return self._events

    # ------------------------------------------------------------------ query
    @property
    def duration_hours(self) -> float:
        return self.duration_days * HOURS_PER_DAY

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node

    def interval_timeline(self, n_nodes: int | None = None) -> IntervalTimeline:
        """The exact piecewise-constant fault timeline (swept once, cached).

        ``n_nodes`` restricts the timeline to the first ``n_nodes`` nodes
        (the simulated-cluster projection) without the caller having to hold
        a restricted trace copy -- each distinct size is swept once and
        shared across every simulator replaying this trace.
        """
        nodes = n_nodes if n_nodes is not None else self.n_nodes
        timeline = self._interval_timelines.get(nodes)
        if timeline is None:
            from repro.faults.timeline import IntervalTimeline

            timeline = IntervalTimeline.from_trace(self, n_nodes=nodes)
            self._interval_timelines[nodes] = timeline
        return timeline

    def faulty_nodes_at(self, hour: float) -> set[int]:
        """Set of node ids faulty at time ``hour``."""
        if 0.0 <= hour < self.duration_hours:
            return set(self.interval_timeline().fault_set_at(hour))
        active = (self.start_hours <= hour) & (hour < self.end_hours)
        return set(self.node_ids[active].tolist())

    def fault_ratio_at(self, hour: float) -> float:
        """Faulty-node ratio at time ``hour``."""
        return len(self.faulty_nodes_at(hour)) / self.n_nodes

    def sample_times(self, interval_hours: float = 24.0) -> list[float]:
        """Sampling grid covering the trace at ``interval_hours`` spacing.

        The grid is generated by integer multiplication (``i * interval``)
        rather than repeated addition, so no float drift accumulates and the
        final sample is never added or dropped spuriously when the interval
        does not divide the duration.
        """
        if interval_hours <= 0:
            raise ValueError("interval_hours must be positive")
        # Largest n with (n - 1) * interval < duration, robust to fp rounding
        # of the division (each correction can only be needed once).
        n = int(self.duration_hours // interval_hours) + 1
        if n > 1 and (n - 1) * interval_hours >= self.duration_hours:
            n -= 1
        elif n * interval_hours < self.duration_hours:
            n += 1
        return [i * interval_hours for i in range(n)]

    def fault_ratio_series(
        self, interval_hours: float = 24.0
    ) -> tuple[list[float], list[float]]:
        """(times_in_days, faulty-node ratio) time series (Figure 18a).

        Each grid instant is one O(log intervals) lookup in the exact
        interval timeline -- bit-for-bit what a per-instant trace scan
        produces.
        """
        times = self.sample_times(interval_hours)
        timeline = self.interval_timeline()
        ratios = [len(timeline.fault_set_at(t)) / self.n_nodes for t in times]
        return [t / HOURS_PER_DAY for t in times], ratios

    def fault_ratio_cdf(self) -> tuple[list[float], list[float]]:
        """Exact duration-weighted CDF of the faulty-node ratio (Figure 18b)."""
        from repro.analysis.cdf import empirical_cdf

        timeline = self.interval_timeline()
        return empirical_cdf(timeline.fault_ratios, timeline.durations_hours)

    def statistics(self) -> TraceStatistics:
        """Summary statistics of the trace (Appendix A numbers).

        Every ratio statistic is exact: duration-weighted over the interval
        timeline, independent of any sampling grid.
        """
        repairs = self.end_hours - self.start_hours
        mean_repair = float(np.mean(repairs)) if len(repairs) else 0.0
        timeline = self.interval_timeline()
        return TraceStatistics(
            mean_fault_ratio=timeline.mean_fault_ratio(),
            p50_fault_ratio=timeline.fault_ratio_quantile(0.50),
            p99_fault_ratio=timeline.fault_ratio_quantile(0.99),
            max_fault_ratio=timeline.max_fault_ratio(),
            mean_repair_hours=mean_repair,
            n_events=len(self),
        )

    def restrict_nodes(self, n_nodes: int) -> FaultTrace:
        """Project the trace onto the first ``n_nodes`` nodes.

        Used when the simulated cluster is smaller than the traced one (the
        paper simulates 2,880 GPUs against a ~3,200-GPU trace); events on
        nodes beyond the new size are dropped.
        """
        if n_nodes > self.n_nodes:
            raise ValueError("cannot restrict to more nodes than the trace has")
        keep = self.node_ids < n_nodes
        return FaultTrace.from_columns(
            n_nodes,
            self.duration_days,
            self.node_ids[keep],
            self.start_hours[keep],
            self.end_hours[keep],
            gpus_per_node=self.gpus_per_node,
        )

    # -------------------------------------------------------------- serialise
    def to_csv(self) -> str:
        """Serialise to CSV (header + one row per event)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["node_id", "start_hour", "end_hour"])
        for event in self.events:
            writer.writerow([event.node_id, event.start_hour, event.end_hour])
        return buffer.getvalue()

    @classmethod
    def from_csv(
        cls,
        text: str,
        n_nodes: int,
        duration_days: float,
        gpus_per_node: int = 8,
        merge_overlaps: bool = True,
    ) -> FaultTrace:
        """Parse a trace from the CSV schema of :meth:`to_csv`.

        Built for real-trace ingestion, so malformed rows fail with the row
        number and the offending value rather than a bare ``ValueError``:
        missing columns, non-numeric fields, negative durations
        (``end_hour < start_hour``), negative start times and node ids
        outside ``[0, n_nodes)`` are all rejected.  Overlapping (or touching)
        events on the same node -- common in operational logs where one
        incident is recorded by several monitors -- are merged into one
        downtime window by default so repair-time statistics do not
        double-count them; pass ``merge_overlaps=False`` to keep the rows
        verbatim.
        """
        reader = csv.DictReader(io.StringIO(text))
        required = {"node_id", "start_hour", "end_hour"}
        header = set(reader.fieldnames or ())
        missing = sorted(required - header)
        if missing:
            raise ValueError(
                f"trace CSV is missing column(s) {missing}; "
                f"expected header: node_id,start_hour,end_hour"
            )
        events: list[FaultEvent] = []
        for line, row in enumerate(reader, start=2):  # line 1 is the header
            try:
                node_id = int(row["node_id"])
                start_hour = float(row["start_hour"])
                end_hour = float(row["end_hour"])
            except (TypeError, ValueError):
                raise ValueError(
                    f"trace CSV row {line}: malformed values "
                    f"(node_id={row['node_id']!r}, start_hour={row['start_hour']!r}, "
                    f"end_hour={row['end_hour']!r})"
                ) from None
            if not 0 <= node_id < n_nodes:
                raise ValueError(
                    f"trace CSV row {line}: node_id {node_id} outside the "
                    f"cluster [0, {n_nodes})"
                )
            if start_hour < 0:
                raise ValueError(
                    f"trace CSV row {line}: negative start_hour ({start_hour})"
                )
            if end_hour < start_hour:
                raise ValueError(
                    f"trace CSV row {line}: negative duration "
                    f"(start_hour={start_hour}, end_hour={end_hour})"
                )
            events.append(
                FaultEvent(node_id=node_id, start_hour=start_hour, end_hour=end_hour)
            )
        if merge_overlaps:
            events = merge_overlapping_events(events)
        return cls(
            n_nodes=n_nodes,
            duration_days=duration_days,
            events=events,
            gpus_per_node=gpus_per_node,
        )

    def __len__(self) -> int:
        return len(self.node_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FaultTrace(n_nodes={self.n_nodes}, days={self.duration_days}, "
            f"events={len(self)})"
        )
