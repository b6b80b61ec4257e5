"""Seed-stacked trace batches for the vectorized Monte-Carlo engine.

A :class:`TraceBatch` is the multi-seed sibling of one
:class:`~repro.faults.timeline.IntervalTimeline`: the normalized columnar
event logs (:mod:`repro.faults.events`) of ``n_seeds`` traces over the same
cluster, concatenated into one structured array with per-seed offsets.  The
batched replay (:func:`repro.mc.engine.replay_batch`) consumes the whole
block in one vectorized pass; :meth:`TraceBatch.timeline_for_seed` recovers
any single seed's exact scalar timeline (bit-for-bit the one
``IntervalTimeline.from_trace`` would have produced from the same log), so
per-seed results can always be cross-checked against the scalar engines.

:func:`sample_trace_batch` draws synthetic batches directly in columnar
form: one seeded ``numpy`` generator produces the whole ``(seeds, events)``
block (start times, durations, node ids) in three batched draws -- an
i.i.d.-renewal fault model for Monte-Carlo studies and benchmarks.  The
experiment runner does *not* use it: runner seeds replay the calibrated
AR(1) synthetic generator per seed (via :meth:`TraceBatch.from_timelines`)
so ``num_seeds=1`` stays bit-for-bit the existing scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.faults.events import EVENT_DTYPE, event_log_from_columns
from repro.faults.timeline import IntervalTimeline, intervals_from_event_log
from repro.faults.trace import HOURS_PER_DAY


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """``n_seeds`` columnar event logs over one cluster, stacked.

    ``log`` holds the per-seed normalized event logs back to back;
    ``event_offsets[i]:event_offsets[i+1]`` is seed ``i``'s slice.  Treat
    the arrays as immutable -- slices are shared zero-copy with the per-seed
    timelines this batch hands out.
    """

    log: NDArray[np.void]
    event_offsets: NDArray[np.int64]
    n_nodes: int
    gpus_per_node: int
    duration_hours: float

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.duration_hours <= 0:
            raise ValueError("duration_hours must be positive")
        if len(self.log) != int(self.event_offsets[-1]):
            raise ValueError("event_offsets do not cover the event log")

    @property
    def n_seeds(self) -> int:
        return len(self.event_offsets) - 1

    @classmethod
    def from_timelines(cls, timelines: Sequence[IntervalTimeline]) -> TraceBatch:
        """Stack per-seed scalar timelines (all over the same cluster).

        Each timeline contributes its canonical event log, so
        :meth:`timeline_for_seed` round-trips every seed exactly.
        """
        if not timelines:
            raise ValueError("at least one timeline is required")
        first = timelines[0]
        for timeline in timelines:
            if timeline.n_nodes != first.n_nodes:
                raise ValueError("all timelines must share n_nodes")
            if timeline.gpus_per_node != first.gpus_per_node:
                raise ValueError("all timelines must share gpus_per_node")
            if timeline.duration_hours != first.duration_hours:
                raise ValueError("all timelines must share the trace duration")
        logs = [timeline.event_log for timeline in timelines]
        offsets = np.zeros(len(logs) + 1, dtype=np.int64)
        np.cumsum([len(log) for log in logs], out=offsets[1:])
        return cls(
            log=np.concatenate(logs) if logs else np.empty(0, dtype=EVENT_DTYPE),
            event_offsets=offsets,
            n_nodes=first.n_nodes,
            gpus_per_node=first.gpus_per_node,
            duration_hours=first.duration_hours,
        )

    def event_log_for_seed(self, index: int) -> NDArray[np.void]:
        """Seed ``index``'s normalized event log (zero-copy slice)."""
        start = int(self.event_offsets[index])
        end = int(self.event_offsets[index + 1])
        return self.log[start:end]

    def timeline_for_seed(self, index: int) -> IntervalTimeline:
        """Seed ``index``'s exact scalar timeline (shares this batch's log)."""
        log = self.event_log_for_seed(index)
        timeline = IntervalTimeline(
            intervals=intervals_from_event_log(log, self.duration_hours),
            n_nodes=self.n_nodes,
            gpus_per_node=self.gpus_per_node,
        )
        timeline.__dict__["event_log"] = log
        return timeline


@dataclass(frozen=True)
class BatchTraceConfig:
    """Knobs for :func:`sample_trace_batch` (i.i.d.-renewal fault model).

    Defaults mirror the Appendix A cluster shape
    (:class:`~repro.faults.synthetic.SyntheticTraceConfig`); the model here
    is deliberately simpler -- independent fault arrivals with exponential
    repair times -- because the whole block must come out of one batched
    draw.
    """

    n_seeds: int
    n_nodes: int = 400
    duration_days: int = 348
    gpus_per_node: int = 8
    mean_fault_ratio: float = 0.0233
    mean_repair_days: float = 2.5
    seed: int = 348

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.duration_days < 1:
            raise ValueError("duration_days must be >= 1")
        if not 0.0 < self.mean_fault_ratio < 1.0:
            raise ValueError("mean_fault_ratio must be in (0, 1)")
        if self.mean_repair_days <= 0.0:
            raise ValueError("mean_repair_days must be positive")

    @property
    def events_per_seed(self) -> int:
        """Fault events per seed so the mean concurrent-fault target holds."""
        duration_hours = self.duration_days * HOURS_PER_DAY
        repair_hours = self.mean_repair_days * HOURS_PER_DAY
        expected_concurrent = self.mean_fault_ratio * self.n_nodes
        return max(1, round(expected_concurrent * duration_hours / repair_hours))


def sample_trace_batch(config: BatchTraceConfig) -> TraceBatch:
    """Draw a whole ``(seeds, events)`` synthetic batch from one generator.

    Start times (uniform over the trace), repair durations (exponential with
    the configured mean) and node ids (uniform) each come out of a single
    batched draw of shape ``(n_seeds, events_per_seed)``, so the batch is a
    pure function of ``config.seed`` regardless of seed count.
    """
    rng = np.random.default_rng(config.seed)
    duration_hours = config.duration_days * HOURS_PER_DAY
    shape = (config.n_seeds, config.events_per_seed)
    start_block = rng.uniform(0.0, duration_hours, size=shape)
    duration_block = rng.exponential(config.mean_repair_days * HOURS_PER_DAY, size=shape)
    node_block = rng.integers(0, config.n_nodes, size=shape)
    end_block = np.minimum(start_block + duration_block, duration_hours)

    logs = [
        event_log_from_columns(node_block[row], start_block[row], end_block[row], duration_hours)
        for row in range(config.n_seeds)
    ]
    offsets = np.zeros(config.n_seeds + 1, dtype=np.int64)
    np.cumsum([len(log) for log in logs], out=offsets[1:])
    return TraceBatch(
        log=np.concatenate(logs),
        event_offsets=offsets,
        n_nodes=config.n_nodes,
        gpus_per_node=config.gpus_per_node,
        duration_hours=duration_hours,
    )


__all__ = [
    "BatchTraceConfig",
    "TraceBatch",
    "sample_trace_batch",
]
