"""Trace replay against an HBD architecture model.

The replay is event-driven: the fault trace is swept once into its exact
piecewise-constant interval timeline (:class:`repro.faults.timeline.
IntervalTimeline`), the architecture model is asked for a
:class:`~repro.hbd.base.WasteBreakdown` once per *distinct* fault set
(memoized -- fault sets repeat whenever a node fails and recovers back to a
previous configuration), and the per-interval columns come back as a
one-seed :class:`repro.mc.BatchSeries`, whose methods compute every section
6.2 metric as an exact duration-weighted quantity over the intervals.

:func:`replay_intervals` is the one scalar reference: the batched
Monte-Carlo passes (:func:`repro.mc.replay_batch`) are tested bit for bit
against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.faults.timeline import IntervalTimeline
from repro.hbd.base import HBDArchitecture, WasteBreakdown

if TYPE_CHECKING:
    from repro.mc.engine import BatchSeries


def replay_intervals(
    architecture: HBDArchitecture, timeline: IntervalTimeline, tp_size: int
) -> BatchSeries:
    """Exact event-driven replay of the interval timeline against one architecture.

    Returns a one-seed :class:`~repro.mc.BatchSeries`.  Evaluates one full
    breakdown per *distinct* fault set (memoized); every built-in
    architecture's breakdown costs O(faults), not O(n_nodes), so the cost is
    O(distinct fault sets x faults).  That suits the day-granular synthetic
    traces, whose fault sets recur.  A long sub-day trace, where nearly every
    interval has a new fault set, replays much faster through
    :func:`repro.mc.replay_batch` on a one-seed
    :class:`~repro.mc.TraceBatch`, with identical usable GPUs per interval.
    """
    # repro.mc.engine imports this module, so import it here.
    from repro.mc.engine import BatchSeries

    _check_gpus_per_node(architecture, timeline.gpus_per_node)
    n_nodes = timeline.n_nodes
    # Fault sets recur (clusters return to earlier configurations, most often
    # the empty set), so each distinct set is evaluated once.
    memo: dict[frozenset[int], WasteBreakdown] = {}
    breakdowns = []
    for interval in timeline.intervals:
        if interval.nodes not in memo:
            memo[interval.nodes] = architecture.breakdown(n_nodes, interval.nodes, tp_size)
        breakdowns.append(memo[interval.nodes])

    # Interval boundaries are the shared columnar view's arrays (bit-identical
    # floats, no copy); the memo only produces breakdowns.
    columnar = timeline.columnar
    return BatchSeries(
        starts_hours=columnar.starts_hours,
        ends_hours=columnar.ends_hours,
        waste_ratios=np.array([b.waste_ratio for b in breakdowns], dtype=np.float64),
        usable_gpus=np.array([b.usable_gpus for b in breakdowns], dtype=np.int64),
        faulty_gpus=np.array([b.faulty_gpus for b in breakdowns], dtype=np.int64),
        interval_offsets=np.array([0, len(breakdowns)], dtype=np.int64),
        total_gpus=architecture.total_gpus(n_nodes),
    )


def _check_gpus_per_node(architecture: HBDArchitecture, gpus_per_node: int) -> None:
    if gpus_per_node != architecture.gpus_per_node:
        raise ValueError(
            f"timeline GPUs/node ({gpus_per_node}) must match the "
            f"architecture ({architecture.gpus_per_node})"
        )

