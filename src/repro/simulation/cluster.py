"""Trace replay against an HBD architecture model.

The replay is event-driven: the fault trace is swept once into its exact
piecewise-constant interval timeline (:class:`repro.faults.timeline.
IntervalTimeline`), the architecture model is asked for a
:class:`~repro.hbd.base.WasteBreakdown` once per *distinct* fault set
(memoized -- fault sets repeat whenever a node fails and recovers back to a
previous configuration), and every section 6.2 metric is computed as an exact
duration-weighted quantity over the intervals (:class:`IntervalSeries`).

:func:`replay_intervals` is the one scalar reference: the batched
Monte-Carlo passes (:func:`repro.mc.replay_batch`) are tested bit for bit
against it.  The capacity aggregates have one implementation,
:class:`repro.mc.BatchSeries`; an :class:`IntervalSeries` reads each of them
off a one-seed batch of itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.cdf import empirical_cdf
from repro.faults.timeline import IntervalTimeline
from repro.faults.trace import HOURS_PER_DAY
from repro.hbd.base import HBDArchitecture, WasteBreakdown

if TYPE_CHECKING:
    from repro.mc.engine import BatchSeries


@dataclass
class IntervalSeries:
    """Exact piecewise-constant replay result over the interval timeline.

    One entry per maximal constant-fault-set interval; every aggregate is
    duration-weighted, so the numbers are exact properties of the trace and
    architecture, independent of any sampling grid.  The capacity aggregates
    are element 0 of the matching :class:`repro.mc.BatchSeries` method on a
    one-seed batch of this series, their one implementation.
    """

    starts_hours: list[float]
    ends_hours: list[float]
    waste_ratios: list[float]
    usable_gpus: list[int]
    faulty_gpus: list[int]
    total_gpus: int

    def __len__(self) -> int:
        return len(self.starts_hours)

    @property
    def times_days(self) -> list[float]:
        """Interval start times in days (for plotting step series)."""
        return [t / HOURS_PER_DAY for t in self.starts_hours]

    @property
    def durations_hours(self) -> list[float]:
        return [e - s for s, e in zip(self.starts_hours, self.ends_hours, strict=True)]

    @property
    def total_hours(self) -> float:
        return self.ends_hours[-1] - self.starts_hours[0] if self.starts_hours else 0.0

    def _one_seed(self) -> BatchSeries:
        """This series as a one-seed batch, whose methods compute every aggregate."""
        # repro.mc.engine imports this module, so import it here.
        from repro.mc.engine import BatchSeries

        return BatchSeries.from_interval_series([self])

    @property
    def mean_waste_ratio(self) -> float:
        """Exact time-averaged waste ratio."""
        return self._one_seed().mean_waste_ratios()[0]

    @property
    def p99_waste_ratio(self) -> float:
        return self.waste_ratio_quantile(0.99)

    @property
    def max_waste_ratio(self) -> float:
        return max(self.waste_ratios) if self.waste_ratios else 0.0

    @property
    def min_usable_gpus(self) -> int:
        return self._one_seed().min_usable_gpus()[0]

    def waste_ratio_quantile(self, q: float) -> float:
        """Exact duration-weighted quantile (``q`` in [0, 1]) of the waste ratio."""
        return self._one_seed().waste_ratio_quantiles(q)[0]

    def waste_ratio_cdf(self) -> tuple[list[float], list[float]]:
        """Exact duration-weighted waste-ratio CDF -- Figures 13/21."""
        if not self.waste_ratios:
            return [], []
        return empirical_cdf(self.waste_ratios, self.durations_hours)

    def fault_waiting_rate(self, job_gpus: int) -> float:
        """Exact fraction of time a job of ``job_gpus`` GPUs cannot run."""
        return self._one_seed().fault_waiting_rates(job_gpus)[0]

    def supported_job_scale(self, availability: float = 1.0) -> int:
        """Largest job scale available at least ``availability`` of the time.

        Exact: the largest usable-GPU level whose cumulative downtime (time
        with fewer usable GPUs) does not exceed ``1 - availability`` of the
        trace.  ``availability=1.0`` (Figure 15) is the minimum over all
        intervals -- short dips a sampling grid would miss count here.
        """
        return self._one_seed().supported_job_scales(availability)[0]

    def mean_waste_in_window(self, start_day: float, end_day: float) -> float:
        """Duration-weighted mean waste ratio over ``[start_day, end_day)``."""
        start_h, end_h = start_day * HOURS_PER_DAY, end_day * HOURS_PER_DAY
        weighted = covered = 0.0
        for s, e, w in zip(self.starts_hours, self.ends_hours, self.waste_ratios, strict=True):
            overlap = min(e, end_h) - max(s, start_h)
            if overlap > 0:
                weighted += w * overlap
                covered += overlap
        return weighted / covered if covered else 0.0


class _BreakdownMemo:
    """Memoize ``architecture.breakdown`` per distinct fault set.

    Fault sets recur on the interval timeline because clusters return to
    previous configurations (most often the empty set), so replays share one
    breakdown per distinct set instead of recomputing per interval.
    """

    def __init__(self, architecture: HBDArchitecture, n_nodes: int, tp_size: int) -> None:
        self.architecture = architecture
        self.n_nodes = n_nodes
        self.tp_size = tp_size
        self._cache: dict[frozenset[int], WasteBreakdown] = {}

    def __call__(self, fault_set: frozenset[int]) -> WasteBreakdown:
        breakdown = self._cache.get(fault_set)
        if breakdown is None:
            breakdown = self.architecture.breakdown(
                self.n_nodes, fault_set, self.tp_size
            )
            self._cache[fault_set] = breakdown
        return breakdown


def replay_intervals(
    architecture: HBDArchitecture, timeline: IntervalTimeline, tp_size: int
) -> IntervalSeries:
    """Exact event-driven replay of the interval timeline against one architecture.

    Evaluates one full breakdown per *distinct* fault set (memoized); every
    built-in architecture's breakdown costs O(faults), not O(n_nodes), so the
    cost is O(distinct fault sets x faults).  That suits the day-granular
    synthetic traces, whose fault sets recur.  A long sub-day trace, where
    nearly every interval has a new fault set, replays much faster through
    :func:`repro.mc.replay_batch` on a one-seed
    :class:`~repro.mc.TraceBatch`, with identical usable GPUs per interval.
    """
    _check_gpus_per_node(architecture, timeline.gpus_per_node)
    n_nodes = timeline.n_nodes
    breakdown_for = _BreakdownMemo(architecture, n_nodes, tp_size)
    breakdowns = [breakdown_for(interval.nodes) for interval in timeline.intervals]

    # Interval boundaries come straight off the shared columnar view
    # (bit-identical floats); the memo only produces breakdowns.
    columnar = timeline.columnar
    return IntervalSeries(
        starts_hours=columnar.starts_hours.tolist(),
        ends_hours=columnar.ends_hours.tolist(),
        waste_ratios=[b.waste_ratio for b in breakdowns],
        usable_gpus=[b.usable_gpus for b in breakdowns],
        faulty_gpus=[b.faulty_gpus for b in breakdowns],
        total_gpus=architecture.total_gpus(n_nodes),
    )


def _check_gpus_per_node(architecture: HBDArchitecture, gpus_per_node: int) -> None:
    if gpus_per_node != architecture.gpus_per_node:
        raise ValueError(
            f"timeline GPUs/node ({gpus_per_node}) must match the "
            f"architecture ({architecture.gpus_per_node})"
        )

