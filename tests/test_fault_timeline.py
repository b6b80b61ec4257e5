"""Tests for the event-driven fault timeline engine and exact interval metrics."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.cdf import empirical_cdf, left_sum, weighted_quantile
from repro.faults.convert import convert_trace_8gpu_to_4gpu
from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.faults.timeline import FaultInterval, IntervalTimeline, sweep_intervals
from repro.faults.trace import FaultEvent, FaultTrace, HOURS_PER_DAY
from repro.hbd import BigSwitchHBD, InfiniteHBDArchitecture, NVLHBD
from repro.mc import BatchSeries
from repro.simulation.cluster import replay_intervals


# --------------------------------------------------------------------------
# strategies: small random traces, with events allowed to spill past the
# trace window (the sweep must clip) and to overlap on the same node
# --------------------------------------------------------------------------
N_NODES = 12
DURATION_DAYS = 4
DURATION_HOURS = DURATION_DAYS * HOURS_PER_DAY

event_strategy = st.tuples(
    st.integers(min_value=0, max_value=N_NODES - 1),
    st.floats(min_value=-10.0, max_value=DURATION_HOURS + 10.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False),
)


def build_trace(raw_events):
    events = [
        FaultEvent(node_id=node, start_hour=max(0.0, start), end_hour=max(0.0, start) + length)
        for node, start, length in raw_events
    ]
    return FaultTrace(
        n_nodes=N_NODES, duration_days=DURATION_DAYS, events=events, gpus_per_node=4
    )


def naive_fault_set(trace, hour):
    """The seed's O(n_events) per-instant scan, kept as the oracle."""
    return frozenset(e.node_id for e in trace.events if e.active_at(hour))


class TestSweepIntervals:
    def test_empty_trace_is_one_empty_interval(self):
        intervals = sweep_intervals([], 48.0)
        assert intervals == (FaultInterval(0.0, 48.0, frozenset()),)

    def test_single_event(self):
        events = [FaultEvent(node_id=2, start_hour=10.0, end_hour=20.0)]
        intervals = sweep_intervals(events, 48.0)
        assert intervals == (
            FaultInterval(0.0, 10.0, frozenset()),
            FaultInterval(10.0, 20.0, frozenset({2})),
            FaultInterval(20.0, 48.0, frozenset()),
        )

    def test_event_clipped_to_window(self):
        events = [FaultEvent(node_id=0, start_hour=0.0, end_hour=1000.0)]
        intervals = sweep_intervals(events, 24.0)
        assert intervals == (FaultInterval(0.0, 24.0, frozenset({0})),)

    def test_overlapping_events_on_same_node(self):
        # Node 1 is down in [0, 30) via two overlapping events; the set only
        # changes when the *last* open event closes.
        events = [
            FaultEvent(node_id=1, start_hour=0.0, end_hour=20.0),
            FaultEvent(node_id=1, start_hour=10.0, end_hour=30.0),
        ]
        intervals = sweep_intervals(events, 48.0)
        assert intervals == (
            FaultInterval(0.0, 30.0, frozenset({1})),
            FaultInterval(30.0, 48.0, frozenset()),
        )

    def test_adjacent_identical_sets_merged(self):
        # One event ends exactly when another starts on the same node: the
        # fault set never changes, so there is a single merged interval.
        events = [
            FaultEvent(node_id=3, start_hour=5.0, end_hour=10.0),
            FaultEvent(node_id=3, start_hour=10.0, end_hour=15.0),
        ]
        intervals = sweep_intervals(events, 20.0)
        assert intervals == (
            FaultInterval(0.0, 5.0, frozenset()),
            FaultInterval(5.0, 15.0, frozenset({3})),
            FaultInterval(15.0, 20.0, frozenset()),
        )

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            sweep_intervals([], 0.0)

    @given(st.lists(event_strategy, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_intervals_partition_the_window(self, raw_events):
        trace = build_trace(raw_events)
        intervals = sweep_intervals(trace.events, trace.duration_hours)
        assert intervals[0].start_hour == 0.0
        assert intervals[-1].end_hour == trace.duration_hours
        for left, right in zip(intervals, intervals[1:]):
            assert left.end_hour == right.start_hour
            assert left.nodes != right.nodes  # maximal: neighbours differ
        assert all(iv.duration_hours > 0 for iv in intervals)

    @given(st.lists(event_strategy, max_size=25))
    # A one-ulp interval [39.99999999999999, 40.0) whose midpoint rounds to
    # its end.
    @example([(0, 0.0, 40.0), (1, 0.0, 39.99999999999999)])
    @settings(max_examples=60, deadline=None)
    def test_interval_sets_match_naive_scans(self, raw_events):
        trace = build_trace(raw_events)
        timeline = IntervalTimeline.from_trace(trace)
        for interval in timeline.intervals:
            # Probe at the interval start and strictly inside it; the
            # midpoint of an interval only an ulp or two wide can round to
            # one of its ends, and the start probe already covers it.
            assert timeline.fault_set_at(interval.start_hour) == interval.nodes
            assert naive_fault_set(trace, interval.start_hour) == interval.nodes
            mid = interval.start_hour + interval.duration_hours / 2
            if interval.start_hour < mid < interval.end_hour:
                assert naive_fault_set(trace, mid) == interval.nodes


class TestGridCompatibility:
    """The Figure 18a grid series reads the exact intervals, bit-for-bit."""

    @given(st.lists(event_strategy, max_size=25),
           st.sampled_from([24.0, 7.0, 1.0, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_resampled_grid_matches_naive_scans(self, raw_events, interval_hours):
        trace = build_trace(raw_events)
        days, ratios = trace.fault_ratio_series(interval_hours)
        times = trace.sample_times(interval_hours)
        assert days == [t / HOURS_PER_DAY for t in times]
        assert ratios == [len(naive_fault_set(trace, t)) / N_NODES for t in times]

    @given(st.lists(event_strategy, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_grid_means_converge_to_exact_mean(self, raw_events):
        trace = build_trace(raw_events)
        exact = trace.interval_timeline().mean_fault_ratio()
        n_boundaries = 2 * len(trace.events)
        for h in (24.0, 4.0, 0.5):
            _, ratios = trace.fault_ratio_series(h)
            grid_mean = sum(ratios) / len(ratios)
            # Each grid cell containing an event boundary (plus the ragged
            # final cell) mis-weights the ratio by at most h hours.
            bound = (n_boundaries + 3) * h / trace.duration_hours
            assert abs(grid_mean - exact) <= bound + 1e-9

    def test_day_granular_trace_daily_grid_is_already_exact(self):
        # The synthetic generator emits day-granular events, so the daily
        # grid and the exact interval timeline agree exactly.
        trace = generate_synthetic_trace(
            SyntheticTraceConfig(n_nodes=60, duration_days=45, seed=7)
        )
        exact = trace.statistics()
        _, daily = trace.fault_ratio_series(24.0)
        assert exact.mean_fault_ratio == pytest.approx(sum(daily) / len(daily), abs=1e-12)
        assert exact.max_fault_ratio == pytest.approx(max(daily), abs=1e-12)


class TestIntervalTimeline:
    def test_from_trace_restricts_nodes(self):
        events = [
            FaultEvent(node_id=0, start_hour=0.0, end_hour=10.0),
            FaultEvent(node_id=9, start_hour=0.0, end_hour=10.0),
        ]
        trace = FaultTrace(n_nodes=10, duration_days=2, events=events, gpus_per_node=4)
        timeline = IntervalTimeline.from_trace(trace, n_nodes=5)
        assert timeline.n_nodes == 5
        assert timeline.fault_set_at(5.0) == frozenset({0})
        with pytest.raises(ValueError):
            IntervalTimeline.from_trace(trace, n_nodes=11)

    def test_fault_set_outside_window_is_empty(self):
        trace = build_trace([(0, 0.0, 10.0)])
        timeline = trace.interval_timeline()
        assert timeline.fault_set_at(-1.0) == frozenset()
        assert timeline.fault_set_at(trace.duration_hours) == frozenset()

    def test_statistics_weighting(self):
        # Node 0 down for 24 of 96 hours: exact mean ratio = 0.25 * 1/12.
        trace = build_trace([(0, 0.0, 24.0)])
        timeline = trace.interval_timeline()
        assert timeline.mean_fault_ratio() == pytest.approx(0.25 / N_NODES)
        assert timeline.max_fault_ratio() == pytest.approx(1 / N_NODES)
        assert timeline.fault_ratio_quantile(0.0) == 0.0
        assert timeline.fault_ratio_quantile(1.0) == pytest.approx(1 / N_NODES)


class TestWeightedQuantile:
    def test_matches_time_shares(self):
        values = [0.0, 0.1, 0.2]
        weights = [50.0, 30.0, 20.0]
        assert weighted_quantile(values, weights, 0.25) == 0.0
        assert weighted_quantile(values, weights, 0.6) == 0.1
        assert weighted_quantile(values, weights, 0.9) == 0.2
        assert weighted_quantile(values, weights, 1.0) == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_quantile([1.0], [1.0], 1.5)
        with pytest.raises(ValueError):
            weighted_quantile([1.0, 2.0], [1.0], 0.5)
        with pytest.raises(ValueError):
            weighted_quantile([1.0, 2.0], [1.0, -1.0], 0.5)
        assert weighted_quantile([], [], 0.5) == 0.0

    def test_accepts_arrays(self):
        values, weights = np.array([0.2, 0.1]), np.array([1.0, 3.0])
        assert weighted_quantile(values, weights, 0.5) == 0.1
        assert weighted_quantile(values, weights, 0.9) == 0.2


class TestLeftSum:
    def test_is_a_left_fold_not_a_compensated_sum(self):
        # CPython >= 3.12's sum() compensates this to exactly 1.0.
        assert left_sum([0.1] * 10) == 0.9999999999999999
        assert left_sum(iter([0.5, 0.25])) == 0.75
        assert left_sum([]) == 0.0


class TestEmpiricalCdf:
    def test_equal_weight_matches_hand_rolled(self):
        values = [0.3, 0.1, 0.2]
        sorted_values, cdf = empirical_cdf(values)
        assert sorted_values == [0.1, 0.2, 0.3]
        assert cdf == [1 / 3, 2 / 3, 1.0]

    def test_empty(self):
        assert empirical_cdf([]) == ([], [])

    def test_weighted(self):
        values, cdf = empirical_cdf([0.2, 0.0], [25.0, 75.0])
        assert values == [0.0, 0.2]
        assert cdf == [0.75, 1.0]

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            empirical_cdf([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            empirical_cdf([1.0], [-1.0])
        with pytest.raises(ValueError):
            empirical_cdf([1.0], [0.0])


class TestOneSeedReplay:
    """Aggregates of one replayed seed: element 0 of each ``BatchSeries`` method."""

    @pytest.fixture()
    def series(self):
        # Hand-checkable replay: 10 nodes, Big-Switch, TP-4; node 0 down for
        # the middle 24 of 96 hours.
        events = [FaultEvent(node_id=0, start_hour=36.0, end_hour=60.0)]
        trace = FaultTrace(n_nodes=10, duration_days=4, events=events, gpus_per_node=4)
        return replay_intervals(BigSwitchHBD(4), trace.interval_timeline(), 4)

    def test_exact_durations(self, series):
        assert (series.n_seeds, len(series)) == (1, 3)
        assert series.durations_hours.tolist() == [36.0, 24.0, 36.0]
        assert series.total_hours_for_seed(0) == 96.0

    def test_duration_weighted_mean(self, series):
        # Big-Switch wastes nothing at TP-4 (all healthy GPUs usable).
        assert series.mean_waste_ratios()[0] == 0.0
        assert series.min_usable_gpus()[0] == 36

    def test_fault_waiting_rate_is_time_fraction(self, series):
        assert series.fault_waiting_rates(40)[0] == pytest.approx(24.0 / 96.0)
        assert series.fault_waiting_rates(36)[0] == 0.0

    def test_supported_job_scale(self, series):
        assert series.supported_job_scales(1.0)[0] == 36
        # Allowing 25% waiting admits the full 40-GPU job.
        assert series.supported_job_scales(0.75)[0] == 40
        # 20% waiting budget is not enough for the 24/96 = 25% dip.
        assert series.supported_job_scales(0.80)[0] == 36
        with pytest.raises(ValueError):
            series.supported_job_scales(0.0)

    def test_mean_waste_in_window(self):
        events = [FaultEvent(node_id=0, start_hour=0.0, end_hour=48.0)]
        trace = FaultTrace(n_nodes=4, duration_days=4, events=events, gpus_per_node=4)
        series = replay_intervals(NVLHBD(8, gpus_per_node=4), trace.interval_timeline(), 8)
        first_half = series.mean_waste_in_window(0.0, 2.0)[0]
        second_half = series.mean_waste_in_window(2.0, 4.0)[0]
        # Node 0's domain partner wastes 4 GPUs of 16 while node 0 is down.
        assert first_half == pytest.approx(0.25)
        assert second_half == 0.0
        # A window past the trace covers no interval.
        assert series.mean_waste_in_window(5.0, 6.0) == [0.0]

    def test_empty_series(self):
        empty_float, empty_int = np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int64)
        series = BatchSeries(
            starts_hours=empty_float,
            ends_hours=empty_float,
            waste_ratios=empty_float,
            usable_gpus=empty_int,
            faulty_gpus=empty_int,
            interval_offsets=np.zeros(2, dtype=np.int64),
            total_gpus=0,
        )
        assert series.mean_waste_ratios() == [0.0]
        assert series.fault_waiting_rates(1) == [0.0]
        assert series.supported_job_scales() == [0]
        assert series.mean_waste_in_window(0.0, 1.0) == [0.0]


def daily_grid_breakdowns(arch, trace, tp_size):
    """The seed's daily grid: one full breakdown per sampled instant."""
    return [
        arch.breakdown(trace.n_nodes, naive_fault_set(trace, t), tp_size)
        for t in trace.sample_times(HOURS_PER_DAY)
    ]


class TestExactVsGridReplay:
    """Exact aggregates agree with fine grids and beat coarse ones."""

    @pytest.fixture(scope="class")
    def trace(self):
        source = generate_synthetic_trace(
            SyntheticTraceConfig(n_nodes=100, duration_days=60, seed=5)
        )
        return convert_trace_8gpu_to_4gpu(source, seed=5)

    def test_exact_equals_daily_grid_on_day_granular_trace(self, trace):
        arch = InfiniteHBDArchitecture(k=2, gpus_per_node=4)
        exact = replay_intervals(arch, trace.interval_timeline(), 32)
        grid = daily_grid_breakdowns(arch, trace, 32)
        grid_mean = sum(b.waste_ratio for b in grid) / len(grid)
        grid_min = min(b.usable_gpus for b in grid)
        assert exact.mean_waste_ratios()[0] == pytest.approx(grid_mean, abs=1e-12)
        assert exact.min_usable_gpus()[0] == grid_min
        assert exact.supported_job_scales(1.0)[0] == grid_min

    @settings(max_examples=20, deadline=None)
    @given(raw=st.lists(event_strategy, max_size=20))
    def test_replay_matches_seed_grid_path(self, raw):
        """The seed's hourly grid: one full breakdown per sampled instant."""
        trace = build_trace(raw)
        timeline = trace.interval_timeline()
        arch = NVLHBD(8, gpus_per_node=4)
        series = replay_intervals(arch, timeline, 8)
        # Each grid sample falls inside exactly one interval; its breakdown
        # must equal that interval's replayed value.
        index = 0
        for t in trace.sample_times(1.0):
            while index < len(series) - 1 and series.ends_hours[index] <= t:
                index += 1
            grid = arch.breakdown(N_NODES, timeline.fault_set_at(t), 8)
            assert grid.waste_ratio == series.waste_ratios[index]

    def test_exact_catches_sub_grid_dips(self):
        # A 1-hour blip is invisible to the daily grid (it falls between
        # samples) but exact replay accounts for it.
        events = [FaultEvent(node_id=0, start_hour=30.0, end_hour=31.0)]
        trace = FaultTrace(n_nodes=10, duration_days=4, events=events, gpus_per_node=4)
        arch = BigSwitchHBD(4)
        exact = replay_intervals(arch, trace.interval_timeline(), 4)
        grid = daily_grid_breakdowns(arch, trace, 4)
        assert min(b.usable_gpus for b in grid) == 40  # the grid never saw it
        assert exact.min_usable_gpus()[0] == 36        # the exact replay did
        assert exact.fault_waiting_rates(40)[0] == pytest.approx(1.0 / 96.0)
