"""Tests for incremental (delta) breakdown replay.

The correctness contract of the delta path is *bit-for-bit* equality: a
sweep-line walk advancing one :meth:`~repro.hbd.base.HBDArchitecture.
breakdown_delta` state per interval must produce exactly the series the
memoized full-recompute replay produces, which in turn matches per-instant
breakdowns of the exact fault set (pinned in test_fault_timeline.py).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.trace import FaultEvent, FaultTrace, HOURS_PER_DAY
from repro.hbd import (
    BigSwitchHBD,
    InfiniteHBDArchitecture,
    NVLHBD,
    SiPRingHBD,
    TPUv4HBD,
)
from repro.simulation.cluster import replay_intervals

N_NODES = 24
DURATION_DAYS = 4
DURATION_HOURS = DURATION_DAYS * HOURS_PER_DAY

#: The delta-capable line-up plus the fallback architecture, all at R=4.
ARCHITECTURES = [
    SiPRingHBD(gpus_per_node=4),
    TPUv4HBD(gpus_per_node=4, cube_size=16),
    NVLHBD(36, gpus_per_node=4),
    NVLHBD(8, gpus_per_node=4),
    BigSwitchHBD(gpus_per_node=4),
    InfiniteHBDArchitecture(k=2, gpus_per_node=4),
]

float_event = st.tuples(
    st.integers(min_value=0, max_value=N_NODES - 1),
    st.floats(min_value=-10.0, max_value=DURATION_HOURS + 10.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False),
)

def build_trace(raw_events):
    events = [
        FaultEvent(
            node_id=node,
            start_hour=max(0.0, float(start)),
            end_hour=max(0.0, float(start)) + float(length),
        )
        for node, start, length in raw_events
    ]
    return FaultTrace(
        n_nodes=N_NODES, duration_days=DURATION_DAYS, events=events, gpus_per_node=4
    )


# --------------------------------------------------------------------------
# breakdown_delta against the ground-truth full breakdown
# --------------------------------------------------------------------------
class TestBreakdownDelta:
    @pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: a.name)
    @pytest.mark.parametrize("tp_size", [4, 8, 16, 32])
    def test_random_flip_walk_matches_full_breakdown(self, arch, tp_size):
        import random

        rng = random.Random(hash((arch.name, tp_size)) & 0xFFFF)
        faults = set(rng.sample(range(N_NODES), 4))
        state = arch.delta_state(N_NODES, faults, tp_size)
        breakdown, state = arch.breakdown_delta(state)
        assert breakdown == arch.breakdown(N_NODES, faults, tp_size)
        for _ in range(300):
            node = rng.randrange(N_NODES)
            if node in faults:
                faults.discard(node)
                breakdown, state = arch.breakdown_delta(state, removed_faults=[node])
            else:
                faults.add(node)
                breakdown, state = arch.breakdown_delta(state, added_faults=[node])
            assert breakdown == arch.breakdown(N_NODES, faults, tp_size)
            assert state.faults == frozenset(faults)

    def test_multi_node_deltas(self):
        arch = NVLHBD(8, gpus_per_node=4)
        state = arch.delta_state(N_NODES, {0, 1, 5}, 8)
        breakdown, state = arch.breakdown_delta(
            state, added_faults={2, 9, 10}, removed_faults={0, 5}
        )
        assert state.faults == frozenset({1, 2, 9, 10})
        assert breakdown == arch.breakdown(N_NODES, {1, 2, 9, 10}, 8)

    def test_out_of_range_nodes_are_ignored(self):
        arch = SiPRingHBD(gpus_per_node=4)
        state = arch.delta_state(N_NODES, {3}, 8)
        breakdown, state = arch.breakdown_delta(
            state, added_faults={-1, N_NODES, N_NODES + 7}
        )
        assert state.faults == frozenset({3})
        assert breakdown == arch.breakdown(N_NODES, {3}, 8)

    def test_double_add_raises(self):
        arch = NVLHBD(8, gpus_per_node=4)
        state = arch.delta_state(N_NODES, {3}, 8)
        with pytest.raises(ValueError, match="already faulty"):
            arch.breakdown_delta(state, added_faults={3})

    def test_remove_healthy_raises(self):
        arch = NVLHBD(8, gpus_per_node=4)
        state = arch.delta_state(N_NODES, {3}, 8)
        with pytest.raises(ValueError, match="not faulty"):
            arch.breakdown_delta(state, removed_faults={4})

    def test_add_and_remove_same_node_raises(self):
        arch = NVLHBD(8, gpus_per_node=4)
        state = arch.delta_state(N_NODES, {3}, 8)
        with pytest.raises(ValueError, match="both added and removed"):
            arch.breakdown_delta(state, added_faults={6}, removed_faults={6})

    def test_fallback_architecture_is_total(self):
        # Big-Switch is the only remaining full-recompute fallback: its
        # capacity is a single global remainder with no local structure.
        arch = BigSwitchHBD(4)
        assert not arch.supports_delta
        state = arch.delta_state(N_NODES, {1, 2}, 8)
        assert state.aux is None
        breakdown, state = arch.breakdown_delta(state, added_faults={7})
        assert breakdown == arch.breakdown(N_NODES, {1, 2, 7}, 8)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=1, max_value=4),
        ring=st.booleans(),
        tp_index=st.integers(0, 3),
        flips=st.lists(st.integers(min_value=0, max_value=39), max_size=60),
        initial=st.sets(st.integers(min_value=0, max_value=39), max_size=12),
    )
    def test_infinitehbd_local_update_matches_topology(
        self, n, k, ring, tp_index, flips, initial
    ):
        """The K-hop local update is bit-for-bit the topology recompute.

        Every flip only touches the segment(s) within reach of the node
        (bounded by the nearest breakpoints), so this walk stresses run
        merges/splits, wrap-around runs and the no-breakpoint single-segment
        ring across K, ring/line mode and TP sizes.
        """
        tp_size = (2, 4, 8, 16)[tp_index]
        arch = InfiniteHBDArchitecture(k=k, gpus_per_node=4, ring=ring)
        faults = {f for f in initial if f < n}
        state = arch.delta_state(n, faults, tp_size)
        assert state.usable == arch.usable_gpus(n, faults, tp_size)
        for node in flips:
            node %= n
            if node in faults:
                faults.discard(node)
                breakdown, state = arch.breakdown_delta(state, removed_faults=[node])
            else:
                faults.add(node)
                breakdown, state = arch.breakdown_delta(state, added_faults=[node])
            assert breakdown.usable_gpus == arch.usable_gpus(n, faults, tp_size)
            assert state.faults == frozenset(faults)

    def test_infeasible_tp_stays_zero(self):
        arch = NVLHBD(8, gpus_per_node=4)  # tp 16 > hbd_size 8
        state = arch.delta_state(N_NODES, set(), 16)
        breakdown, state = arch.breakdown_delta(state, added_faults={0})
        assert breakdown.usable_gpus == 0
        breakdown, state = arch.breakdown_delta(state, removed_faults={0})
        assert breakdown.usable_gpus == 0


# --------------------------------------------------------------------------
# replay equality: delta walk == memoized full recompute == per-instant scan
# --------------------------------------------------------------------------
class TestDeltaReplayEquality:
    @settings(max_examples=40, deadline=None)
    @given(raw=st.lists(float_event, max_size=30), tp_index=st.integers(0, 2))
    def test_delta_replay_bit_for_bit(self, raw, tp_index):
        tp_size = (4, 8, 16)[tp_index]
        trace = build_trace(raw)
        timeline = trace.interval_timeline()
        for arch in ARCHITECTURES:
            full = replay_intervals(arch, timeline, tp_size, incremental=False)
            delta = replay_intervals(arch, timeline, tp_size, incremental=True)
            assert delta == full

    @settings(max_examples=20, deadline=None)
    @given(raw=st.lists(float_event, max_size=20))
    def test_delta_replay_matches_seed_grid_path(self, raw):
        """The seed's hourly grid: one full breakdown per sampled instant."""
        trace = build_trace(raw)
        timeline = trace.interval_timeline()
        arch = NVLHBD(8, gpus_per_node=4)
        delta = replay_intervals(arch, timeline, 8, incremental=True)
        # Each grid sample falls inside exactly one interval; its breakdown
        # must equal that interval's delta-replayed value.
        index = 0
        for t in trace.sample_times(1.0):
            while index < len(delta) - 1 and delta.ends_hours[index] <= t:
                index += 1
            grid = arch.breakdown(N_NODES, timeline.fault_set_at(t), 8)
            assert grid.waste_ratio == delta.waste_ratios[index]

    def test_auto_mode_picks_delta_only_when_supported(self):
        trace = build_trace([(0, 10.0, 5.0), (7, 30.0, 2.0)])
        timeline = trace.interval_timeline()
        for arch in ARCHITECTURES:
            auto = replay_intervals(arch, timeline, 8)
            full = replay_intervals(arch, timeline, 8, incremental=False)
            assert auto == full


# --------------------------------------------------------------------------
# scheduler capacity queries ride the same delta states
# --------------------------------------------------------------------------
class TestSchedulerDeltaCapacity:
    @settings(max_examples=15, deadline=None)
    @given(raw=st.lists(float_event, max_size=20))
    def test_scheduler_report_identical_with_and_without_delta(self, raw):
        from repro.scheduler import ClusterScheduler, JobSpec

        trace = build_trace(raw)
        timeline = trace.interval_timeline()
        jobs = [
            JobSpec(name="a", gpus=32, tp_size=8, work_hours=30.0),
            JobSpec(name="b", gpus=16, tp_size=8, work_hours=10.0, submit_hour=5.0),
            JobSpec(name="c", gpus=64, tp_size=8, work_hours=4.0, submit_hour=6.0),
        ]

        class _NoDeltaNVL(NVLHBD):
            supports_delta = False

        fast = ClusterScheduler(
            NVLHBD(8, gpus_per_node=4), timeline, jobs,
            horizon_hours=DURATION_HOURS,
        ).run()
        slow = ClusterScheduler(
            _NoDeltaNVL(8, gpus_per_node=4), timeline, jobs,
            horizon_hours=DURATION_HOURS,
        ).run()
        assert fast == slow

