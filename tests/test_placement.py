"""Tests for node-level placement, backfill and fairness metrics.

The placed scheduler's contracts:

* **domain consistency** -- every architecture's ``placement_groups`` carve
  exactly the capacity ``usable_gpus`` reports (when the TP size is a
  multiple of the node size, the regime every evaluated config lives in);
* **determinism** -- same seed + spec => byte-identical ``ClusterReport``
  JSON across independent runs;
* **deterministic fault hits** -- a fault interval deschedules exactly the
  jobs whose held nodes went down, with integer hit counts;
* **conservation** -- placed or not, productive + waiting + restart hours
  partition every job's wall-clock time (hypothesis-tested);
* **backfill** -- small jobs jump a blocked FIFO head only when they cannot
  delay its projected start.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.trace import FaultEvent, FaultTrace
from repro.hbd import (
    BigSwitchHBD,
    InfiniteHBDArchitecture,
    NVLHBD,
    SiPRingHBD,
    TPUv4HBD,
)
from repro.scheduler import (
    ClusterScheduler,
    JobSpec,
    PLACEMENT_NAMES,
    PackedPlacement,
    SpreadPlacement,
    WorkloadConfig,
    generate_workload,
    placement_by_name,
    policy_by_name,
)

N_NODES = 24
ARCHITECTURES = [
    BigSwitchHBD(4),
    NVLHBD(36, 4),
    NVLHBD(8, 4),
    SiPRingHBD(4),
    TPUv4HBD(4, cube_size=16),
    InfiniteHBDArchitecture(k=2, gpus_per_node=4),
]


def quiet_timeline(n_nodes=N_NODES, days=4, gpus_per_node=4):
    return FaultTrace(
        n_nodes=n_nodes, duration_days=days, events=[], gpus_per_node=gpus_per_node
    ).interval_timeline()


def faulty_timeline(events, n_nodes=N_NODES, days=4, gpus_per_node=4):
    return FaultTrace(
        n_nodes=n_nodes,
        duration_days=days,
        events=[FaultEvent(*e) for e in events],
        gpus_per_node=gpus_per_node,
    ).interval_timeline()


# --------------------------------------------------------------------------
# placement domains
# --------------------------------------------------------------------------
class TestPlacementGroups:
    @pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: a.name)
    @pytest.mark.parametrize("tp_size", [4, 8, 16, 32])
    def test_domains_partition_usable_capacity(self, arch, tp_size):
        import random

        rng = random.Random(hash((arch.name, tp_size)) & 0xFFFF)
        for _ in range(30):
            faults = set(rng.sample(range(N_NODES), rng.randint(0, N_NODES)))
            groups = arch.placement_groups(N_NODES, faults, tp_size)
            assert sum(g.capacity_gpus for g in groups) == arch.usable_gpus(
                N_NODES, faults, tp_size
            )
            seen = set()
            for group in groups:
                assert not (set(group.nodes) & faults), "faulty node in a domain"
                assert not (set(group.nodes) & seen), "domains overlap"
                seen |= set(group.nodes)

    def test_big_switch_is_one_flat_domain(self):
        groups = BigSwitchHBD(4).placement_groups(8, {3}, 8)
        assert len(groups) == 1
        assert groups[0].nodes == (0, 1, 2, 4, 5, 6, 7)
        assert groups[0].nodes_per_group == 2

    def test_nvl_domains_are_units(self):
        groups = NVLHBD(8, 4).placement_groups(8, {2}, 8)  # 2-node units
        assert [g.nodes for g in groups] == [(0, 1), (3,), (4, 5), (6, 7)]
        # the unit with a fault keeps its healthy node but has no free slot
        assert [g.capacity_groups for g in groups] == [1, 0, 1, 1]

    def test_sipring_faulty_ring_is_excluded(self):
        groups = SiPRingHBD(4).placement_groups(8, {2}, 8)  # 2-node rings
        assert [g.nodes for g in groups] == [(0, 1), (4, 5), (6, 7)]

    def test_tpuv4_multi_cube_domains_are_dedicated(self):
        arch = TPUv4HBD(4, cube_size=16)  # 4-node cubes
        groups = arch.placement_groups(16, set(), 32)  # 2 cubes per TP group
        assert len(groups) == 2
        assert all(g.nodes_per_group == len(g.nodes) == 8 for g in groups)
        # one fault poisons its cube, leaving 3 healthy cubes -> one pair
        groups = arch.placement_groups(16, {0}, 32)
        assert len(groups) == 1
        assert groups[0].nodes == tuple(range(4, 12))

    def test_infinitehbd_domains_are_segments(self):
        arch = InfiniteHBDArchitecture(k=2, gpus_per_node=4)
        # one fault is bridged: still a single (ring) segment
        groups = arch.placement_groups(12, {0}, 8)
        assert len(groups) == 1
        assert len(groups[0].nodes) == 11
        # a K-long run breaks the ring into one open segment
        groups = arch.placement_groups(12, {0, 1}, 8)
        assert len(groups) == 1
        assert groups[0].nodes == tuple(range(2, 12))


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------
class TestPlacedDeterminism:
    def _run(self, seed, placement, backfill=False, policy=None):
        from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace

        trace = generate_synthetic_trace(
            SyntheticTraceConfig(n_nodes=120, duration_days=20, seed=seed)
        )
        jobs = generate_workload(
            WorkloadConfig(n_jobs=30, seed=seed, tp_size=32, max_gpus=384)
        )
        return ClusterScheduler(
            NVLHBD(72, gpus_per_node=8),
            trace.interval_timeline(),
            jobs,
            policy=policy,
            placement=placement,
            backfill=backfill,
        ).run()

    @pytest.mark.parametrize("placement", PLACEMENT_NAMES)
    def test_same_seed_byte_identical_report_json(self, placement):
        first = json.dumps(self._run(11, placement).to_dict(), sort_keys=True)
        second = json.dumps(self._run(11, placement).to_dict(), sort_keys=True)
        assert first == second

    def test_distinct_seeds_differ(self):
        first = json.dumps(self._run(11, "packed").to_dict(), sort_keys=True)
        second = json.dumps(self._run(12, "packed").to_dict(), sort_keys=True)
        assert first != second

    def test_placed_report_records_mode(self):
        report = self._run(11, "packed", backfill=True)
        assert report.placement == "packed"
        assert report.backfill is True
        data = report.to_dict()
        assert data["placement"] == "packed"
        assert data["backfill"] is True
        expected = self._run(11, None)
        assert expected.placement is None and expected.backfill is False


# --------------------------------------------------------------------------
# deterministic fault hits
# --------------------------------------------------------------------------
class TestDeterministicFaultHits:
    def test_fault_hits_exactly_the_holder(self):
        # Two 8-GPU jobs on a 2-unit NVL cluster; packed placement puts the
        # first job on unit 0 (nodes 0-1) and the second on unit 1 (2-3).
        timeline = faulty_timeline([(0, 10.0, 20.0)], n_nodes=4, days=2)
        jobs = [
            JobSpec(name="a", gpus=8, tp_size=4, work_hours=24.0),
            JobSpec(name="b", gpus=8, tp_size=4, work_hours=24.0),
        ]
        report = ClusterScheduler(
            NVLHBD(8, 4), timeline, jobs, placement="packed"
        ).run()
        hit, untouched = report.jobs
        assert hit.impacting_faults == 1.0      # a real hit count
        assert hit.restart_charged_hours == 0.75
        assert untouched.impacting_faults == 0.0
        assert untouched.restart_hours == 0.0
        # the hit job waits out the outage (its unit lost a node), restarts,
        # and still finishes; conservation holds throughout
        assert hit.finished and untouched.finished
        assert hit.waiting_hours >= 10.0

    def test_surviving_job_keeps_running_unlike_expected_mode(self):
        # In expected-value mode every allocated job is charged a share of
        # the fault; in placed mode the job whose nodes survived is free.
        timeline = faulty_timeline([(0, 10.0, 20.0)], n_nodes=4, days=2)
        jobs = [
            JobSpec(name="a", gpus=8, tp_size=4, work_hours=24.0),
            JobSpec(name="b", gpus=8, tp_size=4, work_hours=24.0),
        ]
        expected = ClusterScheduler(NVLHBD(8, 4), timeline, jobs).run()
        placed = ClusterScheduler(
            NVLHBD(8, 4), timeline, jobs, placement="packed"
        ).run()
        # expected mode: the surviving job "b" is squeezed out by the
        # capacity drop (12 usable < 16 demanded) and charged a preemption
        assert expected.jobs[0].impacting_faults > 0
        assert expected.jobs[1].preemptions == 1
        # placed mode: "b" holds unit-1 nodes and is completely untouched
        assert [job.impacting_faults for job in placed.jobs] == [1.0, 0.0]
        assert placed.jobs[1].preemptions == 0
        assert placed.jobs[1].restart_hours == 0.0

    def test_spread_placement_changes_the_blast_radius(self):
        # Two single-node jobs on two NVL-16 units (nodes 0-3 / 4-7):
        # packed co-locates them in unit 0 (nodes 0 and 1); spread puts the
        # second job in the emptier unit 1 (node 4).  A fault on node 1
        # therefore hits the second job only under packed placement.
        timeline = faulty_timeline([(1, 10.0, 20.0)], n_nodes=8, days=2)
        jobs = [
            JobSpec(name="first", gpus=4, tp_size=4, work_hours=24.0),
            JobSpec(name="second", gpus=4, tp_size=4, work_hours=24.0),
        ]
        packed = ClusterScheduler(
            NVLHBD(16, 4), timeline, jobs, placement="packed"
        ).run()
        spread = ClusterScheduler(
            NVLHBD(16, 4), timeline, jobs, placement="spread"
        ).run()
        assert [job.impacting_faults for job in packed.jobs] == [0.0, 1.0]
        assert [job.impacting_faults for job in spread.jobs] == [0.0, 0.0]

    def test_placed_infeasible_job_requires_horizon(self):
        # With tp < R the node-granular placed capacity (one TP group per
        # node here: 4 nodes x 2 GPUs = 8) is a conservative lower bound on
        # the expected-value capacity (16), so this job validates in
        # expected mode but not in placed mode.
        timeline = quiet_timeline(n_nodes=4)
        job = JobSpec(name="wide", gpus=12, tp_size=2, work_hours=1.0)
        ClusterScheduler(BigSwitchHBD(4), timeline, [job]).run()
        with pytest.raises(ValueError, match="cannot run even"):
            ClusterScheduler(
                BigSwitchHBD(4), timeline, [job], placement="packed"
            ).run()

    def test_placement_accepts_policy_instances(self):
        timeline = quiet_timeline(n_nodes=4)
        job = JobSpec(name="j", gpus=8, tp_size=4, work_hours=1.0)
        for policy in (PackedPlacement(), SpreadPlacement()):
            report = ClusterScheduler(
                BigSwitchHBD(4), timeline, [job], placement=policy
            ).run()
            assert report.placement == policy.name

    def test_unknown_placement_name_suggests(self):
        with pytest.raises(KeyError, match="did you mean"):
            placement_by_name("paced")


# --------------------------------------------------------------------------
# backfill
# --------------------------------------------------------------------------
class TestBackfill:
    def _blocked_head_setup(self, backfill, placement=None):
        # 32-GPU cluster.  "running" holds 28 of it for 10h; the
        # cluster-sized "head" blocks the queue until t=10, leaving 4 GPUs
        # idle that only a backfilled job may use: "small" finishes well
        # before the head's projected start, so admitting it cannot delay
        # the head.
        timeline = quiet_timeline(n_nodes=8, days=4)
        jobs = [
            JobSpec(name="running", gpus=28, tp_size=4, work_hours=10.0),
            JobSpec(name="head", gpus=32, tp_size=4, work_hours=5.0,
                    submit_hour=1.0),
            JobSpec(name="small", gpus=4, tp_size=4, work_hours=2.0,
                    submit_hour=2.0),
        ]
        return ClusterScheduler(
            BigSwitchHBD(4), timeline, jobs, backfill=backfill,
            placement=placement,
        ).run()

    @pytest.mark.parametrize("placement", [None, "packed"])
    def test_small_job_jumps_blocked_head_without_delaying_it(self, placement):
        strict = self._blocked_head_setup(backfill=False, placement=placement)
        eased = self._blocked_head_setup(backfill=True, placement=placement)
        running_s, head_s, small_s = strict.jobs
        running_e, head_e, small_e = eased.jobs
        # strict FIFO: small waits behind the head
        assert small_s.first_start_hour == 15.0
        # backfill: small runs immediately in the idle capacity...
        assert small_e.first_start_hour == 2.0
        # ...and the head starts exactly when it would have anyway
        assert head_e.first_start_hour == head_s.first_start_hour == 10.0
        assert head_e.jct_hours == head_s.jct_hours

    def test_wide_backfill_candidate_is_rejected(self):
        # A job too long to finish before the head's projected start and
        # too wide for the head's leftover must keep waiting.
        timeline = quiet_timeline(n_nodes=8, days=4)
        jobs = [
            JobSpec(name="running", gpus=32, tp_size=4, work_hours=10.0),
            JobSpec(name="head", gpus=28, tp_size=4, work_hours=5.0,
                    submit_hour=1.0),
            JobSpec(name="wide", gpus=8, tp_size=4, work_hours=50.0,
                    submit_hour=2.0),
            JobSpec(name="slim", gpus=4, tp_size=4, work_hours=50.0,
                    submit_hour=3.0),
        ]
        report = ClusterScheduler(
            BigSwitchHBD(4), timeline, jobs, backfill=True
        ).run()
        by_name = {job.name: job for job in report.jobs}
        # t=10: "head" starts (28 of 32); "wide" blocks (8 > 4 free) and
        # reserves the head's completion at t=15.  "slim" (50h) cannot
        # finish by then but fits the 4-GPU leftover, so it extra-backfills
        # past "wide"; "wide" itself must wait for its reservation.
        assert by_name["head"].first_start_hour == 10.0
        assert by_name["slim"].first_start_hour == 10.0
        assert by_name["wide"].first_start_hour == 15.0

    def test_backfill_is_noop_for_non_strict_policies(self):
        timeline = quiet_timeline(n_nodes=8, days=4)
        jobs = [
            JobSpec(name="a", gpus=32, tp_size=4, work_hours=10.0),
            JobSpec(name="b", gpus=32, tp_size=4, work_hours=5.0, submit_hour=1.0),
            JobSpec(name="c", gpus=4, tp_size=4, work_hours=2.0, submit_hour=2.0),
        ]
        policy = policy_by_name("smallest-first")
        plain = ClusterScheduler(
            BigSwitchHBD(4), timeline, jobs, policy=policy
        ).run()
        eased = ClusterScheduler(
            BigSwitchHBD(4), timeline, jobs, policy=policy, backfill=True
        ).run()
        # identical outcomes: non-strict policies already skip blocked jobs
        assert [job.to_dict() for job in plain.jobs] == [
            job.to_dict() for job in eased.jobs
        ]


# --------------------------------------------------------------------------
# fairness metrics
# --------------------------------------------------------------------------
class TestFairnessMetrics:
    def test_rho_is_one_on_an_idle_cluster(self):
        timeline = quiet_timeline()
        job = JobSpec(name="solo", gpus=16, tp_size=4, work_hours=3.0)
        report = ClusterScheduler(BigSwitchHBD(4), timeline, [job]).run()
        assert report.jobs[0].finish_time_fairness == 1.0
        assert report.mean_finish_time_fairness == 1.0
        assert report.max_finish_time_fairness == 1.0
        assert report.jain_fairness_index == 1.0

    def test_queued_job_has_rho_above_one(self):
        timeline = quiet_timeline(n_nodes=8)
        jobs = [
            JobSpec(name="first", gpus=32, tp_size=4, work_hours=4.0),
            JobSpec(name="second", gpus=32, tp_size=4, work_hours=4.0),
        ]
        report = ClusterScheduler(BigSwitchHBD(4), timeline, jobs).run()
        rhos = report.finish_time_fairness()
        assert rhos == [1.0, 2.0]  # second waited 4h for 4h of work
        assert report.mean_finish_time_fairness == 1.5
        assert report.max_finish_time_fairness == 2.0
        assert report.jain_fairness_index == pytest.approx(9.0 / 10.0)

    def test_unfinished_jobs_have_no_rho(self):
        timeline = quiet_timeline(n_nodes=8)
        jobs = [
            JobSpec(name="done", gpus=32, tp_size=4, work_hours=1.0),
            JobSpec(name="cut", gpus=32, tp_size=4, work_hours=50.0),
        ]
        report = ClusterScheduler(
            BigSwitchHBD(4), timeline, jobs, horizon_hours=2.0
        ).run()
        assert report.jobs[0].finish_time_fairness == 1.0
        assert report.jobs[1].finish_time_fairness is None
        assert report.finish_time_fairness() == [1.0]

    def test_empty_report_fairness_is_zero(self):
        timeline = quiet_timeline(n_nodes=8)
        job = JobSpec(name="late", gpus=8, tp_size=4, work_hours=1.0,
                      submit_hour=100.0)
        report = ClusterScheduler(
            BigSwitchHBD(4), timeline, [job], horizon_hours=1.0
        ).run()
        assert report.jain_fairness_index == 0.0
        assert report.mean_finish_time_fairness == 0.0

    def test_fairness_in_report_dict(self):
        timeline = quiet_timeline()
        job = JobSpec(name="solo", gpus=16, tp_size=4, work_hours=3.0)
        data = ClusterScheduler(BigSwitchHBD(4), timeline, [job]).run().to_dict()
        assert data["mean_finish_time_fairness"] == 1.0
        assert data["jain_fairness_index"] == 1.0
        assert data["jobs"][0]["finish_time_fairness"] == 1.0


# --------------------------------------------------------------------------
# conservation: the wall-clock partition holds in placed mode too
# --------------------------------------------------------------------------
placed_event = st.tuples(
    st.integers(min_value=0, max_value=N_NODES - 1),
    st.floats(min_value=0.0, max_value=90.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.5, max_value=40.0, allow_nan=False, allow_infinity=False),
)

placed_job = st.tuples(
    st.integers(min_value=1, max_value=6),    # TP groups
    st.floats(min_value=0.5, max_value=30.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False),
)


class TestPlacedConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        raw_events=st.lists(placed_event, max_size=12),
        raw_jobs=st.lists(placed_job, min_size=1, max_size=8),
        arch_index=st.integers(0, len(ARCHITECTURES) - 1),
        placement_index=st.integers(0, len(PLACEMENT_NAMES) - 1),
        policy_index=st.integers(0, 2),
        preemptive=st.booleans(),
        backfill=st.booleans(),
    )
    def test_placed_buckets_partition_wall_clock(
        self, raw_events, raw_jobs, arch_index, placement_index, policy_index,
        preemptive, backfill,
    ):
        arch = ARCHITECTURES[arch_index]
        timeline = faulty_timeline(
            [(node, start, start + length) for node, start, length in raw_events]
        )
        jobs = [
            JobSpec(
                name=f"job-{i}",
                gpus=groups * 8,
                tp_size=8,
                work_hours=work,
                submit_hour=submit,
            )
            for i, (groups, work, submit) in enumerate(raw_jobs)
        ]
        policy = policy_by_name(
            ("fifo", "smallest-first", "shortest-remaining")[policy_index],
            preemptive=preemptive,
        )
        report = ClusterScheduler(
            arch,
            timeline,
            jobs,
            policy=policy,
            horizon_hours=120.0,
            placement=PLACEMENT_NAMES[placement_index],
            backfill=backfill,
        ).run()
        for job in report.jobs:
            buckets = job.productive_hours + job.waiting_hours + job.restart_hours
            assert math.isclose(buckets, job.wall_clock_hours, abs_tol=1e-6)
            if job.finished and job.work_hours:
                assert job.finish_time_fairness >= 1.0 - 1e-9


# --------------------------------------------------------------------------
# metamorphic: the two capacity models agree where they must
# --------------------------------------------------------------------------
#: (architecture, TP size, nodes) cells that host at least one TP group on
#: the fault-free cluster; every TP size is a multiple of the 4-GPU node.
AGREE_CELLS = [
    (arch, tp_size, n_nodes)
    for arch in ARCHITECTURES
    for tp_size in (4, 8, 16, 32, 64)
    for n_nodes in (24, 72)
    if arch.usable_gpus(n_nodes, frozenset(), tp_size) >= tp_size
]


class TestCapacityModelsAgree:
    """Without faults, with one TP size that is a multiple of the node size,
    the placement domains hold exactly the expected-value capacity (so a job
    fits a domain plan exactly when it fits the count), and a non-preemptive
    policy without look-ahead never moves a running job.  Packed and spread
    must then schedule every job exactly as the expected-value model does.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        cell=st.sampled_from(AGREE_CELLS),
        raw_jobs=st.lists(placed_job, min_size=1, max_size=10),
        policy_name=st.sampled_from(("fifo", "smallest-first", "shortest-remaining")),
        backfill=st.booleans(),
        horizon=st.sampled_from((None, 48.0)),
    )
    def test_placed_reports_equal_expected_value(
        self, cell, raw_jobs, policy_name, backfill, horizon
    ):
        arch, tp_size, n_nodes = cell
        max_groups = arch.usable_gpus(n_nodes, frozenset(), tp_size) // tp_size
        jobs = [
            JobSpec(
                name=f"job-{i}",
                gpus=min(groups, max_groups) * tp_size,
                tp_size=tp_size,
                work_hours=work,
                submit_hour=submit,
            )
            for i, (groups, work, submit) in enumerate(raw_jobs)
        ]
        timeline = quiet_timeline(n_nodes=n_nodes)
        reports = [
            ClusterScheduler(
                arch,
                timeline,
                jobs,
                policy=policy_by_name(policy_name),
                horizon_hours=horizon,
                placement=placement,
                backfill=backfill,
            ).run()
            for placement in (None, *PLACEMENT_NAMES)
        ]
        expected, *placed = reports
        for report in placed:
            assert report.jobs == expected.jobs
