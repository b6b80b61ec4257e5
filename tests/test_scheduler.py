"""Tests for the multi-job cluster scheduler (repro.scheduler).

Covers the engine's event sweep (arrivals, completions, fault-driven
descheduling, preemption, restart debt), the policy zoo, the workload
generator, and property-based invariants:

* **conservation** -- for every job, productive + waiting + restart hours
  partition its wall-clock time in the system, across random traces,
  workloads, policies, capacity models and backfill;
* **metamorphic** -- shuffling the input job list (with distinct submit
  hours) or renaming every job changes no job's report;
* **static keys** -- every policy without ``dynamic_priority`` ranks a job
  independently of its attained service and waiting time, the contract
  that lets the engine key a queued job once;
* **goodput equivalence** -- the single-job scheduler path reproduces the
  classic :class:`GoodputSimulator` accounting exactly (compared against a
  verbatim port of the pre-scheduler replay loop).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SchedulerSpec
from repro.faults.trace import FaultEvent, FaultTrace
from repro.hbd import BigSwitchHBD, InfiniteHBDArchitecture, NVLHBD
from repro.scheduler import (
    ClusterScheduler,
    JobSpec,
    WorkloadConfig,
    generate_workload,
    policy_by_name,
)
from repro.scheduler.policies import (
    POLICY_NAMES,
    FifoPolicy,
    ShortestRemainingPolicy,
    SmallestFirstPolicy,
)
from repro.simulation.goodput import GoodputConfig, GoodputReport, GoodputSimulator


def quiet_trace(n_nodes=10, days=10, events=(), gpus_per_node=4):
    return FaultTrace(
        n_nodes=n_nodes,
        duration_days=days,
        events=list(events),
        gpus_per_node=gpus_per_node,
    )


def run_jobs(jobs, events=(), policy="fifo", preemptive=False, horizon=None, **trace_kwargs):
    trace = quiet_trace(events=events, **trace_kwargs)
    return ClusterScheduler(
        BigSwitchHBD(4),
        trace.interval_timeline(),
        jobs,
        policy=policy_by_name(policy, preemptive),
        horizon_hours=horizon,
    ).run()


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            JobSpec(name="a", gpus=10, tp_size=4)
        with pytest.raises(ValueError, match="positive"):
            JobSpec(name="a", gpus=4, tp_size=4, work_hours=0.0)
        with pytest.raises(ValueError, match="submit_hour"):
            JobSpec(name="a", gpus=4, tp_size=4, submit_hour=-1.0)
        with pytest.raises(ValueError, match="name"):
            JobSpec(name="", gpus=4, tp_size=4)

    def test_round_trip(self):
        job = JobSpec(name="a", gpus=64, tp_size=32, work_hours=12.5, submit_hour=3.0)
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            JobSpec.from_dict({"name": "a", "gpus": 4, "tp_size": 4, "gpu": 4})


NAN = float("nan")
INF = float("inf")


class TestNonFiniteInputsRejected:
    """NaN passes every ``<= 0`` check, so each float field checks finiteness."""

    @pytest.mark.parametrize(
        "field",
        ["work_hours", "submit_hour", "checkpoint_interval_hours", "restart_overhead_hours"],
    )
    def test_job_spec(self, field):
        with pytest.raises(ValueError, match=f"job 'a': {field} must be finite"):
            JobSpec(name="a", gpus=4, tp_size=4, **{field: NAN})

    def test_job_spec_rejects_infinite_work(self):
        # ``None`` is the spelling for unbounded work, not ``inf``.
        with pytest.raises(ValueError, match="work_hours must be finite"):
            JobSpec(name="a", gpus=4, tp_size=4, work_hours=INF)

    @pytest.mark.parametrize(
        "field",
        [
            "mean_interarrival_hours",
            "median_tp_groups",
            "sigma_tp_groups",
            "median_work_hours",
            "sigma_work_hours",
            "checkpoint_interval_hours",
            "restart_overhead_hours",
        ],
    )
    def test_workload_config(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            WorkloadConfig(**{field: NAN})

    @pytest.mark.parametrize(
        "field",
        [
            "horizon_hours",
            "gittins_threshold_gpu_hours",
            "gittins_starve_limit",
            "optimizer_horizon_hours",
            "optimizer_stability_bonus",
        ],
    )
    def test_scheduler_spec(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SchedulerSpec(**{field: NAN})

    @pytest.mark.parametrize("horizon", [NAN, INF])
    def test_cluster_scheduler_horizon(self, horizon):
        # Rejected at construction, not after a run that reports ``nan``.
        with pytest.raises(ValueError, match="horizon_hours must be finite"):
            ClusterScheduler(
                BigSwitchHBD(4),
                quiet_trace().interval_timeline(),
                [JobSpec(name="a", gpus=4, tp_size=4, work_hours=1.0)],
                horizon_hours=horizon,
            )

    def test_cluster_scheduler_rejects_non_positive_horizon_at_construction(self):
        with pytest.raises(ValueError, match="horizon_hours must be positive"):
            ClusterScheduler(
                BigSwitchHBD(4), quiet_trace().interval_timeline(), [], horizon_hours=0.0
            )


class TestPolicies:
    def test_policy_by_name(self):
        assert isinstance(policy_by_name("fifo"), FifoPolicy)
        assert isinstance(policy_by_name("smallest-first"), SmallestFirstPolicy)
        srtf = policy_by_name("shortest-remaining", preemptive=True)
        assert isinstance(srtf, ShortestRemainingPolicy)
        assert srtf.preemptive

    def test_unknown_policy_suggests(self):
        with pytest.raises(KeyError, match="did you mean"):
            policy_by_name("fifoo")


class TestWorkloadGenerator:
    def test_deterministic(self):
        config = WorkloadConfig(n_jobs=20, seed=7, tp_size=8, max_gpus=128)
        assert generate_workload(config) == generate_workload(config)

    def test_shapes(self):
        config = WorkloadConfig(n_jobs=50, seed=1, tp_size=8, max_gpus=64)
        jobs = generate_workload(config)
        assert len(jobs) == 50
        assert jobs[0].submit_hour == 0.0
        submits = [job.submit_hour for job in jobs]
        assert submits == sorted(submits)
        for job in jobs:
            assert job.gpus % 8 == 0
            assert 8 <= job.gpus <= 64
            assert job.work_hours > 0

    def test_distinct_seeds_differ(self):
        a = generate_workload(WorkloadConfig(n_jobs=10, seed=1))
        b = generate_workload(WorkloadConfig(n_jobs=10, seed=2))
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_jobs=0)
        with pytest.raises(ValueError):
            WorkloadConfig(max_gpus=16, tp_size=32)


class TestEngineBasics:
    def test_single_job_completes_on_quiet_cluster(self):
        report = run_jobs([JobSpec(name="a", gpus=8, tp_size=4, work_hours=10.0)])
        job = report.jobs[0]
        assert job.finished
        assert job.completion_hour == pytest.approx(10.0)
        assert job.productive_hours == pytest.approx(10.0)
        assert job.waiting_hours == 0.0
        assert report.all_finished

    def test_capacity_sharing(self):
        # 40-GPU cluster: two 24-GPU jobs cannot overlap, a + 8-GPU one can.
        jobs = [
            JobSpec(name="a", gpus=24, tp_size=4, work_hours=10.0),
            JobSpec(name="b", gpus=24, tp_size=4, work_hours=5.0, submit_hour=1.0),
            JobSpec(name="c", gpus=8, tp_size=4, work_hours=2.0, submit_hour=1.0),
        ]
        report = run_jobs(jobs)
        by_name = {job.name: job for job in report.jobs}
        assert by_name["a"].completion_hour == pytest.approx(10.0)
        # FIFO blocks head-of-line: c waits behind b even though it fits.
        assert by_name["b"].completion_hour == pytest.approx(15.0)
        assert by_name["c"].first_start_hour == pytest.approx(10.0)
        assert by_name["c"].queueing_delay_hours == pytest.approx(9.0)

    def test_smallest_first_backfills(self):
        jobs = [
            JobSpec(name="a", gpus=24, tp_size=4, work_hours=10.0),
            JobSpec(name="b", gpus=24, tp_size=4, work_hours=5.0, submit_hour=1.0),
            JobSpec(name="c", gpus=8, tp_size=4, work_hours=2.0, submit_hour=1.0),
        ]
        report = run_jobs(jobs, policy="smallest-first")
        by_name = {job.name: job for job in report.jobs}
        assert by_name["c"].completion_hour == pytest.approx(3.0)
        assert by_name["b"].completion_hour == pytest.approx(15.0)

    def test_preemptive_srtf_preempts_and_charges_overhead(self):
        jobs = [
            JobSpec(name="long", gpus=24, tp_size=4, work_hours=10.0),
            JobSpec(name="short", gpus=24, tp_size=4, work_hours=5.0, submit_hour=1.0),
        ]
        report = run_jobs(jobs, policy="shortest-remaining", preemptive=True)
        by_name = {job.name: job for job in report.jobs}
        assert by_name["short"].completion_hour == pytest.approx(6.0)
        assert by_name["long"].preemptions == 1
        # Checkpoint-aware preemption: only the restart overhead is repaid.
        assert by_name["long"].restart_hours == pytest.approx(0.25)
        assert by_name["long"].completion_hour == pytest.approx(15.25)

    def test_non_preemptive_policies_let_running_jobs_finish(self):
        jobs = [
            JobSpec(name="long", gpus=24, tp_size=4, work_hours=10.0),
            JobSpec(name="short", gpus=24, tp_size=4, work_hours=5.0, submit_hour=1.0),
        ]
        report = run_jobs(jobs, policy="shortest-remaining", preemptive=False)
        by_name = {job.name: job for job in report.jobs}
        assert by_name["long"].completion_hour == pytest.approx(10.0)
        assert by_name["long"].preemptions == 0

    def test_fault_descheduling_waits_without_extra_charge(self):
        # The job needs the whole cluster; one faulty node stalls it.
        events = [FaultEvent(node_id=0, start_hour=2.0, end_hour=5.0)]
        jobs = [JobSpec(name="a", gpus=40, tp_size=4, work_hours=10.0)]
        report = run_jobs(jobs, events=events)
        job = report.jobs[0]
        assert job.waiting_hours == pytest.approx(3.0)
        assert job.restart_hours == 0.0
        assert job.restart_charged_hours == 0.0
        assert job.completion_hour == pytest.approx(13.0)

    def test_fault_arrival_charges_expected_restart_debt(self):
        # Job keeps running (8 of 40 GPUs); the arrival charges its share.
        events = [FaultEvent(node_id=9, start_hour=2.0, end_hour=5.0)]
        jobs = [JobSpec(name="a", gpus=8, tp_size=4, work_hours=10.0)]
        report = run_jobs(jobs, events=events)
        job = report.jobs[0]
        expected_debt = (8 / 40) * (1.0 / 2.0 + 0.25)
        assert job.impacting_faults == pytest.approx(0.2)
        assert job.restart_hours == pytest.approx(expected_debt)
        assert job.completion_hour == pytest.approx(10.0 + expected_debt)

    def test_fault_active_at_t0_not_charged(self):
        events = [FaultEvent(node_id=9, start_hour=0.0, end_hour=5.0)]
        jobs = [JobSpec(name="a", gpus=8, tp_size=4, work_hours=10.0)]
        report = run_jobs(jobs, events=events)
        job = report.jobs[0]
        assert job.impacting_faults == 0.0
        assert job.completion_hour == pytest.approx(10.0)

    def test_horizon_cuts_unfinished_jobs(self):
        jobs = [
            JobSpec(name="a", gpus=8, tp_size=4, work_hours=100.0),
            JobSpec(name="late", gpus=8, tp_size=4, work_hours=1.0, submit_hour=500.0),
        ]
        report = run_jobs(jobs, horizon=24.0)
        by_name = {job.name: job for job in report.jobs}
        assert not by_name["a"].finished
        assert by_name["a"].productive_hours == pytest.approx(24.0)
        assert by_name["a"].end_hour == pytest.approx(24.0)
        # Submitted after the horizon: never entered the system.
        assert by_name["late"].wall_clock_hours == 0.0
        assert report.finished_jobs == 0

    def test_strict_fifo_blocks_backfill_past_descheduled_head(self):
        # Regression: when a fault descheduled the FIFO head, a younger job
        # used to backfill and (being non-preemptively protected) starve the
        # head long after capacity recovered.  The descheduled head must keep
        # blocking admissions.
        events = [FaultEvent(node_id=0, start_hour=10.0, end_hour=20.0)]
        jobs = [
            JobSpec(name="head", gpus=40, tp_size=4, work_hours=110.0),
            JobSpec(name="young", gpus=16, tp_size=4, work_hours=100.0, submit_hour=1.0),
        ]
        report = run_jobs(jobs, events=events)
        by_name = {job.name: job for job in report.jobs}
        # Head runs 0-10, waits out the fault 10-20, resumes 20-120.
        assert by_name["head"].completion_hour == pytest.approx(120.0)
        assert by_name["head"].waiting_hours == pytest.approx(10.0)
        # The younger job is only admitted once the head finishes.
        assert by_name["young"].first_start_hour == pytest.approx(120.0)

    def test_completion_exactly_at_horizon_counts(self):
        # Regression: the loop used to cut off at t >= horizon before the
        # completion pass, silently dropping work that finished on the dot.
        report = run_jobs(
            [JobSpec(name="a", gpus=8, tp_size=4, work_hours=24.0)], horizon=24.0
        )
        job = report.jobs[0]
        assert job.finished
        assert job.completion_hour == pytest.approx(24.0)
        assert report.finished_jobs == 1

    def test_never_entered_jobs_do_not_stretch_makespan(self):
        # Regression: a job submitted after the horizon used to extend the
        # makespan (and dilute cluster goodput) by its submit hour.
        jobs = [
            JobSpec(name="a", gpus=8, tp_size=4, work_hours=10.0),
            JobSpec(name="late", gpus=8, tp_size=4, work_hours=1.0, submit_hour=500.0),
        ]
        report = run_jobs(jobs, horizon=24.0)
        # Only job "a" enters the system; it spans [0, 10].
        assert report.makespan_hours == pytest.approx(10.0)
        assert report.cluster_goodput == pytest.approx(10.0 * 8 / (40 * 10.0))

    def test_preemption_charged_even_when_fault_arrives_same_instant(self):
        # Regression: an unrelated fault arrival sharing the preemption's
        # timestamp used to suppress the restart-overhead charge.
        events = [FaultEvent(node_id=9, start_hour=1.0, end_hour=2.0)]
        jobs = [
            JobSpec(name="long", gpus=24, tp_size=4, work_hours=10.0),
            JobSpec(name="short", gpus=24, tp_size=4, work_hours=5.0, submit_hour=1.0),
        ]
        report = run_jobs(
            jobs, events=events, policy="shortest-remaining", preemptive=True
        )
        by_name = {job.name: job for job in report.jobs}
        assert by_name["long"].preemptions == 1
        assert by_name["long"].restart_charged_hours >= 0.25

    def test_jobs_run_past_trace_end(self):
        # 1-day trace, 30 hours of work: the tail runs on the fault-free
        # cluster beyond the traced window.
        report = run_jobs(
            [JobSpec(name="a", gpus=8, tp_size=4, work_hours=30.0)], days=1
        )
        assert report.jobs[0].completion_hour == pytest.approx(30.0)

    def test_unbounded_job_requires_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            run_jobs([JobSpec(name="a", gpus=8, tp_size=4, work_hours=None)])

    def test_infeasible_job_requires_horizon(self):
        # NVL-8 units hold 8 GPUs: a TP-16 group can never form, so the job
        # is unschedulable even on the fault-free cluster.
        trace = quiet_trace()
        arch = NVLHBD(8, gpus_per_node=4)
        jobs = [JobSpec(name="a", gpus=16, tp_size=16, work_hours=1.0)]
        with pytest.raises(ValueError, match="fault-free"):
            ClusterScheduler(arch, trace.interval_timeline(), jobs).run()
        report = ClusterScheduler(
            arch, trace.interval_timeline(), jobs, horizon_hours=24.0
        ).run()
        assert report.jobs[0].waiting_hours == pytest.approx(24.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_jobs([
                JobSpec(name="a", gpus=8, tp_size=4, work_hours=1.0),
                JobSpec(name="a", gpus=8, tp_size=4, work_hours=1.0),
            ])

    def test_job_larger_than_cluster_rejected(self):
        with pytest.raises(ValueError, match="larger than the cluster"):
            run_jobs([JobSpec(name="a", gpus=44, tp_size=4, work_hours=1.0)])

    def test_gpus_per_node_mismatch_rejected(self):
        trace = quiet_trace(gpus_per_node=8)
        with pytest.raises(ValueError, match="GPUs/node"):
            ClusterScheduler(
                BigSwitchHBD(4),
                trace.interval_timeline(),
                [JobSpec(name="a", gpus=8, tp_size=4, work_hours=1.0)],
            )

    def test_usable_gpus_column_of_the_wrong_length_rejected(self):
        # Three intervals: before, during and after the fault.
        timeline = quiet_trace(events=[FaultEvent(0, 10.0, 20.0)]).interval_timeline()
        jobs = [JobSpec(name="a", gpus=8, tp_size=4, work_hours=1.0)]
        column = [40, 36, 40]
        ClusterScheduler(BigSwitchHBD(4), timeline, jobs, usable_gpus={4: column})
        for wrong in (column[:2], column + [40]):
            with pytest.raises(ValueError, match="TP-4 has"):
                ClusterScheduler(
                    BigSwitchHBD(4), timeline, jobs, usable_gpus={4: wrong}
                )


class TestClusterReport:
    def test_aggregates(self):
        jobs = [
            JobSpec(name="a", gpus=16, tp_size=4, work_hours=4.0),
            JobSpec(name="b", gpus=16, tp_size=4, work_hours=8.0, submit_hour=2.0),
        ]
        report = run_jobs(jobs)
        assert report.n_jobs == 2
        assert report.makespan_hours == pytest.approx(10.0)
        assert report.mean_jct_hours == pytest.approx((4.0 + 8.0) / 2)
        assert report.mean_queueing_delay_hours == 0.0
        expected_gpu_hours = 4.0 * 16 + 8.0 * 16
        assert report.productive_gpu_hours == pytest.approx(expected_gpu_hours)
        assert report.cluster_goodput == pytest.approx(expected_gpu_hours / (40 * 10.0))
        assert 0.0 <= report.cluster_goodput <= report.cluster_utilization <= 1.0

    def test_to_dict_round_trips_jobs(self):
        report = run_jobs([JobSpec(name="a", gpus=8, tp_size=4, work_hours=2.0)])
        data = report.to_dict()
        assert data["finished_jobs"] == 1
        assert data["jobs"][0]["name"] == "a"
        assert data["jobs"][0]["jct_hours"] == pytest.approx(2.0)


# --------------------------------------------------------------- properties
@st.composite
def fault_traces(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=8))
    duration_days = draw(st.integers(min_value=1, max_value=4))
    duration_hours = duration_days * 24.0
    n_events = draw(st.integers(min_value=0, max_value=10))
    events = []
    for _ in range(n_events):
        node = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        start = draw(
            st.floats(min_value=0.0, max_value=duration_hours, allow_nan=False)
        )
        length = draw(st.floats(min_value=0.1, max_value=36.0, allow_nan=False))
        events.append(
            FaultEvent(node_id=node, start_hour=start, end_hour=start + length)
        )
    return FaultTrace(
        n_nodes=n_nodes,
        duration_days=duration_days,
        events=events,
        gpus_per_node=4,
    )


@st.composite
def workloads(draw, n_nodes):
    total = n_nodes * 4
    n_jobs = draw(st.integers(min_value=1, max_value=5))
    jobs = []
    for i in range(n_jobs):
        tp = draw(st.sampled_from([1, 2, 4]))
        groups = draw(st.integers(min_value=1, max_value=max(1, total // tp)))
        jobs.append(
            JobSpec(
                name=f"j{i}",
                gpus=min(groups * tp, total // tp * tp),
                tp_size=tp,
                work_hours=draw(st.floats(min_value=0.5, max_value=48.0)),
                submit_hour=draw(st.floats(min_value=0.0, max_value=72.0)),
                checkpoint_interval_hours=draw(st.floats(min_value=0.25, max_value=4.0)),
                restart_overhead_hours=draw(st.floats(min_value=0.0, max_value=1.0)),
            )
        )
    return jobs


#: Architectures the engine properties draw from: one flat domain, healthy
#: K-hop segments, and fixed switch units (placed-mode fragmentation).
PROPERTY_ARCHITECTURES = (
    BigSwitchHBD(4),
    InfiniteHBDArchitecture(k=2, gpus_per_node=4),
    NVLHBD(8, gpus_per_node=4),
)


class TestConservationInvariant:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_time_buckets_partition_wall_clock(self, data):
        trace = data.draw(fault_traces())
        jobs = data.draw(workloads(trace.n_nodes))
        policy = data.draw(st.sampled_from(POLICY_NAMES))
        preemptive = data.draw(st.booleans())
        architecture = data.draw(st.sampled_from(PROPERTY_ARCHITECTURES))
        placement = data.draw(st.sampled_from([None, "packed", "spread"]))
        backfill = data.draw(st.booleans())
        horizon = trace.duration_hours * 3.0

        report = ClusterScheduler(
            architecture,
            trace.interval_timeline(),
            jobs,
            policy=policy_by_name(policy, preemptive),
            horizon_hours=horizon,
            placement=placement,
            backfill=backfill,
        ).run()

        for job in report.jobs:
            buckets = job.productive_hours + job.waiting_hours + job.restart_hours
            assert buckets == pytest.approx(job.wall_clock_hours, abs=1e-6), (
                f"{job.name}: {buckets} != wall clock {job.wall_clock_hours} "
                f"under {policy} (preemptive={preemptive}, placement="
                f"{placement}, backfill={backfill}) on {architecture.name}"
            )
            if job.finished:
                assert job.productive_hours == pytest.approx(
                    job.work_hours, abs=1e-6
                )
                assert job.first_start_hour is not None
                assert job.completion_hour >= job.submit_hour
            assert job.productive_hours >= 0
            assert job.waiting_hours >= 0
            assert job.restart_hours >= 0


@st.composite
def scheduler_setups(draw):
    """A random trace, a workload with distinct submit hours, and a config."""
    trace = draw(fault_traces())
    # Two workload draws give queues up to ten deep.
    jobs = draw(workloads(trace.n_nodes)) + draw(workloads(trace.n_nodes))
    submits = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=72.0),
            min_size=len(jobs),
            max_size=len(jobs),
            unique=True,
        )
    )
    jobs = [
        dataclasses.replace(job, name=f"j{i}", submit_hour=submit)
        for i, (job, submit) in enumerate(zip(jobs, submits))
    ]
    config = {
        "architecture": draw(st.sampled_from(PROPERTY_ARCHITECTURES)),
        "policy": draw(st.sampled_from(POLICY_NAMES)),
        "preemptive": draw(st.booleans()),
        "placement": draw(st.sampled_from([None, "packed", "spread"])),
        "backfill": draw(st.booleans()),
    }
    return trace, jobs, config


def _job_reports(trace, jobs, config):
    """Run the scheduler and key every job's report by name."""
    report = ClusterScheduler(
        config["architecture"],
        trace.interval_timeline(),
        jobs,
        policy=policy_by_name(config["policy"], config["preemptive"]),
        horizon_hours=trace.duration_hours * 3.0,
        placement=config["placement"],
        backfill=config["backfill"],
    ).run()
    return {job.name: job for job in report.jobs}


class TestMetamorphicProperties:
    """Relabelling the input must not change any job's outcome, bit for bit.

    With distinct submit hours no policy key ever falls through to the
    sequence tie-breaker, so the input order is irrelevant; job names are
    labels only.  Every ``JobReport`` field is compared exactly.
    """

    @settings(max_examples=40, deadline=None)
    @given(setup=scheduler_setups(), data=st.data())
    def test_shuffling_the_job_list_changes_nothing(self, setup, data):
        trace, jobs, config = setup
        shuffled = data.draw(st.permutations(jobs))
        assert _job_reports(trace, shuffled, config) == _job_reports(
            trace, jobs, config
        ), config

    @settings(max_examples=40, deadline=None)
    @given(setup=scheduler_setups())
    def test_renaming_every_job_changes_nothing(self, setup):
        trace, jobs, config = setup
        renamed = [
            dataclasses.replace(job, name=f"renamed-{len(jobs) - i}")
            for i, job in enumerate(jobs)
        ]
        original = _job_reports(trace, jobs, config)
        relabelled = _job_reports(trace, renamed, config)
        for job, alias in zip(jobs, renamed):
            assert dataclasses.replace(
                relabelled[alias.name], name=job.name
            ) == original[job.name], config


class TestStaticKeyContract:
    """The engine keys a queued job once, when it enters the queue.

    That is exact only if a policy without ``dynamic_priority`` reads neither
    ``attained_hours`` nor ``waiting_hours``: those are the clocks that move
    while a job waits or runs, and its other key inputs are frozen while it
    is queued.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(
            [n for n in POLICY_NAMES if not policy_by_name(n).dynamic_priority]
        ),
        preemptive=st.booleans(),
        groups=st.integers(min_value=1, max_value=64),
        submit=st.floats(min_value=0.0, max_value=1e4),
        remaining=st.one_of(
            st.floats(min_value=0.0, max_value=1e4), st.just(float("inf"))
        ),
        sequence=st.integers(min_value=0, max_value=10_000),
        allocated=st.booleans(),
        clocks=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6),
                st.floats(min_value=0.0, max_value=1e6),
            ),
            min_size=2,
            max_size=4,
        ),
    )
    def test_key_ignores_attained_and_waiting_hours(
        self, name, preemptive, groups, submit, remaining, sequence, allocated, clocks
    ):
        policy = policy_by_name(name, preemptive)
        job = JobSpec(name="j", gpus=8 * groups, tp_size=8, submit_hour=submit)
        keys = {
            policy.runtime_key(
                job,
                remaining,
                sequence,
                attained_hours=attained,
                waiting_hours=waiting,
                allocated=allocated,
            )
            for attained, waiting in clocks
        }
        assert len(keys) == 1, (name, keys)


def _reference_goodput(architecture, trace, config, n_nodes=None):
    """Verbatim port of the pre-scheduler GoodputSimulator replay loop."""
    nodes = n_nodes if n_nodes is not None else trace.n_nodes
    timeline = trace.interval_timeline(nodes)
    job_nodes_fraction = config.job_gpus / (nodes * architecture.gpus_per_node)
    restart_cost_per_hit = (
        config.checkpoint_interval_hours / 2.0 + config.restart_overhead_hours
    )
    productive = waiting = restart = 0.0
    impacting = 0.0
    cache = {}
    previous = timeline.intervals[0].nodes if timeline.intervals else frozenset()
    for interval in timeline.intervals:
        faults = interval.nodes
        usable = cache.get(faults)
        if usable is None:
            usable = architecture.usable_gpus(nodes, faults, config.tp_size)
            cache[faults] = usable
        running = usable >= config.job_gpus
        new_faults = faults - previous
        if running and new_faults:
            expected_hits = len(new_faults) * job_nodes_fraction
            impacting += expected_hits
            restart += expected_hits * restart_cost_per_hit
        if running:
            productive += interval.duration_hours
        else:
            waiting += interval.duration_hours
        previous = faults
    return GoodputReport(
        total_hours=timeline.duration_hours,
        productive_hours=productive,
        waiting_hours=waiting,
        restart_hours=min(restart, productive),
        job_impacting_faults=impacting,
    )


class TestSingleJobReproducesGoodput:
    ARCHITECTURES = (
        BigSwitchHBD(4),
        InfiniteHBDArchitecture(k=2, gpus_per_node=4),
        NVLHBD(8, gpus_per_node=4),
    )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_wrapper_matches_reference(self, data):
        trace = data.draw(fault_traces())
        architecture = data.draw(st.sampled_from(self.ARCHITECTURES))
        total = trace.n_nodes * 4
        tp = data.draw(st.sampled_from([1, 2, 4]))
        groups = data.draw(st.integers(min_value=1, max_value=total // tp))
        config = GoodputConfig(
            job_gpus=groups * tp,
            tp_size=tp,
            checkpoint_interval_hours=data.draw(
                st.floats(min_value=0.25, max_value=4.0)
            ),
            restart_overhead_hours=data.draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        actual = GoodputSimulator(architecture, trace, config).run()
        expected = _reference_goodput(architecture, trace, config)

        assert actual.total_hours == expected.total_hours
        assert actual.waiting_hours == pytest.approx(expected.waiting_hours, abs=1e-9)
        assert actual.productive_hours == pytest.approx(
            expected.productive_hours, abs=1e-9
        )
        assert actual.restart_hours == pytest.approx(expected.restart_hours, abs=1e-9)
        assert actual.job_impacting_faults == pytest.approx(
            expected.job_impacting_faults, abs=1e-12
        )
        assert actual.goodput == pytest.approx(expected.goodput, abs=1e-12)
