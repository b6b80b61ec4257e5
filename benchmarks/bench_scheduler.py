"""Cluster scheduler: per-job cost stays near flat as the queue deepens.

The perf workload behind this gate is the cluster-schedule shape: a FIFO
queue arriving every 0.25 h on the paper's 2,880-GPU cluster (720 four-GPU
nodes, NVL-72, TP 32) over a 120-day trace at seed 348, so hundreds of jobs
wait at once.  An engine that rescans or re-sorts the whole queue at every
event pays O(queue) per event and its per-job cost grows with the queue
length; one that keeps the queue in policy order and touches only the
running jobs per event stays close to flat.

The gate compares the product against itself: the per-job cost of a
4,000-job run must stay within 5x of a 500-job run (best of 3 each), for
both capacity models (expected-value and packed placement).  The table also
lists 250/1k/2k-job points so the curve's shape is visible.

It pins semantics while timing: every job finishes, and the three time
buckets partition each job's wall-clock time.
"""

import math
import time

from conftest import emit_report, format_table

from repro.api.spec import TraceSpec
from repro.hbd import NVLHBD
from repro.scheduler import ClusterScheduler, WorkloadConfig, generate_workload
from repro.scheduler.policies import FifoPolicy

N_NODES = 720
TRACE_DAYS = 120
SEED = 348
TP_SIZE = 32
INTERARRIVAL_HOURS = 0.25
JOB_COUNTS = (250, 500, 1000, 2000, 4000)
SMALL, LARGE = 500, 4000
MAX_COST_RATIO = 5.0
TIMING_ROUNDS = 3


def _jobs(n_jobs, total_gpus):
    # Sized like the runner's schedule experiment: jobs up to half the
    # cluster, rounded to a TP multiple.
    return generate_workload(
        WorkloadConfig(
            n_jobs=n_jobs,
            seed=SEED,
            tp_size=TP_SIZE,
            max_gpus=total_gpus // 2 // TP_SIZE * TP_SIZE,
            mean_interarrival_hours=INTERARRIVAL_HOURS,
        )
    )


def _best_us_per_job(arch, timeline, jobs, placement):
    """Best-of-N wall time per job (microseconds) and the last report."""
    best = math.inf
    report = None
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        report = ClusterScheduler(
            arch, timeline, jobs, policy=FifoPolicy(), placement=placement
        ).run()
        best = min(best, time.perf_counter() - start)
    return best / len(jobs) * 1e6, report


def test_scheduler_per_job_cost_scaling(benchmark):
    timeline = TraceSpec(days=TRACE_DAYS, seed=SEED).build().interval_timeline(N_NODES)
    arch = NVLHBD(72, gpus_per_node=4)
    total_gpus = arch.total_gpus(N_NODES)
    workloads = {n: _jobs(n, total_gpus) for n in JOB_COUNTS}

    cost = {}
    for placement in (None, "packed"):
        for n_jobs, jobs in workloads.items():
            us_per_job, report = _best_us_per_job(arch, timeline, jobs, placement)
            cost[placement, n_jobs] = us_per_job
            assert report.all_finished
            for job in report.jobs:
                buckets = job.productive_hours + job.waiting_hours + job.restart_hours
                assert math.isclose(buckets, job.wall_clock_hours, abs_tol=1e-6)

    benchmark.pedantic(
        lambda: ClusterScheduler(
            arch, timeline, workloads[LARGE], policy=FifoPolicy()
        ).run(),
        rounds=1,
        iterations=1,
    )

    ratios = {
        placement: cost[placement, LARGE] / cost[placement, SMALL]
        for placement in (None, "packed")
    }
    rows = [
        [
            n_jobs,
            cost[None, n_jobs],
            cost[None, n_jobs] * n_jobs / 1e6,
            cost["packed", n_jobs],
            cost["packed", n_jobs] * n_jobs / 1e6,
        ]
        for n_jobs in JOB_COUNTS
    ]
    text = format_table(
        [
            "jobs",
            "expected-value us/job",
            "expected-value s",
            "packed us/job",
            "packed s",
        ],
        rows,
    )
    text += (
        f"\nper-job cost {LARGE} / {SMALL} jobs: expected-value "
        f"{ratios[None]:.2f}x, packed {ratios['packed']:.2f}x"
    )
    emit_report(
        "scheduler_engine",
        text,
        gates=[
            (
                f"expected-value per-job cost {LARGE} / {SMALL} jobs <= 5x",
                ratios[None],
                MAX_COST_RATIO,
                "<=",
            ),
            (
                f"packed per-job cost {LARGE} / {SMALL} jobs <= 5x",
                ratios["packed"],
                MAX_COST_RATIO,
                "<=",
            ),
        ],
    )

    for placement, ratio in ratios.items():
        assert ratio <= MAX_COST_RATIO, (
            f"{placement or 'expected-value'} per-job cost grows {ratio:.1f}x "
            f"from {SMALL} to {LARGE} jobs (allowed <= {MAX_COST_RATIO}x)"
        )
