"""Ablation: end-to-end job goodput over the fault trace.

Not a figure of the paper, but the job-centric consequence of its
fault-resilience results: the same near-full-cluster training job replayed on
every architecture accumulates waiting time whenever fragmentation or fault
propagation pushes the usable GPU count below the job size.  Runs through the
Unified Experiment API as one ``goodput`` spec at TP-32.
"""

from conftest import SIM_NODES_4GPU, emit_report, format_table

from repro.api import ExperimentRunner, ExperimentSpec, Scenario, TraceSpec

JOB_GPUS = 2560
TP_SIZE = 32


def _spec():
    return ExperimentSpec.of(
        scenario=Scenario.default(
            "ablation-goodput",
            trace=TraceSpec(days=348, seed=348, gpus_per_node=4),
            tp_sizes=(TP_SIZE,),
            n_nodes=SIM_NODES_4GPU,
        ),
        experiments=("goodput",),
        options={
            "goodput": {
                "job_gpus": JOB_GPUS,
                "checkpoint_interval_hours": 1.0,
                "restart_overhead_hours": 0.25,
            }
        },
    )


def test_ablation_goodput(benchmark):
    spec = _spec()
    spec.scenario.trace.build()  # time the replays, not trace generation
    results = benchmark.pedantic(ExperimentRunner(spec).run, rounds=1, iterations=1)
    reports = {row.architecture: row.metrics_dict for row in results}
    rows = [
        [
            name,
            report["goodput"],
            report["waiting_fraction"],
            report["restart_hours"],
            report["job_impacting_faults"],
        ]
        for name, report in reports.items()
    ]
    text = format_table(
        ["Architecture", "goodput", "waiting fraction", "restart hours", "impacting faults"],
        rows,
    ) + f"\n\n(job: {JOB_GPUS} GPUs, TP-{TP_SIZE}, cluster {SIM_NODES_4GPU * 4} GPUs)"
    emit_report("ablation_goodput", text)

    inf = reports["InfiniteHBD(K=3)"]
    assert inf["goodput"] >= reports["NVL-36"]["goodput"]
    assert inf["goodput"] >= reports["SiP-Ring"]["goodput"]
    assert inf["waiting_fraction"] <= reports["NVL-72"]["waiting_fraction"]
    assert abs(inf["goodput"] - reports["Big-Switch"]["goodput"]) < 0.02
