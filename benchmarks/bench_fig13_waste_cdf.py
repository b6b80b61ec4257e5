"""Figures 13 and 21: CDF of the GPU waste ratio over the production-style trace.

Runs through the Unified Experiment API: one declarative ``waste`` spec
replays the 348-day 4-GPU-node fault trace on a 2,880-GPU cluster for every
HBD architecture and TP size (event-driven over one shared exact interval
timeline) and reports the exact duration-weighted mean / p50 / p99 waste
ratio per TP size (the CDFs of Figures 13 and 21 summarised by their
quantiles).  The p50 is read off each row's step series.
"""

from conftest import SIM_NODES_4GPU, TP_SIZES, emit_report, format_table

from repro.analysis.cdf import weighted_quantile
from repro.api import ExperimentRunner, ExperimentSpec, Scenario, TraceSpec


def _spec():
    return ExperimentSpec.of(
        scenario=Scenario.default(
            "fig13",
            trace=TraceSpec(days=348, seed=348, gpus_per_node=4),
            tp_sizes=TP_SIZES,
            n_nodes=SIM_NODES_4GPU,
        ),
        experiments=("waste",),
    )


def test_fig13_waste_cdf(benchmark):
    spec = _spec()
    spec.scenario.trace.build()  # time the sweep, not trace generation
    results = benchmark.pedantic(ExperimentRunner(spec).run, rounds=1, iterations=1)

    sections = []
    for tp in TP_SIZES:
        rows = []
        for row in results.filter("waste", tp_size=tp):
            series = row.series_dict
            rows.append(
                [
                    row.architecture,
                    row.metric("mean_waste_ratio"),
                    weighted_quantile(series["waste_ratios"], series["durations_hours"], 0.5),
                    row.metric("p99_waste_ratio"),
                ]
            )
        sections.append(
            f"TP-{tp}:\n"
            + format_table(["Architecture", "mean waste", "p50 waste", "p99 waste"], rows)
        )
    emit_report("fig13_waste_cdf", "\n\n".join(sections))

    # Headline shape for TP-32 (Figure 13b): InfiniteHBD ~near-zero, far below
    # NVL-72 and TPUv4; K=2 tracks K=3; K=3 tracks the Big-Switch ideal.
    mean = results.metric_table("waste", "mean_waste_ratio")
    inf3 = mean["InfiniteHBD(K=3)"][32]
    inf2 = mean["InfiniteHBD(K=2)"][32]
    assert inf3 < 0.01
    assert abs(inf3 - mean["Big-Switch"][32]) < 0.002
    assert inf2 - inf3 < 0.01
    assert mean["NVL-72"][32] > 5 * max(inf3, 1e-6)
    assert mean["TPUv4"][32] > 3 * max(inf3, 1e-6)
