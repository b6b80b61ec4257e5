"""Figure 20: GPU waste ratio over the 348-day trace (timeline summary).

Replayed event-driven over the exact interval timeline; the per-quarter
summaries are exact duration-weighted means over each quarter's window
instead of equal-weight means over daily samples.
"""

from conftest import SIM_NODES_4GPU, emit_report, format_table

from repro.hbd import default_architectures
from repro.simulation.cluster import ClusterSimulator

TP_SIZE = 32
QUARTERS = 4


def _run(trace_4gpu):
    timelines = {}
    for arch in default_architectures(4):
        series = ClusterSimulator(arch, trace_4gpu, n_nodes=SIM_NODES_4GPU).run(TP_SIZE)
        timelines[arch.name] = series
    return timelines


def test_fig20_waste_timeline(benchmark, trace_4gpu):
    timelines = benchmark.pedantic(_run, rounds=1, iterations=1, args=(trace_4gpu,))

    total_days = trace_4gpu.duration_days
    quarter_days = total_days / QUARTERS
    rows = []
    for name, series in timelines.items():
        quarter_means = [
            series.mean_waste_in_window(i * quarter_days, (i + 1) * quarter_days)
            for i in range(QUARTERS)
        ]
        rows.append([name] + quarter_means + [series.max_waste_ratio])
    text = format_table(
        ["Architecture"] + [f"Q{i + 1} mean" for i in range(QUARTERS)] + ["max"], rows
    )
    emit_report("fig20_waste_timeline", text)

    # The InfiniteHBD timeline stays near zero through the whole trace while
    # NVL-36/72 hover around their fragmentation floor in every quarter.
    inf3 = timelines["InfiniteHBD(K=3)"]
    assert inf3.max_waste_ratio < 0.03
    nvl = timelines["NVL-72"]
    for quarter in range(QUARTERS):
        assert nvl.mean_waste_in_window(
            quarter * quarter_days, (quarter + 1) * quarter_days
        ) > 0.07
