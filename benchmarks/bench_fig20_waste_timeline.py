"""Figure 20: GPU waste ratio over the 348-day trace (timeline summary).

Runs through the Unified Experiment API: one ``waste`` spec at TP-32 replays
the trace event-driven over the exact interval timeline, and each row's step
series (interval start days, durations, waste ratios) is the timeline.  The
per-quarter summaries are exact duration-weighted means over each quarter's
window instead of equal-weight means over daily samples.
"""

from conftest import SIM_NODES_4GPU, emit_report, format_table

from repro.api import ExperimentRunner, ExperimentSpec, Scenario, TraceSpec
from repro.faults.trace import HOURS_PER_DAY
from repro.simulation.cluster import IntervalSeries

TP_SIZE = 32
QUARTERS = 4


def _spec():
    return ExperimentSpec.of(
        scenario=Scenario.default(
            "fig20",
            trace=TraceSpec(days=348, seed=348, gpus_per_node=4),
            tp_sizes=(TP_SIZE,),
            n_nodes=SIM_NODES_4GPU,
        ),
        experiments=("waste",),
    )


def _timeline(row):
    """The row's step series as an :class:`IntervalSeries`, for its window means.

    The trace is day-granular, so every interval starts on a whole hour and
    the start hours and end hours rebuild exactly.
    """
    series = row.series_dict
    starts = [day * HOURS_PER_DAY for day in series["times_days"]]
    return IntervalSeries(
        starts_hours=starts,
        ends_hours=[s + d for s, d in zip(starts, series["durations_hours"], strict=True)],
        waste_ratios=list(series["waste_ratios"]),
        usable_gpus=list(series["usable_gpus"]),
        faulty_gpus=[],  # not in the row, and no window mean reads it
        total_gpus=row.metric("total_gpus"),
    )


def test_fig20_waste_timeline(benchmark):
    spec = _spec()
    spec.scenario.trace.build()  # time the sweep, not trace generation
    results = benchmark.pedantic(ExperimentRunner(spec).run, rounds=1, iterations=1)
    timelines = {row.architecture: _timeline(row) for row in results}

    quarter_days = spec.scenario.trace.days / QUARTERS
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
