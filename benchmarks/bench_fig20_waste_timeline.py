"""Figure 20: GPU waste ratio over the 348-day trace (timeline summary).

Runs through the Unified Experiment API: one ``waste`` spec at TP-32 replays
the trace event-driven over the exact interval timeline, and each row's step
series (interval start days, durations, waste ratios) is the timeline.  The
per-quarter summaries are exact duration-weighted means over each quarter's
window instead of equal-weight means over daily samples.
"""

import numpy as np
from conftest import SIM_NODES_4GPU, emit_report, format_table

from repro.api import ExperimentRunner, ExperimentSpec, Scenario, TraceSpec
from repro.faults.trace import HOURS_PER_DAY
from repro.mc import BatchSeries

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
    """The row's step series as a one-seed :class:`BatchSeries`, for its window means.

    The trace is day-granular, so every interval starts on a whole hour and
    the start hours and end hours rebuild exactly.
    """
    series = row.series_dict
    starts = np.array(series["times_days"]) * HOURS_PER_DAY
    n_intervals = len(starts)
    return BatchSeries(
        starts_hours=starts,
        ends_hours=starts + np.array(series["durations_hours"]),
        waste_ratios=np.array(series["waste_ratios"]),
        usable_gpus=np.array(series["usable_gpus"], dtype=np.int64),
        # Not in the row, and no window mean reads it.
        faulty_gpus=np.zeros(n_intervals, dtype=np.int64),
        interval_offsets=np.array([0, n_intervals], dtype=np.int64),
        total_gpus=row.metric("total_gpus"),
    )


def _quarter_mean(series, quarter, quarter_days):
    return series.mean_waste_in_window(quarter * quarter_days, (quarter + 1) * quarter_days)[0]


def test_fig20_waste_timeline(benchmark):
    spec = _spec()
    spec.scenario.trace.build()  # time the sweep, not trace generation
    results = benchmark.pedantic(ExperimentRunner(spec).run, rounds=1, iterations=1)
    timelines = {row.architecture: _timeline(row) for row in results}

    quarter_days = spec.scenario.trace.days / QUARTERS
    rows = []
    for name, series in timelines.items():
        quarter_means = [_quarter_mean(series, i, quarter_days) for i in range(QUARTERS)]
        rows.append([name] + quarter_means + [float(series.waste_ratios.max())])
    text = format_table(
        ["Architecture"] + [f"Q{i + 1} mean" for i in range(QUARTERS)] + ["max"], rows
    )
    emit_report("fig20_waste_timeline", text)

    # The InfiniteHBD timeline stays near zero through the whole trace while
    # NVL-36/72 hover around their fragmentation floor in every quarter.
    inf3 = timelines["InfiniteHBD(K=3)"]
    assert inf3.waste_ratios.max() < 0.03
    nvl = timelines["NVL-72"]
    for quarter in range(QUARTERS):
        assert _quarter_mean(nvl, quarter, quarter_days) > 0.07
