"""Correlated-overlay generation cost vs the independent generator.

The correlated generator reuses the independent base trace verbatim and adds
only the MMPP domain-outage overlay on top, so a full correlated sweep must
stay cheap: generating a year-scale trace at three correlation levels is
gated at <= 1.5x the cost of generating the same independent trace three
times.  Each of seven rounds times the independent sweep and then the
correlated sweep on the same seed, and the gate reads the median of the
rounds' ratios, so a change in host speed between rounds cannot decide it.
The benchmark also re-verifies the structural contract the cheapness rests
on -- correlation=0 is an exact pass-through of the independent generator,
event for event.
"""

import statistics
import time

from conftest import emit_report, format_table

from repro.faults.correlated import CorrelatedFaultConfig, generate_correlated_trace
from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace

N_NODES = 400
DURATION_DAYS = 348
CORRELATIONS = (0.0, 0.5, 1.0)
MAX_COST_RATIO = 1.5
TIMED_ROUNDS = 7


def _base(seed):
    return SyntheticTraceConfig(n_nodes=N_NODES, duration_days=DURATION_DAYS, seed=seed)


def _independent_sweep(seed):
    return [generate_synthetic_trace(_base(seed)) for _ in CORRELATIONS]


def _correlated_sweep(seed):
    return [
        generate_correlated_trace(
            CorrelatedFaultConfig(
                base=_base(seed), correlation=c, domain_rate_per_day=1.0
            )
        )
        for c in CORRELATIONS
    ]


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def test_correlated_sweep_cost(benchmark):
    # Warm-up outside the timed region (numpy dispatch, allocator warmup);
    # distinct seeds per timed round keep the generator honest (no caching).
    _independent_sweep(0)
    _correlated_sweep(0)

    rounds = [
        (_timed(_independent_sweep, seed)[0], _timed(_correlated_sweep, seed)[0])
        for seed in range(1, TIMED_ROUNDS + 1)
    ]
    independent_seconds = statistics.median(ind for ind, _ in rounds)
    correlated_seconds = statistics.median(cor for _, cor in rounds)
    ratio = statistics.median(cor / max(ind, 1e-9) for ind, cor in rounds)

    benchmark.pedantic(_correlated_sweep, rounds=1, iterations=1, args=(4,))

    # Structural contract: correlation=0 is the independent generator.
    independent = generate_synthetic_trace(_base(7))
    passthrough = generate_correlated_trace(CorrelatedFaultConfig(base=_base(7)))
    assert passthrough.events == independent.events

    correlated = _correlated_sweep(7)
    overlay_events = len(correlated[-1].events) - len(independent.events)
    text = format_table(
        ["metric", "value"],
        [
            ["trace nodes", N_NODES],
            ["trace days", DURATION_DAYS],
            ["correlation levels", len(CORRELATIONS)],
            ["base events", len(independent.events)],
            ["overlay events (corr=1)", overlay_events],
            ["timed rounds", TIMED_ROUNDS],
            ["independent sweep, median (s)", independent_seconds],
            ["correlated sweep, median (s)", correlated_seconds],
            ["cost ratio, median round", ratio],
        ],
    )
    emit_report(
        "correlated",
        text,
        gates=[
            (
                f"correlated sweep <= {MAX_COST_RATIO}x independent generator",
                ratio,
                MAX_COST_RATIO,
                "<=",
            ),
        ],
    )
    assert ratio <= MAX_COST_RATIO, (
        f"correlated sweep costs {ratio:.2f}x the independent generator"
    )
