"""Cross-seed summary statistics for Monte-Carlo metric columns.

One tiny, well-specified reduction so every consumer (the experiment
runner's ``*_mean`` / ``*_stddev`` / ``*_ci95`` columns, docs, tests)
agrees on the definitions: sample mean, sample standard deviation (ddof=1,
``0.0`` for a single seed) and the normal-approximation 95% confidence
half-width ``1.96 * stddev / sqrt(n)``.  See docs/metrics.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from repro.analysis.cdf import left_sum


@dataclass(frozen=True)
class SeedStats:
    """Mean / spread of one metric across seeds."""

    mean: float
    stddev: float
    ci95: float
    n_seeds: int


def seed_stats(values: Sequence[float]) -> SeedStats:
    """Summary statistics of per-seed metric values (at least one seed).

    >>> stats = seed_stats([2.0, 4.0, 6.0])
    >>> stats.mean, stats.stddev, stats.n_seeds
    (4.0, 2.0, 3)
    >>> seed_stats([0.5])
    SeedStats(mean=0.5, stddev=0.0, ci95=0.0, n_seeds=1)
    """
    n = len(values)
    if n == 0:
        raise ValueError("at least one value is required")
    mean = left_sum(values) / n
    if n == 1:
        return SeedStats(mean=mean, stddev=0.0, ci95=0.0, n_seeds=1)
    variance = left_sum((value - mean) ** 2 for value in values) / (n - 1)
    stddev = math.sqrt(variance)
    return SeedStats(
        mean=mean, stddev=stddev, ci95=1.96 * stddev / math.sqrt(n), n_seeds=n
    )


__all__ = [
    "SeedStats",
    "seed_stats",
]
