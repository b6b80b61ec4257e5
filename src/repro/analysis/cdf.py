"""Shared empirical-distribution helpers (CDF, quantiles).

Three call sites used to hand-roll the same computation (the waste-ratio CDF
of a replay series, the fault-ratio CDF of a trace, and the duration-weighted
exact variants the interval timeline engine added); they all route through
:func:`empirical_cdf` now, and the duration-weighted quantiles of the
interval engine route through :func:`weighted_quantile`.
"""

from __future__ import annotations

from collections.abc import Sequence


def empirical_cdf(
    values: Sequence[float], weights: Sequence[float] | None = None
) -> tuple[list[float], list[float]]:
    """``(sorted values, cumulative probability)`` of an empirical distribution.

    Without ``weights`` every value counts equally and the cumulative column
    is exactly ``(i + 1) / n`` -- bit-for-bit what the previous hand-rolled
    implementations produced.  With ``weights`` (e.g. interval durations) the
    cumulative column is the normalised running weight, i.e. the exact CDF of
    a piecewise-constant process.
    """
    if weights is None:
        sorted_values = sorted(values)
        n = len(sorted_values)
        return sorted_values, [(i + 1) / n for i in range(n)]
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    pairs = sorted(zip(values, weights, strict=True))
    total = sum(weight for _, weight in pairs)
    if total <= 0:
        raise ValueError("total weight must be positive")
    sorted_values = [value for value, _ in pairs]
    cumulative: list[float] = []
    running = 0.0
    for _, weight in pairs:
        running += weight
        cumulative.append(running / total)
    return sorted_values, cumulative


def weighted_quantile(
    values: Sequence[float], weights: Sequence[float], q: float
) -> float:
    """Quantile of a weighted empirical distribution (inverse-CDF convention).

    Returns the smallest value whose cumulative weight reaches ``q`` of the
    total; ``q=0`` gives the minimum, ``q=1`` the maximum.  This is the exact
    analogue of a sample quantile when each value persists for ``weight``
    time units.  Empty input yields 0.0 and a zero total weight yields the
    smallest value (degenerate distributions, not errors, for callers folding
    over possibly-empty interval sets).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if not values:
        return 0.0
    pairs = sorted(zip(values, weights, strict=True))
    total = sum(weight for _, weight in pairs)
    if total <= 0:
        return pairs[0][0]
    target = q * total
    cumulative = 0.0
    for value, weight in pairs:
        cumulative += weight
        if cumulative >= target:
            return value
    return pairs[-1][0]

