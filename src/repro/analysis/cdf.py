"""Shared empirical-distribution helpers (CDF, quantiles).

Three call sites used to hand-roll the same computation (the waste-ratio CDF
of a replay series, the fault-ratio CDF of a trace, and the duration-weighted
exact variants the interval timeline engine added); they all route through
:func:`empirical_cdf` now, and every duration-weighted quantile (a replay's
waste ratio per seed, a timeline's fault ratio) routes through
:func:`weighted_quantile`.  Every sum here runs left to right
(:func:`left_sum`), never through the interpreter's ``sum()``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from ``0.0``.

    Float totals that reach results use this, not builtin ``sum()``: CPython
    >= 3.12 compensates ``sum()``'s float rounding, so its result depends on
    the interpreter, while a left fold's is fixed by the order of ``values``.
    """
    total = 0.0
    for value in values:
        total += value
    return total


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
    total = left_sum(weight for _, weight in pairs)
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
    values: Sequence[float] | NDArray[np.float64],
    weights: Sequence[float] | NDArray[np.float64],
    q: float,
) -> float:
    """Quantile of a weighted empirical distribution (inverse-CDF convention).

    Returns the smallest value whose cumulative weight reaches ``q`` of the
    total; ``q=0`` gives the minimum, ``q=1`` the maximum.  This is the exact
    analogue of a sample quantile when each value persists for ``weight``
    time units.  Empty input yields 0.0 and a zero total weight yields the
    smallest value (degenerate distributions, not errors, for callers folding
    over possibly-empty interval sets).

    Pairs sort by value, then weight; the cumulative weight is a sequential
    left fold (``np.cumsum``), so the result never depends on how the
    interpreter's ``sum()`` rounds.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    value_array = np.asarray(values, dtype=np.float64)
    weight_array = np.asarray(weights, dtype=np.float64)
    if np.any(weight_array < 0):
        raise ValueError("weights must be non-negative")
    n = len(value_array)
    if n == 0:
        return 0.0
    order = np.lexsort((weight_array, value_array))
    cumulative = np.cumsum(weight_array[order])
    total = cumulative[-1]
    if total <= 0:
        return float(value_array[order[0]])
    index = int(np.searchsorted(cumulative, q * total, side="left"))
    return float(value_array[order[min(index, n - 1)]])
