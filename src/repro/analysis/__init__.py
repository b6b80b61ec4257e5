"""Theoretical analyses accompanying the system (Appendix C) and shared stats."""

from repro.analysis.cdf import empirical_cdf, left_sum, weighted_quantile
from repro.analysis.waste_bound import (
    breakpoint_expectation_per_node,
    expected_waste_per_breakpoint,
    waste_ratio_upper_bound,
    waste_bound_table,
)

__all__ = [
    "empirical_cdf",
    "left_sum",
    "weighted_quantile",
    "breakpoint_expectation_per_node",
    "expected_waste_per_breakpoint",
    "waste_ratio_upper_bound",
    "waste_bound_table",
]
