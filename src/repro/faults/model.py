"""Parametric i.i.d. node-fault model for sweep experiments.

The sweep-style figures (14, 17c, 17d, 22) vary the node fault ratio directly
rather than replaying the trace: "fault traces generated based on this trace
statistics are also derived" (section 6.1) and "as node faults are assumed to
be i.i.d., the simulator linearly maps the fault trace onto different network
architectures" (Appendix A).  :class:`IIDFaultModel` draws independent node
fault sets at a target ratio and provides Monte-Carlo averaging helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np


def fault_count(n_nodes: int, fault_ratio: float) -> int:
    """Faulty nodes in one i.i.d. fault set: the rounded expectation.

    The evaluation sweeps the ratio deterministically, so the count is fixed
    and only which nodes fail is random.

    >>> fault_count(256, 0.02)
    5
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if not 0.0 <= fault_ratio <= 1.0:
        raise ValueError("fault_ratio must be in [0, 1]")
    return min(int(round(fault_ratio * n_nodes)), n_nodes)


def sample_fault_set(
    n_nodes: int, fault_ratio: float, rng: np.random.Generator
) -> set[int]:
    """Draw one i.i.d. node fault set of :func:`fault_count` uniform nodes."""
    count = fault_count(n_nodes, fault_ratio)
    if count == 0:
        return set()
    chosen = rng.choice(n_nodes, size=count, replace=False)
    return {int(n) for n in chosen}


@dataclass
class IIDFaultModel:
    """Monte-Carlo driver over i.i.d. node fault sets."""

    n_nodes: int
    seed: int = 0
    n_samples: int = 20

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def fault_sets(self, fault_ratio: float) -> list[set[int]]:
        """``n_samples`` independent fault sets at ``fault_ratio``."""
        rng = np.random.default_rng(self.seed)
        return [
            sample_fault_set(self.n_nodes, fault_ratio, rng)
            for _ in range(self.n_samples)
        ]

    def expectation(
        self, fault_ratio: float, metric: Callable[[set[int]], float]
    ) -> float:
        """Monte-Carlo mean of ``metric`` over fault sets at ``fault_ratio``."""
        sets = self.fault_sets(fault_ratio)
        return float(np.mean([metric(s) for s in sets]))

    def sweep(
        self,
        fault_ratios: Sequence[float],
        metric: Callable[[set[int]], float],
    ) -> list[float]:
        """Monte-Carlo mean of ``metric`` across a sweep of fault ratios."""
        return [self.expectation(ratio, metric) for ratio in fault_ratios]
