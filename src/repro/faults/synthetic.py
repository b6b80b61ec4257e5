"""Synthetic fault-trace generation calibrated to the paper's statistics.

The production trace (Appendix A) covers 348 days of a ~400-node (3K-GPU,
8 GPUs/node) cluster with a mean faulty-node ratio of 2.33% and a p99 of
7.22%.  The trace itself is not available offline, so this module generates a
statistically equivalent one:

1. A daily faulty-node-ratio target series is drawn from an AR(1) latent
   Gaussian process pushed through a lognormal marginal whose mean / p99
   match the published numbers (heavy-ish upper tail, strong day-to-day
   correlation -- failures persist until repaired).
2. Day-level node membership is made *sticky*: a node that is faulty today
   stays faulty tomorrow with a persistence probability derived from the mean
   repair time, and nodes are added / repaired to hit the daily target count.
   Each day's membership is one row of a boolean (days x nodes) mask.
3. Contiguous runs of faulty days per node become the trace's columns: a
   run opens where the mask steps up along the days and closes where it
   steps down, so no per-fault object is built.

The result reproduces the marginal fault-ratio process (Figure 18) that all
trace-driven experiments depend on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.faults.trace import FaultTrace, HOURS_PER_DAY


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Calibration targets and knobs for the synthetic trace generator.

    Defaults reproduce the Appendix A statistics of the production trace.
    """

    n_nodes: int = 400
    duration_days: int = 348
    gpus_per_node: int = 8
    mean_fault_ratio: float = 0.0233
    p99_fault_ratio: float = 0.0722
    ar1_coefficient: float = 0.8
    mean_repair_days: float = 2.5
    seed: int = 348

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.duration_days < 1:
            raise ValueError("duration_days must be >= 1")
        if not 0.0 < self.mean_fault_ratio < 1.0:
            raise ValueError("mean_fault_ratio must be in (0, 1)")
        if not self.mean_fault_ratio <= self.p99_fault_ratio < 1.0:
            raise ValueError("p99_fault_ratio must be >= mean and < 1")
        if not 0.0 <= self.ar1_coefficient < 1.0:
            raise ValueError("ar1_coefficient must be in [0, 1)")
        if self.mean_repair_days < 1.0:
            raise ValueError("mean_repair_days must be >= 1 day")


def _lognormal_sigma(mean: float, p99: float) -> float:
    """Sigma of a lognormal whose p99/mean ratio matches ``p99/mean``.

    For ``X = mean * exp(sigma*Z - sigma^2/2)`` the p99/mean ratio equals
    ``exp(2.326*sigma - sigma^2/2)``; we solve for sigma with a bisection.
    """
    target = p99 / mean
    if target <= 1.0:
        return 0.0
    z99 = 2.326347874  # 99th percentile of the standard normal

    def ratio(sigma: float) -> float:
        return math.exp(z99 * sigma - sigma * sigma / 2.0)

    lo, hi = 0.0, z99  # ratio is increasing on [0, z99]
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if ratio(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _daily_ratio_targets(config: SyntheticTraceConfig, rng: np.random.Generator) -> np.ndarray:
    """Correlated daily faulty-node-ratio targets matching mean and p99."""
    sigma = _lognormal_sigma(config.mean_fault_ratio, config.p99_fault_ratio)
    rho = config.ar1_coefficient
    innovations = rng.normal(size=config.duration_days)
    latent = np.empty(config.duration_days)
    latent[0] = innovations[0]
    scale = math.sqrt(1.0 - rho * rho)
    for day in range(1, config.duration_days):
        latent[day] = rho * latent[day - 1] + scale * innovations[day]
    ratios = config.mean_fault_ratio * np.exp(sigma * latent - sigma * sigma / 2.0)
    # Exact mean calibration (the lognormal transform is already mean-correct
    # in expectation; rescaling removes the sampling error of a finite trace).
    ratios *= config.mean_fault_ratio / ratios.mean()
    return np.clip(ratios, 0.0, 0.5)


def generate_synthetic_trace(config: SyntheticTraceConfig | None = None) -> FaultTrace:
    """Generate a synthetic node-fault trace matching ``config``'s statistics.

    The RNG draw order is fixed -- every golden and result digest depends
    on it: the AR(1) targets first, then per day one persistence coin per
    faulty node in ascending node order, then one ``choice`` over the
    ascending survivors (a surplus) or the ascending healthy nodes (a
    deficit).
    """
    config = config if config is not None else SyntheticTraceConfig()
    rng = np.random.default_rng(config.seed)
    targets = _daily_ratio_targets(config, rng)
    persistence = 1.0 - 1.0 / config.mean_repair_days

    # Row ``day + 1`` is the day's faulty-node mask; the zero rows at both
    # ends open every run on its first day and close it at the horizon.
    membership = np.zeros((config.duration_days + 2, config.n_nodes), dtype=np.int8)
    faulty = np.zeros(config.n_nodes, dtype=bool)
    # ``np.rint`` rounds half to even, as ``round`` does.
    target_counts = np.minimum(np.rint(targets * config.n_nodes), config.n_nodes)
    for day, target_count in enumerate(target_counts.astype(np.int64).tolist()):
        # Nodes repaired today (those that do not persist), one coin per
        # faulty node in ascending order.
        candidates = faulty.nonzero()[0]
        survives = rng.random(candidates.size) < persistence
        faulty[candidates[~survives]] = False
        count = int(np.count_nonzero(survives))

        if count > target_count:
            # Repair surplus nodes (oldest-first is irrelevant for the
            # marginal statistics; repair uniformly at random).
            survivors = faulty.nonzero()[0]
            faulty[rng.choice(survivors, size=count - target_count, replace=False)] = False
        elif count < target_count:
            healthy = (~faulty).nonzero()[0]
            faulty[rng.choice(healthy, size=target_count - count, replace=False)] = True
        membership[day + 1] = faulty

    # Per node (rows of the transpose), a run opens where the mask steps
    # 0 -> 1 and closes where it steps 1 -> 0, so the k-th open and the
    # k-th close of every node pair up in ``np.nonzero``'s row-major order.
    steps = np.diff(membership, axis=0).T
    node_ids, start_days = np.nonzero(steps == 1)
    _, end_days = np.nonzero(steps == -1)
    return FaultTrace.from_columns(
        config.n_nodes,
        config.duration_days,
        node_ids,
        start_days * HOURS_PER_DAY,
        end_days * HOURS_PER_DAY,
        gpus_per_node=config.gpus_per_node,
    )
