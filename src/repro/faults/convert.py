"""Conversion of the 8-GPU-node fault trace to 4-GPU nodes (Appendix A).

The production trace is collected on 8-GPU nodes, while most of section 6
simulates 4-GPU nodes (matching GB200 NVL and TPUv4 node sizes).  The paper
derives the conversion as follows:

1. GPU faults are i.i.d. with per-GPU probability ``p``; a node is faulty if
   any GPU inside it is, so ``P_fault(8-GPU) = 1 - (1-p)^8 = 2.33%`` gives
   ``p = 0.29%`` and ``P_fault(4-GPU) = 1 - (1-p)^4 = 1.17%``.
2. By Bayes' rule, conditioned on an 8-GPU node being faulty, each of the two
   co-located 4-GPU nodes is faulty with probability
   ``P(4-GPU | 8-GPU) = P(4-GPU) / P(8-GPU) = 50.21%``.
3. Every event of the original trace is therefore mapped to zero, one or two
   events on the corresponding 4-GPU nodes by two independent coin flips.

The conversion works on the trace's columns: all coins come out of one
``rng.random`` draw, in event-then-half order, and the target columns are
gathered where they land heads.
"""

from __future__ import annotations

import numpy as np

from repro.faults.trace import FaultTrace


def per_gpu_fault_probability(node_fault_ratio: float, gpus_per_node: int) -> float:
    """Per-GPU fault probability implied by a node-level fault ratio."""
    if not 0.0 <= node_fault_ratio < 1.0:
        raise ValueError("node_fault_ratio must be in [0, 1)")
    if gpus_per_node < 1:
        raise ValueError("gpus_per_node must be >= 1")
    return 1.0 - (1.0 - node_fault_ratio) ** (1.0 / gpus_per_node)


def node_fault_probability(per_gpu_probability: float, gpus_per_node: int) -> float:
    """Node-level fault probability for i.i.d. GPU faults."""
    if not 0.0 <= per_gpu_probability < 1.0:
        raise ValueError("per_gpu_probability must be in [0, 1)")
    if gpus_per_node < 1:
        raise ValueError("gpus_per_node must be >= 1")
    return 1.0 - (1.0 - per_gpu_probability) ** gpus_per_node


def conversion_probability(
    source_node_ratio: float = 0.0233,
    source_gpus_per_node: int = 8,
    target_gpus_per_node: int = 4,
) -> float:
    """``P(target-node faulty | source-node faulty)`` (50.21% in the paper)."""
    p_gpu = per_gpu_fault_probability(source_node_ratio, source_gpus_per_node)
    p_target = node_fault_probability(p_gpu, target_gpus_per_node)
    if source_node_ratio == 0:
        return 0.0
    return p_target / source_node_ratio


def convert_trace_8gpu_to_4gpu(
    trace: FaultTrace,
    seed: int = 0,
    mean_node_fault_ratio: float | None = None,
) -> FaultTrace:
    """Convert an 8-GPU-node trace into a 4-GPU-node trace.

    Each source node ``n`` maps to target nodes ``2n`` and ``2n + 1``.  For
    every source fault event, each target node independently inherits the
    event with the Bayes conversion probability.

    Parameters
    ----------
    trace:
        The source trace (must use 8 GPUs per node).
    seed:
        Seed for the per-event coin flips.
    mean_node_fault_ratio:
        Mean faulty-node ratio of the source trace used to derive the
        conversion probability.  Defaults to the trace's own measured mean.
    """
    if trace.gpus_per_node != 8:
        raise ValueError("convert_trace_8gpu_to_4gpu expects an 8-GPU-node trace")
    rng = np.random.default_rng(seed)
    if mean_node_fault_ratio is None:
        mean_node_fault_ratio = trace.interval_timeline().mean_fault_ratio()
    p_convert = conversion_probability(
        source_node_ratio=mean_node_fault_ratio,
        source_gpus_per_node=8,
        target_gpus_per_node=4,
    )

    # Coin ``2 * i + half`` decides whether target node ``2 * n + half``
    # inherits source event ``i`` -- the order of a per-event, per-half loop.
    coins = rng.random(2 * len(trace)) < p_convert
    event, half = np.nonzero(coins.reshape(-1, 2))
    return FaultTrace.from_columns(
        trace.n_nodes * 2,
        trace.duration_days,
        trace.node_ids[event] * 2 + half,
        trace.start_hours[event],
        trace.end_hours[event],
        gpus_per_node=4,
    )
