"""Iteration-time and MFU model (the in-house simulator of section 6.3).

The model decomposes one training iteration into:

* **Compute** -- model FLOPs divided by the cluster's effective throughput.
  The effective per-GPU throughput is the peak multiplied by a GEMM
  efficiency that decays as TP splits matrices into smaller, less efficient
  tiles (the effect the paper cites from NVIDIA's GEMM guide).
* **TP / EP communication** -- AllReduce / AllToAll volumes from
  :mod:`repro.training.comm` over the per-GPU HBD bandwidth, partially
  overlappable with compute.
* **Pipeline bubble** -- the 1F1B bubble fraction
  ``(pp - 1) / (microbatches + pp - 1)``.
* **DP communication** -- gradient AllReduce over the DCN NIC, partially
  overlapped with the backward pass.
* **Expert imbalance** -- when EP > 1, the MoE expert compute is slowed by
  the straggler factor implied by the imbalance coefficient
  ``(max - min) / max`` (section 2.3, Table 4).

A memory model (weights + distributed optimizer states + pipeline-inflight
activations) marks infeasible configurations so the strategy search never
selects them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.training.comm import iteration_comm_volumes
from repro.training.flops import flops_per_iteration
from repro.training.models import ModelConfig

GIB = 1024.0 ** 3


@dataclass(frozen=True)
class HardwareSpec:
    """GPU and fabric characteristics (defaults follow section 6.1)."""

    peak_flops: float = 989e12                 # NVIDIA H100 dense BF16
    memory_bytes: float = 80.0 * GIB           # HBM capacity
    hbd_bandwidth_gbps: float = 6400.0         # 8 x 800G OCSTrx per GPU
    dcn_bandwidth_gbps: float = 400.0          # ConnectX-7 class NIC
    gemm_base_efficiency: float = 0.62
    gemm_tp_penalty_per_doubling: float = 0.035
    gemm_reference_tp: int = 8
    tp_overlap_fraction: float = 0.30
    ep_overlap_fraction: float = 0.30
    dp_overlap_fraction: float = 0.70
    memory_utilization_limit: float = 0.94

    @property
    def hbd_bytes_per_s(self) -> float:
        return self.hbd_bandwidth_gbps * 1e9 / 8.0

    @property
    def dcn_bytes_per_s(self) -> float:
        return self.dcn_bandwidth_gbps * 1e9 / 8.0

    def gemm_efficiency(self, tp: int) -> float:
        """GEMM efficiency as TP splits matrices beyond the reference size."""
        if tp < 1:
            raise ValueError("tp must be >= 1")
        doublings = max(0.0, math.log2(tp / self.gemm_reference_tp))
        eff = self.gemm_base_efficiency * (
            1.0 - self.gemm_tp_penalty_per_doubling * doublings
        )
        return max(0.05, eff)


@dataclass(frozen=True)
class ParallelismConfig:
    """One point of the parallelism search space.

    ``virtual_pipeline`` is the interleaved (virtual) pipeline factor: each
    physical pipeline stage holds ``virtual_pipeline`` non-contiguous layer
    chunks, which shrinks the 1F1B bubble by the same factor (the paper's
    GPT-MoE runtime configuration uses a virtual pipeline of 3).
    """

    tp: int
    pp: int
    dp: int
    ep: int = 1
    global_batch: int = 2048
    micro_batch: int = 1
    expert_imbalance_coef: float = 0.0
    virtual_pipeline: int = 1

    def __post_init__(self) -> None:
        if min(self.tp, self.pp, self.dp, self.ep) < 1:
            raise ValueError("parallel sizes must be >= 1")
        if self.global_batch < 1 or self.micro_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if not 0.0 <= self.expert_imbalance_coef < 1.0:
            raise ValueError("expert_imbalance_coef must be in [0, 1)")
        if self.ep > self.dp:
            raise ValueError("ep must not exceed dp (experts shard a DP subset)")
        if self.virtual_pipeline < 1:
            raise ValueError("virtual_pipeline must be >= 1")

    @property
    def world_size(self) -> int:
        return self.tp * self.pp * self.dp

    @property
    def microbatches_per_replica(self) -> float:
        """Microbatches each pipeline (one DP replica) processes per step."""
        return self.global_batch / (self.dp * self.micro_batch)

    @property
    def pipeline_bubble_fraction(self) -> float:
        """Interleaved-1F1B bubble ``(pp-1) / (v*microbatches + pp - 1)``."""
        m = self.microbatches_per_replica
        if m <= 0:
            return 1.0
        effective = self.virtual_pipeline * m
        return (self.pp - 1) / (effective + self.pp - 1)

    @property
    def straggler_factor(self) -> float:
        """MoE expert compute slowdown caused by the imbalance coefficient.

        With ``c = (max - min) / max`` and a symmetric spread around the
        mean, ``max / mean = 2 / (2 - c)``: the slowest expert sets the pace.
        """
        c = self.expert_imbalance_coef
        return 2.0 / (2.0 - c)


@dataclass
class MFUEstimate:
    """Full breakdown of one MFU evaluation."""

    mfu: float
    iteration_time_s: float
    compute_time_s: float
    tp_comm_time_s: float
    ep_comm_time_s: float
    dp_exposed_time_s: float
    bubble_fraction: float
    gemm_efficiency: float
    memory_bytes_per_gpu: float
    feasible: bool
    infeasible_reason: str = ""

    @property
    def memory_gib_per_gpu(self) -> float:
        return self.memory_bytes_per_gpu / GIB


class MFUSimulator:
    """Analytical MFU estimator for (model, parallelism, hardware) triples."""

    def __init__(self, hardware: HardwareSpec | None = None) -> None:
        self.hardware = hardware or HardwareSpec()

    # ----------------------------------------------------------------- memory
    def memory_per_gpu(self, model: ModelConfig, parallel: ParallelismConfig) -> float:
        """Bytes of HBM one GPU needs under ``parallel``.

        Weights + gradients in bf16 (4 bytes/param), fp32 optimizer states
        sharded across DP (12 bytes/param / dp), and pipeline-inflight
        boundary activations with full recomputation.
        """
        params = model.params_per_gpu(parallel.tp, parallel.pp, parallel.ep)
        weights_grads = 4.0 * params
        optimizer = 12.0 * params / parallel.dp
        layers_per_stage = model.n_layers / parallel.pp
        inflight = min(parallel.pp, parallel.microbatches_per_replica)
        activations = (
            2.0  # bytes per element (bf16)
            * model.seq_len
            * model.hidden_dim
            * parallel.micro_batch
            * layers_per_stage
            * max(1.0, inflight)
            / parallel.tp
        )
        return weights_grads + optimizer + activations

    # -------------------------------------------------------------- estimate
    def estimate(self, model: ModelConfig, parallel: ParallelismConfig) -> MFUEstimate:
        """Estimate MFU and the iteration-time breakdown."""
        hw = self.hardware
        world = parallel.world_size
        memory = self.memory_per_gpu(model, parallel)

        feasible = True
        reason = ""
        if model.is_moe and parallel.ep > model.n_experts:
            feasible, reason = False, "ep exceeds the number of experts"
        if parallel.tp > model.n_heads:
            feasible, reason = False, "tp exceeds the number of attention heads"
        if parallel.pp > model.n_layers:
            feasible, reason = False, "pp exceeds the number of layers"
        if parallel.global_batch % parallel.dp:
            feasible, reason = False, "global batch not divisible by dp"
        if memory > hw.memory_bytes * hw.memory_utilization_limit:
            feasible, reason = False, "exceeds GPU memory"

        gemm_eff = hw.gemm_efficiency(parallel.tp)
        model_flops = flops_per_iteration(model, parallel.global_batch)
        compute_time = model_flops / (world * hw.peak_flops * gemm_eff)

        # Expert-imbalance straggler penalty on the MoE expert share of compute.
        if model.is_moe and parallel.ep > 1 and parallel.expert_imbalance_coef > 0:
            expert_flops_share = self._expert_compute_share(model)
            compute_time *= (
                1.0
                + expert_flops_share * (parallel.straggler_factor - 1.0)
            )

        volumes = iteration_comm_volumes(
            model,
            tp=parallel.tp,
            pp=parallel.pp,
            dp=parallel.dp,
            ep=parallel.ep,
            global_batch=parallel.global_batch,
        )
        tp_time = (
            volumes.tp_bytes / hw.hbd_bytes_per_s * (1.0 - hw.tp_overlap_fraction)
        )
        ep_time = (
            volumes.ep_bytes / hw.hbd_bytes_per_s * (1.0 - hw.ep_overlap_fraction)
        )
        dp_time = (
            volumes.dp_bytes / hw.dcn_bytes_per_s * (1.0 - hw.dp_overlap_fraction)
        )

        bubble = parallel.pipeline_bubble_fraction
        pipeline_time = (compute_time + tp_time + ep_time) / max(1e-12, 1.0 - bubble)
        iteration_time = pipeline_time + dp_time

        mfu = model_flops / (world * hw.peak_flops * iteration_time)
        if not feasible:
            mfu = 0.0
        return MFUEstimate(
            mfu=mfu,
            iteration_time_s=iteration_time,
            compute_time_s=compute_time,
            tp_comm_time_s=tp_time,
            ep_comm_time_s=ep_time,
            dp_exposed_time_s=dp_time,
            bubble_fraction=bubble,
            gemm_efficiency=gemm_eff,
            memory_bytes_per_gpu=memory,
            feasible=feasible,
            infeasible_reason=reason,
        )

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _expert_compute_share(model: ModelConfig) -> float:
        """Fraction of activated compute spent in MoE expert FFNs."""
        if not model.is_moe:
            return 0.0
        expert_active = (
            model.n_moe_layers * model.moe_top_k * model.mlp_params_per_expert
        )
        return expert_active / model.activated_params
