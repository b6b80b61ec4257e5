"""LLM training performance simulator (sections 2.3 and 6.3).

The paper motivates InfiniteHBD with an in-house LLM training simulator that
searches parallelism strategies (TP / PP / DP / EP) for maximum Model FLOPs
Utilization (MFU).  This subpackage rebuilds that simulator analytically:

* :mod:`repro.training.models` -- model configurations (Llama 3.1-405B with
  the paper's MHA simplification, and the 1.1T GPT-MoE of Appendix B) and
  parameter counting.
* :mod:`repro.training.flops` -- FLOPs per token / per iteration.
* :mod:`repro.training.comm` -- per-layer and per-iteration communication
  volumes for TP, EP and DP (Table 3 formulas).
* :mod:`repro.training.mfu` -- the iteration-time and MFU model (compute,
  GEMM-efficiency degradation with TP, pipeline bubble, TP/EP/DP
  communication, expert imbalance stragglers).
* :mod:`repro.training.parallelism` -- grid search for the optimal strategy
  (Tables 2, 4 and 5).
"""
