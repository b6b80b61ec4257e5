"""Core InfiniteHBD contribution: nodes, K-Hop Ring topology, orchestration.

* :mod:`repro.core.node` -- GPU node model (UBB 2.0 style 4-/8-GPU nodes with
  OCSTrx bundles).
* :mod:`repro.core.khop_ring` -- the reconfigurable K-Hop Ring / K-Hop Line
  topology, fault bypass and healthy-segment extraction.
* :mod:`repro.core.ring_builder` -- dynamic GPU-granular ring construction on
  top of the K-Hop topology (intra-node loopback semantics).
* :mod:`repro.core.orchestrator` -- the HBD-DCN orchestration algorithms
  (Algorithms 1-5 of the paper) plus the greedy baseline.
* :mod:`repro.core.alltoall_topology` -- the power-of-two AllToAll wiring
  (Appendix G.3).

The package imports none of these modules, so the capacity replays that read
only :mod:`repro.core.khop_ring` do not load the orchestrator or the node
model.  Import names from their modules, for example
``from repro.core.khop_ring import KHopRingTopology``.
"""
