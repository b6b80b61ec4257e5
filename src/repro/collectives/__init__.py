"""Collective-communication algorithms and cost models.

* :mod:`repro.collectives.cost_model` -- the alpha-beta link/cost abstraction
  shared by all collectives.
* :mod:`repro.collectives.ring_allreduce` -- bandwidth-optimal ring AllReduce
  timing and bus-bandwidth-utilisation model (section 5.2).
* :mod:`repro.collectives.alltoall` -- AllToAll algorithms: ring (no Fast
  Switch), pairwise exchange, Bruck, and the Binary Exchange algorithm the
  paper proposes for InfiniteHBD (Appendix G), including a data-level
  functional simulation used to verify correctness.
"""
