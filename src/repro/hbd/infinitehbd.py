"""InfiniteHBD architecture model (the paper's contribution).

This adapter exposes the reconfigurable K-Hop Ring topology
(:mod:`repro.core.khop_ring`) through the common
:class:`~repro.hbd.base.HBDArchitecture` interface used by the large-scale
cluster simulations.  The relevant behaviour:

* a run of fewer than ``K`` consecutive faulty nodes is bypassed via backup
  links, so healthy segments merge across it;
* each healthy segment is packed with TP groups of ``ceil(tp/R)`` nodes;
* the remainder of each segment is the only fragmentation loss.

Capacity depends on *where* the faults sit, not just how many hit each
domain, so there is no fault-count kernel.  Scalar replay reads the segment
sizes off the sorted fault runs once per distinct fault set, in O(faults)
(the O(n_nodes) ``healthy_segments`` walk, which placement uses, is their
reference); the batched Monte-Carlo engine (:mod:`repro.mc`) replays whole
seed blocks through its vectorized K-hop segment pass, checked bit for bit
against that scalar replay.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.khop_ring import KHopRingTopology, KHopTopologyConfig
from repro.hbd.base import HBDArchitecture, PlacementGroup


class InfiniteHBDArchitecture(HBDArchitecture):
    """InfiniteHBD with ``K`` OCSTrx bundles per node (K-Hop Ring)."""

    def __init__(
        self, k: int = 2, gpus_per_node: int = 4, ring: bool = True
    ) -> None:
        super().__init__(gpus_per_node)
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"k must be an int, got {k!r}")
        if not isinstance(ring, bool):
            raise ValueError(f"ring must be a bool, got {ring!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.ring = ring
        self.name = f"InfiniteHBD(K={k})"
        self._topology_cache: dict[int, KHopRingTopology] = {}

    def topology(self, n_nodes: int) -> KHopRingTopology:
        """K-Hop topology instance for an ``n_nodes`` cluster (cached)."""
        topo = self._topology_cache.get(n_nodes)
        if topo is None:
            topo = KHopRingTopology(
                KHopTopologyConfig(
                    n_nodes=n_nodes,
                    k=self.k,
                    gpus_per_node=self.gpus_per_node,
                    ring=self.ring,
                )
            )
            self._topology_cache[n_nodes] = topo
        return topo

    def usable_gpus(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> int:
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        return self.topology(n_nodes).usable_gpus(faulty, tp_size)

    def breakpoints(self, n_nodes: int, faulty_nodes: Iterable[int]) -> int:
        """Unbridgeable fault gaps (Appendix C breakpoints) for a fault set."""
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        return self.topology(n_nodes).breakpoints(faulty)

    # ------------------------------------------------------------- placement
    def placement_groups(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> tuple[PlacementGroup, ...]:
        """One domain per healthy segment (bridgeable fault runs included)."""
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        topo = self.topology(n_nodes)
        npg = topo.nodes_per_tp_group(tp_size)
        return tuple(
            PlacementGroup(nodes=seg.nodes, nodes_per_group=npg, tp_size=tp_size)
            for seg in topo.healthy_segments(faulty)
        )
