"""Three-tier Fat-Tree DCN model.

The orchestration algorithms only need locality information from the DCN:
which ToR a node hangs off, which aggregation-switch domain that ToR belongs
to, and the hop distance between two nodes.  This module provides a compact
Fat-Tree abstraction with exactly that interface.

Hierarchy (bottom-up):

* ``nodes_per_tor`` nodes connect to each ToR switch (the paper calls this
  ``p`` or ``r``).
* ``tors_per_domain`` ToR switches connect to one group of aggregation
  switches (one *Aggregation-Switches Domain*); a domain therefore covers
  ``d = nodes_per_tor * tors_per_domain`` nodes.
* all domains connect through the core layer.

Network distance (in switch hops, as used in Figure 6/7 of the paper):

* same node: 0
* same ToR: 1 (node -> ToR -> node counts as distance 1 in the paper's
  "network distance 3 means cross-ToR" convention, where each switch layer
  crossed adds 2)
* same aggregation domain, different ToR: 3
* different aggregation domain: 5
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FatTreeConfig:
    """Shape of the Fat-Tree.

    Attributes
    ----------
    n_nodes:
        Total number of GPU nodes attached to the fabric.
    nodes_per_tor:
        Nodes per ToR switch (``p`` in the orchestration algorithms).
    tors_per_domain:
        ToR switches per aggregation-switch domain.
    """

    n_nodes: int
    nodes_per_tor: int = 4
    tors_per_domain: int = 16

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.nodes_per_tor < 1:
            raise ValueError("nodes_per_tor must be >= 1")
        if self.tors_per_domain < 1:
            raise ValueError("tors_per_domain must be >= 1")

    @property
    def nodes_per_domain(self) -> int:
        """``d`` -- nodes covered by one aggregation-switch domain."""
        return self.nodes_per_tor * self.tors_per_domain

    @property
    def n_tors(self) -> int:
        """Number of ToR switches (ceiling to cover all nodes)."""
        return -(-self.n_nodes // self.nodes_per_tor)

    @property
    def n_domains(self) -> int:
        """Number of aggregation-switch domains."""
        return -(-self.n_tors // self.tors_per_domain)


class FatTree:
    """Locality queries over a Fat-Tree DCN."""

    def __init__(self, config: FatTreeConfig) -> None:
        self.config = config

    # -------------------------------------------------------------- locality
    def tor_of(self, node: int) -> int:
        """Index of the ToR switch ``node`` is attached to."""
        self._check_node(node)
        return node // self.config.nodes_per_tor

    def domain_of(self, node: int) -> int:
        """Index of the aggregation-switch domain covering ``node``."""
        return self.tor_of(node) // self.config.tors_per_domain

    def nodes_in_tor(self, tor: int) -> list[int]:
        """Node ids attached to ToR ``tor``."""
        if not 0 <= tor < self.config.n_tors:
            raise ValueError(f"ToR {tor} out of range")
        start = tor * self.config.nodes_per_tor
        end = min(start + self.config.nodes_per_tor, self.config.n_nodes)
        return list(range(start, end))

    def nodes_in_domain(self, domain: int) -> list[int]:
        """Node ids covered by aggregation domain ``domain``."""
        if not 0 <= domain < self.config.n_domains:
            raise ValueError(f"domain {domain} out of range")
        start = domain * self.config.nodes_per_domain
        end = min(start + self.config.nodes_per_domain, self.config.n_nodes)
        return list(range(start, end))

    def same_tor(self, a: int, b: int) -> bool:
        return self.tor_of(a) == self.tor_of(b)

    def same_domain(self, a: int, b: int) -> bool:
        return self.domain_of(a) == self.domain_of(b)

    def network_distance(self, a: int, b: int) -> int:
        """Switch-layer distance between two nodes (paper convention)."""
        self._check_node(a)
        self._check_node(b)
        if a == b:
            return 0
        if self.same_tor(a, b):
            return 1
        if self.same_domain(a, b):
            return 3
        return 5

    def intra_tor_index(self, node: int) -> int:
        """Position of ``node`` within its ToR (0..nodes_per_tor-1)."""
        self._check_node(node)
        return node % self.config.nodes_per_tor

    # --------------------------------------------------------------- helpers
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.config.n_nodes:
            raise ValueError(
                f"node {node} out of range for {self.config.n_nodes}-node DCN"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        c = self.config
        return (
            f"FatTree(n_nodes={c.n_nodes}, p={c.nodes_per_tor}, "
            f"tors/domain={c.tors_per_domain})"
        )
