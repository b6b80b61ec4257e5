"""Rail-Optimized DCN model.

The paper states InfiniteHBD is compatible with Rail-Optimized DCNs as well
as Fat-Trees (sections 2.1, 4.3, 8).  In a rail-optimized fabric, GPU ``g``
of every node in a pod connects to rail switch ``g`` (one "rail" per local
GPU index), so same-rank traffic between nodes of the same pod never crosses
a spine switch.

For the orchestration analysis the relevant locality questions are:

* which pod a node belongs to,
* which rail a (node, local GPU index) pair uses,
* whether two GPUs can communicate under a single rail switch
  (same pod *and* same local index), one spine hop (same pod, different
  rail), or across pods.

The :class:`RailTrafficModel` mirrors :class:`~repro.dcn.traffic.TrafficModel`
for this fabric: outer-parallel (DP/CP) traffic between same-rank GPUs stays
on a rail when the communicating nodes share a pod, so a placement that packs
each outer-parallel set into one pod needs no spine bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only; graph() imports networkx
    import networkx as nx


@dataclass(frozen=True)
class RailOptimizedConfig:
    """Shape of a rail-optimized pod fabric."""

    n_nodes: int
    gpus_per_node: int = 4
    nodes_per_pod: int = 32

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.nodes_per_pod < 1:
            raise ValueError("nodes_per_pod must be >= 1")

    @property
    def n_pods(self) -> int:
        return -(-self.n_nodes // self.nodes_per_pod)

    @property
    def rails_per_pod(self) -> int:
        return self.gpus_per_node


class RailOptimized:
    """Locality queries over a rail-optimized DCN."""

    def __init__(self, config: RailOptimizedConfig) -> None:
        self.config = config

    # -------------------------------------------------------------- locality
    def pod_of(self, node: int) -> int:
        self._check_node(node)
        return node // self.config.nodes_per_pod

    def rail_of(self, node: int, gpu_index: int) -> tuple[int, int]:
        """(pod, rail) identity of one GPU's NIC."""
        self._check_node(node)
        if not 0 <= gpu_index < self.config.gpus_per_node:
            raise ValueError(f"gpu_index {gpu_index} out of range")
        return self.pod_of(node), gpu_index

    def same_pod(self, a: int, b: int) -> bool:
        return self.pod_of(a) == self.pod_of(b)

    def same_rail(self, a: int, gpu_a: int, b: int, gpu_b: int) -> bool:
        """Whether two GPUs hang off the same rail switch."""
        return self.rail_of(a, gpu_a) == self.rail_of(b, gpu_b)

    def switch_hops(self, a: int, gpu_a: int, b: int, gpu_b: int) -> int:
        """Switch layers crossed: 1 (same rail), 3 (same pod), 5 (cross pod)."""
        if a == b and gpu_a == gpu_b:
            return 0
        if self.same_rail(a, gpu_a, b, gpu_b):
            return 1
        if self.same_pod(a, b):
            return 3
        return 5

    def nodes_in_pod(self, pod: int) -> list[int]:
        if not 0 <= pod < self.config.n_pods:
            raise ValueError(f"pod {pod} out of range")
        start = pod * self.config.nodes_per_pod
        end = min(start + self.config.nodes_per_pod, self.config.n_nodes)
        return list(range(start, end))

    # ------------------------------------------------------------------ graph
    def graph(self) -> nx.Graph:
        """Switch-level graph: GPUs -> rail switches -> spine."""
        import networkx as nx

        g = nx.Graph()
        spine = "spine"
        g.add_node(spine, kind="spine")
        for pod in range(self.config.n_pods):
            for rail in range(self.config.rails_per_pod):
                rail_name = f"pod{pod}/rail{rail}"
                g.add_node(rail_name, kind="rail")
                g.add_edge(rail_name, spine)
            for node in self.nodes_in_pod(pod):
                for gpu in range(self.config.gpus_per_node):
                    gpu_name = (node, gpu)
                    g.add_node(gpu_name, kind="gpu")
                    g.add_edge(gpu_name, f"pod{pod}/rail{gpu}")
        return g

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.config.n_nodes:
            raise ValueError(
                f"node {node} out of range for {self.config.n_nodes}-node fabric"
            )


class RailTrafficModel:
    """Cross-spine traffic accounting for a TP placement on a rail fabric.

    Outer-parallel (DP/CP) traffic runs between the same local GPU index of
    same-rank nodes, so an edge stays on its rail exactly when the two nodes
    share a pod.  The returned rate is the fraction of outer-parallel edges
    that must cross the spine.
    """

    def __init__(self, fabric: RailOptimized, local_set_size: int | None = None) -> None:
        self.fabric = fabric
        if local_set_size is None:
            local_set_size = fabric.config.gpus_per_node
        if local_set_size < 1:
            raise ValueError("local_set_size must be >= 1")
        self.local_set_size = local_set_size

    def cross_spine_fraction(self, placement: Sequence[Sequence[int]]) -> float:
        groups = [list(g) for g in placement if g]
        if len(groups) < 2:
            return 0.0
        group_size = len(groups[0])
        for g in groups:
            if len(g) != group_size:
                raise ValueError("all TP groups must have the same node count")
        edges = 0
        crossing = 0
        sets = [
            groups[i : i + self.local_set_size]
            for i in range(0, len(groups), self.local_set_size)
        ]
        for local_set in sets:
            if len(local_set) < 2:
                continue
            for rank in range(group_size):
                members = [g[rank] for g in local_set]
                ring = list(zip(members, members[1:] + members[:1], strict=True))
                if len(members) == 2:
                    ring = ring[:1]
                for a, b in ring:
                    edges += 1
                    if not self.fabric.same_pod(a, b):
                        crossing += 1
        if edges == 0:
            return 0.0
        return crossing / edges
