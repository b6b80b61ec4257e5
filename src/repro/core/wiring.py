"""Physical wiring plan for an InfiniteHBD deployment.

Deploying the K-Hop Ring in a datacenter means pulling one fiber pair per
OCSTrx external path between specific (node, bundle, port) endpoints.  This
module turns the logical deployment (Algorithm 3's node order plus the K-hop
link rule) into the concrete cabling list a datacenter technician would work
from, and cross-checks it against the per-node bill of materials of Table 8.

Port convention (per node, matching Figure 4/5):

* bundles ``0 .. K-1`` carry the inter-node links;
* bundle ``i``'s ``EXTERNAL_1`` port faces the node ``i + 1`` positions ahead
  in deployment order, and its ``EXTERNAL_2`` port faces the node ``i + 1``
  positions behind;
* the remaining ``R - K`` GPU pairs are joined by intra-node DAC links
  (two cables per idle pair, as in the Table 8 BOM).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.orchestrator import DeploymentPlan, deployment_strategy
from repro.dcn.fattree import FatTree, FatTreeConfig
from repro.hardware.ocstrx import PathState


@dataclass(frozen=True)
class CableSpec:
    """One inter-node fiber bundle (all modules of one OCSTrx bundle)."""

    cable_id: int
    node_a: int
    bundle_a: int
    port_a: PathState
    node_b: int
    bundle_b: int
    port_b: PathState
    hop_distance: int
    network_distance: int

    @property
    def crosses_tor(self) -> bool:
        """Whether the cable leaves its ToR (network distance > 1)."""
        return self.network_distance > 1

    @property
    def crosses_domain(self) -> bool:
        """Whether the cable leaves its aggregation-switch domain."""
        return self.network_distance > 3


@dataclass(frozen=True)
class NodeWiring:
    """Per-node summary of the wiring plan."""

    node_id: int
    external_cables: int
    intra_node_dac_links: int
    ocstrx_modules: int


@dataclass
class WiringPlan:
    """The full cabling list plus per-node summaries."""

    cables: list[CableSpec]
    nodes: list[NodeWiring]
    k: int
    gpus_per_node: int
    modules_per_bundle: int

    # ------------------------------------------------------------- summaries
    @property
    def total_cables(self) -> int:
        return len(self.cables)

    @property
    def total_fiber_pairs(self) -> int:
        """Individual fiber pairs (one per OCSTrx module on each cable)."""
        return len(self.cables) * self.modules_per_bundle

    @property
    def total_ocstrx_modules(self) -> int:
        return sum(node.ocstrx_modules for node in self.nodes)

    @property
    def total_dac_links(self) -> int:
        return sum(node.intra_node_dac_links for node in self.nodes)

    def cables_by_hop_distance(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for cable in self.cables:
            counts[cable.hop_distance] = counts.get(cable.hop_distance, 0) + 1
        return counts

    def cross_tor_cable_fraction(self) -> float:
        if not self.cables:
            return 0.0
        return sum(1 for c in self.cables if c.crosses_tor) / len(self.cables)

    def cables_of_node(self, node_id: int) -> list[CableSpec]:
        return [c for c in self.cables if node_id in (c.node_a, c.node_b)]

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Internal-consistency checks of the plan.

        * every interior node terminates exactly ``2K`` external links
          (fewer only at the two ends of the deployment line);
        * no (node, bundle, port) endpoint is used twice;
        * hop distances never exceed ``K``.
        """
        endpoint_seen: set = set()
        per_node_links: dict[int, int] = {}
        for cable in self.cables:
            for node, bundle, port in (
                (cable.node_a, cable.bundle_a, cable.port_a),
                (cable.node_b, cable.bundle_b, cable.port_b),
            ):
                key = (node, bundle, port)
                if key in endpoint_seen:
                    raise ValueError(f"endpoint {key} terminates two cables")
                endpoint_seen.add(key)
                per_node_links[node] = per_node_links.get(node, 0) + 1
            if cable.hop_distance > self.k:
                raise ValueError(
                    f"cable {cable.cable_id} spans {cable.hop_distance} hops > K={self.k}"
                )
        for node in self.nodes:
            links = per_node_links.get(node.node_id, 0)
            if links > 2 * self.k:
                raise ValueError(
                    f"node {node.node_id} terminates {links} links (> 2K)"
                )


class WiringPlanner:
    """Generates the wiring plan for a deployment."""

    def __init__(
        self,
        n_nodes: int,
        k: int = 2,
        gpus_per_node: int = 4,
        modules_per_bundle: int = 8,
        fat_tree: FatTree | None = None,
        plan: DeploymentPlan | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if gpus_per_node < k:
            raise ValueError("a node cannot host more inter-node bundles than GPUs")
        self.n_nodes = n_nodes
        self.k = k
        self.gpus_per_node = gpus_per_node
        self.modules_per_bundle = modules_per_bundle
        self.fat_tree = fat_tree or FatTree(
            FatTreeConfig(n_nodes=n_nodes, nodes_per_tor=4, tors_per_domain=64)
        )
        if self.fat_tree.config.n_nodes != n_nodes:
            raise ValueError("fat_tree size must match n_nodes")
        self.plan = plan or deployment_strategy(
            n_nodes, k, self.fat_tree.config.nodes_per_tor
        )

    def build(self) -> WiringPlan:
        """Generate the full cabling list."""
        order = self.plan.order
        cables: list[CableSpec] = []
        cable_id = 0
        for position, node_a in enumerate(order):
            for offset in range(1, self.k + 1):
                peer_position = position + offset
                if peer_position >= len(order):
                    continue
                node_b = order[peer_position]
                bundle = offset - 1
                cables.append(
                    CableSpec(
                        cable_id=cable_id,
                        node_a=node_a,
                        bundle_a=bundle,
                        port_a=PathState.EXTERNAL_1,
                        node_b=node_b,
                        bundle_b=bundle,
                        port_b=PathState.EXTERNAL_2,
                        hop_distance=offset,
                        network_distance=self.fat_tree.network_distance(node_a, node_b),
                    )
                )
                cable_id += 1

        nodes = [
            NodeWiring(
                node_id=node_id,
                external_cables=sum(
                    1 for c in cables if node_id in (c.node_a, c.node_b)
                ),
                intra_node_dac_links=2 * (self.gpus_per_node - self.k),
                ocstrx_modules=self.k * self.modules_per_bundle,
            )
            for node_id in range(self.n_nodes)
        ]
        plan = WiringPlan(
            cables=cables,
            nodes=nodes,
            k=self.k,
            gpus_per_node=self.gpus_per_node,
            modules_per_bundle=self.modules_per_bundle,
        )
        plan.validate()
        return plan

    def bom_check(self, plan: WiringPlan) -> dict[str, float]:
        """Per-node component counts for cross-checking against Table 8.

        Returns OCSTrx modules, fibers (one per module port in use, i.e. two
        fiber ends per module but one fiber per module per cable side) and
        DAC links per node, matching the units of the published BOM.
        """
        per_node_ocstrx = plan.total_ocstrx_modules / self.n_nodes
        per_node_dac = plan.total_dac_links / self.n_nodes
        # Each OCSTrx module terminates one fiber (Table 8 counts one fiber
        # per transceiver module).
        per_node_fiber = per_node_ocstrx
        return {
            "ocstrx_modules_per_node": per_node_ocstrx,
            "dac_links_per_node": per_node_dac,
            "fibers_per_node": per_node_fiber,
        }
