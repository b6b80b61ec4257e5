"""GPU-centric SiP-Ring HBD (section 2.2, Figure 1b).

SiP-Ring connects nodes into *static*, fixed-size optical rings whose size
equals the TP group size.  The ring cannot be reconfigured: a single node
failure breaks the ring into a line, which can no longer host the TP group,
so every healthy GPU in that ring is wasted (the HBD-level fault explosion
radius of GPU-centric designs).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.hbd.base import CountDecomposition, HBDArchitecture, PlacementGroup


class SiPRingHBD(HBDArchitecture):
    """Fixed-size static rings; a faulty node kills its whole ring."""

    name = "SiP-Ring"

    def usable_gpus(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> int:
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        nodes_per_ring = max(1, -(-tp_size // self.gpus_per_node))
        ring_gpu_capacity = nodes_per_ring * self.gpus_per_node
        # A ring only supports the TP size it was built for; if the node
        # granularity cannot host it exactly, the remainder inside the ring
        # is also fragmented away.
        per_ring_usable = self._fit(ring_gpu_capacity, tp_size)

        n_rings = n_nodes // nodes_per_ring
        faulty_rings = {
            node // nodes_per_ring
            for node in faulty
            if node // nodes_per_ring < n_rings
        }
        return (n_rings - len(faulty_rings)) * per_ring_usable

    def fault_count_decomposition(
        self, n_nodes: int, tp_size: int
    ) -> CountDecomposition:
        """One domain per ring; any fault zeroes the ring's contribution."""
        nodes_per_ring = self.nodes_per_tp_group(tp_size)
        per_ring_usable = self._fit(nodes_per_ring * self.gpus_per_node, tp_size)
        n_rings = n_nodes // nodes_per_ring
        domain_of_node = tuple(
            node // nodes_per_ring if node // nodes_per_ring < n_rings else -1
            for node in range(n_nodes)
        )
        ring_table = (per_ring_usable,) + (0,) * nodes_per_ring
        return CountDecomposition(
            domain_of_node=domain_of_node,
            tables=(ring_table,) if n_rings else (),
            table_of_domain=(0,) * n_rings,
        )

    # ------------------------------------------------------------- placement
    def placement_groups(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> tuple[PlacementGroup, ...]:
        """One domain per fault-free ring; a faulty ring hosts nothing."""
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        nodes_per_ring = self.nodes_per_tp_group(tp_size)
        n_rings = n_nodes // nodes_per_ring
        faulty_rings = {
            node // nodes_per_ring
            for node in faulty
            if node // nodes_per_ring < n_rings
        }
        groups = []
        for ring in range(n_rings):
            if ring in faulty_rings:
                continue
            start = ring * nodes_per_ring
            groups.append(
                PlacementGroup(
                    nodes=tuple(range(start, start + nodes_per_ring)),
                    nodes_per_group=nodes_per_ring,
                    tp_size=tp_size,
                )
            )
        return tuple(groups)
