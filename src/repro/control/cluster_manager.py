"""Cluster manager: global control of rings, faults and reconfiguration.

The cluster manager owns every node's fabric manager and the K-Hop topology.
It provides the three control-plane operations the paper's prototype needs:

* **allocation** -- carve GPU rings of the requested TP size out of the
  healthy segments of the topology and program every member node's OCSTrx
  bundles (head / middle / tail roles);
* **fault handling** -- when a node fails, drive its ring neighbours to their
  backup paths so the ring heals around the failure (node-level fault
  isolation); if the gap exceeds the K-hop reach the ring is marked broken;
* **repair and rebalancing** -- repaired nodes return to the free pool and
  can be folded back in by re-allocating.

A trace replay entry point turns a :class:`~repro.faults.trace.FaultTrace`
into control-plane statistics (reconfigurations, switching time, broken
rings, ring availability) -- the control-plane companion of the section 6.2
capacity simulations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Sequence

from repro.control.fabric_manager import NodeFabricManager, NodeRole
from repro.core.khop_ring import KHopRingTopology, KHopTopologyConfig
from repro.core.node import Node, make_nodes
from repro.faults.trace import FaultTrace, merge_overlapping_events


class RingState(enum.Enum):
    """Lifecycle state of an allocated GPU ring."""

    ACTIVE = "active"          # all member nodes healthy
    DEGRADED = "degraded"      # lost >= 1 node but healed over backup links
    BROKEN = "broken"          # an unbridgeable gap appeared
    RELEASED = "released"      # freed by the cluster manager


@dataclass
class RingAssignment:
    """One GPU ring allocated by the cluster manager."""

    ring_id: int
    tp_size: int
    node_ids: list[int]
    state: RingState = RingState.ACTIVE

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.node_ids


@dataclass
class ControlEvent:
    """An entry of the cluster manager's event log."""

    time_hours: float
    kind: str
    detail: str
    latency_us: float = 0.0


@dataclass
class ReplaySummary:
    """Aggregate statistics of a trace replay."""

    fault_events: int
    repair_events: int
    bypass_reconfigurations: int
    broken_rings: int
    total_switch_time_us: float
    mean_ring_availability: float


class ClusterManager:
    """Global controller for an InfiniteHBD deployment."""

    def __init__(
        self,
        n_nodes: int,
        k: int = 2,
        gpus_per_node: int = 4,
        ring: bool = True,
        modules_per_bundle: int = 8,
    ) -> None:
        self.topology = KHopRingTopology(
            KHopTopologyConfig(n_nodes=n_nodes, k=k, gpus_per_node=gpus_per_node, ring=ring)
        )
        self.nodes: list[Node] = make_nodes(
            n_nodes,
            n_gpus=gpus_per_node,
            n_bundles=max(2, k),
            modules_per_bundle=modules_per_bundle,
        )
        self.fabric_managers: dict[int, NodeFabricManager] = {
            node.node_id: NodeFabricManager(node, self.topology) for node in self.nodes
        }
        self.rings: dict[int, RingAssignment] = {}
        self.events: list[ControlEvent] = []
        self._next_ring_id = 0
        self._node_to_ring: dict[int, int] = {}

    # ------------------------------------------------------------------ state
    @property
    def n_nodes(self) -> int:
        return self.topology.config.n_nodes

    @property
    def gpus_per_node(self) -> int:
        return self.topology.config.gpus_per_node

    @property
    def faulty_nodes(self) -> set[int]:
        return {n.node_id for n in self.nodes if n.failed}

    def free_nodes(self) -> list[int]:
        """Healthy nodes not currently assigned to any ring."""
        return [
            n.node_id
            for n in self.nodes
            if not n.failed and n.node_id not in self._node_to_ring
        ]

    def active_rings(self) -> list[RingAssignment]:
        return [r for r in self.rings.values() if r.state in (RingState.ACTIVE, RingState.DEGRADED)]

    def ring_of(self, node_id: int) -> RingAssignment | None:
        ring_id = self._node_to_ring.get(node_id)
        return self.rings.get(ring_id) if ring_id is not None else None

    def total_switch_time_us(self) -> float:
        return sum(fm.total_switch_time_us for fm in self.fabric_managers.values())

    # -------------------------------------------------------------- allocation
    def nodes_per_ring(self, tp_size: int) -> int:
        return self.topology.nodes_per_tp_group(tp_size)

    def allocate_rings(
        self,
        tp_size: int,
        max_rings: int | None = None,
        time_hours: float = 0.0,
    ) -> list[RingAssignment]:
        """Allocate as many ``tp_size``-GPU rings as possible (or ``max_rings``).

        Rings are packed onto healthy segments of the topology, skipping
        nodes that already belong to a ring.  Every member node's fabric
        manager is programmed; the per-ring reconfiguration latency is the
        max over its members (they switch in parallel).
        """
        nodes_per_ring = self.nodes_per_ring(tp_size)
        unavailable = self.faulty_nodes | set(self._node_to_ring)
        allocated: list[RingAssignment] = []
        for segment in self.topology.healthy_segments(self.faulty_nodes):
            run: list[int] = []
            for node_id in segment.nodes:
                if node_id in unavailable:
                    # An already-assigned node interrupts the free run only if
                    # the next free node is out of K-hop reach; conservatively
                    # restart the run to keep allocations contiguous.
                    run = []
                    continue
                run.append(node_id)
                if len(run) == nodes_per_ring:
                    assignment = self._program_ring(run, tp_size, time_hours)
                    allocated.append(assignment)
                    run = []
                    if max_rings is not None and len(self.active_rings()) >= max_rings:
                        return allocated
        return allocated

    def release_ring(self, ring_id: int, time_hours: float = 0.0) -> None:
        """Free a ring: its healthy members go dark and return to the pool."""
        ring = self.rings[ring_id]
        for node_id in ring.node_ids:
            self._node_to_ring.pop(node_id, None)
            if not self.nodes[node_id].failed:
                self.fabric_managers[node_id].release()
        ring.state = RingState.RELEASED
        self.events.append(
            ControlEvent(time_hours, "release", f"ring {ring_id} released")
        )

    def release_all(self, time_hours: float = 0.0) -> None:
        for ring_id in list(self.rings):
            if self.rings[ring_id].state is not RingState.RELEASED:
                self.release_ring(ring_id, time_hours)

    # ------------------------------------------------------------ fault plane
    def handle_fault(self, node_id: int, time_hours: float = 0.0) -> float | None:
        """Process a node failure.

        Returns the bypass reconfiguration latency in microseconds when the
        node belonged to a ring that could be healed, ``None`` otherwise
        (free node, or the ring broke).
        """
        node = self.nodes[node_id]
        if node.failed:
            return None
        node.fail()
        self.events.append(ControlEvent(time_hours, "fault", f"node {node_id} failed"))

        ring = self.ring_of(node_id)
        if ring is None or ring.state is RingState.RELEASED:
            return None
        if ring.state is RingState.BROKEN:
            # A broken ring is already unusable; just account the lost node.
            self._node_to_ring.pop(node_id, None)
            if node_id in ring.node_ids:
                ring.node_ids.remove(node_id)
            return None
        return self._heal_ring(ring, node_id, time_hours)

    def handle_repair(self, node_id: int, time_hours: float = 0.0) -> None:
        """Process a node repair: the node returns to the free pool."""
        node = self.nodes[node_id]
        if not node.failed:
            return
        node.repair()
        self._node_to_ring.pop(node_id, None)
        self.events.append(ControlEvent(time_hours, "repair", f"node {node_id} repaired"))

    # ------------------------------------------------------------ trace replay
    def replay_trace(self, trace: FaultTrace, tp_size: int) -> ReplaySummary:
        """Replay a fault trace against an initial full allocation.

        A node's overlapping or touching rows are one outage, as in the
        trace's interval timeline: the node fails once and is repaired when
        the last of them ends.
        """
        if trace.n_nodes < self.n_nodes:
            raise ValueError("trace covers fewer nodes than the cluster")
        self.allocate_rings(tp_size)
        total_rings = max(1, len(self.active_rings()))

        changes: list[tuple[float, str, int]] = []
        for event in merge_overlapping_events(trace.events):
            if event.node_id >= self.n_nodes:
                continue
            changes.append((event.start_hour, "fault", event.node_id))
            changes.append((event.end_hour, "repair", event.node_id))
        changes.sort(key=lambda c: c[0])

        faults = repairs = bypasses = 0
        availability_samples: list[float] = []
        for time_hours, kind, node_id in changes:
            if kind == "fault":
                faults += 1
                latency = self.handle_fault(node_id, time_hours)
                if latency is not None:
                    bypasses += 1
            else:
                repairs += 1
                self.handle_repair(node_id, time_hours)
            healthy_rings = sum(
                1 for r in self.rings.values()
                if r.state in (RingState.ACTIVE, RingState.DEGRADED)
            )
            availability_samples.append(healthy_rings / total_rings)

        broken = sum(1 for r in self.rings.values() if r.state is RingState.BROKEN)
        mean_availability = (
            sum(availability_samples) / len(availability_samples)
            if availability_samples
            else 1.0
        )
        return ReplaySummary(
            fault_events=faults,
            repair_events=repairs,
            bypass_reconfigurations=bypasses,
            broken_rings=broken,
            total_switch_time_us=self.total_switch_time_us(),
            mean_ring_availability=mean_availability,
        )

    # -------------------------------------------------------------- internals
    def _program_ring(
        self, node_ids: Sequence[int], tp_size: int, time_hours: float
    ) -> RingAssignment:
        latencies: list[float] = []
        for position, node_id in enumerate(node_ids):
            manager = self.fabric_managers[node_id]
            is_head = position == 0
            is_tail = position == len(node_ids) - 1
            if is_head and is_tail:
                latencies.append(manager.configure(NodeRole.SOLO))
            elif is_head:
                latencies.append(
                    manager.configure(NodeRole.HEAD, right_peer=node_ids[position + 1])
                )
            elif is_tail:
                latencies.append(
                    manager.configure(NodeRole.TAIL, left_peer=node_ids[position - 1])
                )
            else:
                latencies.append(
                    manager.configure(
                        NodeRole.MIDDLE,
                        left_peer=node_ids[position - 1],
                        right_peer=node_ids[position + 1],
                    )
                )
        ring = RingAssignment(
            ring_id=self._next_ring_id,
            tp_size=tp_size,
            node_ids=list(node_ids),
            state=RingState.ACTIVE,
        )
        self.rings[ring.ring_id] = ring
        self._next_ring_id += 1
        for node_id in node_ids:
            self._node_to_ring[node_id] = ring.ring_id
        self.events.append(
            ControlEvent(
                time_hours,
                "allocate",
                f"ring {ring.ring_id} over nodes {list(node_ids)}",
                latency_us=max(latencies) if latencies else 0.0,
            )
        )
        return ring

    def _heal_ring(
        self, ring: RingAssignment, failed_node: int, time_hours: float
    ) -> float | None:
        """Bypass ``failed_node`` inside ``ring`` if the K-hop reach allows it."""
        index = ring.node_ids.index(failed_node)
        left_index = index - 1
        right_index = index + 1
        self._node_to_ring.pop(failed_node, None)
        remaining = [n for n in ring.node_ids if n != failed_node]

        if len(remaining) == 0:
            ring.state = RingState.BROKEN
            ring.node_ids = []
            self.events.append(
                ControlEvent(time_hours, "break", f"ring {ring.ring_id} lost its last node")
            )
            return None

        latencies: list[float] = []
        if 0 <= left_index and right_index < len(ring.node_ids):
            left_node = ring.node_ids[left_index]
            right_node = ring.node_ids[right_index]
            if not self.topology.has_link(left_node, right_node):
                ring.state = RingState.BROKEN
                ring.node_ids = remaining
                self.events.append(
                    ControlEvent(
                        time_hours,
                        "break",
                        f"ring {ring.ring_id}: nodes {left_node} and {right_node} "
                        f"are beyond K hops after node {failed_node} failed",
                    )
                )
                return None
            latencies.append(self.fabric_managers[left_node].bypass_right(right_node))
            latencies.append(self.fabric_managers[right_node].bypass_left(left_node))
        else:
            # The failed node was the head or tail: its single neighbour
            # becomes the new endpoint (loopback on the outward side).
            neighbour_index = right_index if left_index < 0 else left_index
            neighbour = ring.node_ids[neighbour_index]
            manager = self.fabric_managers[neighbour]
            if len(remaining) == 1:
                latencies.append(manager.configure(NodeRole.SOLO))
            elif left_index < 0:
                latencies.append(
                    manager.configure(
                        NodeRole.HEAD,
                        right_peer=manager.configuration.right_peer,
                    )
                )
            else:
                latencies.append(
                    manager.configure(
                        NodeRole.TAIL,
                        left_peer=manager.configuration.left_peer,
                    )
                )

        ring.node_ids = remaining
        ring.state = RingState.DEGRADED
        latency = max(latencies) if latencies else 0.0
        self.events.append(
            ControlEvent(
                time_hours,
                "bypass",
                f"ring {ring.ring_id} healed around node {failed_node}",
                latency_us=latency,
            )
        )
        return latency
