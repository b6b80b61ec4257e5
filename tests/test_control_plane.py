"""Tests for the control plane: node fabric manager and cluster manager."""

import pytest

from repro.control.cluster_manager import ClusterManager, RingState
from repro.control.fabric_manager import NodeFabricManager, NodeRole
from repro.core.khop_ring import KHopRingTopology, KHopTopologyConfig
from repro.core.node import Node
from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.faults.convert import convert_trace_8gpu_to_4gpu
from repro.faults.trace import FaultEvent, FaultTrace
from repro.hardware.ocstrx import PathState


def make_manager(node_id=1, n_nodes=16, k=2):
    topology = KHopRingTopology(KHopTopologyConfig(n_nodes=n_nodes, k=k))
    node = Node(node_id=node_id, n_gpus=4, n_bundles=max(2, k))
    return NodeFabricManager(node, topology), node, topology


class TestNodeFabricManager:
    def test_initial_state_unassigned(self):
        manager, _, _ = make_manager()
        assert manager.role is NodeRole.UNASSIGNED
        assert manager.total_reconfigurations == 0

    def test_configure_head(self):
        manager, node, _ = make_manager(node_id=0)
        latency = manager.configure(NodeRole.HEAD, right_peer=1)
        assert 60.0 <= latency <= 80.0
        assert node.bundle(0).state is PathState.LOOPBACK
        assert node.bundle(1).state is PathState.EXTERNAL_1
        assert manager.configuration.right_peer == 1

    def test_configure_middle_uses_backup_path_for_distance_two(self):
        manager, node, _ = make_manager(node_id=4)
        manager.configure(NodeRole.MIDDLE, left_peer=2, right_peer=5)
        assert node.bundle(0).state is PathState.EXTERNAL_2   # distance 2
        assert node.bundle(1).state is PathState.EXTERNAL_1   # distance 1

    def test_configure_tail_and_solo(self):
        manager, node, _ = make_manager(node_id=3)
        manager.configure(NodeRole.TAIL, left_peer=2)
        assert node.bundle(1).state is PathState.LOOPBACK
        manager.configure(NodeRole.SOLO)
        assert node.bundle(0).state is PathState.LOOPBACK
        assert node.bundle(1).state is PathState.LOOPBACK

    def test_release_goes_dark(self):
        manager, node, _ = make_manager(node_id=2)
        manager.configure(NodeRole.SOLO)
        manager.release()
        assert manager.role is NodeRole.UNASSIGNED
        assert node.bundle(0).state is PathState.DARK

    def test_missing_peer_rejected(self):
        manager, _, _ = make_manager()
        with pytest.raises(ValueError):
            manager.configure(NodeRole.MIDDLE, left_peer=0)
        with pytest.raises(ValueError):
            manager.configure(NodeRole.HEAD)

    def test_peer_beyond_k_hops_rejected(self):
        manager, _, _ = make_manager(node_id=0, k=2)
        with pytest.raises(ValueError):
            manager.configure(NodeRole.HEAD, right_peer=5)

    def test_failed_node_refuses_configuration(self):
        manager, node, _ = make_manager()
        node.fail()
        with pytest.raises(RuntimeError):
            manager.configure(NodeRole.SOLO)

    def test_bypass_right_repoints_link(self):
        manager, node, _ = make_manager(node_id=4)
        manager.configure(NodeRole.MIDDLE, left_peer=3, right_peer=5)
        latency = manager.bypass_right(6)  # node 5 failed; reach node 6 instead
        assert latency > 0
        assert manager.configuration.right_peer == 6
        assert node.bundle(1).state is PathState.EXTERNAL_2

    def test_bypass_left_requires_outward_link(self):
        manager, _, _ = make_manager(node_id=0)
        manager.configure(NodeRole.HEAD, right_peer=1)
        with pytest.raises(RuntimeError):
            manager.bypass_left(2)

    def test_reconfiguration_accounting(self):
        manager, _, _ = make_manager(node_id=4)
        manager.configure(NodeRole.MIDDLE, left_peer=3, right_peer=5)
        manager.bypass_right(6)
        assert manager.total_reconfigurations >= 2
        assert manager.total_switch_time_us >= 120.0

    def test_requires_two_bundles(self):
        topology = KHopRingTopology(KHopTopologyConfig(n_nodes=4, k=1))
        node = Node(node_id=0, n_gpus=4, n_bundles=1)
        with pytest.raises(ValueError):
            NodeFabricManager(node, topology)


class TestClusterManagerAllocation:
    def test_allocate_full_cluster(self):
        manager = ClusterManager(n_nodes=16, k=2, gpus_per_node=4)
        rings = manager.allocate_rings(tp_size=16)
        assert len(rings) == 4
        assert all(len(r.node_ids) == 4 for r in rings)
        assert not manager.free_nodes()

    def test_allocate_respects_max_rings(self):
        manager = ClusterManager(n_nodes=16, k=2)
        rings = manager.allocate_rings(tp_size=16, max_rings=2)
        assert len(rings) == 2
        assert len(manager.free_nodes()) == 8

    def test_allocate_skips_faulty_nodes(self):
        manager = ClusterManager(n_nodes=16, k=2)
        manager.handle_fault(0)
        rings = manager.allocate_rings(tp_size=16)
        placed = {n for r in rings for n in r.node_ids}
        assert 0 not in placed

    def test_allocation_programs_fabric_roles(self):
        manager = ClusterManager(n_nodes=8, k=2)
        rings = manager.allocate_rings(tp_size=16)
        ring = rings[0]
        head = manager.fabric_managers[ring.node_ids[0]]
        tail = manager.fabric_managers[ring.node_ids[-1]]
        middle = manager.fabric_managers[ring.node_ids[1]]
        assert head.role is NodeRole.HEAD
        assert tail.role is NodeRole.TAIL
        assert middle.role is NodeRole.MIDDLE

    def test_ring_lookup(self):
        manager = ClusterManager(n_nodes=8, k=2)
        manager.allocate_rings(tp_size=16)
        ring = manager.ring_of(2)
        assert ring is not None
        assert 2 in ring

    def test_release_returns_nodes_to_pool(self):
        manager = ClusterManager(n_nodes=8, k=2)
        rings = manager.allocate_rings(tp_size=16)
        manager.release_ring(rings[0].ring_id)
        assert rings[0].state is RingState.RELEASED
        assert len(manager.free_nodes()) == 4


class TestClusterManagerFaults:
    def test_fault_on_free_node_needs_no_reconfiguration(self):
        manager = ClusterManager(n_nodes=8, k=2)
        assert manager.handle_fault(5) is None
        assert 5 in manager.faulty_nodes

    def test_fault_in_ring_is_bypassed(self):
        manager = ClusterManager(n_nodes=8, k=2)
        rings = manager.allocate_rings(tp_size=32)  # one 8-node ring
        ring = rings[0]
        victim = ring.node_ids[3]
        latency = manager.handle_fault(victim)
        assert latency is not None and latency > 0
        assert ring.state is RingState.DEGRADED
        assert victim not in ring.node_ids
        # the two neighbours now point at each other over backup links
        left, right = ring.node_ids[2], ring.node_ids[3]
        assert manager.fabric_managers[left].configuration.right_peer == right
        assert manager.fabric_managers[right].configuration.left_peer == left

    def test_double_fault_breaks_k2_ring(self):
        manager = ClusterManager(n_nodes=8, k=2)
        rings = manager.allocate_rings(tp_size=32)
        ring = rings[0]
        manager.handle_fault(ring.node_ids[3])
        # the neighbour of the first victim is now 2 hops from its new peer;
        # failing it leaves a 3-hop gap that K=2 cannot bridge
        second_victim = ring.node_ids[3]
        manager.handle_fault(second_victim)
        assert ring.state is RingState.BROKEN

    def test_k3_survives_double_fault(self):
        manager = ClusterManager(n_nodes=8, k=3)
        rings = manager.allocate_rings(tp_size=32)
        ring = rings[0]
        manager.handle_fault(ring.node_ids[3])
        manager.handle_fault(ring.node_ids[3])
        assert ring.state is RingState.DEGRADED

    def test_head_fault_promotes_neighbour(self):
        manager = ClusterManager(n_nodes=8, k=2)
        rings = manager.allocate_rings(tp_size=32)
        ring = rings[0]
        head = ring.node_ids[0]
        manager.handle_fault(head)
        new_head = ring.node_ids[0]
        assert manager.fabric_managers[new_head].role is NodeRole.HEAD

    def test_repair_returns_node_to_pool(self):
        manager = ClusterManager(n_nodes=8, k=2)
        manager.allocate_rings(tp_size=32)
        victim = 3
        manager.handle_fault(victim)
        manager.handle_repair(victim)
        assert victim not in manager.faulty_nodes
        assert victim in manager.free_nodes()

    def test_events_are_logged(self):
        manager = ClusterManager(n_nodes=8, k=2)
        manager.allocate_rings(tp_size=32)
        manager.handle_fault(2)
        kinds = [e.kind for e in manager.events]
        assert "allocate" in kinds
        assert "fault" in kinds
        assert "bypass" in kinds


class TestClusterManagerReplay:
    def test_trace_replay_summary(self):
        trace8 = generate_synthetic_trace(
            SyntheticTraceConfig(n_nodes=40, duration_days=60, seed=21)
        )
        trace4 = convert_trace_8gpu_to_4gpu(trace8, seed=21)
        manager = ClusterManager(n_nodes=64, k=2, gpus_per_node=4)
        summary = manager.replay_trace(trace4, tp_size=32)
        assert summary.fault_events > 0
        assert summary.repair_events > 0
        assert summary.bypass_reconfigurations <= summary.fault_events
        assert 0.0 <= summary.mean_ring_availability <= 1.0
        assert summary.total_switch_time_us > 0.0

    def test_replay_requires_large_enough_trace(self):
        trace8 = generate_synthetic_trace(
            SyntheticTraceConfig(n_nodes=10, duration_days=10, seed=1)
        )
        trace4 = convert_trace_8gpu_to_4gpu(trace8, seed=1)
        manager = ClusterManager(n_nodes=128, k=2)
        with pytest.raises(ValueError):
            manager.replay_trace(trace4, tp_size=32)

    def test_k3_availability_at_least_k2(self):
        trace8 = generate_synthetic_trace(
            SyntheticTraceConfig(n_nodes=40, duration_days=90, seed=5)
        )
        trace4 = convert_trace_8gpu_to_4gpu(trace8, seed=5)
        k2 = ClusterManager(n_nodes=64, k=2).replay_trace(trace4, tp_size=32)
        k3 = ClusterManager(n_nodes=64, k=3).replay_trace(trace4, tp_size=32)
        assert k3.mean_ring_availability >= k2.mean_ring_availability - 1e-9
        assert k3.broken_rings <= k2.broken_rings

    def test_overlapping_rows_replay_as_one_outage(self):
        # Node 0 is down from 10 h to 30 h; the second row lies inside that
        # outage, so it neither fails the node again nor repairs it at 25 h.
        events = [FaultEvent(0, 10.0, 30.0), FaultEvent(0, 20.0, 25.0)]
        trace = FaultTrace(n_nodes=8, duration_days=2, events=events, gpus_per_node=4)
        manager = ClusterManager(n_nodes=8, k=2)
        summary = manager.replay_trace(trace, tp_size=8)
        assert (summary.fault_events, summary.repair_events) == (1, 1)
        assert [e.time_hours for e in manager.events if e.kind == "repair"] == [30.0]
