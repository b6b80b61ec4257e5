"""Tests for the power-of-two AllToAll wiring (Appendix G.3)."""

import pytest

from repro.core.alltoall_topology import AllToAllTopologyConfig, PowerOfTwoTopology


def make(n=64, bundles=4, r=4, ring=True):
    return PowerOfTwoTopology(
        AllToAllTopologyConfig(n_nodes=n, n_bundles=bundles, gpus_per_node=r, ring=ring)
    )


class TestConfig:
    def test_reach_and_product_limits(self):
        config = AllToAllTopologyConfig(n_nodes=64, n_bundles=4, gpus_per_node=4)
        assert config.max_reach == 8
        assert config.max_group_product == 32

    def test_8gpu_node_limit(self):
        config = AllToAllTopologyConfig(n_nodes=512, n_bundles=8, gpus_per_node=8)
        assert config.max_group_product == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            AllToAllTopologyConfig(n_nodes=0)
        with pytest.raises(ValueError):
            AllToAllTopologyConfig(n_nodes=4, n_bundles=0)


class TestLinks:
    def test_link_distances_are_powers_of_two(self):
        assert make(bundles=4).link_distances() == [1, 2, 4, 8]

    def test_neighbors(self):
        topo = make(n=32, bundles=3)
        assert topo.neighbors(0) == sorted({1, 2, 4, 31, 30, 28})

    def test_has_link_power_of_two_only(self):
        topo = make(n=64, bundles=4)
        assert topo.has_link(0, 8)
        assert not topo.has_link(0, 3)
        assert not topo.has_link(0, 16)

    def test_ring_wraps(self):
        topo = make(n=64, bundles=4)
        assert topo.has_link(0, 62)  # distance 2 across the wrap

    def test_line_mode_has_no_wrap(self):
        topo = make(n=16, bundles=3, ring=False)
        assert not topo.has_link(0, 15)
        assert topo.neighbors(15) == [11, 13, 14]

    def test_graph_degree(self):
        topo = make(n=64, bundles=4)
        links = {node: topo.neighbors(node) for node in range(64)}
        assert all(len(peers) == 8 for peers in links.values())
        assert all(node in links[peer] for node, peers in links.items() for peer in peers)
        # The distance-1 links chain every node, so the graph is connected.
        assert all(node + 1 in links[node] for node in range(63))


class TestBinaryExchangeSupport:
    def test_consecutive_group_is_supported(self):
        topo = make(n=64, bundles=4)
        assert topo.supports_binary_exchange(list(range(8)))

    def test_schedule_shape(self):
        topo = make(n=64, bundles=4)
        schedule = topo.binary_exchange_rounds(list(range(8)))
        assert len(schedule) == 3
        assert all(len(pairs) == 4 for pairs in schedule)

    def test_schedule_pairs_use_direct_links(self):
        topo = make(n=64, bundles=4)
        for pairs in topo.binary_exchange_rounds(list(range(16, 24))):
            for a, b in pairs:
                assert topo.has_link(a, b)

    def test_group_exceeding_reach_not_supported(self):
        topo = make(n=64, bundles=3)  # max reach 4
        assert not topo.supports_binary_exchange(list(range(16)))

    def test_non_power_of_two_rejected(self):
        topo = make()
        with pytest.raises(ValueError):
            topo.binary_exchange_rounds([0, 1, 2])

    def test_duplicates_rejected(self):
        topo = make()
        with pytest.raises(ValueError):
            topo.binary_exchange_rounds([0, 1, 1, 2])

    def test_ep_group_with_stride(self):
        topo = make(n=64, bundles=4)
        assert topo.ep_group(start=4, ep_size=4, stride=2) == [4, 6, 8, 10]

    def test_ep_group_line_overflow(self):
        topo = make(n=16, bundles=3, ring=False)
        with pytest.raises(ValueError):
            topo.ep_group(start=14, ep_size=4, stride=1)


class TestTPEPPlanning:
    def test_tp4_ep4_on_4gpu_node(self):
        """The Figure 24 configuration: TP4 within a node, EP4 across 4 nodes."""
        topo = make(n=16, bundles=4, r=4)
        plan = topo.plan_tp_ep(start=0, tp_size=4, ep_size=4)
        assert plan["ep_leads"] == [0, 1, 2, 3]
        assert plan["nodes_per_tp_group"] == 1
        assert len(plan["exchange_schedule"]) == 2
        # Step 1 pairs 0-2 and 1-3; step 2 pairs 0-1 and 2-3 (Figure 24).
        assert set(plan["exchange_schedule"][0]) == {(0, 2), (1, 3)}
        assert set(plan["exchange_schedule"][1]) == {(0, 1), (2, 3)}

    def test_tp_ep_product_limit_enforced(self):
        topo = make(n=256, bundles=4, r=4)
        with pytest.raises(ValueError):
            topo.validate_tp_ep(32, 4)  # 128 GPUs > the 32-GPU wiring limit
        with pytest.raises(ValueError):
            topo.plan_tp_ep(start=0, tp_size=16, ep_size=8)

    def test_8gpu_node_supports_larger_products(self):
        topo = make(n=512, bundles=8, r=8)
        topo.validate_tp_ep(64, 16)  # 1024 <= 8 * 128
        plan = topo.plan_tp_ep(start=0, tp_size=64, ep_size=8)
        assert plan["nodes_per_tp_group"] == 8
        assert len(plan["ep_leads"]) == 8

    def test_ep_must_be_power_of_two(self):
        topo = make()
        with pytest.raises(ValueError):
            topo.validate_tp_ep(4, 3)

    def test_tp_spans_do_not_overlap(self):
        topo = make(n=64, bundles=4, r=4)
        plan = topo.plan_tp_ep(start=8, tp_size=8, ep_size=4)
        all_nodes = [n for span in plan["tp_spans"].values() for n in span]
        assert len(all_nodes) == len(set(all_nodes))
