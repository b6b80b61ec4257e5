"""Tests for the K-Hop Ring / Line topology."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.khop_ring import KHopRingTopology, KHopTopologyConfig


def make(n=32, k=2, r=4, ring=True):
    return KHopRingTopology(KHopTopologyConfig(n_nodes=n, k=k, gpus_per_node=r, ring=ring))


def healthy_links(topo, faulty=frozenset()):
    """Adjacency of the healthy nodes over the topology's links."""
    return {
        node: [peer for peer in topo.neighbors(node) if peer not in faulty]
        for node in range(topo.config.n_nodes)
        if node not in faulty
    }


def is_connected(adjacency):
    """Whether a breadth-first search from one node reaches every node."""
    start = next(iter(adjacency))
    seen = {start}
    frontier = [start]
    while frontier:
        frontier = [peer for node in frontier for peer in adjacency[node] if peer not in seen]
        seen.update(frontier)
    return len(seen) == len(adjacency)


class TestConfig:
    def test_total_gpus(self):
        assert KHopTopologyConfig(n_nodes=10, gpus_per_node=4).total_gpus == 40

    def test_degree_is_2k(self):
        assert KHopTopologyConfig(n_nodes=100, k=3).degree == 6

    def test_degree_capped_by_size(self):
        assert KHopTopologyConfig(n_nodes=3, k=5).degree == 2

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            KHopTopologyConfig(n_nodes=0)
        with pytest.raises(ValueError):
            KHopTopologyConfig(n_nodes=4, k=0)
        with pytest.raises(ValueError):
            KHopTopologyConfig(n_nodes=4, gpus_per_node=0)


class TestNeighbors:
    def test_ring_neighbors_k2(self):
        topo = make(n=10, k=2)
        assert topo.neighbors(0) == [1, 2, 8, 9]
        assert topo.neighbors(5) == [3, 4, 6, 7]

    def test_line_neighbors_at_edge(self):
        topo = make(n=10, k=2, ring=False)
        assert topo.neighbors(0) == [1, 2]
        assert topo.neighbors(9) == [7, 8]

    def test_has_link_within_k(self):
        topo = make(n=20, k=3)
        assert topo.has_link(0, 3)
        assert not topo.has_link(0, 4)
        assert topo.has_link(0, 17)  # wrap-around at distance 3

    def test_no_self_link(self):
        assert not make().has_link(5, 5)

    def test_hop_distance_ring_wraps(self):
        topo = make(n=10, k=2)
        assert topo.hop_distance(0, 9) == 1
        assert topo.hop_distance(0, 5) == 5

    def test_hop_distance_line(self):
        topo = make(n=10, k=2, ring=False)
        assert topo.hop_distance(0, 9) == 9

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            make(n=10).neighbors(10)


class TestGraph:
    """Connectivity of the node graph that ``neighbors()`` defines."""

    def test_graph_degree_matches_2k(self):
        links = healthy_links(make(n=20, k=2))
        assert all(len(peers) == 4 for peers in links.values())
        assert all(node in links[peer] for node, peers in links.items() for peer in peers)

    def test_graph_removes_faulty_nodes(self):
        links = healthy_links(make(n=20, k=2), faulty={3, 4})
        assert 3 not in links and 4 not in links
        assert len(links) == 18
        assert all(3 not in peers and 4 not in peers for peers in links.values())

    def test_graph_connected_without_faults(self):
        assert is_connected(healthy_links(make(n=30, k=2)))

    def test_graph_stays_connected_bypassing_single_fault(self):
        assert is_connected(healthy_links(make(n=30, k=2), faulty={7}))

    def test_graph_disconnects_on_k_consecutive_faults_line(self):
        topo = make(n=30, k=2, ring=False)
        assert not is_connected(healthy_links(topo, faulty={10, 11}))
        assert is_connected(healthy_links(topo, faulty={10}))


class TestHealthySegments:
    def test_no_faults_single_ring_segment(self):
        topo = make(n=16, k=2)
        segments = topo.healthy_segments(set())
        assert len(segments) == 1
        assert segments[0].is_ring
        assert len(segments[0]) == 16

    def test_single_fault_is_bypassed(self):
        topo = make(n=16, k=2)
        segments = topo.healthy_segments({5})
        assert len(segments) == 1
        assert len(segments[0]) == 15

    def test_k_minus_one_consecutive_faults_bypassed(self):
        topo = make(n=32, k=3)
        segments = topo.healthy_segments({10, 11})
        assert len(segments) == 1
        assert len(segments[0]) == 30

    def test_k_consecutive_faults_break_segment(self):
        topo = make(n=32, k=2, ring=False)
        segments = topo.healthy_segments({10, 11})
        assert len(segments) == 2
        sizes = sorted(len(s) for s in segments)
        assert sizes == [10, 20]

    def test_ring_merges_across_wrap(self):
        topo = make(n=32, k=2)
        # Break the ring in the middle only; the wrap point stays intact so
        # the two halves merge into a single line segment across index 0.
        segments = topo.healthy_segments({10, 11})
        assert len(segments) == 1
        assert len(segments[0]) == 30

    def test_ring_two_breakpoints_two_segments(self):
        topo = make(n=32, k=2)
        segments = topo.healthy_segments({10, 11, 20, 21})
        assert len(segments) == 2

    def test_all_nodes_faulty(self):
        topo = make(n=8, k=2)
        assert topo.healthy_segments(set(range(8))) == []

    def test_segments_preserve_order(self):
        topo = make(n=12, k=2, ring=False)
        segments = topo.healthy_segments({4})
        nodes = [n for s in segments for n in s.nodes]
        assert nodes == sorted(nodes)


class TestBreakpoints:
    def test_no_breakpoints_without_faults(self):
        assert make(n=20, k=2).breakpoints(set()) == 0

    def test_single_fault_no_breakpoint(self):
        assert make(n=20, k=2).breakpoints({5}) == 0

    def test_two_consecutive_faults_is_breakpoint_for_k2(self):
        assert make(n=20, k=2).breakpoints({5, 6}) == 1

    def test_two_consecutive_faults_not_breakpoint_for_k3(self):
        assert make(n=20, k=3).breakpoints({5, 6}) == 0

    def test_line_end_run_is_not_breakpoint(self):
        topo = make(n=20, k=2, ring=False)
        assert topo.breakpoints({0, 1, 2}) == 0

    def test_ring_wrap_run_is_breakpoint(self):
        topo = make(n=20, k=2)
        assert topo.breakpoints({19, 0}) == 1


class TestCapacity:
    def test_usable_gpus_no_faults(self):
        topo = make(n=16, k=2, r=4)
        assert topo.usable_gpus(set(), tp_size=32) == 64

    def test_usable_gpus_with_fragmentation(self):
        topo = make(n=10, k=2, r=4)
        # 10 nodes = 40 GPUs, TP-32 needs 8 nodes -> one group, 2 nodes wasted
        assert topo.usable_gpus(set(), tp_size=32) == 32
        assert topo.wasted_gpus(set(), tp_size=32) == 8

    def test_waste_ratio_definition(self):
        topo = make(n=10, k=2, r=4)
        assert topo.waste_ratio(set(), tp_size=32) == pytest.approx(8 / 40)

    def test_single_fault_waste_small(self):
        topo = make(n=720, k=3, r=4)
        waste = topo.waste_ratio({100}, tp_size=32)
        # one missing node leaves 719 healthy; 719 // 8 * 8 = 712 usable
        assert waste == pytest.approx((719 - 712) * 4 / 2880)

    def test_nodes_per_tp_group(self):
        topo = make(r=4)
        assert topo.nodes_per_tp_group(32) == 8
        assert topo.nodes_per_tp_group(8) == 2
        assert topo.nodes_per_tp_group(2) == 1

    def test_wasted_plus_usable_equals_healthy(self):
        topo = make(n=100, k=2, r=4)
        faulty = {3, 4, 50, 80}
        usable = topo.usable_gpus(faulty, 16)
        wasted = topo.wasted_gpus(faulty, 16)
        assert usable + wasted == (100 - 4) * 4

    def test_k3_never_wastes_more_than_k2(self):
        faulty = {5, 6, 30, 31, 60}
        k2 = make(n=128, k=2, r=4)
        k3 = make(n=128, k=3, r=4)
        assert k3.wasted_gpus(faulty, 32) <= k2.wasted_gpus(faulty, 32)


def fault_runs(n):
    """Fault ids in [-2, n + 2): runs of up to 6 consecutive nodes, some of
    them wrapping from node n - 1 to node 0, plus out-of-range ids."""
    runs = st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 1), st.integers(min_value=1, max_value=6))
    )
    stray = st.sets(st.sampled_from([-2, -1, n, n + 1]))
    return st.builds(
        lambda drawn, extra: {(start + i) % n for start, length in drawn for i in range(length)}
        | extra,
        runs,
        stray,
    )


class TestCapacityMatchesSegments:
    """The fault-run arithmetic answers to the ``healthy_segments`` walk."""

    @given(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda n: st.tuples(st.just(n), fault_runs(n))
        ),
        st.integers(min_value=1, max_value=5),
        st.booleans(),
        st.sampled_from([1, 2, 3, 4, 5, 8, 12, 16, 32, 64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_usable_gpus_and_breakpoints_match_segments(self, n_and_faults, k, ring, tp):
        n, faults = n_and_faults
        topo = make(n=n, k=k, ring=ring)
        segments = topo.healthy_segments(faults)
        per_group = topo.nodes_per_tp_group(tp)
        assert topo.usable_gpus(faults, tp) == sum(len(s) // per_group for s in segments) * tp

        healthy = n - len({f for f in faults if 0 <= f < n})
        if not ring:
            expected = max(len(segments) - 1, 0)
        elif healthy <= 1 or (len(segments) == 1 and segments[0].is_ring):
            expected = 0
        else:
            expected = len(segments)
        assert topo.breakpoints(faults) == expected
