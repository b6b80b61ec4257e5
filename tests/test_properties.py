"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import assume, given, settings, strategies as st

from repro.collectives.alltoall import binary_exchange_alltoall, pairwise_exchange_alltoall
from repro.collectives.cost_model import LinkSpec
from repro.collectives.ring_allreduce import ring_allreduce_utilization
from repro.core.khop_ring import KHopRingTopology, KHopTopologyConfig
from repro.core.orchestrator import deployment_strategy, orchestrate_dcn_free
from repro.dcn.fattree import FatTree, FatTreeConfig
from repro.faults.convert import node_fault_probability, per_gpu_fault_probability
from repro.hbd import (
    BigSwitchHBD,
    InfiniteHBDArchitecture,
    NVLHBD,
    SiPRingHBD,
    TPUv4HBD,
)
from repro.training.comm import tp_allreduce_volume_per_layer


# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------
topology_params = st.tuples(
    st.integers(min_value=4, max_value=120),   # n_nodes
    st.integers(min_value=1, max_value=4),     # k
    st.sampled_from([4, 8]),                   # gpus per node
    st.booleans(),                             # ring or line
)

fault_sets = st.sets(st.integers(min_value=0, max_value=119), max_size=40)

# Runs of consecutive faulty nodes, so that cuts of >= K faults are common.
fault_runs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=119), st.integers(min_value=1, max_value=8)),
    max_size=10,
).map(lambda runs: {node for start, length in runs for node in range(start, start + length)})

tp_sizes = st.sampled_from([4, 8, 16, 32, 64])


class TestKHopInvariants:
    @given(topology_params, fault_sets, tp_sizes)
    @settings(max_examples=80, deadline=None)
    def test_usable_plus_wasted_equals_healthy(self, params, faults, tp):
        n, k, r, ring = params
        topo = KHopRingTopology(KHopTopologyConfig(n, k, r, ring))
        faults = {f for f in faults if f < n}
        usable = topo.usable_gpus(faults, tp)
        wasted = topo.wasted_gpus(faults, tp)
        healthy = (n - len(faults)) * r
        assert usable + wasted == healthy
        assert usable % tp == 0
        assert 0 <= usable <= healthy

    @given(topology_params, fault_sets)
    @settings(max_examples=60, deadline=None)
    def test_segments_partition_healthy_nodes(self, params, faults):
        n, k, r, ring = params
        topo = KHopRingTopology(KHopTopologyConfig(n, k, r, ring))
        faults = {f for f in faults if f < n}
        segments = topo.healthy_segments(faults)
        seen = [node for seg in segments for node in seg.nodes]
        assert sorted(seen) == sorted(set(range(n)) - faults)
        assert len(seen) == len(set(seen))

    @given(topology_params, fault_sets, tp_sizes)
    @settings(max_examples=60, deadline=None)
    def test_larger_k_never_wastes_more(self, params, faults, tp):
        n, k, r, ring = params
        assume(k < 4)
        faults = {f for f in faults if f < n}
        small = KHopRingTopology(KHopTopologyConfig(n, k, r, ring))
        large = KHopRingTopology(KHopTopologyConfig(n, k + 1, r, ring))
        assert large.usable_gpus(faults, tp) >= small.usable_gpus(faults, tp)

    @given(topology_params, fault_sets)
    @settings(max_examples=60, deadline=None)
    def test_adjacent_segment_nodes_within_k_hops(self, params, faults):
        n, k, r, ring = params
        topo = KHopRingTopology(KHopTopologyConfig(n, k, r, ring))
        faults = {f for f in faults if f < n}
        for segment in topo.healthy_segments(faults):
            for a, b in zip(segment.nodes, segment.nodes[1:]):
                assert topo.hop_distance(a, b) <= k

    @staticmethod
    def _relabel_invariants(topo, faults, tp):
        sizes = sorted(len(segment) for segment in topo.healthy_segments(faults))
        return topo.usable_gpus(faults, tp), topo.breakpoints(faults), sizes

    @given(topology_params, fault_runs, tp_sizes)
    @settings(max_examples=60, deadline=None)
    def test_ring_rotation_keeps_capacity(self, params, faults, tp):
        n, k, r, _ = params
        topo = KHopRingTopology(KHopTopologyConfig(n, k, r, ring=True))
        faults = {f for f in faults if f < n}
        expected = self._relabel_invariants(topo, faults, tp)
        for shift in range(1, n):
            rotated = {(f + shift) % n for f in faults}
            assert self._relabel_invariants(topo, rotated, tp) == expected, shift

    @given(topology_params, fault_runs, tp_sizes)
    @settings(max_examples=80, deadline=None)
    def test_mirror_keeps_capacity(self, params, faults, tp):
        n, k, r, ring = params
        topo = KHopRingTopology(KHopTopologyConfig(n, k, r, ring))
        faults = {f for f in faults if f < n}
        mirrored = {n - 1 - f for f in faults}
        assert self._relabel_invariants(topo, mirrored, tp) == self._relabel_invariants(
            topo, faults, tp
        )


class TestArchitectureInvariants:
    architectures = st.sampled_from(
        [
            InfiniteHBDArchitecture(k=2, gpus_per_node=4),
            InfiniteHBDArchitecture(k=3, gpus_per_node=4),
            BigSwitchHBD(gpus_per_node=4),
            TPUv4HBD(gpus_per_node=4),
            NVLHBD(36, gpus_per_node=4),
            NVLHBD(72, gpus_per_node=4),
            SiPRingHBD(gpus_per_node=4),
        ]
    )

    @given(architectures, st.sets(st.integers(0, 287), max_size=60), tp_sizes)
    @settings(max_examples=100, deadline=None)
    def test_breakdown_invariants(self, arch, faults, tp):
        breakdown = arch.breakdown(288, faults, tp)
        assert breakdown.usable_gpus % tp == 0
        assert 0 <= breakdown.usable_gpus <= breakdown.healthy_gpus
        assert 0.0 <= breakdown.waste_ratio <= 1.0
        assert breakdown.faulty_gpus == len({f for f in faults if f < 288}) * 4

    @given(architectures, st.sets(st.integers(0, 287), max_size=40), tp_sizes)
    @settings(max_examples=60, deadline=None)
    def test_big_switch_upper_bounds_everyone(self, arch, faults, tp):
        ideal = BigSwitchHBD(gpus_per_node=4)
        assert arch.usable_gpus(288, faults, tp) <= ideal.usable_gpus(288, faults, tp)

    @given(st.sets(st.integers(0, 287), max_size=30), tp_sizes)
    @settings(max_examples=60, deadline=None)
    def test_more_faults_never_increase_usable(self, faults, tp):
        arch = InfiniteHBDArchitecture(k=2, gpus_per_node=4)
        base = arch.usable_gpus(288, faults, tp)
        more = set(faults) | {0, 143, 287}
        assert arch.usable_gpus(288, more, tp) <= base


class TestCollectiveProperties:
    @given(st.integers(0, 5), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_binary_exchange_is_a_transpose(self, log_p, payload):
        p = 2 ** log_p
        blocks = [[(src * payload, dst) for dst in range(p)] for src in range(p)]
        result = binary_exchange_alltoall(blocks)
        for i in range(p):
            for j in range(p):
                assert result[i][j] == blocks[j][i]

    @given(st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_pairwise_equals_binary_exchange(self, log_p):
        p = 2 ** log_p
        blocks = [[f"{s}.{d}" for d in range(p)] for s in range(p)]
        assert pairwise_exchange_alltoall(blocks) == binary_exchange_alltoall(blocks)

    @given(
        st.integers(min_value=2, max_value=128),
        st.floats(min_value=1e6, max_value=1e10),
        st.floats(min_value=10.0, max_value=6400.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_utilization_bounded(self, n, message, bandwidth):
        link = LinkSpec(bandwidth_gbps=bandwidth, latency_us=2.0, protocol_efficiency=0.9)
        util = ring_allreduce_utilization(n, message, link)
        assert 0.0 <= util <= link.protocol_efficiency + 1e-9


class TestOrchestrationProperties:
    @given(
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_deployment_is_a_permutation(self, tors, k, p):
        n = tors * p
        plan = deployment_strategy(n, k, p)
        assert sorted(plan.order) == list(range(n))

    @given(
        st.integers(min_value=8, max_value=64),
        st.sets(st.integers(0, 63), max_size=20),
        st.sampled_from([2, 4, 8]),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_dcn_free_placement_invariants(self, n, faults, m, k):
        faults = {f for f in faults if f < n}
        groups = orchestrate_dcn_free(list(range(n)), k, faults, m)
        placed = [node for g in groups for node in g.nodes]
        assert len(placed) == len(set(placed))
        assert set(placed).isdisjoint(faults)
        assert all(len(g) == m for g in groups)
        # groups are ordered runs: consecutive nodes within a group are at
        # most k apart in the original sequence
        for g in groups:
            for a, b in zip(g.nodes, g.nodes[1:]):
                assert 0 < b - a <= k


class TestProbabilityProperties:
    @given(st.floats(min_value=0.0, max_value=0.5), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_fault_probability_roundtrip(self, ratio, r):
        p = per_gpu_fault_probability(ratio, r)
        assert abs(node_fault_probability(p, r) - ratio) < 1e-9

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8192),
        st.integers(min_value=64, max_value=65536),
        st.integers(min_value=2, max_value=128),
    )
    @settings(max_examples=60, deadline=None)
    def test_tp_volume_monotone_in_group_size(self, b, s, h, n):
        smaller = tp_allreduce_volume_per_layer(b, s, h, n)
        larger = tp_allreduce_volume_per_layer(b, s, h, n * 2)
        assert larger >= smaller


class TestFatTreeProperties:
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_node_has_consistent_hierarchy(self, n, p, tors_per_domain):
        tree = FatTree(FatTreeConfig(n_nodes=n, nodes_per_tor=p,
                                     tors_per_domain=tors_per_domain))
        for node in range(n):
            tor = tree.tor_of(node)
            assert node in tree.nodes_in_tor(tor)
            domain = tree.domain_of(node)
            assert node in tree.nodes_in_domain(domain)
            assert 0 <= tree.intra_tor_index(node) < p
