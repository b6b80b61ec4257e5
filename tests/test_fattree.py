"""Tests for the Fat-Tree DCN model."""

import pytest

from repro.dcn.fattree import FatTree, FatTreeConfig


def make(n_nodes=64, p=4, tors_per_domain=4):
    return FatTree(FatTreeConfig(n_nodes=n_nodes, nodes_per_tor=p,
                                 tors_per_domain=tors_per_domain))


class TestFatTreeConfig:
    def test_derived_counts(self):
        config = FatTreeConfig(n_nodes=64, nodes_per_tor=4, tors_per_domain=4)
        assert config.n_tors == 16
        assert config.nodes_per_domain == 16
        assert config.n_domains == 4

    def test_ceiling_division_for_partial_tors(self):
        config = FatTreeConfig(n_nodes=10, nodes_per_tor=4, tors_per_domain=2)
        assert config.n_tors == 3
        assert config.n_domains == 2

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            FatTreeConfig(n_nodes=0)
        with pytest.raises(ValueError):
            FatTreeConfig(n_nodes=4, nodes_per_tor=0)
        with pytest.raises(ValueError):
            FatTreeConfig(n_nodes=4, tors_per_domain=0)


class TestLocality:
    def test_tor_of(self):
        tree = make()
        assert tree.tor_of(0) == 0
        assert tree.tor_of(3) == 0
        assert tree.tor_of(4) == 1
        assert tree.tor_of(63) == 15

    def test_domain_of(self):
        tree = make()
        assert tree.domain_of(0) == 0
        assert tree.domain_of(15) == 0
        assert tree.domain_of(16) == 1

    def test_nodes_in_tor(self):
        tree = make()
        assert tree.nodes_in_tor(2) == [8, 9, 10, 11]

    def test_nodes_in_tor_partial_last(self):
        tree = FatTree(FatTreeConfig(n_nodes=10, nodes_per_tor=4, tors_per_domain=2))
        assert tree.nodes_in_tor(2) == [8, 9]

    def test_nodes_in_domain(self):
        tree = make()
        assert tree.nodes_in_domain(1) == list(range(16, 32))

    def test_same_tor_and_domain_predicates(self):
        tree = make()
        assert tree.same_tor(0, 3)
        assert not tree.same_tor(3, 4)
        assert tree.same_domain(0, 15)
        assert not tree.same_domain(15, 16)

    def test_network_distance_convention(self):
        tree = make()
        assert tree.network_distance(0, 0) == 0
        assert tree.network_distance(0, 1) == 1     # same ToR
        assert tree.network_distance(0, 4) == 3     # same domain, cross ToR
        assert tree.network_distance(0, 20) == 5    # cross domain

    def test_intra_tor_index(self):
        tree = make()
        assert tree.intra_tor_index(0) == 0
        assert tree.intra_tor_index(5) == 1
        assert tree.intra_tor_index(7) == 3

    def test_out_of_range_rejected(self):
        tree = make()
        with pytest.raises(ValueError):
            tree.tor_of(64)
        with pytest.raises(ValueError):
            tree.nodes_in_tor(99)
        with pytest.raises(ValueError):
            tree.nodes_in_domain(99)


class TestGraph:
    """The switch hierarchy that ``tor_of`` and ``domain_of`` define."""

    def test_graph_is_connected(self):
        tree = make()
        assert all(tree.network_distance(a, b) in (0, 1, 3, 5)
                   for a in range(64) for b in range(64))

    def test_graph_contains_all_layers(self):
        tree = make()
        tors = {tree.tor_of(node) for node in range(64)}
        domains = {tree.domain_of(node) for node in range(64)}
        assert tors == set(range(16))
        assert domains == set(range(4))
        # Each ToR hangs off exactly one aggregation domain.
        assert len({(tree.tor_of(node), tree.domain_of(node)) for node in range(64)}) == 16

    def test_graph_path_lengths_reflect_hierarchy(self):
        tree = make()
        for a in range(64):
            for b in range(64):
                if a == b:
                    expected = 0
                elif tree.tor_of(a) == tree.tor_of(b):
                    expected = 1    # via ToR
                elif tree.domain_of(a) == tree.domain_of(b):
                    expected = 3    # via aggregation
                else:
                    expected = 5    # via core
                assert tree.network_distance(a, b) == expected
