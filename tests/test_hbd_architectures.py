"""Tests for the HBD architecture models (InfiniteHBD + all baselines)."""

import pytest

from repro.hbd import (
    BigSwitchHBD,
    InfiniteHBDArchitecture,
    NVLHBD,
    SiPRingHBD,
    TPUv4HBD,
    default_architectures,
)
from repro.hbd.base import WasteBreakdown
from repro.hbd.registry import REGISTRY


class TestWasteBreakdown:
    def test_accounting_identities(self):
        b = WasteBreakdown(total_gpus=100, faulty_gpus=8, usable_gpus=80)
        assert b.healthy_gpus == 92
        assert b.wasted_gpus == 12
        assert b.waste_ratio == pytest.approx(0.12)
        assert b.unavailable_ratio == pytest.approx(0.20)

    def test_zero_cluster(self):
        b = WasteBreakdown(total_gpus=0, faulty_gpus=0, usable_gpus=0)
        assert b.waste_ratio == 0.0
        assert b.unavailable_ratio == 0.0


class TestBigSwitch:
    def test_no_faults_only_global_remainder(self):
        arch = BigSwitchHBD(gpus_per_node=4)
        assert arch.usable_gpus(720, set(), 32) == 2880
        assert arch.usable_gpus(721, set(), 32) == 2880

    def test_faults_only_remove_faulty_gpus(self):
        arch = BigSwitchHBD(gpus_per_node=4)
        breakdown = arch.breakdown(720, {1, 2, 3}, 32)
        assert breakdown.faulty_gpus == 12
        assert breakdown.wasted_gpus <= 31

    def test_waste_bounded_by_tp_size(self):
        arch = BigSwitchHBD(gpus_per_node=4)
        for n_fault in range(0, 30):
            waste = arch.breakdown(720, set(range(n_fault)), 64).wasted_gpus
            assert waste < 64


class TestNVL:
    def test_fragmentation_matches_paper_formula(self):
        """NVL-36 with TP-16 wastes (36 mod 16)/36 = 11.1% (paper section 2.1)."""
        arch = NVLHBD(36, gpus_per_node=4)
        assert arch.waste_ratio(9, set(), 16) == pytest.approx(4 / 36)

    def test_nvl72_tp32_fragmentation(self):
        arch = NVLHBD(72, gpus_per_node=4)
        assert arch.waste_ratio(18, set(), 32) == pytest.approx(8 / 72)

    def test_per_unit_independent_fragmentation(self):
        arch = NVLHBD(36, gpus_per_node=4)
        # two units of 9 nodes each; a single fault in unit 0
        breakdown = arch.breakdown(18, {0}, 16)
        # unit 0: 32 healthy -> 32 usable; unit 1: 36 -> 32 usable
        assert breakdown.usable_gpus == 64

    def test_tp_larger_than_unit_unusable(self):
        arch = NVLHBD(36, gpus_per_node=4)
        assert arch.usable_gpus(18, set(), 64) == 0

    def test_paper_example_two_hbd_32(self):
        """Section 1: two 32-GPU HBDs with one failure each waste 30 GPUs for TP-16."""
        arch = NVLHBD(32, gpus_per_node=4)
        breakdown = arch.breakdown(16, {0, 8}, 16)
        # each unit: 28 healthy -> 16 usable, 12 wasted
        assert breakdown.wasted_gpus == 24
        combined = NVLHBD(64, gpus_per_node=4)
        combined_breakdown = combined.breakdown(16, {0, 8}, 16)
        # combined unit: 56 healthy -> 48 usable, 8 wasted
        assert combined_breakdown.wasted_gpus == 8

    def test_leftover_partial_unit_used(self):
        arch = NVLHBD(72, gpus_per_node=4)
        # 20 nodes = one full 18-node unit + 2 leftover nodes (8 GPUs)
        assert arch.usable_gpus(20, set(), 8) == 80

    def test_rejects_bad_hbd_size(self):
        with pytest.raises(ValueError):
            NVLHBD(3, gpus_per_node=4)
        with pytest.raises(ValueError):
            NVLHBD(38, gpus_per_node=4)

    def test_name(self):
        assert NVLHBD(576, 4).name == "NVL-576"


class TestTPUv4:
    def test_no_faults_no_waste_for_power_of_two_tp(self):
        arch = TPUv4HBD(gpus_per_node=4)
        assert arch.waste_ratio(64, set(), 32) == 0.0

    def test_single_fault_wastes_within_cube(self):
        arch = TPUv4HBD(gpus_per_node=4)
        # 4 cubes of 16 nodes; one fault in cube 0
        breakdown = arch.breakdown(64, {0}, 32)
        # cube 0: 60 healthy -> 32 usable (28 wasted); others full
        assert breakdown.usable_gpus == 32 + 3 * 64
        assert breakdown.wasted_gpus == 28

    def test_large_tp_kills_whole_faulty_cube(self):
        arch = TPUv4HBD(gpus_per_node=4)
        breakdown = arch.breakdown(64, {0}, 64)
        assert breakdown.usable_gpus == 3 * 64
        assert breakdown.wasted_gpus == 60

    def test_tp_spanning_cubes_uses_healthy_cubes_only(self):
        arch = TPUv4HBD(gpus_per_node=4)
        assert arch.usable_gpus(64, set(), 128) == 256
        assert arch.usable_gpus(64, {0}, 128) == 128

    def test_small_tp_less_affected(self):
        arch = TPUv4HBD(gpus_per_node=4)
        assert arch.breakdown(64, {0}, 8).wasted_gpus == 4

    def test_cube_counts(self):
        arch = TPUv4HBD(gpus_per_node=4)
        assert arch.nodes_per_cube == 16
        assert arch.n_cubes(720) == 45


class TestSiPRing:
    def test_no_faults_no_waste(self):
        arch = SiPRingHBD(gpus_per_node=4)
        assert arch.waste_ratio(720, set(), 32) == 0.0

    def test_single_fault_kills_whole_ring(self):
        arch = SiPRingHBD(gpus_per_node=4)
        breakdown = arch.breakdown(720, {0}, 32)
        # the 8-node ring containing node 0 is lost entirely
        assert breakdown.usable_gpus == 2880 - 32
        assert breakdown.wasted_gpus == 28

    def test_two_faults_same_ring_waste_less(self):
        arch = SiPRingHBD(gpus_per_node=4)
        same_ring = arch.breakdown(720, {0, 1}, 32)
        different_rings = arch.breakdown(720, {0, 8}, 32)
        assert same_ring.wasted_gpus == 24
        assert different_rings.wasted_gpus == 56

    def test_waste_scales_with_tp_size(self):
        arch = SiPRingHBD(gpus_per_node=4)
        assert (
            arch.breakdown(720, {0}, 64).wasted_gpus
            > arch.breakdown(720, {0}, 8).wasted_gpus
        )


class TestInfiniteHBD:
    def test_k3_matches_big_switch_under_scattered_faults(self):
        """InfiniteHBD (K=3) tracks the Big-Switch ideal (section 6.2)."""
        infinite = InfiniteHBDArchitecture(k=3, gpus_per_node=4)
        ideal = BigSwitchHBD(gpus_per_node=4)
        faulty = {10, 50, 100, 200, 300, 500, 640}
        assert infinite.usable_gpus(720, faulty, 32) == ideal.usable_gpus(720, faulty, 32)

    def test_k2_breaks_on_double_fault(self):
        """Two consecutive faults are a breakpoint for K=2 but not for K=3."""
        k2 = InfiniteHBDArchitecture(k=2, gpus_per_node=4)
        k3 = InfiniteHBDArchitecture(k=3, gpus_per_node=4)
        # A 16-node ring cut by two double-fault gaps cannot host any TP-32
        # group with K=2 (two 6-node fragments), while K=3 bridges both gaps
        # and still forms one group.
        faulty = {3, 4, 11, 12}
        assert k2.usable_gpus(16, faulty, 32) == 0
        assert k3.usable_gpus(16, faulty, 32) == 32
        # Adding the second fault never increases the usable GPU count.
        assert k2.usable_gpus(720, {100, 101}, 32) <= k2.usable_gpus(720, {100}, 32)

    def test_breakpoints_exposed(self):
        arch = InfiniteHBDArchitecture(k=2, gpus_per_node=4)
        assert arch.breakpoints(720, {100, 101}) == 1
        assert arch.breakpoints(720, {100, 102}) == 0

    def test_waste_far_below_nvl_under_faults(self):
        """Headline comparison: InfiniteHBD >= 10x lower waste than NVL-72."""
        faulty = {7, 33, 121, 250, 404, 555, 600, 701}
        infinite = InfiniteHBDArchitecture(k=3, gpus_per_node=4)
        nvl = NVLHBD(72, gpus_per_node=4)
        assert nvl.waste_ratio(720, faulty, 32) > 10 * infinite.waste_ratio(720, faulty, 32)

    def test_topology_cache_reused(self):
        arch = InfiniteHBDArchitecture(k=2)
        assert arch.topology(100) is arch.topology(100)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            InfiniteHBDArchitecture(k=0)


@pytest.mark.parametrize(
    ("build", "match"),
    [
        (lambda: InfiniteHBDArchitecture(k=2.0), r"k must be an int, got 2\.0"),
        (lambda: InfiniteHBDArchitecture(k=False), "k must be an int, got False"),
        (lambda: InfiniteHBDArchitecture(k=2, ring=1), "ring must be a bool, got 1"),
        (lambda: NVLHBD(72.0), r"hbd_size must be an int, got 72\.0"),
        (lambda: NVLHBD(True), "hbd_size must be an int, got True"),
        (lambda: TPUv4HBD(cube_size=64.0), r"cube_size must be an int, got 64\.0"),
    ],
    ids=["float-k", "bool-k", "int-ring", "float-hbd-size", "bool-hbd-size",
         "float-cube-size"],
)
def test_parameters_of_the_wrong_type_are_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


class TestRegistry:
    def test_default_lineup(self):
        names = [a.name for a in default_architectures(4)]
        assert names == [
            "InfiniteHBD(K=2)",
            "InfiniteHBD(K=3)",
            "Big-Switch",
            "TPUv4",
            "NVL-36",
            "NVL-72",
            "NVL-576",
            "SiP-Ring",
        ]

    def test_lookup_by_name(self):
        arch = REGISTRY.create("nvl-72")
        assert isinstance(arch, NVLHBD)
        assert arch.hbd_size == 72

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            REGISTRY.create("dojo")

    def test_usable_never_exceeds_healthy(self):
        faulty = set(range(0, 100, 7))
        for arch in default_architectures(4):
            breakdown = arch.breakdown(288, faulty, 32)
            assert breakdown.usable_gpus <= breakdown.healthy_gpus
            assert breakdown.usable_gpus % 32 == 0
