"""Tests for the trace-driven cluster simulator and the comparison sweeps."""

import pytest

from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.faults.convert import convert_trace_8gpu_to_4gpu
from repro.faults.trace import FaultEvent, FaultTrace
from repro.hbd import (
    BigSwitchHBD,
    InfiniteHBDArchitecture,
    NVLHBD,
    SiPRingHBD,
    TPUv4HBD,
    default_architectures,
)
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.sweeps import (
    architecture_comparison_over_trace,
    fault_waiting_comparison,
    max_job_scale_comparison,
    waste_ratio_vs_fault_ratio,
)


@pytest.fixture(scope="module")
def trace4():
    source = generate_synthetic_trace(
        SyntheticTraceConfig(n_nodes=400, duration_days=90, seed=13)
    )
    return convert_trace_8gpu_to_4gpu(source, seed=13)


class TestClusterSimulator:
    def test_requires_matching_gpus_per_node(self, trace4):
        with pytest.raises(ValueError):
            ClusterSimulator(NVLHBD(72, gpus_per_node=8), trace4)

    def test_cannot_exceed_trace_size(self, trace4):
        with pytest.raises(ValueError):
            ClusterSimulator(BigSwitchHBD(4), trace4, n_nodes=trace4.n_nodes + 1)

    def test_series_lengths(self, trace4):
        sim = ClusterSimulator(BigSwitchHBD(4), trace4, n_nodes=720)
        series = sim.run(32)
        assert len(series.times_days) == len(series.waste_ratios)
        assert len(series.usable_gpus) == len(series.times_days)
        assert series.total_gpus == 2880

    def test_waste_ratios_bounded(self, trace4):
        for arch in default_architectures(4):
            series = ClusterSimulator(arch, trace4, n_nodes=720).run(32)
            assert all(0.0 <= w <= 1.0 for w in series.waste_ratios)

    def test_cdf_is_valid(self, trace4):
        series = ClusterSimulator(NVLHBD(72, 4), trace4, n_nodes=720).run(32)
        values, cdf = series.waste_ratio_cdf()
        assert values == sorted(values)
        assert cdf[-1] == pytest.approx(1.0)

    def test_fault_waiting_monotone_in_job_scale(self, trace4):
        series = ClusterSimulator(InfiniteHBDArchitecture(2, 4), trace4, n_nodes=720).run(32)
        small = series.fault_waiting_rate(2000)
        large = series.fault_waiting_rate(2800)
        assert small <= large

    def test_supported_job_scale_availability(self, trace4):
        series = ClusterSimulator(BigSwitchHBD(4), trace4, n_nodes=720).run(32)
        strict = series.supported_job_scale(1.0)
        relaxed = series.supported_job_scale(0.9)
        assert strict <= relaxed
        assert strict == series.min_usable_gpus

    def test_breakdown_at(self, trace4):
        sim = ClusterSimulator(BigSwitchHBD(4), trace4, n_nodes=720)
        breakdown = sim.breakdown_at(0.0, 32)
        assert breakdown.total_gpus == 2880

    def test_invalid_availability(self, trace4):
        series = ClusterSimulator(BigSwitchHBD(4), trace4, n_nodes=720).run(32)
        with pytest.raises(ValueError):
            series.supported_job_scale(0.0)


class TestPaperShapeOverTrace:
    """Qualitative section 6.2 results must hold on the synthetic trace."""

    @pytest.fixture(scope="class")
    def results(self, trace4):
        archs = default_architectures(4)
        return architecture_comparison_over_trace(archs, trace4, tp_size=32, n_nodes=720)

    def test_infinitehbd_k3_matches_big_switch(self, results):
        k3 = results["InfiniteHBD(K=3)"].mean_waste_ratio
        ideal = results["Big-Switch"].mean_waste_ratio
        assert k3 == pytest.approx(ideal, abs=0.002)

    def test_infinitehbd_waste_near_zero(self, results):
        assert results["InfiniteHBD(K=3)"].mean_waste_ratio < 0.01
        assert results["InfiniteHBD(K=2)"].mean_waste_ratio < 0.02

    def test_infinitehbd_much_lower_than_nvl72(self, results):
        """Paper: ~20x lower waste than NVL-72 for TP-32."""
        nvl = results["NVL-72"].mean_waste_ratio
        inf = results["InfiniteHBD(K=3)"].mean_waste_ratio
        assert nvl > 5 * max(inf, 1e-6)

    def test_infinitehbd_much_lower_than_tpuv4(self, results):
        tpu = results["TPUv4"].mean_waste_ratio
        inf = results["InfiniteHBD(K=3)"].mean_waste_ratio
        assert tpu > 3 * max(inf, 1e-6)

    def test_nvl72_waste_close_to_published(self, results):
        """NVL-72 with TP-32 sits near the ~10% fragmentation floor."""
        assert 0.08 <= results["NVL-72"].mean_waste_ratio <= 0.14

    def test_nvl576_better_than_nvl72(self, results):
        assert (
            results["NVL-576"].mean_waste_ratio
            < results["NVL-72"].mean_waste_ratio
        )

    def test_k2_close_to_k3(self, results):
        """Paper: K=2 is almost identical to K=3 at production fault rates."""
        k2 = results["InfiniteHBD(K=2)"].mean_waste_ratio
        k3 = results["InfiniteHBD(K=3)"].mean_waste_ratio
        assert k2 - k3 < 0.01


class TestSweeps:
    def test_waste_vs_fault_ratio_shapes(self):
        archs = [InfiniteHBDArchitecture(3, 4), NVLHBD(72, 4), TPUv4HBD(4)]
        ratios = [0.0, 0.02, 0.05, 0.10]
        curves = waste_ratio_vs_fault_ratio(archs, n_nodes=720, tp_size=32,
                                            fault_ratios=ratios, n_samples=5)
        assert set(curves) == {a.name for a in archs}
        for series in curves.values():
            assert len(series) == len(ratios)
            assert all(0.0 <= w <= 1.0 for w in series)

    def test_infinitehbd_flat_under_faults(self):
        archs = [InfiniteHBDArchitecture(3, 4), SiPRingHBD(4)]
        curves = waste_ratio_vs_fault_ratio(
            archs, n_nodes=720, tp_size=32,
            fault_ratios=[0.0, 0.05, 0.10], n_samples=5,
        )
        assert curves["InfiniteHBD(K=3)"][-1] < 0.02
        assert curves["SiP-Ring"][-1] > curves["InfiniteHBD(K=3)"][-1]

    def test_max_job_scale_comparison(self, trace4):
        archs = [InfiniteHBDArchitecture(2, 4), NVLHBD(36, 4)]
        table = max_job_scale_comparison(archs, trace4, tp_sizes=[16, 32], n_nodes=720)
        for per_tp in table.values():
            assert set(per_tp) == {16, 32}
            for value in per_tp.values():
                assert 0 <= value <= 2880
        assert table["InfiniteHBD(K=2)"][32] >= table["NVL-36"][32]

    def test_fault_waiting_comparison(self, trace4):
        archs = [InfiniteHBDArchitecture(2, 4), NVLHBD(72, 4)]
        table = fault_waiting_comparison(
            archs, trace4, tp_size=32, job_scales=[2304, 2560, 2816], n_nodes=720
        )
        for rates in table.values():
            values = [rates[s] for s in sorted(rates)]
            assert values == sorted(values)
            assert all(0.0 <= v <= 1.0 for v in values)
        assert table["InfiniteHBD(K=2)"][2560] <= table["NVL-72"][2560]
