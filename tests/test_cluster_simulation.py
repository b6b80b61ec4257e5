"""Tests for the trace-driven cluster simulation: replay, runner figures, sweeps."""

import pytest

from repro.api import ExperimentRunner, ExperimentSpec, Scenario, TraceSpec
from repro.hbd import (
    BigSwitchHBD,
    InfiniteHBDArchitecture,
    NVLHBD,
    SiPRingHBD,
    TPUv4HBD,
    default_architectures,
)
from repro.simulation.cluster import replay_intervals
from repro.simulation.sweeps import waste_ratio_vs_fault_ratio

#: A 90-day trace of 400 eight-GPU source nodes, converted to four-GPU nodes.
TRACE = TraceSpec(days=90, seed=13, gpus_per_node=4)


@pytest.fixture(scope="module")
def trace4():
    return TRACE.build()


@pytest.fixture(scope="module")
def runner_results():
    """The runner's capacity experiments over the line-up on a 2,880-GPU cluster."""
    spec = ExperimentSpec.of(
        scenario=Scenario.default("cluster-simulation", trace=TRACE, tp_sizes=(16, 32)),
        experiments=("waste", "max_job_scale", "fault_waiting"),
        options={"fault_waiting": {"job_scales": [2304, 2560, 2816]}},
        max_workers=1,
    )
    return ExperimentRunner(spec).run()


def replay(arch, trace, tp_size):
    return replay_intervals(arch, trace.interval_timeline(720), tp_size)


class TestClusterSimulator:
    """Replays of the trace's exact interval timeline on 720 nodes."""

    def test_requires_matching_gpus_per_node(self, trace4):
        with pytest.raises(ValueError, match="must match the architecture"):
            replay(NVLHBD(72, gpus_per_node=8), trace4, 32)

    def test_cannot_exceed_trace_size(self, trace4):
        with pytest.raises(ValueError, match="simulated cluster larger than the fault trace"):
            trace4.interval_timeline(trace4.n_nodes + 1)

    def test_series_lengths(self, trace4):
        series = replay(BigSwitchHBD(4), trace4, 32)
        assert len(series.times_days) == len(series.waste_ratios)
        assert len(series.usable_gpus) == len(series.times_days)
        assert series.total_gpus == 2880

    def test_waste_ratios_bounded(self, trace4):
        for arch in default_architectures(4):
            series = replay(arch, trace4, 32)
            assert all(0.0 <= w <= 1.0 for w in series.waste_ratios)

    def test_fault_waiting_monotone_in_job_scale(self, trace4):
        series = replay(InfiniteHBDArchitecture(2, 4), trace4, 32)
        small = series.fault_waiting_rates(2000)[0]
        large = series.fault_waiting_rates(2800)[0]
        assert small <= large

    def test_supported_job_scale_availability(self, trace4):
        series = replay(BigSwitchHBD(4), trace4, 32)
        strict = series.supported_job_scales(1.0)[0]
        relaxed = series.supported_job_scales(0.9)[0]
        assert strict <= relaxed
        assert strict == series.min_usable_gpus()[0]

    def test_invalid_availability(self, trace4):
        series = replay(BigSwitchHBD(4), trace4, 32)
        with pytest.raises(ValueError):
            series.supported_job_scales(0.0)


class TestPaperShapeOverTrace:
    """Qualitative section 6.2 results must hold on the synthetic trace."""

    @pytest.fixture(scope="class")
    def mean_waste(self, runner_results):
        """Mean waste ratio at TP-32 per architecture."""
        table = runner_results.metric_table("waste", "mean_waste_ratio")
        return {name: per_tp[32] for name, per_tp in table.items()}

    def test_infinitehbd_k3_matches_big_switch(self, mean_waste):
        k3 = mean_waste["InfiniteHBD(K=3)"]
        ideal = mean_waste["Big-Switch"]
        assert k3 == pytest.approx(ideal, abs=0.002)

    def test_infinitehbd_waste_near_zero(self, mean_waste):
        assert mean_waste["InfiniteHBD(K=3)"] < 0.01
        assert mean_waste["InfiniteHBD(K=2)"] < 0.02

    def test_infinitehbd_much_lower_than_nvl72(self, mean_waste):
        """Paper: ~20x lower waste than NVL-72 for TP-32."""
        nvl = mean_waste["NVL-72"]
        inf = mean_waste["InfiniteHBD(K=3)"]
        assert nvl > 5 * max(inf, 1e-6)

    def test_infinitehbd_much_lower_than_tpuv4(self, mean_waste):
        tpu = mean_waste["TPUv4"]
        inf = mean_waste["InfiniteHBD(K=3)"]
        assert tpu > 3 * max(inf, 1e-6)

    def test_nvl72_waste_close_to_published(self, mean_waste):
        """NVL-72 with TP-32 sits near the ~10% fragmentation floor."""
        assert 0.08 <= mean_waste["NVL-72"] <= 0.14

    def test_nvl576_better_than_nvl72(self, mean_waste):
        assert mean_waste["NVL-576"] < mean_waste["NVL-72"]

    def test_k2_close_to_k3(self, mean_waste):
        """Paper: K=2 is almost identical to K=3 at production fault rates."""
        k2 = mean_waste["InfiniteHBD(K=2)"]
        k3 = mean_waste["InfiniteHBD(K=3)"]
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

    def test_max_job_scale_comparison(self, runner_results):
        table = runner_results.metric_table("max_job_scale", "max_job_scale")
        for name in ("InfiniteHBD(K=2)", "NVL-36"):
            assert set(table[name]) == {16, 32}
            for value in table[name].values():
                assert 0 <= value <= 2880
        assert table["InfiniteHBD(K=2)"][32] >= table["NVL-36"][32]

    def test_fault_waiting_comparison(self, runner_results):
        table = {}
        for name in ("InfiniteHBD(K=2)", "NVL-72"):
            (row,) = runner_results.filter("fault_waiting", name, 32)
            series = row.series_dict
            table[name] = dict(zip(series["job_scales"], series["waiting_rates"], strict=True))
        for rates in table.values():
            values = [rates[s] for s in sorted(rates)]
            assert values == sorted(values)
            assert all(0.0 <= v <= 1.0 for v in values)
        assert table["InfiniteHBD(K=2)"][2560] <= table["NVL-72"][2560]
