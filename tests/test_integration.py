"""End-to-end integration tests tying the substrates together.

These tests exercise the same pipelines the benchmark harness runs, at a
reduced scale, and assert the qualitative results the paper reports.
"""

import pytest

from repro.core.khop_ring import KHopRingTopology, KHopTopologyConfig
from repro.core.node import make_nodes
from repro.core.orchestrator import JobSpec, Orchestrator
from repro.core.ring_builder import RingBuilder
from repro.cost.analysis import aggregate_cost_sweep
from repro.dcn.fattree import FatTreeConfig
from repro.faults.convert import convert_trace_8gpu_to_4gpu
from repro.faults.model import sample_fault_set
from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.hbd import InfiniteHBDArchitecture, NVLHBD, TPUv4HBD, default_architectures
from repro.simulation.cluster import replay_intervals
from repro.training.parallelism import optimal_mfu_table, search_optimal_strategy
from repro.training.models import llama31_405b

import numpy as np


@pytest.fixture(scope="module")
def trace4():
    source = generate_synthetic_trace(
        SyntheticTraceConfig(n_nodes=400, duration_days=60, seed=99)
    )
    return convert_trace_8gpu_to_4gpu(source, seed=99)


class TestTraceToWastePipeline:
    """Synthetic trace -> conversion -> architecture replay (Figures 13/20)."""

    def test_full_pipeline_runs_for_all_architectures(self, trace4):
        timeline = trace4.interval_timeline(720)
        for arch in default_architectures(4):
            series = replay_intervals(arch, timeline, 32)
            assert series.total_hours_for_seed(0) == 60 * 24

    def test_headline_ordering_holds(self, trace4):
        """InfiniteHBD < TPUv4 < NVL-72 mean waste for TP-32 (Figure 13b)."""
        timeline = trace4.interval_timeline(720)

        def mean_waste(arch):
            return replay_intervals(arch, timeline, 32).mean_waste_ratios()[0]

        infinite = mean_waste(InfiniteHBDArchitecture(k=3, gpus_per_node=4))
        tpu = mean_waste(TPUv4HBD(gpus_per_node=4))
        nvl = mean_waste(NVLHBD(72, gpus_per_node=4))
        assert infinite < tpu < nvl


class TestHardwareToTopologyPipeline:
    """Node/OCSTrx hardware objects drive the topology the simulator assumes."""

    def test_ring_construction_matches_topology_capacity(self):
        n_nodes, k, r, tp = 48, 2, 4, 32
        topo = KHopRingTopology(KHopTopologyConfig(n_nodes, k, r, ring=True))
        nodes = make_nodes(n_nodes, n_gpus=r, n_bundles=k)
        builder = RingBuilder(topo, nodes)

        faulty = {5, 20, 21}
        for node_id in faulty:
            nodes[node_id].fail()

        # The architecture model says how many GPUs are usable...
        arch = InfiniteHBDArchitecture(k=k, gpus_per_node=r)
        usable = arch.usable_gpus(n_nodes, faulty, tp)

        # ...and the ring builder must actually be able to build that many rings.
        built = 0
        segments = topo.healthy_segments(faulty)
        for segment in segments:
            nodes_per_group = topo.nodes_per_tp_group(tp)
            for start in range(0, len(segment.nodes) - nodes_per_group + 1, nodes_per_group):
                ring = builder.build_ring(list(segment.nodes[start:start + nodes_per_group]))
                built += ring.size
        assert built == usable

    def test_reconfiguration_latency_budget(self):
        """Every ring build stays within the published 60-80 us switch window."""
        topo = KHopRingTopology(KHopTopologyConfig(16, 2, 4, ring=True))
        nodes = make_nodes(16, n_gpus=4, n_bundles=2)
        builder = RingBuilder(topo, nodes)
        ring = builder.build_ring(list(range(8)))
        assert ring.reconfiguration_latency_us <= 80.0


class TestOrchestrationPipeline:
    """Fault set -> placement -> cross-ToR accounting (Figure 17)."""

    def setup_method(self):
        self.n_nodes = 512
        self.orch = Orchestrator(
            n_nodes=self.n_nodes,
            k=2,
            fat_tree_config=FatTreeConfig(
                n_nodes=self.n_nodes, nodes_per_tor=4, tors_per_domain=32
            ),
        )

    def test_optimized_beats_greedy_across_fault_ratios(self):
        job = JobSpec(total_gpus=1536, tp_size=32, gpus_per_node=4)
        rng = np.random.default_rng(7)
        for ratio in (0.0, 0.02, 0.05):
            faults = sample_fault_set(self.n_nodes, ratio, rng)
            _, opt = self.orch.place_and_report(job, faults, method="optimized")
            _, greedy = self.orch.place_and_report(job, faults, method="greedy", seed=1)
            assert opt.cross_tor_rate < greedy.cross_tor_rate

    def test_optimized_near_zero_at_low_fault_ratio(self):
        job = JobSpec(total_gpus=1536, tp_size=32, gpus_per_node=4)
        faults = sample_fault_set(self.n_nodes, 0.01, np.random.default_rng(3))
        _, report = self.orch.place_and_report(job, faults, method="optimized")
        assert report.cross_tor_rate < 0.03

    def test_cross_tor_grows_with_job_scale(self):
        faults = sample_fault_set(self.n_nodes, 0.05, np.random.default_rng(5))
        rates = []
        for scale in (1024, 1536, 1792):
            job = JobSpec(total_gpus=scale, tp_size=32, gpus_per_node=4)
            _, report = self.orch.place_and_report(job, faults, method="optimized")
            rates.append(report.cross_tor_rate)
        assert rates[0] <= rates[-1] + 1e-9


class TestCostPipeline:
    def test_aggregate_cost_ordering_matches_figure17d(self):
        curves = aggregate_cost_sweep(
            n_nodes=360, fault_ratios=(0.0, 0.05, 0.10), n_samples=3
        )
        # InfiniteHBD (K=2) is the cheapest curve at every fault ratio.
        for i in range(3):
            best = min(curves, key=lambda name: curves[name][i])
            assert best == "InfiniteHBD(K=2)"
        # NVL-576 is the most expensive (highest interconnect cost).
        assert max(curves, key=lambda name: curves[name][0]) == "NVL-576"


class TestTrainingPipeline:
    def test_mfu_gain_vs_dgx_baseline(self):
        """Abstract: InfiniteHBD enables >3x MFU vs an 8-GPU/node DGX at scale."""
        rows = optimal_mfu_table(llama31_405b(), [131072], global_batch=2048)
        assert rows[0]["improvement"] > 3.0

    def test_search_is_stable(self):
        a = search_optimal_strategy(llama31_405b(), 4096, 2048)
        b = search_optimal_strategy(llama31_405b(), 4096, 2048)
        assert a.best_config == b.best_config
