"""Tests for the Unified Experiment API (repro.api).

Covers the satellite checklist: Scenario / ExperimentSpec JSON round-trip,
registry registration / override / unknown-name errors, and runner
determinism (same seed => identical ExperimentResult), plus the CLI ``run
--spec`` path end to end.
"""

import dataclasses
import json
import re

import pytest

from repro.api import (
    REGISTRY,
    ArchitectureRegistry,
    ArchitectureSpec,
    CorrelatedFaultSpec,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    JobSpec,
    ResultSet,
    Scenario,
    SchedulerSpec,
    TraceSpec,
    WorkloadSpec,
    default_architecture_specs,
    run_experiment,
)
import repro.api.runner as runner_module
import repro.api.spec as spec_module
from repro.cache import ResultCache
from repro.faults.timeline import IntervalTimeline
from repro.hbd import NVLHBD
from repro.hbd.registry import DEFAULT_LINEUP
from repro.mc import TraceBatch
from repro.simulation.cluster import replay_intervals
from repro.simulation.goodput import GoodputConfig, GoodputSimulator


def small_spec(experiments=("waste",), **scenario_overrides):
    scenario_overrides.setdefault("trace", TraceSpec(days=20, seed=348))
    scenario_overrides.setdefault(
        "architectures",
        (ArchitectureSpec(name="InfiniteHBD(K=3)"), ArchitectureSpec(name="NVL-72")),
    )
    scenario_overrides.setdefault("tp_sizes", (16, 32))
    scenario_overrides.setdefault("n_nodes", 288)
    scenario_overrides.setdefault("job_gpus", 1024)
    return ExperimentSpec.of(
        scenario=Scenario(name="small", **scenario_overrides),
        experiments=experiments,
    )


class TestSpecRoundTrip:
    def test_trace_spec_round_trip(self):
        spec = TraceSpec(days=30, seed=7, gpus_per_node=8)
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    def test_trace_spec_rejects_bad_gpus_per_node(self):
        with pytest.raises(ValueError):
            TraceSpec(gpus_per_node=6)

    def test_trace_build_is_memoized(self):
        spec = TraceSpec(days=15, seed=123)
        assert spec.build() is spec.build()
        assert spec.build().gpus_per_node == 4

    def test_scenario_round_trip(self):
        scenario = Scenario.default("rt", trace=TraceSpec(days=10), tp_sizes=(8, 32))
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_experiment_spec_json_round_trip(self):
        spec = ExperimentSpec.of(
            scenario=Scenario.default("json-rt", trace=TraceSpec(days=10)),
            experiments=("waste", "goodput"),
            options={"fault_waiting": {"job_scales": [1024, 2048]}},
            max_workers=2,
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()

    def test_architecture_spec_accepts_bare_string(self):
        spec = ArchitectureSpec.from_dict("NVL-72")
        assert spec.build().name == "NVL-72"

    def test_architecture_spec_params_round_trip(self):
        spec = ArchitectureSpec.of("infinitehbd", k=3)
        restored = ArchitectureSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.build().name == "InfiniteHBD(K=3)"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            small_spec(experiments=("warp-drive",))

    def test_options_for_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="options for unknown"):
            ExperimentSpec.of(
                scenario=Scenario.default("typo"),
                experiments=("fault_waiting",),
                options={"fault_wating": {"job_scales": [1024]}},
            )

    def test_unknown_spec_field_rejected(self):
        scenario = Scenario.default("strict").to_dict()
        scenario["typo_field"] = 1
        with pytest.raises(ValueError, match="typo_field"):
            Scenario.from_dict(scenario)

    def test_removed_goodput_sample_interval_rejected(self):
        # The knob had no effect once the goodput replay became exact; a spec
        # file still carrying it fails at parse time instead of loading.
        with pytest.raises(ValueError, match="sample_interval_hours"):
            ExperimentSpec.from_dict(
                {
                    "scenario": small_spec().scenario.to_dict(),
                    "experiments": ["goodput"],
                    "options": {"goodput": {"job_gpus": 64, "sample_interval_hours": 6.0}},
                }
            )

    @pytest.mark.parametrize(
        "field, value",
        [("days", -5), ("days", 0), ("source_nodes", 0), ("mean_fault_ratio", 0.0)],
    )
    def test_bad_trace_rejected_at_parse_time(self, field, value):
        scenario = small_spec().scenario.to_dict()
        scenario["trace"][field] = value
        with pytest.raises(ValueError, match="must be"):
            ExperimentSpec.from_dict({"scenario": scenario, "experiments": ["waste"]})

    @pytest.mark.parametrize("n_nodes", [0, -5])
    def test_non_positive_n_nodes_rejected_at_parse_time(self, n_nodes):
        scenario = small_spec().scenario.to_dict()
        scenario["n_nodes"] = n_nodes
        with pytest.raises(ValueError, match=f"n_nodes must be >= 1.*got {n_nodes}"):
            ExperimentSpec.from_dict({"scenario": scenario, "experiments": ["waste"]})

    @pytest.mark.parametrize(
        ("field", "value", "named"),
        [
            ("tp_sizes", [8.5], "8.5"),
            ("tp_sizes", [True], "True"),
            ("tp_sizes", ["8"], "'8'"),
            ("tp_sizes", [8.0], "8.0"),
            ("n_nodes", True, "True"),
            ("n_nodes", 95.5, "95.5"),
            ("seed", 1.5, "1.5"),
            ("job_gpus", 2560.5, "2560.5"),
            ("trace.days", 5.5, "5.5"),
            ("trace.seed", 1.5, "1.5"),
            ("trace.gpus_per_node", 4.0, "4.0"),
            ("trace.source_nodes", 400.0, "400.0"),
        ],
    )
    def test_non_int_rejected_at_parse_time(self, field, value, named):
        scenario = small_spec().scenario.to_dict()
        *parent, name = field.split(".")
        (scenario[parent[0]] if parent else scenario)[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {named}$"):
            ExperimentSpec.from_dict({"scenario": scenario, "experiments": ["waste"]})

    @pytest.mark.parametrize(
        ("path", "value", "message"),
        [
            ("num_seeds", 2.5, "num_seeds must be an int, got 2.5"),
            ("num_seeds", "3", "num_seeds must be an int, got '3'"),
            ("max_workers", 2.5, "max_workers must be an int, got 2.5"),
            ("scenario.workload.n_jobs", 6.0, "n_jobs must be an int, got 6.0"),
            ("scenario.workload.seed", 1.5, "seed must be an int, got 1.5"),
            ("scenario.workload.tp_size", 8.0, "tp_size must be an int, got 8.0"),
            ("scenario.workload.max_gpus", 64.0, "max_gpus must be an int, got 64.0"),
            ("scenario.workload.jobs.0.gpus", 8.0, "job 'j': gpus must be an int, got 8.0"),
            ("scenario.workload.jobs.0.tp_size", True, "job 'j': tp_size must be an int, got True"),
            ("scenario.scheduler.gittins_levels", 2.5, "gittins_levels must be an int, got 2.5"),
            ("scenario.scheduler.lookahead_k", 2.5, "lookahead_k must be an int, got 2.5"),
            ("scenario.scheduler.preemptive", "no", "preemptive must be a bool, got 'no'"),
            ("scenario.scheduler.backfill", 1, "backfill must be a bool, got 1"),
            ("scenario.trace.correlated.domain_size", 4.0, "domain_size must be an int, got 4.0"),
        ],
    )
    def test_non_int_or_bool_rejected_at_parse_time(self, path, value, message):
        scenario = small_spec().scenario.to_dict()
        scenario["trace"]["correlated"] = {"correlation": 0.5}
        job = {"name": "j", "gpus": 8, "tp_size": 8}
        scenario["workload"] = {"kind": "explicit", "jobs": [job]}
        scenario["scheduler"] = {}
        data = {"scenario": scenario, "experiments": ["schedule"]}
        ExperimentSpec.from_dict(data)  # valid before the edit
        *parents, name = path.split(".")
        target = data
        for key in parents:
            target = target[int(key) if key.isdigit() else key]
        target[name] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("experiments", ["waste", "goodput", "waste"], "experiments lists 'waste' more"),
            ("tp_sizes", [8, 32, 8], "tp_sizes lists 8 more"),
            ("architectures", ["NVL-72", "Big-Switch", "NVL-72"],
             'architectures lists "NVL-72" more'),
            ("architectures",
             [{"name": "infinitehbd", "params": {"k": 3}},
              {"params": {"k": 3}, "name": "infinitehbd"}],
             'architectures lists {"name": "infinitehbd", "params": {"k": 3}} more'),
        ],
        ids=["experiment", "tp-size", "architecture", "architecture-with-params"],
    )
    def test_repeated_entry_rejected_at_parse_time(self, field, value, match):
        data = {"scenario": small_spec().scenario.to_dict(), "experiments": ["waste"]}
        (data if field == "experiments" else data["scenario"])[field] = value
        with pytest.raises(ValueError, match=match):
            ExperimentSpec.from_dict(data)

    def test_architectures_that_compare_equal_are_repeats(self):
        # k=3 and k=3.0 serialize differently but build the same architecture.
        with pytest.raises(ValueError, match="architectures lists .* more than once"):
            Scenario(
                name="repeat",
                architectures=(ArchitectureSpec.of("infinitehbd", k=3),
                               ArchitectureSpec.of("infinitehbd", k=3.0)),
            )

    def test_architectures_with_the_same_json_are_repeats(self):
        # Unsorted params compare unequal but share the runner's cell key.
        with pytest.raises(ValueError, match="architectures lists .* more than once"):
            Scenario(
                name="repeat",
                architectures=(ArchitectureSpec("sipring", (("a", 1), ("b", 2))),
                               ArchitectureSpec("sipring", (("b", 2), ("a", 1)))),
            )

    @pytest.mark.parametrize("gpus_per_node", [4, 8])
    @pytest.mark.parametrize(
        "correlated", [None, CorrelatedFaultSpec(correlation=0.5)], ids=["plain", "correlated"]
    )
    def test_trace_spec_n_nodes_is_the_built_size(self, gpus_per_node, correlated):
        spec = TraceSpec(
            days=5, seed=17, source_nodes=24, gpus_per_node=gpus_per_node, correlated=correlated
        )
        assert spec.n_nodes == 24 * 8 // gpus_per_node
        assert spec.build().n_nodes == spec.n_nodes


class TestRegistry:
    def test_default_lineup_registered(self):
        names = REGISTRY.names()
        for name in DEFAULT_LINEUP:
            assert name in names

    def test_create_by_alias_and_case(self):
        assert REGISTRY.create("NVL72").name == "NVL-72"
        assert REGISTRY.create("bigswitch").name == "Big-Switch"

    def test_register_and_create_custom(self):
        registry = ArchitectureRegistry()

        @registry.register("dual-rail", defaults={"hbd_size": 144})
        def _dual_rail(gpus_per_node=4, hbd_size=144):
            return NVLHBD(hbd_size, gpus_per_node=gpus_per_node)

        arch = registry.create("dual-rail")
        assert arch.name == "NVL-144"
        assert registry.create("dual-rail", hbd_size=288).name == "NVL-288"
        assert "dual-rail" in registry

    def test_duplicate_registration_requires_override(self):
        registry = ArchitectureRegistry()
        registry.register_factory("x", lambda gpus_per_node=4: NVLHBD(72))
        with pytest.raises(ValueError, match="override"):
            registry.register_factory("x", lambda gpus_per_node=4: NVLHBD(36))
        registry.register_factory(
            "x", lambda gpus_per_node=4: NVLHBD(36, gpus_per_node=gpus_per_node),
            override=True,
        )
        assert registry.create("x").name == "NVL-36"

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(KeyError, match="did you mean"):
            REGISTRY.create("nvl-721")

    def test_unregister(self):
        registry = ArchitectureRegistry()
        registry.register_factory(
            "temp", lambda gpus_per_node=4: NVLHBD(72), aliases=("tmp",)
        )
        registry.unregister("tmp")
        assert "temp" not in registry
        assert "tmp" not in registry


class TestRunner:
    def test_waste_sweep_covers_grid(self):
        results = run_experiment(small_spec(), max_workers=1)
        assert len(results) == 4  # 2 architectures x 2 TP sizes
        assert results.architectures() == ["InfiniteHBD(K=3)", "NVL-72"]
        for r in results:
            assert r.experiment == "waste"
            assert 0.0 <= r.metric("mean_waste_ratio") <= 1.0
            assert r.provenance is not None
            assert r.provenance.seed == 348

    def test_same_seed_identical_results(self):
        spec = small_spec(experiments=("waste", "goodput", "max_job_scale"))
        first = ExperimentRunner(spec, max_workers=1).run()
        second = ExperimentRunner(spec, max_workers=1).run()
        assert first == second

    @pytest.mark.parametrize(
        "spec",
        [
            small_spec(experiments=("waste", "fault_waiting", "goodput")),
            dataclasses.replace(
                small_spec(
                    experiments=("waste", "max_job_scale", "fault_waiting", "goodput")
                ),
                num_seeds=2,
            ),
            ExperimentSpec.of(
                scenario=small_spec(
                    tp_sizes=(32,),
                    workload=WorkloadSpec(n_jobs=20, seed=5, mean_interarrival_hours=2.0),
                ).scenario,
                experiments=("schedule", "blast_radius"),
                options={"blast_radius": {"correlations": [0.0, 1.0]}},
            ),
        ],
        ids=["line-up", "multi-seed", "schedule-blast-radius"],
    )
    def test_parallel_matches_serial(self, spec):
        serial = ExperimentRunner(spec, max_workers=1).run()
        parallel = ExperimentRunner(spec, max_workers=2).run()
        assert parallel.to_json() == serial.to_json()

    def test_goodput_timelines_are_swept_before_the_pool_forks(self, monkeypatch):
        monkeypatch.setattr(spec_module, "_TRACE_CACHE", {})
        monkeypatch.setattr(runner_module, "_CELL_CACHE", {})
        runner = ExperimentRunner(small_spec(experiments=("goodput",)), num_seeds=2)
        tasks = runner.tasks()
        runner._warm_caches(tasks)
        swept = []
        from_trace = IntervalTimeline.from_trace
        monkeypatch.setattr(
            IntervalTimeline,
            "from_trace",
            lambda trace, n_nodes=None: swept.append(n_nodes) or from_trace(trace, n_nodes),
        )
        for task in tasks:
            assert runner_module._execute_payload(task)
        assert swept == []  # a forked worker would inherit every timeline it reads

    def test_custom_registered_architecture_runs_by_name(self):
        name = "test-dual-rail"
        REGISTRY.register_factory(
            name,
            lambda gpus_per_node=4, hbd_size=144: NVLHBD(
                hbd_size, gpus_per_node=gpus_per_node
            ),
            defaults={"hbd_size": 144},
            override=True,
        )
        try:
            spec = small_spec(architectures=(ArchitectureSpec(name=name),))
            results = run_experiment(spec, max_workers=1)
            assert results.architectures() == ["NVL-144"]
        finally:
            REGISTRY.unregister(name)

    def test_goodput_metrics(self):
        results = run_experiment(small_spec(experiments=("goodput",)), max_workers=1)
        for r in results:
            assert 0.0 <= r.metric("goodput") <= 1.0
            assert r.metric("job_gpus") == 1024

    def test_fault_waiting_series(self):
        spec = ExperimentSpec.of(
            scenario=small_spec().scenario,
            experiments=("fault_waiting",),
            options={"fault_waiting": {"job_scales": [512, 1024]}},
        )
        results = run_experiment(spec, max_workers=1)
        for r in results:
            series = r.series_dict
            assert list(series["job_scales"]) == [512, 1024]
            assert len(series["waiting_rates"]) == 2

    def test_missing_architectures_rejected(self):
        spec = ExperimentSpec.of(
            scenario=Scenario(name="empty", trace=TraceSpec(days=10)),
            experiments=("waste",),
        )
        with pytest.raises(ValueError, match="architectures"):
            ExperimentRunner(spec, max_workers=1).run()


class TestSharedCells:
    """Each (architecture, TP) capacity cell is replayed once per run."""

    EXPERIMENTS = ("waste", "max_job_scale", "fault_waiting")
    CELLS = [("InfiniteHBD(K=3)", 16), ("InfiniteHBD(K=3)", 32), ("NVL-72", 16), ("NVL-72", 32)]

    @staticmethod
    def run_single_seed(monkeypatch, experiments):
        """(results, replayed cells) of a one-seed run."""
        calls = []
        replay = runner_module.replay_intervals

        def counting(architecture, timeline, tp_size):
            calls.append((architecture.name, tp_size))
            return replay(architecture, timeline, tp_size)

        monkeypatch.setattr(runner_module, "replay_intervals", counting)
        results = ExperimentRunner(small_spec(experiments=experiments), max_workers=1).run()
        return results, sorted(calls)

    @staticmethod
    def run_two_seeds(monkeypatch, experiments):
        """(results, replayed cells, stacked batches) of a two-seed run."""
        calls = []
        batches = []
        replay = runner_module.replay_batch
        from_timelines = TraceBatch.from_timelines

        def counting(architecture, batch, tp_size):
            calls.append((architecture.name, tp_size))
            return replay(architecture, batch, tp_size)

        def counting_batches(*args, **kwargs):
            batches.append(args)
            return from_timelines(*args, **kwargs)

        monkeypatch.setattr(runner_module, "replay_batch", counting)
        monkeypatch.setattr(TraceBatch, "from_timelines", counting_batches)
        spec = small_spec(experiments=experiments)
        results = ExperimentRunner(spec, max_workers=1, num_seeds=2).run()
        return results, sorted(calls), batches

    def test_single_seed_replays_each_cell_once(self, monkeypatch):
        results, calls = self.run_single_seed(monkeypatch, self.EXPERIMENTS)
        assert len(results) == 12
        assert calls == self.CELLS

    def test_multi_seed_replays_each_cell_once(self, monkeypatch):
        results, calls, batches = self.run_two_seeds(monkeypatch, self.EXPERIMENTS)
        assert len(results) == 12
        assert calls == self.CELLS
        assert len(batches) == 4

    def test_goodput_shares_the_single_seed_cells(self, monkeypatch):
        results, calls = self.run_single_seed(monkeypatch, self.EXPERIMENTS + ("goodput",))
        assert len(results) == 16
        assert calls == self.CELLS

    def test_goodput_shares_the_multi_seed_cells(self, monkeypatch):
        results, calls, batches = self.run_two_seeds(
            monkeypatch, self.EXPERIMENTS + ("goodput",)
        )
        assert len(results) == 16
        assert calls == self.CELLS
        assert len(batches) == 4

    def test_goodput_alone_replays_each_cell_once(self, monkeypatch):
        results, calls = self.run_single_seed(monkeypatch, ("goodput",))
        assert len(results) == 4
        assert calls == self.CELLS

    def test_goodput_computes_no_capacity_of_its_own(self, monkeypatch):
        calls = []
        usable_gpus = NVLHBD.usable_gpus

        def counting(architecture, n_nodes, faulty_nodes, tp_size):
            calls.append(tp_size)
            return usable_gpus(architecture, n_nodes, faulty_nodes, tp_size)

        monkeypatch.setattr(NVLHBD, "usable_gpus", counting)
        counts = {}
        for experiments in (("waste",), ("waste", "goodput")):
            calls.clear()
            ExperimentRunner(small_spec(experiments=experiments), max_workers=1).run()
            counts[experiments] = len(calls)
        assert counts[("waste",)] > 0
        assert counts[("waste", "goodput")] == counts[("waste",)]

    def test_re_registered_name_is_replayed_again(self):
        name = "test-shared-cell"
        spec = small_spec(experiments=self.EXPERIMENTS, architectures=(ArchitectureSpec(name=name),))

        def register(hbd_size):
            REGISTRY.register_factory(
                name,
                lambda gpus_per_node=4: NVLHBD(hbd_size, gpus_per_node=gpus_per_node),
                override=True,
            )

        try:
            register(144)
            first = run_experiment(spec, max_workers=1)
            register(36)
            second = run_experiment(spec, max_workers=1)
        finally:
            REGISTRY.unregister(name)
        nvl36 = run_experiment(
            small_spec(experiments=self.EXPERIMENTS, architectures=(ArchitectureSpec(name="NVL-36"),)),
            max_workers=1,
        )
        assert first.architectures() == ["NVL-144"]
        assert second.architectures() == ["NVL-36"]
        for got, want in zip(second, nvl36, strict=True):
            assert (got.experiment, got.tp_size) == (want.experiment, want.tp_size)
            assert got.metrics == want.metrics
            assert got.series == want.series


class TestScalarReference:
    """Single-seed capacity and goodput rows equal the scalar reference.

    The runner is the one path to the fault-resilience figures, so each row
    must equal, bit for bit, the ``replay_intervals`` aggregate or the
    one-job ``GoodputSimulator`` report (computing its own capacity) on the
    same trace.
    """

    TP_SIZES = (8, 32)
    JOB_SCALES = (512, 1024, 1088)

    @pytest.fixture(scope="class")
    def reference(self):
        spec = ExperimentSpec.of(
            scenario=Scenario.default(
                "reference",
                trace=TraceSpec(days=30, seed=348),
                tp_sizes=self.TP_SIZES,
                n_nodes=288,
                job_gpus=1024,
                availability=0.99,
            ),
            experiments=("waste", "max_job_scale", "fault_waiting", "goodput"),
            options={"fault_waiting": {"job_scales": list(self.JOB_SCALES)}},
            max_workers=1,
        )
        return spec.scenario, ExperimentRunner(spec).run()

    @pytest.mark.parametrize("tp_size", TP_SIZES)
    @pytest.mark.parametrize("name", DEFAULT_LINEUP)
    def test_rows_equal_the_scalar_reference(self, reference, name, tp_size):
        scenario, results = reference
        architecture = REGISTRY.create(name, gpus_per_node=4)
        trace = scenario.trace.build()
        series = replay_intervals(architecture, trace.interval_timeline(288), tp_size)

        def row(experiment):
            (found,) = results.filter(experiment, architecture.name, tp_size)
            return found

        waste = row("waste")
        assert waste.metrics_dict == {
            "mean_waste_ratio": series.mean_waste_ratios()[0],
            "p99_waste_ratio": series.p99_waste_ratios()[0],
            "min_usable_gpus": series.min_usable_gpus()[0],
            "total_gpus": series.total_gpus,
        }
        assert waste.series_dict == {
            "times_days": tuple(series.times_days.tolist()),
            "durations_hours": tuple(series.durations_hours.tolist()),
            "waste_ratios": tuple(series.waste_ratios.tolist()),
            "usable_gpus": tuple(series.usable_gpus.tolist()),
        }
        assert row("max_job_scale").metrics_dict == {
            "max_job_scale": series.supported_job_scales(0.99)[0],
            "availability": 0.99,
            "total_gpus": series.total_gpus,
        }
        waiting = row("fault_waiting")
        assert waiting.metrics_dict == {
            "fault_waiting_rate": series.fault_waiting_rates(1024)[0],
            "job_gpus": 1024,
        }
        assert waiting.series_dict == {
            "job_scales": self.JOB_SCALES,
            "waiting_rates": tuple(series.fault_waiting_rates(s)[0] for s in self.JOB_SCALES),
        }
        report = GoodputSimulator(
            architecture, trace, GoodputConfig(job_gpus=1024, tp_size=tp_size), n_nodes=288
        ).run()
        assert row("goodput").metrics_dict == {
            "goodput": report.goodput,
            "waiting_fraction": report.waiting_fraction,
            "job_impacting_faults": report.job_impacting_faults,
            "productive_hours": report.productive_hours,
            "waiting_hours": report.waiting_hours,
            "restart_hours": report.restart_hours,
            "total_hours": report.total_hours,
            "job_gpus": 1024,
        }


#: The job queue of the fail-fast specs.
QUEUE = WorkloadSpec(n_jobs=4, seed=1)


class TestFailFast:
    """Bad scenarios raise before the cache is read or any trace is built."""

    @pytest.mark.parametrize(
        ("architectures", "experiments", "error", "match"),
        [
            (["Big-Switch", "NVL-73"], ["waste"], KeyError, "did you mean 'nvl-72'"),
            (
                [{"name": "InfiniteHBD(K=2)", "params": {"k": 0}}],
                ["waste", "goodput"],
                ValueError,
                "k must be >= 1",
            ),
            (
                [{"name": "InfiniteHBD(K=2)", "params": {"k": 2.5}}],
                ["waste"],
                ValueError,
                r"k must be an int, got 2\.5",
            ),
            (
                [{"name": "InfiniteHBD(K=2)", "params": {"k": True}}],
                ["waste"],
                ValueError,
                "k must be an int, got True",
            ),
            (
                [{"name": "infinitehbd", "params": {"k": 3.0}}],
                ["waste"],
                ValueError,
                r"k must be an int, got 3\.0",
            ),
            (
                [{"name": "infinitehbd", "params": {"k": 2, "ring": "no"}}],
                ["waste"],
                ValueError,
                "ring must be a bool, got 'no'",
            ),
            (
                [{"name": "nvl", "params": {"hbd_size": 144.0}}],
                ["waste"],
                ValueError,
                r"hbd_size must be an int, got 144\.0",
            ),
            (["NVL-72"], ["waste", "schedule"], ValueError, "'schedule' needs scenario.workload"),
            (["NVL-72"], ["blast_radius"], ValueError, "'blast_radius' needs scenario.workload"),
        ],
        ids=["unknown-architecture", "bad-parameter", "fractional-k", "bool-k", "float-k",
             "ring-not-a-bool", "float-hbd-size", "schedule-no-workload",
             "blast-radius-no-workload"],
    )
    def test_rejected_before_any_work(
        self, monkeypatch, architectures, experiments, error, match
    ):
        spec = ExperimentSpec.from_dict({
            "scenario": {
                "name": "bad",
                "trace": {"days": 5},
                "architectures": architectures,
                "tp_sizes": [32],
                "n_nodes": 96,
            },
            "experiments": experiments,
            "max_workers": 1,
        })
        work = []
        build = TraceSpec.build
        cache_get = ResultCache.get
        monkeypatch.setattr(
            TraceSpec, "build", lambda trace: work.append("trace") or build(trace)
        )
        monkeypatch.setattr(
            ResultCache, "get", lambda store, key: work.append("cache") or cache_get(store, key)
        )
        with pytest.raises(error, match=match):
            ExperimentRunner(spec, cache="memory").run()
        assert work == []

    @pytest.mark.parametrize(
        ("options", "match"),
        [
            ({"job_gpus": 48}, r"TP-32: job_gpus \(48\) must be a multiple of tp_size"),
            ({"checkpoint_interval_hours": 0}, "TP-16: checkpoint_interval_hours"),
            ({"restart_overhead_hours": -1}, "TP-16: restart_overhead_hours"),
            ({"job_gpus": 2048}, r"TP-16: job_gpus \(2048\) larger than the cluster"),
        ],
        ids=["not-a-tp-multiple", "checkpoint-interval", "restart-overhead",
             "larger-than-cluster"],
    )
    def test_bad_goodput_options_rejected_before_any_replay(
        self, monkeypatch, options, match
    ):
        self.assert_rejected_before_any_replay(monkeypatch, "goodput", options, match)

    @pytest.mark.parametrize(
        ("options", "match"),
        [
            (
                {"placements": ["packd"]},
                r"blast_radius option 'placements': unknown placement policy 'packd'",
            ),
            (
                {"correlations": [1.5]},
                r"blast_radius option 'correlations': 1.5 is not in \[0, 1\]",
            ),
            (
                {"placements": "packed"},
                "blast_radius option 'placements' must be a list, got 'packed'",
            ),
        ],
        ids=["unknown-placement", "correlation-out-of-range", "placements-not-a-list"],
    )
    def test_bad_blast_radius_options_rejected_before_any_replay(
        self, monkeypatch, options, match
    ):
        self.assert_rejected_before_any_replay(monkeypatch, "blast_radius", options, match)

    @pytest.mark.parametrize(
        ("experiment", "options", "match", "workload"),
        [
            (
                "fault_waiting",
                {"job_scales": "256"},
                "fault_waiting option 'job_scales' must be a list, got '256'",
                QUEUE,
            ),
            (
                "fault_waiting",
                {"job_scales": [512, 0]},
                "fault_waiting option 'job_scales': 0 is not a positive whole number",
                QUEUE,
            ),
            (
                "fault_waiting",
                {"job_scales": [2560.5]},
                r"fault_waiting option 'job_scales': 2560\.5 is not a positive whole number",
                QUEUE,
            ),
            (
                "cross_tor",
                {"methods": ["greddy"]},
                "cross_tor option 'methods': unknown method 'greddy'",
                QUEUE,
            ),
            (
                "cross_tor",
                {"methods": "greedy"},
                "cross_tor option 'methods' must be a list, got 'greedy'",
                QUEUE,
            ),
            ("mfu", {"model": "lama"}, "mfu option 'model': unknown model 'lama'", QUEUE),
            (
                "cost",
                {"include_hpn": "no"},
                "cost option 'include_hpn' must be a bool, got 'no'",
                QUEUE,
            ),
            ("cost", {"include_hpn": 1}, "cost option 'include_hpn' must be a bool, got 1", QUEUE),
            (
                "goodput",
                {"job_gpus": 128.9},
                r"goodput option 'job_gpus' must be an int >= 1, got 128\.9",
                QUEUE,
            ),
            (
                "goodput",
                {"checkpoint_interval_hours": "2"},
                "goodput option 'checkpoint_interval_hours' must be a finite number, got '2'",
                QUEUE,
            ),
            (
                "goodput",
                {"checkpoint_interval_hours": float("nan")},
                "goodput option 'checkpoint_interval_hours' must be a finite number, got nan",
                QUEUE,
            ),
            (
                "goodput",
                {"restart_overhead_hours": True},
                "goodput option 'restart_overhead_hours' must be a finite number, got True",
                QUEUE,
            ),
            (
                "mfu",
                {"gpus": 8192.7},
                r"mfu option 'gpus' must be an int >= 1, got 8192\.7",
                QUEUE,
            ),
            (
                "mfu",
                {"global_batch": 0},
                "mfu option 'global_batch' must be an int >= 1, got 0",
                QUEUE,
            ),
            ("mfu", {"max_tp": 3.5}, r"mfu option 'max_tp' must be an int >= 1, got 3\.5", QUEUE),
            (
                "mfu",
                {"imbalance": "0.2"},
                "mfu option 'imbalance' must be a finite number, got '0.2'",
                QUEUE,
            ),
            ("cross_tor", {"k": 2.7}, r"cross_tor option 'k' must be an int >= 1, got 2\.7", QUEUE),
            ("cross_tor", {"k": "2"}, "cross_tor option 'k' must be an int >= 1, got '2'", QUEUE),
            (
                "cross_tor",
                {"nodes_per_tor": 0},
                "cross_tor option 'nodes_per_tor' must be an int >= 1, got 0",
                QUEUE,
            ),
            (
                "cross_tor",
                {"tors_per_domain": True},
                "cross_tor option 'tors_per_domain' must be an int >= 1, got True",
                QUEUE,
            ),
            (
                "cross_tor",
                {"job_scale_ratio": None},
                "cross_tor option 'job_scale_ratio' must be a finite number, got None",
                QUEUE,
            ),
            (
                "cross_tor",
                {"fault_ratio": "0.05"},
                "cross_tor option 'fault_ratio' must be a finite number, got '0.05'",
                QUEUE,
            ),
            (
                "goodput",
                {"job_gpu": 512},
                r"unknown goodput option\(s\) \['job_gpu'\]; known: \['job_gpus', "
                r"'checkpoint_interval_hours', 'restart_overhead_hours'\]",
                QUEUE,
            ),
            (
                "cost",
                {"include_hpm": True},
                r"unknown cost option\(s\) \['include_hpm'\]; known: \['include_hpn'\]",
                QUEUE,
            ),
            (
                "waste",
                {"anything": 1},
                r"unknown waste option\(s\) \['anything'\]; known: \[\]",
                QUEUE,
            ),
            (
                "schedule",
                {},
                r"workload at TP-32 on InfiniteHBD\(K=3\): max_gpus must be at least one TP group",
                WorkloadSpec(n_jobs=4, seed=1, max_gpus=16),
            ),
            (
                "blast_radius",
                {},
                r"workload at TP-32 on InfiniteHBD\(K=3\): max_gpus must be at least one TP group",
                WorkloadSpec(n_jobs=4, seed=1, max_gpus=16),
            ),
            (
                # Half of 288 four-GPU nodes is 576 GPUs, below the fixed TP-1024.
                "schedule",
                {},
                r"workload at TP-16 on InfiniteHBD\(K=3\): max_gpus must be at least one TP group",
                WorkloadSpec(n_jobs=4, seed=1, tp_size=1024),
            ),
        ],
        ids=["job-scales-not-a-list", "zero-job-scale", "fractional-job-scale",
             "unknown-cross-tor-method", "methods-not-a-list", "unknown-mfu-model",
             "include-hpn-not-a-bool", "include-hpn-one", "fractional-job-gpus",
             "checkpoint-interval-string", "checkpoint-interval-nan", "restart-overhead-bool",
             "fractional-mfu-gpus", "zero-global-batch", "fractional-max-tp",
             "imbalance-string", "fractional-k", "string-k", "zero-nodes-per-tor",
             "bool-tors-per-domain", "null-job-scale-ratio", "fault-ratio-string",
             "unknown-goodput-key", "unknown-cost-key", "unknown-waste-key",
             "schedule-job-cap-below-tp", "blast-radius-job-cap-below-tp",
             "fixed-tp-above-half-the-cluster"],
    )
    def test_bad_options_rejected_before_any_replay(
        self, monkeypatch, experiment, options, match, workload
    ):
        self.assert_rejected_before_any_replay(
            monkeypatch, experiment, options, match, workload
        )

    @staticmethod
    def assert_rejected_before_any_replay(
        monkeypatch, experiment, options, match, workload=QUEUE
    ):
        # waste plus the experiment: two architectures x TP 16 and 32 on 288
        # four-GPU nodes.
        spec = ExperimentSpec.of(
            scenario=small_spec(workload=workload).scenario,
            experiments=tuple(dict.fromkeys(("waste", experiment))),
            options={experiment: options},
            max_workers=1,
        )
        work = []
        replay = runner_module.replay_intervals
        build = TraceSpec.build
        monkeypatch.setattr(
            runner_module,
            "replay_intervals",
            lambda *args: work.append("replay") or replay(*args),
        )
        monkeypatch.setattr(
            TraceSpec, "build", lambda trace: work.append("trace") or build(trace)
        )
        with pytest.raises(ValueError, match=match):
            ExperimentRunner(spec).run()
        assert work == []

    def test_null_mfu_batch_and_max_tp_take_the_defaults(self):
        def metrics(options):
            spec = ExperimentSpec.of(
                scenario=Scenario(name="mfu"),
                experiments=("mfu",),
                options={"mfu": options},
                max_workers=1,
            )
            (row,) = ExperimentRunner(spec).run()
            return row.metrics

        assert metrics({"gpus": 1024, "global_batch": None, "max_tp": None}) == metrics(
            {"gpus": 1024}
        )

    def test_whole_number_float_job_scales_are_accepted(self):
        spec = ExperimentSpec.of(
            scenario=small_spec(tp_sizes=(32,)).scenario,
            experiments=("fault_waiting",),
            options={"fault_waiting": {"job_scales": [512.0, 1024]}},
            max_workers=1,
        )
        for row in ExperimentRunner(spec).run():
            assert row.series_dict["job_scales"] == (512, 1024)

    def test_oversize_cluster_rejected_before_any_work(self, monkeypatch):
        # 801 simulated nodes on the default 800-node trace, over 20 seeds.
        spec = ExperimentSpec.of(
            scenario=Scenario(
                name="oversize",
                architectures=(ArchitectureSpec(name="NVL-72"),),
                tp_sizes=(32,),
                n_nodes=801,
            ),
            experiments=("waste",),
            num_seeds=20,
            max_workers=1,
        )
        work = []
        replay = runner_module.replay_intervals
        build = TraceSpec.build
        monkeypatch.setattr(
            runner_module,
            "replay_intervals",
            lambda *args: work.append("replay") or replay(*args),
        )
        monkeypatch.setattr(
            TraceSpec, "build", lambda trace: work.append("trace") or build(trace)
        )
        match = (
            r"n_nodes=801 is larger than the fault trace's 800 nodes "
            r"\(source_nodes=400 at 8 GPUs per node, gpus_per_node=4\)"
        )
        with pytest.raises(ValueError, match=match):
            ExperimentRunner(spec).run()
        assert work == []

    def test_cross_tor_accepts_any_positive_cluster_size(self):
        spec = ExperimentSpec.from_dict({
            "scenario": {
                "name": "cross-tor-only",
                "trace": {"days": 5, "source_nodes": 8},
                "tp_sizes": [8],
                "n_nodes": 64,
            },
            "experiments": ["cross_tor"],
            "max_workers": 1,
        })
        assert spec.scenario.trace.n_nodes == 16
        assert len(ExperimentRunner(spec).run()) == 2

    def test_architectures_no_experiment_sweeps_are_not_built(self):
        spec = ExperimentSpec.from_dict({
            "scenario": {
                "name": "cost-only",
                "trace": {"days": 5},
                "architectures": ["NVL-73"],
                "tp_sizes": [32],
                "n_nodes": 96,
            },
            "experiments": ["cost"],
        })
        assert len(ExperimentRunner(spec, max_workers=1).run()) > 0


class TestScheduleExperiment:
    def schedule_spec(self, **scheduler_overrides):
        return small_spec(
            experiments=("schedule",),
            tp_sizes=(32,),
            workload=WorkloadSpec(
                n_jobs=25, seed=5, mean_interarrival_hours=2.0, median_work_hours=4.0
            ),
            scheduler=SchedulerSpec(**scheduler_overrides),
        )

    def test_workload_spec_round_trip(self):
        spec = WorkloadSpec(n_jobs=10, seed=3, median_work_hours=12.0)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_explicit_workload_round_trip(self):
        spec = WorkloadSpec(
            kind="explicit",
            jobs=(JobSpec(name="a", gpus=64, tp_size=32, work_hours=5.0),),
        )
        restored = WorkloadSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.build(tp_size=32, max_gpus=1024) == spec.jobs

    def test_workload_spec_validation(self):
        with pytest.raises(ValueError, match="explicit"):
            WorkloadSpec(kind="explicit")
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec(kind="poisson")
        # WorkloadConfig's checks, at parse time rather than in the first task.
        for fields, match in [
            ({"n_jobs": 0}, "n_jobs must be positive"),
            ({"median_work_hours": -1}, "median job size and work must be positive"),
            ({"mean_interarrival_hours": float("nan")}, "mean_interarrival_hours must be finite"),
            ({"tp_size": 0}, "tp_size must be positive"),
            ({"max_gpus": 1, "tp_size": 8}, "max_gpus must be at least one TP group"),
        ]:
            with pytest.raises(ValueError, match=match):
                WorkloadSpec(**fields)

    def test_scheduler_spec_validation(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            SchedulerSpec(policy="lifo")
        with pytest.raises(ValueError, match="horizon"):
            SchedulerSpec(horizon_hours=0.0)

    def test_scenario_with_scheduler_round_trips(self):
        spec = self.schedule_spec(policy="smallest-first", preemptive=True)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.scenario.workload.n_jobs == 25
        assert restored.scenario.scheduler.preemptive

    def test_scenario_without_scheduler_keeps_legacy_dict_shape(self):
        # Pre-scheduler spec files (and their digests) must be unaffected.
        data = small_spec().scenario.to_dict()
        assert "workload" not in data
        assert "scheduler" not in data

    def test_schedule_run_produces_cluster_metrics(self):
        results = run_experiment(self.schedule_spec(), max_workers=1)
        assert len(results) == 2  # 2 architectures x 1 TP size
        for r in results:
            assert r.experiment == "schedule"
            assert r.metric("n_jobs") == 25
            assert r.metric("finished_jobs") == 25
            assert r.metric("makespan_hours") > 0
            assert 0.0 <= r.metric("cluster_goodput") <= 1.0
            assert len(r.series_dict["jct_hours"]) == 25

    def test_schedule_parallel_matches_serial(self):
        spec = self.schedule_spec(policy="shortest-remaining", preemptive=True)
        serial = ExperimentRunner(spec, max_workers=1).run()
        parallel = ExperimentRunner(spec, max_workers=2).run()
        assert serial == parallel

    def test_schedule_without_workload_rejected(self):
        spec = small_spec(experiments=("schedule",))
        with pytest.raises(ValueError, match="workload"):
            ExperimentRunner(spec, max_workers=1).run()


class TestResultSerialization:
    def test_result_round_trip(self):
        results = run_experiment(small_spec(), max_workers=1)
        for r in results:
            assert ExperimentResult.from_dict(r.to_dict()) == r

    def test_result_set_json_round_trip(self):
        results = run_experiment(small_spec(experiments=("waste", "goodput")),
                                 max_workers=1)
        assert ResultSet.from_json(results.to_json()) == results

    def test_metric_table(self):
        results = run_experiment(small_spec(), max_workers=1)
        table = results.metric_table("waste", "mean_waste_ratio")
        assert set(table) == {"InfiniteHBD(K=3)", "NVL-72"}
        assert set(table["NVL-72"]) == {16, 32}

    def test_unknown_metric_raises(self):
        results = run_experiment(small_spec(), max_workers=1)
        with pytest.raises(KeyError, match="available"):
            results[0].metric("nonexistent")


class TestCLIRun:
    def test_run_spec_end_to_end(self, capsys, tmp_path):
        from repro.cli import main

        spec = ExperimentSpec.of(
            scenario=Scenario(
                name="cli-smoke",
                trace=TraceSpec(days=15, seed=348),
                architectures=default_architecture_specs()[:3],
                tp_sizes=(32,),
                n_nodes=288,
                job_gpus=512,
            ),
            experiments=("waste", "goodput"),
        )
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "results.json"
        spec_path.write_text(spec.to_json())

        assert main(["run", "--spec", str(spec_path),
                     "--output", str(out_path), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario=cli-smoke" in out
        assert "InfiniteHBD(K=2)" in out

        restored = ResultSet.from_json(out_path.read_text())
        assert len(restored) == 6  # (waste + goodput) x 3 architectures
        assert restored == run_experiment(spec, max_workers=1)

    def test_run_summary_counts_rows_not_tasks(self, capsys, tmp_path):
        from repro.cli import main

        # One blast_radius task per (architecture, TP) writes a row per
        # correlation level: 2 tasks, 4 rows.
        spec = ExperimentSpec.of(
            scenario=small_spec(
                tp_sizes=(32,), workload=WorkloadSpec(n_jobs=6, seed=1)
            ).scenario,
            experiments=("blast_radius",),
            options={"blast_radius": {"placements": ["packed"], "correlations": [0.0, 1.0]}},
        )
        assert len(ExperimentRunner(spec).tasks()) == 2
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())

        assert main(["run", "--spec", str(spec_path), "--workers", "1"]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert "rows=4" in summary.split()

    def test_architectures_subcommand(self, capsys):
        from repro.cli import main

        assert main(["architectures"]) == 0
        out = capsys.readouterr().out
        assert "InfiniteHBD(K=2)" in out
        assert "infinitehbd" in out
