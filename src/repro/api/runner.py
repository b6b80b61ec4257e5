"""Spec-driven experiment execution with process parallelism.

:class:`ExperimentRunner` turns an :class:`~repro.api.spec.ExperimentSpec`
into a deterministic list of independent tasks (one per experiment ×
architecture × TP size), executes them -- in parallel over a forked process
pool when more than one CPU is available -- and assembles the uniform
:class:`~repro.api.results.ResultSet`.

Four things make the runner faster than the seed's serial sweep loops even
on a single core:

* the fault trace is generated once per process and memoized
  (:meth:`TraceSpec.build`),
* the trace is swept into its exact
  :class:`~repro.faults.timeline.IntervalTimeline` once per (trace, cluster
  size), memoized on the trace
  (:meth:`~repro.faults.trace.FaultTrace.interval_timeline`), and that one
  interval set is replayed across the whole architecture x TP sweep --
  O(events log events) instead of O(samples x events) grid scans,
* each (architecture, TP) capacity cell is replayed once per run and shared
  by ``waste``, ``max_job_scale``, ``fault_waiting`` and ``goodput`` (whose
  one-job scheduler reads each interval's usable GPUs off the cell instead
  of recomputing them), and
* within each replay ``architecture.breakdown()`` is memoized per distinct
  fault set.

Capacity metrics (mean / p99 waste, supported job scale, waiting fraction)
are exact duration-weighted quantities over the intervals -- no
``sample_interval_hours`` dependence.  They take one path for any seed
count: a cell is the :class:`~repro.mc.BatchSeries` a replay returns (one
seed replayed through the scalar reference ``replay_intervals``, several
through one vectorized ``replay_batch`` pass), and every metric is read off
it per seed.  Goodput takes the same path: seed *i*'s one-job replay gets
the cell's usable-GPU column for seed *i*.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Callable, Mapping, Sequence
from multiprocessing.context import BaseContext
from typing import Any, TypeVar

from repro.api.results import (
    RESULT_SCHEMA_VERSION,
    CacheStats,
    ExperimentResult,
    Provenance,
    ResultSet,
)
from repro.api.spec import (
    ArchitectureSpec,
    CorrelatedFaultSpec,
    ExperimentSpec,
    Scenario,
    TraceSpec,
)
from repro.cache import ResultCache, _package_version, content_key
from repro.hbd.base import HBDArchitecture
from repro.mc import BatchSeries, TraceBatch, replay_batch, seed_stats
from repro.scheduler import ClusterReport, ClusterScheduler, PlacementPolicy, placement_by_name
from repro.simulation.cluster import replay_intervals
from repro.simulation.goodput import GoodputConfig, GoodputSimulator


# ------------------------------------------------------------- parallel plumbing
def _resolve_workers(max_workers: int | None, n_tasks: int) -> int:
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    return max(1, min(max_workers, n_tasks))


def _fork_context() -> BaseContext | None:
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


# ------------------------------------------------------ shared capacity cells
#: Replayed (architecture, TP) cells of the current run, keyed by (seed trace
#: specs, ``n_nodes``, canonical architecture spec, TP size).  ``waste``,
#: ``max_job_scale``, ``fault_waiting`` and ``goodput`` read one cell instead
#: of each replaying it.  Unlike the timelines, a cell depends on the
#: architecture registry, which may map a name to another plugin by the next
#: run, so :meth:`ExperimentRunner._execute` empties it before and after
#: every run.
_CellKey = tuple[tuple[TraceSpec, ...], int | None, str, int]
_CELL_CACHE: dict[_CellKey, BatchSeries] = {}


def _cell(
    spec: ExperimentSpec, payload: Mapping[str, Any], architecture: HBDArchitecture
) -> BatchSeries:
    """The task's cell replayed over every seed, once per run.

    One seed replays through the scalar reference ``replay_intervals``;
    several stack into one :class:`TraceBatch` for ``replay_batch``.
    """
    trace_specs = _seed_trace_specs(spec)
    key = (
        tuple(trace_specs),
        spec.scenario.n_nodes,
        json.dumps(payload["arch"], sort_keys=True),
        payload["tp_size"],
    )
    cached = _CELL_CACHE.get(key)
    if cached is not None:
        return cached
    timelines = [ts.build().interval_timeline(spec.scenario.n_nodes) for ts in trace_specs]
    if len(timelines) == 1:
        cell = replay_intervals(architecture, timelines[0], payload["tp_size"])
    else:
        batch = TraceBatch.from_timelines(timelines)
        cell = replay_batch(architecture, batch, payload["tp_size"])
    _CELL_CACHE[key] = cell
    return cell


# ------------------------------------------------------------ experiment tasks
def _scenario_nodes(scenario: Scenario) -> int:
    if scenario.n_nodes is not None:
        return scenario.n_nodes
    return scenario.trace.n_nodes


# -------------------------------------------------------- multi-seed plumbing
def _seed_trace_specs(spec: ExperimentSpec) -> list[TraceSpec]:
    """The spec's trace at seeds ``base, base + 1, ..., base + num_seeds - 1``.

    Seed 0 of the list is the spec's own trace, so every ``num_seeds=1``
    code path sees exactly the single-seed inputs it always did.
    """
    base = spec.scenario.trace
    return [
        dataclasses.replace(base, seed=base.seed + offset)
        for offset in range(spec.num_seeds)
    ]


def _aggregate_seed_metrics(
    per_seed: Sequence[Mapping[str, Any]],
) -> dict[str, Any]:
    """Fold per-seed metric dicts into Monte-Carlo columns.

    Every numeric metric ``X`` grows ``X_mean`` / ``X_stddev`` (ddof=1) /
    ``X_ci95`` (1.96 * stddev / sqrt(n)) siblings; the base ``X`` column
    becomes the cross-seed mean when the metric varies and keeps its exact
    single-seed value (and type -- cluster constants like ``total_gpus`` stay
    ints) when it does not.  Non-numeric metrics (policy names, flags) keep
    the base seed's value.  A ``num_seeds`` metric records the seed count.
    A lone seed's dict comes back as a copy, with none of these columns.
    """
    if len(per_seed) == 1:
        return dict(per_seed[0])
    aggregated: dict[str, Any] = {}
    for key in per_seed[0]:
        values = [metrics[key] for metrics in per_seed]
        first = values[0]
        if isinstance(first, bool) or not isinstance(first, (int, float)):
            aggregated[key] = first
            continue
        stats = seed_stats([float(value) for value in values])
        identical = all(value == first for value in values)
        aggregated[key] = first if identical else stats.mean
        aggregated[f"{key}_mean"] = stats.mean
        aggregated[f"{key}_stddev"] = stats.stddev
        aggregated[f"{key}_ci95"] = stats.ci95
    aggregated["num_seeds"] = len(per_seed)
    return aggregated


def _run_capacity_task(spec: ExperimentSpec, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    """waste / max_job_scale / fault_waiting: exact interval-replay experiments.

    Every aggregate is duration-weighted and exact, independent of any
    sampling grid, and computed per seed off the shared cell; the emitted
    series is the base seed's piecewise-constant step function.
    """
    scenario = spec.scenario
    experiment = payload["experiment"]
    arch_spec = ArchitectureSpec.from_dict(payload["arch"])
    tp_size = payload["tp_size"]
    architecture = arch_spec.build(gpus_per_node=scenario.trace.gpus_per_node)
    batch_series = _cell(spec, payload, architecture)
    base = batch_series.seed(0)

    per_seed: list[dict[str, Any]]
    if experiment == "waste":
        means = batch_series.mean_waste_ratios()
        p99s = batch_series.p99_waste_ratios()
        mins = batch_series.min_usable_gpus()
        per_seed = [
            {
                "mean_waste_ratio": means[i],
                "p99_waste_ratio": p99s[i],
                "min_usable_gpus": mins[i],
                "total_gpus": batch_series.total_gpus,
            }
            for i in range(batch_series.n_seeds)
        ]
        out_series: dict[str, Sequence[float]] = {
            "times_days": base.times_days.tolist(),
            "durations_hours": base.durations_hours.tolist(),
            "waste_ratios": base.waste_ratios.tolist(),
            "usable_gpus": base.usable_gpus.tolist(),
        }
    elif experiment == "max_job_scale":
        scales = batch_series.supported_job_scales(scenario.availability)
        per_seed = [
            {
                "max_job_scale": scales[i],
                "availability": scenario.availability,
                "total_gpus": batch_series.total_gpus,
            }
            for i in range(batch_series.n_seeds)
        ]
        out_series = {}
    else:  # fault_waiting
        job_scales = _fault_waiting_scales(spec)
        rates = batch_series.fault_waiting_rates(scenario.job_gpus)
        per_seed = [
            {"fault_waiting_rate": rates[i], "job_gpus": scenario.job_gpus}
            for i in range(batch_series.n_seeds)
        ]
        out_series = {
            "job_scales": job_scales,
            "waiting_rates": [base.fault_waiting_rates(s)[0] for s in job_scales],
        }

    metrics = _aggregate_seed_metrics(per_seed)
    return [
        ExperimentResult.of(
            experiment, scenario.name, architecture.name, tp_size, metrics, out_series
        ).to_dict()
    ]


_Default = TypeVar("_Default")


def _count_option(
    experiment: str, options: Mapping[str, Any], name: str, default: _Default
) -> int | _Default:
    """Option ``name``, an ``int`` >= 1 (not a ``bool``); another value raises naming it.

    An absent option is ``default``; so is ``null`` where ``default`` is ``None``.
    """
    value = options.get(name, default)
    if value is None and default is None:
        return default
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{experiment} option {name!r} must be an int >= 1, got {value!r}")
    return value


def _real_option(
    experiment: str, options: Mapping[str, Any], name: str, default: float
) -> float:
    """Option ``name``, a finite ``int`` or ``float`` (not a ``bool``), as a float."""
    value = options.get(name, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{experiment} option {name!r} must be a finite number, got {value!r}")
    return float(value)


def _fault_waiting_scales(spec: ExperimentSpec) -> list[int]:
    """The fault_waiting ``job_scales``; a bad one raises naming it.

    The option is a list, and every entry must be a positive whole number of
    GPUs.
    """
    job_scales = spec.options_for("fault_waiting").get("job_scales", [spec.scenario.job_gpus])
    if not isinstance(job_scales, (list, tuple)):
        raise ValueError(f"fault_waiting option 'job_scales' must be a list, got {job_scales!r}")
    for scale in job_scales:
        whole = isinstance(scale, int) or (isinstance(scale, float) and scale.is_integer())
        if isinstance(scale, bool) or not whole or scale < 1:
            raise ValueError(
                f"fault_waiting option 'job_scales': {scale!r} is not a positive whole number"
            )
    return [int(scale) for scale in job_scales]


def _goodput_config(spec: ExperimentSpec, tp_size: int) -> GoodputConfig:
    """The goodput job at ``tp_size``; a bad option raises naming the TP size.

    With ``scenario.n_nodes`` set, the job is also checked against the
    simulated cluster here; otherwise :class:`GoodputSimulator` checks it
    against the trace, which this check does not build.
    """
    scenario = spec.scenario
    options = spec.options_for("goodput")
    job_gpus = _count_option("goodput", options, "job_gpus", scenario.job_gpus)
    checkpoint_hours = _real_option("goodput", options, "checkpoint_interval_hours", 1.0)
    restart_hours = _real_option("goodput", options, "restart_overhead_hours", 0.25)
    try:
        config = GoodputConfig(
            job_gpus=job_gpus,
            tp_size=tp_size,
            checkpoint_interval_hours=checkpoint_hours,
            restart_overhead_hours=restart_hours,
        )
    except ValueError as error:
        raise ValueError(f"goodput at TP-{tp_size}: {error}") from None
    if scenario.n_nodes is not None:
        cluster_gpus = scenario.n_nodes * scenario.trace.gpus_per_node
        if config.job_gpus > cluster_gpus:
            raise ValueError(
                f"goodput at TP-{tp_size}: job_gpus ({config.job_gpus}) larger "
                f"than the cluster ({cluster_gpus} GPUs)"
            )
    return config


def _run_goodput_task(spec: ExperimentSpec, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    """The one-job goodput replay per seed, reading capacity off the shared cell."""
    scenario = spec.scenario
    arch_spec = ArchitectureSpec.from_dict(payload["arch"])
    tp_size = payload["tp_size"]
    architecture = arch_spec.build(gpus_per_node=scenario.trace.gpus_per_node)
    config = _goodput_config(spec, tp_size)
    cell = _cell(spec, payload, architecture)
    per_seed: list[dict[str, Any]] = []
    for index, trace_spec in enumerate(_seed_trace_specs(spec)):
        report = GoodputSimulator(
            architecture,
            trace_spec.build(),
            config,
            n_nodes=scenario.n_nodes,
            usable_gpus=cell.seed(index).usable_gpus.tolist(),
        ).run()
        per_seed.append({
            "goodput": report.goodput,
            "waiting_fraction": report.waiting_fraction,
            "job_impacting_faults": report.job_impacting_faults,
            "productive_hours": report.productive_hours,
            "waiting_hours": report.waiting_hours,
            "restart_hours": report.restart_hours,
            "total_hours": report.total_hours,
            "job_gpus": config.job_gpus,
        })
    metrics = _aggregate_seed_metrics(per_seed)
    return [
        ExperimentResult.of(
            "goodput", scenario.name, architecture.name, tp_size, metrics
        ).to_dict()
    ]


def _job_cap(architecture: HBDArchitecture, n_nodes: int, tp_size: int) -> int:
    """Half the simulated cluster as a TP multiple: one job queue suits the whole line-up."""
    total_gpus = architecture.total_gpus(n_nodes)
    return max(tp_size, total_gpus // 2 // tp_size * tp_size)


def _schedule_report(
    scenario: Scenario,
    architecture: HBDArchitecture,
    trace_spec: TraceSpec,
    tp_size: int,
    placement: PlacementPolicy | str | None,
) -> ClusterReport:
    """Replay the scenario's job queue on one trace with the given placement.

    The one scheduler run behind ``schedule`` and ``blast_radius``.
    """
    assert scenario.workload is not None  # ExperimentRunner.run checked it
    timeline = trace_spec.build().interval_timeline(scenario.n_nodes)
    max_gpus = _job_cap(architecture, timeline.n_nodes, tp_size)
    return ClusterScheduler(
        architecture,
        timeline,
        scenario.workload.build(tp_size=tp_size, max_gpus=max_gpus),
        policy=scenario.scheduler.build(),
        horizon_hours=scenario.scheduler.horizon_hours,
        placement=placement,
        backfill=scenario.scheduler.backfill,
    ).run()


def _run_schedule_task(spec: ExperimentSpec, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Multi-job cluster scheduling over the exact fault timeline."""
    scenario = spec.scenario
    arch_spec = ArchitectureSpec.from_dict(payload["arch"])
    tp_size = payload["tp_size"]
    architecture = arch_spec.build(gpus_per_node=scenario.trace.gpus_per_node)

    per_seed: list[dict[str, Any]] = []
    series: dict[str, Sequence[float]] = {}
    for trace_spec in _seed_trace_specs(spec):
        report = _schedule_report(
            scenario, architecture, trace_spec, tp_size, scenario.scheduler.build_placement()
        )
        per_seed.append({
            "policy": report.policy,
            "preemptive": report.preemptive,
            "placement": report.placement,
            "backfill": report.backfill,
            "n_jobs": report.n_jobs,
            "finished_jobs": report.finished_jobs,
            "makespan_hours": report.makespan_hours,
            "mean_jct_hours": report.mean_jct_hours,
            "p50_jct_hours": report.p50_jct_hours,
            "p99_jct_hours": report.p99_jct_hours,
            "mean_queueing_delay_hours": report.mean_queueing_delay_hours,
            "p99_queueing_delay_hours": report.p99_queueing_delay_hours,
            "cluster_goodput": report.cluster_goodput,
            "cluster_utilization": report.cluster_utilization,
            "mean_finish_time_fairness": report.mean_finish_time_fairness,
            "max_finish_time_fairness": report.max_finish_time_fairness,
            "jain_fairness_index": report.jain_fairness_index,
            "total_gpus": report.total_gpus,
        })
        if not series:  # the emitted series is the base seed's
            series = {
                "jct_hours": report.jct_hours(),
                "queueing_delays_hours": report.queueing_delays_hours(),
                "submit_hours": [job.submit_hour for job in report.jobs],
                "productive_hours": [job.productive_hours for job in report.jobs],
                "finish_time_fairness": report.finish_time_fairness(),
            }
    metrics = _aggregate_seed_metrics(per_seed)
    return [
        ExperimentResult.of(
            "schedule", scenario.name, architecture.name, tp_size, metrics, series
        ).to_dict()
    ]


def _blast_radius_options(spec: ExperimentSpec) -> tuple[list[str], list[float]]:
    """The blast-radius ``(placements, correlations)``; a bad one raises naming it.

    Both options are lists: every placement must name a placement policy and
    every correlation must be a number in [0, 1].
    """
    options = spec.options_for("blast_radius")
    placements = options.get("placements", ("packed", "spread"))
    correlations = options.get("correlations", (0.0, 0.5, 1.0))
    for option, values in (("placements", placements), ("correlations", correlations)):
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"blast_radius option {option!r} must be a list, got {values!r}")
    for name in placements:
        try:
            placement_by_name(str(name))
        except KeyError as error:
            raise ValueError(f"blast_radius option 'placements': {error.args[0]}") from None
    parsed: list[float] = []
    for value in correlations:
        try:
            correlation = float(value)
        except (TypeError, ValueError):
            correlation = math.nan
        if not 0.0 <= correlation <= 1.0:
            raise ValueError(f"blast_radius option 'correlations': {value!r} is not in [0, 1]")
        parsed.append(correlation)
    return [str(name) for name in placements], parsed


def _run_blast_radius_task(
    spec: ExperimentSpec, payload: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """Packed-vs-spread blast-radius study over correlation levels.

    For every (placement, correlation) cell the scenario's trace is replayed
    with the correlated overlay dialed to that level (the base trace is
    bit-identical across levels, so differences are pure overlay effects) in
    placed mode, and the deterministic fault-hit counters become the metrics:
    ``fault_events``, ``jobs_killed``, ``max_blast_radius`` and
    ``mean_blast_radius`` (jobs descheduled per fault transition).
    """
    scenario = spec.scenario
    arch_spec = ArchitectureSpec.from_dict(payload["arch"])
    tp_size = payload["tp_size"]
    architecture = arch_spec.build(gpus_per_node=scenario.trace.gpus_per_node)
    placements, correlations = _blast_radius_options(spec)
    corr_base = scenario.trace.correlated or CorrelatedFaultSpec()

    rows: list[dict[str, Any]] = []
    for placement in placements:
        for correlation in correlations:
            per_seed: list[dict[str, Any]] = []
            for trace_spec in _seed_trace_specs(spec):
                cell_spec = dataclasses.replace(
                    trace_spec,
                    correlated=dataclasses.replace(corr_base, correlation=correlation),
                )
                report = _schedule_report(scenario, architecture, cell_spec, tp_size, placement)
                per_seed.append({
                    "placement": placement,
                    "correlation": correlation,
                    "fault_events": report.fault_events,
                    "jobs_killed": report.jobs_killed,
                    "max_blast_radius": report.max_blast_radius,
                    "mean_blast_radius": report.mean_blast_radius,
                    "n_jobs": report.n_jobs,
                    "finished_jobs": report.finished_jobs,
                    "makespan_hours": report.makespan_hours,
                    "mean_jct_hours": report.mean_jct_hours,
                    "p99_jct_hours": report.p99_jct_hours,
                    "cluster_goodput": report.cluster_goodput,
                    "total_gpus": report.total_gpus,
                })
            metrics = _aggregate_seed_metrics(per_seed)
            rows.append(
                ExperimentResult.of(
                    "blast_radius", scenario.name, architecture.name, tp_size, metrics
                ).to_dict()
            )
    return rows


def _cross_tor_options(spec: ExperimentSpec) -> dict[str, Any]:
    """The cross_tor options, defaults filled in; a bad one raises naming it.

    ``methods`` is a list, and every entry must name a method
    :meth:`~repro.core.orchestrator.Orchestrator.place` accepts.
    """
    from repro.core.orchestrator import _PLACE_METHODS

    options = spec.options_for("cross_tor")
    methods = options.get("methods", ["greedy", "optimized"])
    if not isinstance(methods, (list, tuple)):
        raise ValueError(f"cross_tor option 'methods' must be a list, got {methods!r}")
    for method in methods:
        if method not in _PLACE_METHODS:
            raise ValueError(
                f"cross_tor option 'methods': unknown method {method!r}; "
                f"known: {list(_PLACE_METHODS)}"
            )
    return {
        "methods": list(methods),
        "k": _count_option("cross_tor", options, "k", 2),
        "nodes_per_tor": _count_option("cross_tor", options, "nodes_per_tor", 4),
        "tors_per_domain": _count_option("cross_tor", options, "tors_per_domain", 64),
        "job_scale_ratio": _real_option("cross_tor", options, "job_scale_ratio", 0.85),
        "fault_ratio": _real_option("cross_tor", options, "fault_ratio", 0.05),
    }


def _run_cross_tor_task(spec: ExperimentSpec, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    import numpy as np

    from repro.core.orchestrator import JobSpec, Orchestrator
    from repro.dcn.fattree import FatTreeConfig
    from repro.faults.model import sample_fault_set

    scenario = spec.scenario
    options = _cross_tor_options(spec)
    method = payload["method"]
    tp_size = payload["tp_size"]
    n_nodes = _scenario_nodes(scenario)
    gpus_per_node = scenario.trace.gpus_per_node
    total_gpus = n_nodes * gpus_per_node

    orchestrator = Orchestrator(
        n_nodes=n_nodes,
        k=options["k"],
        fat_tree_config=FatTreeConfig(
            n_nodes=n_nodes,
            nodes_per_tor=options["nodes_per_tor"],
            tors_per_domain=options["tors_per_domain"],
        ),
    )
    fault_ratio = options["fault_ratio"]
    job_gpus = int(options["job_scale_ratio"] * total_gpus) // tp_size * tp_size
    job = JobSpec(total_gpus=job_gpus, tp_size=tp_size, gpus_per_node=gpus_per_node)
    faults = sample_fault_set(
        n_nodes, fault_ratio, np.random.default_rng(scenario.seed)
    )
    result, report = orchestrator.place_and_report(
        job, faults, method=method, seed=scenario.seed
    )
    metrics = {
        "cross_tor_rate": report.cross_tor_rate,
        "satisfied": bool(result.satisfied),
        "constraints_used": result.constraints_used,
        "job_gpus": job_gpus,
        "fault_ratio": fault_ratio,
    }
    return [
        ExperimentResult.of(
            "cross_tor", scenario.name, f"orchestrator:{method}", tp_size, metrics
        ).to_dict()
    ]


def _mfu_options(spec: ExperimentSpec) -> dict[str, Any]:
    """The mfu options, defaults filled in; a bad one raises naming it.

    ``model`` is ``llama`` or ``moe``.  An absent or ``null``
    ``global_batch`` is the model's default batch, and ``max_tp`` caps
    nothing.
    """
    options = spec.options_for("mfu")
    model = options.get("model", "llama")
    if model not in ("llama", "moe"):
        raise ValueError(f"mfu option 'model': unknown model {model!r}; known: ['llama', 'moe']")
    global_batch = _count_option("mfu", options, "global_batch", None)
    return {
        "model": str(model),
        "gpus": _count_option("mfu", options, "gpus", 8192),
        "global_batch": global_batch or (2048 if model == "llama" else 1536),
        "imbalance": _real_option("mfu", options, "imbalance", 0.2),
        "max_tp": _count_option("mfu", options, "max_tp", None),
    }


def _run_mfu_task(spec: ExperimentSpec, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    from repro.training.models import gpt_moe_1t, llama31_405b
    from repro.training.parallelism import search_optimal_strategy

    scenario = spec.scenario
    options = _mfu_options(spec)
    global_batch = options["global_batch"]
    if options["model"] == "llama":
        model = llama31_405b()
        ep_choices: Sequence[int] = (1,)
    else:
        model = gpt_moe_1t()
        ep_choices = (1, 2, 4, 8)
    result = search_optimal_strategy(
        model,
        options["gpus"],
        global_batch,
        ep_choices=ep_choices,
        expert_imbalance_coef=options["imbalance"],
        max_tp=options["max_tp"],
    )
    if result.best_config is None:
        metrics: dict[str, Any] = {"feasible": False}
    else:
        c, e = result.best_config, result.best_estimate
        metrics = {
            "feasible": True,
            "mfu": e.mfu,
            "iteration_time_s": e.iteration_time_s,
            "bubble_fraction": e.bubble_fraction,
            "memory_gib_per_gpu": e.memory_gib_per_gpu,
            "tp": c.tp,
            "pp": c.pp,
            "dp": c.dp,
            "ep": c.ep,
            "global_batch": global_batch,
        }
    return [
        ExperimentResult.of("mfu", scenario.name, model.name, 0, metrics).to_dict()
    ]


def _cost_include_hpn(spec: ExperimentSpec) -> bool:
    """The cost ``include_hpn`` option, a ``bool``; another value raises naming it."""
    include_hpn = spec.options_for("cost").get("include_hpn", False)
    if not isinstance(include_hpn, bool):
        raise ValueError(f"cost option 'include_hpn' must be a bool, got {include_hpn!r}")
    return include_hpn


def _run_cost_task(spec: ExperimentSpec, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    from repro.cost.analysis import interconnect_cost_table

    scenario = spec.scenario
    rows = interconnect_cost_table(include_hpn=_cost_include_hpn(spec))
    return [
        ExperimentResult.of(
            "cost",
            scenario.name,
            row.name,
            0,
            {
                "cost_per_gpu": row.cost_per_gpu,
                "power_per_gpu": row.power_per_gpu,
                "cost_per_gBps": row.cost_per_gBps,
                "power_per_gBps": row.power_per_gBps,
            },
        ).to_dict()
        for row in rows
    ]


_HANDLERS: dict[str, Callable[[ExperimentSpec, Mapping[str, Any]], list[dict[str, Any]]]] = {
    "waste": _run_capacity_task,
    "max_job_scale": _run_capacity_task,
    "fault_waiting": _run_capacity_task,
    "goodput": _run_goodput_task,
    "schedule": _run_schedule_task,
    "blast_radius": _run_blast_radius_task,
    "cross_tor": _run_cross_tor_task,
    "mfu": _run_mfu_task,
    "cost": _run_cost_task,
}

#: The option keys each experiment reads; the runner rejects any other key.
_OPTION_KEYS: dict[str, tuple[str, ...]] = {
    "waste": (),
    "max_job_scale": (),
    "fault_waiting": ("job_scales",),
    "goodput": ("job_gpus", "checkpoint_interval_hours", "restart_overhead_hours"),
    "schedule": (),
    "blast_radius": ("placements", "correlations"),
    "cross_tor": (
        "methods",
        "k",
        "nodes_per_tor",
        "tors_per_domain",
        "job_scale_ratio",
        "fault_ratio",
    ),
    "mfu": ("model", "gpus", "global_batch", "imbalance", "max_tp"),
    "cost": ("include_hpn",),
}

#: Experiments swept over the architecture × TP-size grid.
_ARCH_SWEEP_EXPERIMENTS = (
    "waste",
    "max_job_scale",
    "fault_waiting",
    "goodput",
    "schedule",
    "blast_radius",
)

#: Experiments that replay the shared exact interval timeline (warmed before
#: the pool forks).
_TIMELINE_EXPERIMENTS = ("waste", "max_job_scale", "fault_waiting", "goodput", "schedule")

#: Experiments that schedule the scenario's job queue.
_WORKLOAD_EXPERIMENTS = ("schedule", "blast_radius")


def _execute_payload(payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Top-level task entry point (picklable for the process pool)."""
    spec = ExperimentSpec.from_dict(payload["spec"])
    return _HANDLERS[payload["experiment"]](spec, payload)


# ---------------------------------------------------------------- the runner
class ExperimentRunner:
    """Execute an :class:`ExperimentSpec` and collect a :class:`ResultSet`.

    ``ExperimentRunner(spec, num_seeds=N)`` (or ``spec.num_seeds``) repeats
    the architecture-sweep experiments over ``N`` trace seeds: the capacity
    experiments replay all seeds in one vectorized :mod:`repro.mc` pass, and
    every numeric metric grows ``*_mean`` / ``*_stddev`` / ``*_ci95``
    columns.  ``num_seeds=1`` (the default) adds no columns.

    ``ExperimentRunner(spec, cache="memory"|"disk")`` (or ``spec.cache``)
    consults the content-addressed result store (:mod:`repro.cache`) before
    computing each task and writes fresh rows back on miss; cached rows are
    re-stamped with this run's provenance, so hit and miss results are
    bit-for-bit identical.

    >>> from repro.api.spec import ArchitectureSpec, ExperimentSpec, Scenario, TraceSpec
    >>> spec = ExperimentSpec.of(
    ...     scenario=Scenario(
    ...         name="doc",
    ...         trace=TraceSpec(days=5, seed=1),
    ...         architectures=(ArchitectureSpec(name="Big-Switch"),
    ...                        ArchitectureSpec(name="NVL-72")),
    ...         tp_sizes=(32,),
    ...         n_nodes=288,
    ...     ),
    ...     experiments=("waste", "max_job_scale"),
    ...     max_workers=1,
    ... )
    >>> runner = ExperimentRunner(spec)
    >>> len(runner.tasks())   # experiment x architecture x TP size
    4
    >>> results = runner.run()
    >>> sorted(set(r.experiment for r in results))
    ['max_job_scale', 'waste']
    >>> results.filter(architecture="Big-Switch")[0].provenance.spec_sha256 == spec.digest()
    True
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        max_workers: int | None = None,
        num_seeds: int | None = None,
        cache: str | None = None,
    ) -> None:
        overrides: dict[str, Any] = {}
        if num_seeds is not None and num_seeds != spec.num_seeds:
            # The override becomes part of the effective spec, so stamped
            # digests always describe what actually ran.
            overrides["num_seeds"] = num_seeds
        if cache is not None and cache != spec.cache:
            overrides["cache"] = cache
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        self.spec = spec
        self.max_workers = max_workers if max_workers is not None else spec.max_workers

    def tasks(self) -> list[dict[str, Any]]:
        """The deterministic task list (experiment × architecture × TP)."""
        spec = self.spec
        scenario = spec.scenario
        spec_dict = spec.to_dict()
        payloads: list[dict[str, Any]] = []
        for experiment in spec.experiments:
            if experiment in _ARCH_SWEEP_EXPERIMENTS:
                if not scenario.architectures:
                    raise ValueError(
                        f"experiment {experiment!r} needs scenario.architectures"
                    )
                for arch in scenario.architectures:
                    for tp in scenario.tp_sizes:
                        payloads.append({
                            "spec": spec_dict,
                            "experiment": experiment,
                            "arch": arch.to_dict(),
                            "tp_size": tp,
                        })
            elif experiment == "cross_tor":
                for method in _cross_tor_options(spec)["methods"]:
                    payloads.append({
                        "spec": spec_dict,
                        "experiment": experiment,
                        "method": method,
                        "tp_size": scenario.tp_sizes[0],
                    })
            else:  # mfu, cost: one task each
                payloads.append({"spec": spec_dict, "experiment": experiment})
        return payloads

    def run(self) -> ResultSet:
        """Execute all tasks (cache-first, parallel on miss), stamp provenance."""
        self._check_scenario()
        payloads = self.tasks()
        mode = self.spec.cache
        cache_stats: CacheStats | None = None
        if mode == "off":
            rows_per_task = self._execute(payloads)
        else:
            store = ResultCache(mode)
            keys = [self._task_cache_key(p) for p in payloads]
            cached: list[list[dict[str, Any]] | None] = [store.get(k) for k in keys]
            miss_indices = [i for i, rows in enumerate(cached) if rows is None]
            computed = self._execute([payloads[i] for i in miss_indices])
            stored = 0
            for index, rows in zip(miss_indices, computed, strict=True):
                cached[index] = rows
                stored += store.put(keys[index], rows)
            rows_per_task = [rows for rows in cached if rows is not None]
            cache_stats = CacheStats(
                mode=mode,
                hits=len(payloads) - len(miss_indices),
                misses=len(miss_indices),
                stored=stored,
            )
        provenance = Provenance(
            seed=self.spec.scenario.seed,
            version=_package_version(),
            spec_sha256=self.spec.digest(),
        )
        results = [
            ExperimentResult.from_dict(data).with_provenance(provenance)
            for task_rows in rows_per_task
            for data in task_rows
        ]
        return ResultSet(results, cache_stats=cache_stats)

    def _check_scenario(self) -> None:
        """Reject a scenario that would fail mid-run, before any work starts.

        Rejects an option key its experiment does not read.  When an
        experiment sweeps the architectures, checks that the simulated
        cluster fits in the trace and builds each architecture once, so
        unknown names and bad parameters raise before the cache is read or a
        trace is built; checks the goodput job at every TP size; checks that
        the scheduling experiments have a job queue and builds a synthetic
        queue's config for every architecture and TP size, with the job cap
        the task passes; and parses the options of ``fault_waiting``,
        ``blast_radius``, ``cross_tor``, ``mfu`` and ``cost`` with the
        functions their tasks read them through.  This runs here
        rather than at spec parse time because plugin architectures may
        register after a spec is parsed.
        """
        scenario = self.spec.scenario
        experiments = self.spec.experiments
        for experiment, options in self.spec.options:
            known = _OPTION_KEYS[experiment]
            unknown = sorted(key for key, _ in options if key not in known)
            if unknown:
                raise ValueError(f"unknown {experiment} option(s) {unknown}; known: {list(known)}")
        architectures: list[HBDArchitecture] = []
        if any(experiment in _ARCH_SWEEP_EXPERIMENTS for experiment in experiments):
            trace = scenario.trace
            if scenario.n_nodes is not None and scenario.n_nodes > trace.n_nodes:
                raise ValueError(
                    f"scenario n_nodes={scenario.n_nodes} is larger than the fault trace's "
                    f"{trace.n_nodes} nodes (source_nodes={trace.source_nodes} at 8 GPUs "
                    f"per node, gpus_per_node={trace.gpus_per_node})"
                )
            architectures = [
                arch_spec.build(gpus_per_node=trace.gpus_per_node)
                for arch_spec in scenario.architectures
            ]
        if "goodput" in experiments:
            for tp_size in scenario.tp_sizes:
                _goodput_config(self.spec, tp_size)
        scheduling = [e for e in experiments if e in _WORKLOAD_EXPERIMENTS]
        if scheduling:
            workload = scenario.workload
            if workload is None:
                raise ValueError(f"experiment {scheduling[0]!r} needs scenario.workload")
            if workload.kind == "synthetic":
                n_nodes = _scenario_nodes(scenario)
                for architecture, tp_size in itertools.product(architectures, scenario.tp_sizes):
                    try:
                        workload.config(tp_size, _job_cap(architecture, n_nodes, tp_size))
                    except ValueError as error:
                        raise ValueError(
                            f"workload at TP-{tp_size} on {architecture.name}: {error}"
                        ) from None
        if "fault_waiting" in experiments:
            _fault_waiting_scales(self.spec)
        if "blast_radius" in experiments:
            _blast_radius_options(self.spec)
        if "cross_tor" in experiments:
            _cross_tor_options(self.spec)
        if "mfu" in experiments:
            _mfu_options(self.spec)
        if "cost" in experiments:
            _cost_include_hpn(self.spec)

    def _task_cache_key(self, payload: Mapping[str, Any]) -> str:
        """Content key of one task: everything that determines its rows.

        Covers the scenario, seed count, the experiment plus its options,
        and the task's own sweep axes -- but not ``max_workers`` or
        ``cache``, which change how results are obtained, never what they
        are.  The package and result-schema versions are folded in so any
        release or row-shape change invalidates every prior entry.
        """
        body: dict[str, Any] = {
            "package_version": _package_version(),
            "result_schema": RESULT_SCHEMA_VERSION,
            "scenario": self.spec.scenario.to_dict(),
            "num_seeds": self.spec.num_seeds,
            "experiment": payload["experiment"],
            "options": self.spec.options_for(payload["experiment"]),
        }
        for axis in ("arch", "method", "tp_size"):
            if axis in payload:
                body[axis] = payload[axis]
        return content_key(body)

    def _execute(self, payloads: Sequence[Mapping[str, Any]]) -> list[list[dict[str, Any]]]:
        """Compute tasks fresh: serial in-process, or mapped over a forked pool.

        Falls back to serial execution on a single worker or when fork is
        unavailable; results keep payload order either way, so the output is
        identical no matter how it was executed.
        """
        if not payloads:
            return []
        _CELL_CACHE.clear()
        try:
            self._warm_caches(payloads)
            workers = _resolve_workers(self.max_workers, len(payloads))
            context = _fork_context() if workers > 1 else None
            if context is None:
                return [_execute_payload(p) for p in payloads]
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                return list(pool.map(_execute_payload, payloads))
        finally:
            _CELL_CACHE.clear()

    def _warm_caches(self, payloads: Sequence[Mapping[str, Any]]) -> None:
        """Build the trace (and shared timelines) before the pool forks.

        Forked workers inherit the parent's memo caches copy-on-write, so
        warming here means the trace is generated and sampled exactly once
        per run instead of once per worker process.  Scoped to the
        experiments actually being computed, so a fully cached run warms
        nothing.
        """
        scenario = self.spec.scenario
        experiments = list(dict.fromkeys(p["experiment"] for p in payloads))
        trace_specs = _seed_trace_specs(self.spec)
        if any(e in _ARCH_SWEEP_EXPERIMENTS for e in experiments):
            for trace_spec in trace_specs:
                trace_spec.build()
        if any(e in _TIMELINE_EXPERIMENTS for e in experiments):
            for trace_spec in trace_specs:
                trace_spec.build().interval_timeline(scenario.n_nodes)


def run_experiment(
    spec: ExperimentSpec, max_workers: int | None = None, cache: str | None = None
) -> ResultSet:
    """One-call convenience wrapper around :class:`ExperimentRunner`.

    >>> from repro.api.spec import ArchitectureSpec, ExperimentSpec, Scenario, TraceSpec
    >>> results = run_experiment(ExperimentSpec.of(
    ...     scenario=Scenario(
    ...         name="doc",
    ...         trace=TraceSpec(days=5, seed=1),
    ...         architectures=(ArchitectureSpec(name="Big-Switch"),),
    ...         tp_sizes=(32,),
    ...         n_nodes=288,
    ...     ),
    ...     experiments=("waste",),
    ... ), max_workers=1)
    >>> (len(results), results[0].architecture)
    (1, 'Big-Switch')
    >>> 0.0 <= results[0].metric("mean_waste_ratio") < 1.0
    True
    """
    return ExperimentRunner(spec, max_workers=max_workers, cache=cache).run()
