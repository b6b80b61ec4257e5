"""Unified Experiment API: the canonical way to run every experiment.

The package ties three layers together:

* :data:`REGISTRY` -- the plugin registry of HBD architecture factories,
  defined beside the paper's line-up in :mod:`repro.hbd.registry` and
  re-exported here; new variants register with a decorator and become
  runnable by name everywhere, spec files included.
* :mod:`repro.api.spec` -- frozen, JSON-round-trippable experiment
  descriptions (:class:`TraceSpec`, :class:`ArchitectureSpec`,
  :class:`Scenario`, :class:`ExperimentSpec`).
* :mod:`repro.api.runner` -- :class:`ExperimentRunner`, which executes the
  architecture × TP-size sweep with process parallelism, memoized trace
  generation and shared fault timelines, emitting a uniform
  :class:`ResultSet` of :class:`ExperimentResult` records with provenance.

Quickstart::

    from repro.api import ExperimentSpec, Scenario, run_experiment

    spec = ExperimentSpec.of(
        scenario=Scenario.default("demo", tp_sizes=(32,), n_nodes=288, job_gpus=1024),
        experiments=("waste", "goodput"),
    )
    results = run_experiment(spec)
    for r in results.filter(experiment="waste"):
        print(r.architecture, r.metric("mean_waste_ratio"))

The same spec serializes to JSON (``spec.to_json()``) and runs from the
command line: ``python -m repro.cli run --spec spec.json``.
"""

from repro.hbd.registry import ArchitectureEntry, ArchitectureRegistry, REGISTRY
from repro.api.spec import (
    KNOWN_EXPERIMENTS,
    ArchitectureSpec,
    CorrelatedFaultSpec,
    ExperimentSpec,
    JobSpec,
    Scenario,
    SchedulerSpec,
    TraceSpec,
    WorkloadSpec,
    default_architecture_specs,
)
from repro.api.results import (
    RESULT_SCHEMA_VERSION,
    CacheStats,
    ExperimentResult,
    Provenance,
    ResultSet,
)
from repro.api.runner import ExperimentRunner, run_experiment

__all__ = [
    "ArchitectureEntry",
    "ArchitectureRegistry",
    "REGISTRY",
    "KNOWN_EXPERIMENTS",
    "ArchitectureSpec",
    "CorrelatedFaultSpec",
    "ExperimentSpec",
    "JobSpec",
    "Scenario",
    "SchedulerSpec",
    "TraceSpec",
    "WorkloadSpec",
    "default_architecture_specs",
    "RESULT_SCHEMA_VERSION",
    "CacheStats",
    "ExperimentResult",
    "Provenance",
    "ResultSet",
    "ExperimentRunner",
    "run_experiment",
]
