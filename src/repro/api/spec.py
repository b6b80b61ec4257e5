"""Declarative experiment specifications.

A spec file describes *what* to run -- the fault trace, the architecture
line-up, TP sizes, the experiments -- without any imperative wiring.  Every
dataclass here is frozen, JSON round-trippable via ``to_dict``/``from_dict``,
and strict about unknown keys so typos in spec files fail loudly::

    {
      "scenario": {
        "name": "smoke",
        "trace": {"days": 20, "seed": 348, "gpus_per_node": 4},
        "architectures": ["InfiniteHBD(K=3)", "NVL-72"],
        "tp_sizes": [32],
        "n_nodes": 288
      },
      "experiments": ["waste", "goodput"]
    }

``ExperimentSpec.from_dict(json.load(f))`` turns that into a runnable spec;
:class:`~repro.api.runner.ExperimentRunner` executes it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.cache import CACHE_MODES
from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.faults.trace import FaultTrace
from repro.hbd.base import HBDArchitecture
from repro.hbd.registry import DEFAULT_LINEUP, REGISTRY
from repro.scheduler.jobs import JobSpec, check_finite, check_int, check_known_fields
from repro.scheduler.workload import WorkloadConfig, generate_workload
from repro.scheduler.placement import (
    PLACEMENT_NAMES,
    PlacementPolicy,
    placement_by_name,
)
from repro.scheduler.policies import POLICY_NAMES, SchedulingPolicy, policy_by_name

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.correlated import CorrelatedFaultConfig

#: Experiments the runner knows how to execute.
KNOWN_EXPERIMENTS = (
    "waste",
    "max_job_scale",
    "fault_waiting",
    "goodput",
    "schedule",
    "blast_radius",
    "cross_tor",
    "mfu",
    "cost",
)

#: Shared unknown-field validation (lives scheduler-side because this module
#: imports repro.scheduler, not the other way around).
_check_fields = check_known_fields


def _check_distinct(field_name: str, entries: Sequence[Any], keys: Sequence[str]) -> None:
    """Reject a sweep axis that lists one entry twice.

    Every entry becomes its own tasks and result rows, so a repeat would be
    computed and reported twice.  Two entries repeat when they compare equal
    or share a key; the error names the field and the key.
    """
    for i, key in enumerate(keys):
        if key in keys[:i] or entries[i] in entries[:i]:
            raise ValueError(f"{field_name} lists {key} more than once")


# --------------------------------------------------------------------- traces
@dataclass(frozen=True)
class CorrelatedFaultSpec:
    """Declarative correlated-failure overlay on a synthetic trace.

    Mirrors :class:`repro.faults.correlated.CorrelatedFaultConfig` minus the
    base generator config (which the owning :class:`TraceSpec` supplies):
    whole ``domain_size``-node failure domains go down together, arrivals
    come from a two-state Markov-modulated (quiet / burst) process at a
    time-averaged rate of ``correlation * domain_rate_per_day`` outages per
    day, and repairs are lognormal -- sub-daily median, heavy tail.

    ``correlation=0.0`` disables the overlay: the generated trace is
    byte-identical to the plain independent generator's.

    >>> spec = CorrelatedFaultSpec(correlation=0.5, domain_size=4)
    >>> CorrelatedFaultSpec.from_dict(spec.to_dict()) == spec
    True
    >>> CorrelatedFaultSpec(correlation=1.5)
    Traceback (most recent call last):
        ...
    ValueError: correlation must be in [0, 1]
    """

    correlation: float = 0.0
    domain_size: int = 8
    domain_rate_per_day: float = 0.25
    burst_multiplier: float = 4.0
    mean_quiet_days: float = 7.0
    mean_burst_days: float = 1.0
    repair_median_hours: float = 4.0
    repair_sigma: float = 1.2

    def __post_init__(self) -> None:
        check_int("domain_size", self.domain_size)
        # The generator config holds every other check: building it here
        # rejects a bad overlay before any work starts.
        self.config(SyntheticTraceConfig())

    def config(self, base: SyntheticTraceConfig) -> CorrelatedFaultConfig:
        """This overlay's generator config on top of the ``base`` generator."""
        from repro.faults.correlated import CorrelatedFaultConfig

        return CorrelatedFaultConfig(base=base, **dataclasses.asdict(self))

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> CorrelatedFaultSpec:
        _check_fields(cls, data)
        return cls(**data)


_TRACE_CACHE: dict[TraceSpec, FaultTrace] = {}
_TRACE_CACHE_LOCK = threading.Lock()


@dataclass(frozen=True)
class TraceSpec:
    """Declarative fault-trace configuration.

    ``kind="synthetic"`` generates the Appendix-A-calibrated 8-GPU-node trace
    and, when ``gpus_per_node == 4``, applies the Bayes 8-to-4 conversion --
    the two node granularities the paper evaluates.

    ``correlated`` layers domain-level correlated failures on top
    (:class:`CorrelatedFaultSpec`); ``None`` (the default) keeps the plain
    independent generator, and the field is omitted from serialized dumps
    when unset so pre-correlation spec files and digests are unchanged.

    >>> spec = TraceSpec(days=5, seed=1)
    >>> TraceSpec.from_dict(spec.to_dict()) == spec
    True
    >>> "correlated" in spec.to_dict()   # omitted when unset: digests stable
    False
    >>> trace = spec.build()   # memoized: built once per process
    >>> (trace.n_nodes, trace.gpus_per_node, trace.duration_days)
    (800, 4, 5)
    >>> burst = TraceSpec(days=5, seed=1,
    ...                   correlated=CorrelatedFaultSpec(correlation=0.5))
    >>> TraceSpec.from_dict(burst.to_dict()) == burst
    True
    """

    kind: str = "synthetic"
    days: int = 120
    seed: int = 348
    source_nodes: int = 400
    gpus_per_node: int = 4
    mean_fault_ratio: float = 0.0233
    p99_fault_ratio: float = 0.0722
    correlated: CorrelatedFaultSpec | None = None

    def __post_init__(self) -> None:
        for name in ("days", "seed", "source_nodes", "gpus_per_node"):
            check_int(name, getattr(self, name))
        if self.kind != "synthetic":
            raise ValueError(f"unknown trace kind {self.kind!r}; known: ['synthetic']")
        if self.gpus_per_node not in (4, 8):
            raise ValueError("gpus_per_node must be 4 or 8")
        # The generator config validates days, source nodes and fault ratios:
        # building it here rejects a bad spec before any work starts.
        self._synthetic_config()

    @property
    def n_nodes(self) -> int:
        """Nodes of the built trace: ``source_nodes`` 8-GPU nodes, resized.

        >>> TraceSpec(source_nodes=400, gpus_per_node=4).n_nodes
        800
        """
        return self.source_nodes * 8 // self.gpus_per_node

    def _synthetic_config(self) -> SyntheticTraceConfig:
        return SyntheticTraceConfig(
            n_nodes=self.source_nodes,
            duration_days=self.days,
            seed=self.seed,
            mean_fault_ratio=self.mean_fault_ratio,
            p99_fault_ratio=self.p99_fault_ratio,
        )

    def build(self) -> FaultTrace:
        """Generate (or fetch the memoized) trace for this spec.

        Traces are cached per process keyed on the full spec, so a sweep over
        eight architectures generates the trace once, and forked runner
        workers inherit the parent's cache for free.
        """
        with _TRACE_CACHE_LOCK:
            cached = _TRACE_CACHE.get(self)
        if cached is not None:
            return cached

        from repro.faults.convert import convert_trace_8gpu_to_4gpu

        base = self._synthetic_config()
        if self.correlated is not None:
            # At correlation=0 the correlated generator is an exact
            # pass-through, so this branch is byte-identical to the plain
            # generator whenever the overlay is inert.
            from repro.faults.correlated import generate_correlated_trace

            trace = generate_correlated_trace(self.correlated.config(base))
        else:
            trace = generate_synthetic_trace(base)
        if self.gpus_per_node == 4:
            trace = convert_trace_8gpu_to_4gpu(trace, seed=self.seed)
        elif self.gpus_per_node == 8:
            pass  # the generated trace is already 8 GPUs/node
        else:  # pragma: no cover - rejected in __post_init__
            raise ValueError("gpus_per_node must be 4 or 8")
        with _TRACE_CACHE_LOCK:
            _TRACE_CACHE.setdefault(self, trace)
        return trace

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        # Emitted only when set, so pre-correlation spec files (and their
        # digests) are unchanged.
        if self.correlated is None:
            del data["correlated"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> TraceSpec:
        _check_fields(cls, data)
        fields = dict(data)
        if fields.get("correlated") is not None:
            fields["correlated"] = CorrelatedFaultSpec.from_dict(fields["correlated"])
        return cls(**fields)


# -------------------------------------------------------------- architectures
@dataclass(frozen=True)
class ArchitectureSpec:
    """A registry name plus constructor parameter overrides.

    >>> ArchitectureSpec.from_dict("NVL-72").build(gpus_per_node=4).name
    'NVL-72'
    >>> spec = ArchitectureSpec.of("infinitehbd", k=3)
    >>> spec.to_dict()
    {'name': 'infinitehbd', 'params': {'k': 3}}
    >>> spec.build().name
    'InfiniteHBD(K=3)'
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, **params: Any) -> ArchitectureSpec:
        return cls(name=name, params=tuple(sorted(params.items())))

    def build(self, gpus_per_node: int = 4) -> HBDArchitecture:
        """Instantiate through the global architecture registry."""
        return REGISTRY.create(self.name, gpus_per_node=gpus_per_node, **dict(self.params))

    def to_dict(self) -> str | dict[str, Any]:
        if not self.params:
            return self.name
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: str | Mapping[str, Any]) -> ArchitectureSpec:
        if isinstance(data, str):
            return cls(name=data)
        _check_fields(cls, data)
        return cls.of(data["name"], **dict(data.get("params", {})))


def default_architecture_specs() -> tuple[ArchitectureSpec, ...]:
    """The paper's eight-architecture line-up as registry specs.

    >>> [spec.name for spec in default_architecture_specs()][:3]
    ['InfiniteHBD(K=2)', 'InfiniteHBD(K=3)', 'Big-Switch']
    >>> len(default_architecture_specs())
    8
    """
    return tuple(ArchitectureSpec(name=name) for name in DEFAULT_LINEUP)


# ------------------------------------------------------------------ workloads
@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative job queue for the ``schedule`` experiment.

    ``kind="synthetic"`` samples a Poisson-arrival, heavy-tailed queue via
    :func:`repro.scheduler.workload.generate_workload`; ``kind="explicit"``
    carries the jobs verbatim.  ``tp_size=None`` / ``max_gpus=None`` defer to
    the sweep's TP size and half the simulated cluster respectively, so one
    workload spec scales across the architecture x TP grid.  A synthetic
    spec is checked by its :class:`~repro.scheduler.workload.WorkloadConfig`
    at parse time, with an unset ``tp_size`` standing in as 1 and an unset
    ``max_gpus`` as the TP size.

    >>> spec = WorkloadSpec(n_jobs=3, seed=1)
    >>> jobs = spec.build(tp_size=8, max_gpus=64)
    >>> [job.name for job in jobs]
    ['job-0', 'job-1', 'job-2']
    >>> all(job.gpus % 8 == 0 and job.gpus <= 64 for job in jobs)
    True
    >>> WorkloadSpec.from_dict(spec.to_dict()) == spec
    True
    """

    kind: str = "synthetic"
    jobs: tuple[JobSpec, ...] = ()
    n_jobs: int = 100
    seed: int = 0
    tp_size: int | None = None
    max_gpus: int | None = None
    mean_interarrival_hours: float = 1.0
    median_tp_groups: float = 4.0
    sigma_tp_groups: float = 1.2
    median_work_hours: float = 8.0
    sigma_work_hours: float = 1.0
    checkpoint_interval_hours: float = 1.0
    restart_overhead_hours: float = 0.25

    def __post_init__(self) -> None:
        optional = [name for name in ("tp_size", "max_gpus") if getattr(self, name) is not None]
        for name in ["n_jobs", "seed", *optional]:
            check_int(name, getattr(self, name))
        if self.kind not in ("synthetic", "explicit"):
            raise ValueError(
                f"unknown workload kind {self.kind!r}; known: ['synthetic', 'explicit']"
            )
        if self.kind == "explicit" and not self.jobs:
            raise ValueError("explicit workloads need at least one job")
        if self.kind == "synthetic":
            if self.jobs:
                raise ValueError("synthetic workloads must not carry explicit jobs")
            tp_size = self.tp_size if self.tp_size is not None else 1
            self.config(tp_size, max_gpus=tp_size)

    def config(self, tp_size: int, max_gpus: int) -> WorkloadConfig:
        """The synthetic queue's generator config; the arguments fill the unset fields."""
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(WorkloadConfig)}
        if self.tp_size is None:
            fields["tp_size"] = tp_size
        if self.max_gpus is None:
            fields["max_gpus"] = max_gpus
        return WorkloadConfig(**fields)

    def build(self, tp_size: int, max_gpus: int) -> tuple[JobSpec, ...]:
        """The concrete job queue (``tp_size`` / ``max_gpus`` fill the defaults)."""
        if self.kind == "explicit":
            return self.jobs
        return generate_workload(self.config(tp_size, max_gpus))

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["jobs"] = [job.to_dict() for job in self.jobs]
        if not data["jobs"]:
            del data["jobs"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> WorkloadSpec:
        _check_fields(cls, data)
        fields = dict(data)
        if "jobs" in fields:
            fields["jobs"] = tuple(JobSpec.from_dict(j) for j in fields["jobs"])
        return cls(**fields)


@dataclass(frozen=True)
class SchedulerSpec:
    """Declarative scheduler configuration for the ``schedule`` experiment.

    ``horizon_hours=None`` runs the workload to completion (past the trace
    end the cluster is fault-free); a finite horizon hard-stops the replay
    and reports unfinished jobs.  ``placement`` selects node-level placement
    (``"packed"`` / ``"spread"``: jobs hold concrete node ids and fault hits
    are deterministic); ``None`` keeps the expected-value capacity replay.
    ``backfill`` lets small jobs jump a blocked FIFO head when they cannot
    delay its projected start.

    ``preemptive=False`` (the default) keeps each policy's own preemption
    mode -- off for ``fifo`` / ``smallest-first`` / ``shortest-remaining``,
    on for ``gittins`` and ``optimizer``, whose whole point is moving work
    mid-flight; ``preemptive=True`` forces preemption on for the classic
    queue orders.  The per-policy knobs (``gittins_*``, ``lookahead_k``,
    ``optimizer_*``) are serialized only when they differ from their
    defaults, so spec files and digests written before a knob existed stay
    byte-stable.

    >>> SchedulerSpec(policy="smallest-first", preemptive=True).build()
    SmallestFirstPolicy(smallest-first, preemptive)
    >>> SchedulerSpec(policy="gittins").build()   # preemptive by default
    GittinsPolicy(gittins, preemptive)
    >>> SchedulerSpec(policy="lookahead", lookahead_k=3).build().lookahead_k
    3
    >>> SchedulerSpec(placement="packed").build_placement()
    PackedPlacement(packed)
    >>> sorted(SchedulerSpec(policy="gittins").to_dict())   # knobs at defaults
    ['backfill', 'horizon_hours', 'placement', 'policy', 'preemptive']
    >>> SchedulerSpec(policy="lifo")
    Traceback (most recent call last):
        ...
    ValueError: unknown scheduling policy 'lifo'; known: ['fifo', 'smallest-first', 'shortest-remaining', 'gittins', 'lookahead', 'optimizer']
    >>> SchedulerSpec(placement="scattered")
    Traceback (most recent call last):
        ...
    ValueError: unknown placement policy 'scattered'; known: ['packed', 'spread']
    """

    policy: str = "fifo"
    preemptive: bool = False
    horizon_hours: float | None = None
    placement: str | None = None
    backfill: bool = False
    gittins_threshold_gpu_hours: float = 2048.0
    gittins_levels: int = 3
    gittins_starve_limit: float = 4.0
    lookahead_k: int = 5
    optimizer_horizon_hours: float = 8.0
    optimizer_stability_bonus: float = 0.5

    def __post_init__(self) -> None:
        for name in ("preemptive", "backfill"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name in ("gittins_levels", "lookahead_k"):
            check_int(name, getattr(self, name))
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown scheduling policy {self.policy!r}; known: {list(POLICY_NAMES)}"
            )
        check_finite(
            self,
            "horizon_hours",
            "gittins_threshold_gpu_hours",
            "gittins_starve_limit",
            "optimizer_horizon_hours",
            "optimizer_stability_bonus",
        )
        if self.horizon_hours is not None and self.horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")
        if self.placement is not None and self.placement not in PLACEMENT_NAMES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"known: {list(PLACEMENT_NAMES)}"
            )
        if self.gittins_threshold_gpu_hours <= 0:
            raise ValueError("gittins_threshold_gpu_hours must be positive")
        if self.gittins_levels < 1:
            raise ValueError("gittins_levels must be >= 1")
        if self.gittins_starve_limit <= 0:
            raise ValueError("gittins_starve_limit must be positive")
        if self.lookahead_k < 1:
            raise ValueError("lookahead_k must be >= 1")
        if self.optimizer_horizon_hours <= 0:
            raise ValueError("optimizer_horizon_hours must be positive")
        if self.optimizer_stability_bonus < 0:
            raise ValueError("optimizer_stability_bonus must be non-negative")

    def build(self) -> SchedulingPolicy:
        # False defers to the policy's own preemption mode; True forces it on.
        preemptive = True if self.preemptive else None
        if self.policy == "gittins":
            return policy_by_name(
                self.policy,
                preemptive,
                threshold_gpu_hours=self.gittins_threshold_gpu_hours,
                levels=self.gittins_levels,
                starve_limit=self.gittins_starve_limit,
            )
        if self.policy == "lookahead":
            return policy_by_name(self.policy, preemptive, k=self.lookahead_k)
        if self.policy == "optimizer":
            return policy_by_name(
                self.policy,
                preemptive,
                horizon_hours=self.optimizer_horizon_hours,
                stability_bonus=self.optimizer_stability_bonus,
            )
        return policy_by_name(self.policy, preemptive)

    def build_placement(self) -> PlacementPolicy | None:
        if self.placement is None:
            return None
        return placement_by_name(self.placement)

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        # Per-policy knobs are emitted only when they differ from their
        # defaults, keeping pre-knob spec files and digests byte-stable.
        for spec_field in dataclasses.fields(self):
            if (
                spec_field.name in _SCHEDULER_KNOB_FIELDS
                and data[spec_field.name] == spec_field.default
            ):
                del data[spec_field.name]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> SchedulerSpec:
        _check_fields(cls, data)
        return cls(**data)


#: Per-policy knob fields of :class:`SchedulerSpec`, serialized only when
#: they differ from their defaults (digest stability for pre-knob specs).
_SCHEDULER_KNOB_FIELDS = frozenset(
    {
        "gittins_threshold_gpu_hours",
        "gittins_levels",
        "gittins_starve_limit",
        "lookahead_k",
        "optimizer_horizon_hours",
        "optimizer_stability_bonus",
    }
)


# ------------------------------------------------------------------ scenarios
@dataclass(frozen=True)
class Scenario:
    """One evaluation scenario: a trace, a line-up, and the sweep axes.

    >>> scenario = Scenario.default("demo", tp_sizes=(8, 32), n_nodes=288)
    >>> (scenario.name, scenario.tp_sizes, len(scenario.architectures))
    ('demo', (8, 32), 8)
    >>> Scenario.from_dict(scenario.to_dict()) == scenario
    True
    """

    name: str
    trace: TraceSpec = field(default_factory=TraceSpec)
    architectures: tuple[ArchitectureSpec, ...] = ()
    tp_sizes: tuple[int, ...] = (32,)
    n_nodes: int | None = 720
    seed: int = 348
    job_gpus: int = 2560
    availability: float = 1.0
    workload: WorkloadSpec | None = None
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)

    def __post_init__(self) -> None:
        for tp in self.tp_sizes:
            check_int("tp_sizes", tp)
        for name in ("seed", "job_gpus") + (() if self.n_nodes is None else ("n_nodes",)):
            check_int(name, getattr(self, name))
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.tp_sizes or any(tp < 1 for tp in self.tp_sizes):
            raise ValueError("tp_sizes must be a non-empty tuple of positive ints")
        _check_distinct("tp_sizes", self.tp_sizes, [repr(tp) for tp in self.tp_sizes])
        # Keyed by the canonical JSON the runner keys its capacity cells by.
        _check_distinct(
            "architectures",
            self.architectures,
            [json.dumps(arch.to_dict(), sort_keys=True) for arch in self.architectures],
        )
        if not 0.0 < self.availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        if self.n_nodes is not None and self.n_nodes < 1:
            raise ValueError(
                f"n_nodes must be >= 1 (or None for the whole trace), got {self.n_nodes}"
            )

    @classmethod
    def default(cls, name: str = "default", **overrides: Any) -> Scenario:
        """The paper's 2,880-GPU line-up scenario with optional overrides."""
        overrides.setdefault("architectures", default_architecture_specs())
        return cls(name=name, **overrides)

    def to_dict(self) -> dict[str, Any]:
        data = {
            "name": self.name,
            "trace": self.trace.to_dict(),
            "architectures": [a.to_dict() for a in self.architectures],
            "tp_sizes": list(self.tp_sizes),
            "n_nodes": self.n_nodes,
            "seed": self.seed,
            "job_gpus": self.job_gpus,
            "availability": self.availability,
        }
        # Scheduler axes are emitted only when set, so pre-scheduler spec
        # files (and their digests) are unchanged.
        if self.workload is not None:
            data["workload"] = self.workload.to_dict()
        if self.scheduler != SchedulerSpec():
            data["scheduler"] = self.scheduler.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Scenario:
        _check_fields(cls, data)
        fields = dict(data)
        if "trace" in fields:
            fields["trace"] = TraceSpec.from_dict(fields["trace"])
        if "architectures" in fields:
            fields["architectures"] = tuple(
                ArchitectureSpec.from_dict(a) for a in fields["architectures"]
            )
        if "tp_sizes" in fields:
            fields["tp_sizes"] = tuple(fields["tp_sizes"])
        if fields.get("workload") is not None:
            fields["workload"] = WorkloadSpec.from_dict(fields["workload"])
        if "scheduler" in fields:
            fields["scheduler"] = SchedulerSpec.from_dict(fields["scheduler"])
        return cls(**fields)


# ------------------------------------------------------------------ the spec
@dataclass(frozen=True)
class ExperimentSpec:
    """A scenario plus the experiments to run over it.

    ``options`` carries per-experiment keyword overrides, keyed by experiment
    name (e.g. ``{"fault_waiting": {"job_scales": [2304, 2560]}}``).
    ``max_workers`` bounds the runner's process pool (``None`` = auto,
    ``0``/``1`` = serial).  ``num_seeds`` repeats every experiment over that
    many trace seeds (base seed, base seed + 1, ...) so results grow
    ``*_mean`` / ``*_stddev`` / ``*_ci95`` columns; ``1`` (the default) is
    the exact single-seed path and leaves serialized dumps and digests
    unchanged.  ``cache`` selects the runner's result cache
    (``"off"`` / ``"memory"`` / ``"disk"``, see :mod:`repro.cache`); it is a
    *how* knob like ``max_workers`` -- excluded from :meth:`digest` and
    emitted in dumps only when enabled, so cached and fresh runs share one
    provenance digest and ``cache="off"`` dumps are byte-identical to
    pre-cache ones.

    >>> spec = ExperimentSpec.of(
    ...     scenario=Scenario.default("demo", trace=TraceSpec(days=5, seed=1)),
    ...     experiments=("waste", "goodput"),
    ...     options={"goodput": {"job_gpus": 512}},
    ... )
    >>> ExperimentSpec.from_json(spec.to_json()) == spec
    True
    >>> spec.options_for("goodput")
    {'job_gpus': 512}
    >>> len(spec.digest())   # sha256 of the canonical JSON form
    64
    """

    scenario: Scenario
    experiments: tuple[str, ...] = ("waste",)
    options: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...] = ()
    max_workers: int | None = None
    num_seeds: int = 1
    cache: str = "off"

    def __post_init__(self) -> None:
        check_int("num_seeds", self.num_seeds)
        if self.max_workers is not None:
            check_int("max_workers", self.max_workers)
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be >= 1")
        if self.cache not in CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {self.cache!r}; known: {list(CACHE_MODES)}"
            )
        unknown = sorted(set(self.experiments) - set(KNOWN_EXPERIMENTS))
        if unknown:
            raise ValueError(
                f"unknown experiment(s) {unknown}; known: {list(KNOWN_EXPERIMENTS)}"
            )
        if not self.experiments:
            raise ValueError("experiments must be non-empty")
        _check_distinct("experiments", self.experiments, [repr(e) for e in self.experiments])
        bad_options = sorted(
            name for name, _ in self.options if name not in KNOWN_EXPERIMENTS
        )
        if bad_options:
            raise ValueError(
                f"options for unknown experiment(s) {bad_options}; "
                f"known: {list(KNOWN_EXPERIMENTS)}"
            )
        if "sample_interval_hours" in self.options_for("goodput"):
            raise ValueError(
                "goodput option 'sample_interval_hours' was removed: the goodput "
                "replay is event-driven and exact; drop it from the spec"
            )

    @classmethod
    def of(
        cls,
        scenario: Scenario,
        experiments: tuple[str, ...] = ("waste",),
        options: Mapping[str, Mapping[str, Any]] | None = None,
        max_workers: int | None = None,
        num_seeds: int = 1,
        cache: str = "off",
    ) -> ExperimentSpec:
        """Build a spec from plain mappings (the ergonomic constructor)."""
        packed = tuple(
            (name, tuple(sorted(opts.items())))
            for name, opts in sorted((options or {}).items())
        )
        return cls(
            scenario=scenario,
            experiments=tuple(experiments),
            options=packed,
            max_workers=max_workers,
            num_seeds=num_seeds,
            cache=cache,
        )

    def options_for(self, experiment: str) -> dict[str, Any]:
        for name, opts in self.options:
            if name == experiment:
                return dict(opts)
        return {}

    def to_dict(self) -> dict[str, Any]:
        data = {
            "scenario": self.scenario.to_dict(),
            "experiments": list(self.experiments),
            "options": {name: dict(opts) for name, opts in self.options},
            "max_workers": self.max_workers,
        }
        # Emitted only when it changes behaviour, so single-seed spec files
        # (and their digests) are unchanged.
        if self.num_seeds != 1:
            data["num_seeds"] = self.num_seeds
        if self.cache != "off":
            data["cache"] = self.cache
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> ExperimentSpec:
        _check_fields(cls, data)
        return cls.of(
            scenario=Scenario.from_dict(data["scenario"]),
            experiments=tuple(data.get("experiments", ("waste",))),
            options=data.get("options"),
            max_workers=data.get("max_workers"),
            num_seeds=data.get("num_seeds", 1),
            cache=str(data.get("cache", "off")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> ExperimentSpec:
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Stable SHA-256 of the canonical JSON form (stamped into results).

        The ``cache`` knob is excluded: it changes *how* results are
        obtained, never *what* they are, so a cached run carries the same
        provenance digest as the fresh run that populated the cache.
        """
        data = self.to_dict()
        data.pop("cache", None)
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
