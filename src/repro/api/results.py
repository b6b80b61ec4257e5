"""Unified, serializable experiment results.

Every experiment the runner executes -- waste, max-job-scale, fault-waiting,
goodput, cross-ToR, MFU, cost -- emits the same record shape: a
:class:`ExperimentResult` with scalar ``metrics``, optional named ``series``
(time series / CDF inputs), and :class:`Provenance` (seed, package version,
spec digest) so any result file can be traced back to the exact spec that
produced it.  :class:`ResultSet` is the ordered container with JSON I/O.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping, Sequence
from typing import Any

#: Version of the ExperimentResult row shape.  Part of the runner's cache
#: key (:meth:`repro.api.runner.ExperimentRunner` -- see ``docs/api.md``),
#: so bumping it invalidates every cached row without touching cache files.
RESULT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CacheStats:
    """Result-cache counters for one runner invocation.

    ``hits`` tasks were served from the cache, ``misses`` were computed
    fresh, ``stored`` of those were written back (always equal to
    ``misses`` unless a write failed).  Attached to :class:`ResultSet` only
    when caching was on, so ``cache="off"`` output stays byte-identical to
    pre-cache dumps.

    >>> stats = CacheStats(mode="disk", hits=3, misses=1, stored=1)
    >>> CacheStats.from_dict(stats.to_dict()) == stats
    True
    """

    mode: str
    hits: int
    misses: int
    stored: int

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> CacheStats:
        return cls(
            mode=data["mode"],
            hits=data["hits"],
            misses=data["misses"],
            stored=data["stored"],
        )


@dataclass(frozen=True)
class Provenance:
    """Where a result came from: enough to reproduce it bit-for-bit.

    >>> stamp = Provenance(seed=348, version="0", spec_sha256="ab" * 32)
    >>> Provenance.from_dict(stamp.to_dict()) == stamp
    True
    """

    seed: int
    version: str
    spec_sha256: str

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Provenance:
        return cls(
            seed=data["seed"],
            version=data["version"],
            spec_sha256=data["spec_sha256"],
        )


@dataclass(frozen=True)
class ExperimentResult:
    """One (experiment, architecture, TP size) cell of a sweep.

    ``architecture`` is the legend name (or a pseudo-name such as
    ``orchestrator:greedy`` / a model name for non-architecture experiments);
    ``tp_size`` is 0 when the experiment has no TP axis.

    >>> result = ExperimentResult.of(
    ...     "waste", "demo", "NVL-72", 32,
    ...     metrics={"mean_waste_ratio": 0.05},
    ...     series={"waste_ratios": [0.0, 0.1]},
    ... )
    >>> result.metric("mean_waste_ratio")
    0.05
    >>> result.series_dict["waste_ratios"]
    (0.0, 0.1)
    >>> ExperimentResult.from_dict(result.to_dict()) == result
    True
    """

    experiment: str
    scenario: str
    architecture: str
    tp_size: int
    metrics: tuple[tuple[str, Any], ...]
    series: tuple[tuple[str, tuple[float, ...]], ...] = ()
    provenance: Provenance | None = None

    @classmethod
    def of(
        cls,
        experiment: str,
        scenario: str,
        architecture: str,
        tp_size: int,
        metrics: Mapping[str, Any],
        series: Mapping[str, Sequence[float]] | None = None,
        provenance: Provenance | None = None,
    ) -> ExperimentResult:
        return cls(
            experiment=experiment,
            scenario=scenario,
            architecture=architecture,
            tp_size=tp_size,
            metrics=tuple(sorted(metrics.items())),
            series=tuple(sorted((k, tuple(v)) for k, v in (series or {}).items())),
            provenance=provenance,
        )

    # ------------------------------------------------------------- accessors
    @property
    def metrics_dict(self) -> dict[str, Any]:
        return dict(self.metrics)

    @property
    def series_dict(self) -> dict[str, tuple[float, ...]]:
        return dict(self.series)

    def metric(self, name: str) -> Any:
        try:
            return self.metrics_dict[name]
        except KeyError:
            raise KeyError(
                f"result {self.experiment}/{self.architecture} has no metric "
                f"{name!r}; available: {sorted(self.metrics_dict)}"
            ) from None

    def metric_stats(self, name: str) -> dict[str, float | int]:
        """Monte-Carlo columns for one metric: mean / stddev / ci95 / n_seeds.

        Multi-seed results (``num_seeds > 1``) carry explicit ``<name>_mean``
        / ``<name>_stddev`` / ``<name>_ci95`` metrics; single-seed results
        degrade to a zero-spread point estimate, so callers can treat every
        result uniformly.

        >>> result = ExperimentResult.of(
        ...     "waste", "demo", "NVL-72", 32, metrics={"mean_waste_ratio": 0.05})
        >>> result.metric_stats("mean_waste_ratio")
        {'mean': 0.05, 'stddev': 0.0, 'ci95': 0.0, 'n_seeds': 1}
        """
        metrics = self.metrics_dict
        if f"{name}_mean" in metrics:
            return {
                "mean": metrics[f"{name}_mean"],
                "stddev": metrics[f"{name}_stddev"],
                "ci95": metrics[f"{name}_ci95"],
                "n_seeds": int(metrics.get("num_seeds", 1)),
            }
        return {
            "mean": float(self.metric(name)),
            "stddev": 0.0,
            "ci95": 0.0,
            "n_seeds": int(metrics.get("num_seeds", 1)),
        }

    def with_provenance(self, provenance: Provenance) -> ExperimentResult:
        return dataclasses.replace(self, provenance=provenance)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "architecture": self.architecture,
            "tp_size": self.tp_size,
            "metrics": self.metrics_dict,
        }
        if self.series:
            data["series"] = {k: list(v) for k, v in self.series}
        if self.provenance is not None:
            data["provenance"] = self.provenance.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> ExperimentResult:
        provenance = data.get("provenance")
        return cls.of(
            experiment=data["experiment"],
            scenario=data["scenario"],
            architecture=data["architecture"],
            tp_size=data["tp_size"],
            metrics=data["metrics"],
            series=data.get("series"),
            provenance=Provenance.from_dict(provenance) if provenance else None,
        )


@dataclass
class ResultSet:
    """Ordered collection of :class:`ExperimentResult` with JSON round-trip.

    >>> cell = lambda arch, tp, value: ExperimentResult.of(
    ...     "waste", "demo", arch, tp, {"mean_waste_ratio": value})
    >>> results = ResultSet([cell("NVL-72", 32, 0.05), cell("Big-Switch", 32, 0.01)])
    >>> len(results.filter(architecture="NVL-72"))
    1
    >>> results.metric_table("waste", "mean_waste_ratio")
    {'NVL-72': {32: 0.05}, 'Big-Switch': {32: 0.01}}
    >>> ResultSet.from_json(results.to_json()) == results
    True
    """

    results: list[ExperimentResult] = field(default_factory=list)
    cache_stats: CacheStats | None = None

    def __iter__(self) -> Iterator[ExperimentResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> ExperimentResult:
        return self.results[index]

    def filter(
        self,
        experiment: str | None = None,
        architecture: str | None = None,
        tp_size: int | None = None,
    ) -> ResultSet:
        """Sub-set matching every given axis (None = wildcard)."""
        return ResultSet([
            r for r in self.results
            if (experiment is None or r.experiment == experiment)
            and (architecture is None or r.architecture == architecture)
            and (tp_size is None or r.tp_size == tp_size)
        ])

    def architectures(self) -> list[str]:
        """Distinct architecture names, in first-seen order."""
        seen: dict[str, None] = {}
        for r in self.results:
            seen.setdefault(r.architecture)
        return list(seen)

    def metric_table(self, experiment: str, metric: str) -> dict[str, dict[int, Any]]:
        """``{architecture: {tp_size: value}}`` for one experiment metric."""
        table: dict[str, dict[int, Any]] = {}
        for r in self.filter(experiment=experiment):
            table.setdefault(r.architecture, {})[r.tp_size] = r.metric(metric)
        return table

    def stats_table(
        self, experiment: str, metric: str
    ) -> dict[str, dict[int, dict[str, float | int]]]:
        """``{architecture: {tp_size: {mean, stddev, ci95, n_seeds}}}``.

        The Monte-Carlo sibling of :meth:`metric_table`
        (:meth:`ExperimentResult.metric_stats` per cell); single-seed cells
        report zero spread.
        """
        table: dict[str, dict[int, dict[str, float | int]]] = {}
        for r in self.filter(experiment=experiment):
            table.setdefault(r.architecture, {})[r.tp_size] = r.metric_stats(metric)
        return table

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"results": [r.to_dict() for r in self.results]}
        # Emitted only when caching was on, so cache="off" dumps (and every
        # pre-cache result file) keep their exact byte layout.
        if self.cache_stats is not None:
            data["cache_stats"] = self.cache_stats.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> ResultSet:
        stats = data.get("cache_stats")
        return cls(
            [ExperimentResult.from_dict(r) for r in data["results"]],
            cache_stats=CacheStats.from_dict(stats) if stats else None,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> ResultSet:
        return cls.from_dict(json.loads(text))
