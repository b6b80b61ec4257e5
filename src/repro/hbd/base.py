"""Common interface for HBD architecture models.

The large-scale evaluation of the paper (section 6.2) compares architectures
through three node-fault driven metrics:

* **GPU waste ratio** -- healthy GPUs that cannot join any TP group (because
  of fragmentation, disconnection or fault-radius propagation), divided by
  the total GPU count.
* **Maximum job scale** -- the largest multiple of the TP size that the
  cluster can serve under a fault set.
* **Fault-waiting** -- whether a job of a given scale can run at all.

All of these reduce to a single architecture-specific primitive:
``usable_gpus(n_nodes, faulty_nodes, tp_size)``.  Subclasses implement it;
this base class derives the rest.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Iterable


@dataclass(frozen=True)
class WasteBreakdown:
    """Detailed GPU accounting for one fault scenario."""

    total_gpus: int
    faulty_gpus: int
    usable_gpus: int

    @property
    def healthy_gpus(self) -> int:
        return self.total_gpus - self.faulty_gpus

    @property
    def wasted_gpus(self) -> int:
        """Healthy GPUs that cannot be used."""
        return self.healthy_gpus - self.usable_gpus

    @property
    def waste_ratio(self) -> float:
        """Wasted healthy GPUs over the total GPU count (paper definition)."""
        if self.total_gpus == 0:
            return 0.0
        return self.wasted_gpus / self.total_gpus

    @property
    def unavailable_ratio(self) -> float:
        """Wasted plus faulty GPUs over the total (used for aggregate cost)."""
        if self.total_gpus == 0:
            return 0.0
        return (self.wasted_gpus + self.faulty_gpus) / self.total_gpus


@dataclass(frozen=True)
class PlacementGroup:
    """A placement domain: healthy nodes a TP group must not straddle.

    ``nodes`` are the healthy node ids of the domain in deployment order;
    ``nodes_per_group`` is the number of whole nodes one TP group of the
    queried ``tp_size`` consumes inside this domain (``ceil(tp / R)`` for
    sharable domains; the full domain for dedicated combinations such as
    multi-cube TPUv4 groups).  Placement is node-granular: a node belongs to
    at most one job, so a domain holds ``capacity_groups`` TP groups and any
    ``nodes_per_group`` free nodes of the domain can host one of them.

    When ``tp_size`` is a multiple of ``gpus_per_node`` (every evaluated
    configuration), ``sum(g.capacity_gpus for g in groups)`` equals
    ``usable_gpus`` exactly; otherwise node granularity makes the placed
    capacity a documented conservative lower bound.
    """

    nodes: tuple[int, ...]
    nodes_per_group: int
    tp_size: int

    @property
    def capacity_groups(self) -> int:
        """TP groups this domain can host when all its nodes are free."""
        return len(self.nodes) // self.nodes_per_group

    @property
    def capacity_gpus(self) -> int:
        return self.capacity_groups * self.tp_size


@dataclass(frozen=True)
class CountDecomposition:
    """``usable_gpus`` as a sum of per-domain fault-count lookups.

    For architectures whose capacity decomposes over independent node
    domains (switch, units, rings, cubes), ``usable_gpus`` depends on the
    fault set only through the *number* of faults inside each domain:

    ``usable = sum(tables[table_of_domain[d]][faults_in_domain_d])``

    ``domain_of_node[node]`` maps each node to its domain (``-1`` = the node
    never contributes, e.g. nodes beyond the last complete ring); domains
    with identical lookup tables share one entry in ``tables`` via
    ``table_of_domain``.  The batched Monte-Carlo engine (:mod:`repro.mc`)
    turns this into vectorized table gathers over whole seed blocks;
    :meth:`usable_gpus` is the scalar reference evaluator the equivalence
    tests check against the architecture's own ``usable_gpus``.
    """

    domain_of_node: tuple[int, ...]
    tables: tuple[tuple[int, ...], ...]
    table_of_domain: tuple[int, ...]

    def usable_gpus(self, faulty_nodes: Iterable[int]) -> int:
        """Scalar reference evaluation (faulty ids must be in range)."""
        counts = [0] * len(self.table_of_domain)
        for node in faulty_nodes:
            domain = self.domain_of_node[node]
            if domain >= 0:
                counts[domain] += 1
        return sum(
            self.tables[self.table_of_domain[domain]][count]
            for domain, count in enumerate(counts)
        )


@dataclass(frozen=True)
class HealthyGroupDecomposition:
    """``usable_gpus`` as whole-domain groups of fault-free domains.

    For dedicated multi-domain TP groups (TPUv4 with ``tp > cube_size``):
    a domain contributes only when completely fault-free, and every
    ``group_size`` healthy domains host one TP group:

    ``usable = (healthy_domains // group_size) * tp_size``

    ``domain_of_node`` follows the :class:`CountDecomposition` convention
    (``-1`` = excluded); ``n_domains`` counts the domains (all of which are
    healthy when no fault touches them).
    """

    domain_of_node: tuple[int, ...]
    n_domains: int
    group_size: int
    tp_size: int

    def usable_gpus(self, faulty_nodes: Iterable[int]) -> int:
        """Scalar reference evaluation (faulty ids must be in range)."""
        hit: set[int] = set()
        for node in faulty_nodes:
            domain = self.domain_of_node[node]
            if domain >= 0:
                hit.add(domain)
        healthy = self.n_domains - len(hit)
        return (healthy // self.group_size) * self.tp_size


#: A fault-count kernel: either decomposition form, or ``None`` when the
#: architecture's capacity is not a function of per-domain fault counts.
FaultCountKernel = CountDecomposition | HealthyGroupDecomposition


class HBDArchitecture(abc.ABC):
    """Abstract HBD architecture.

    Parameters
    ----------
    gpus_per_node:
        ``R`` -- GPUs per node.  All evaluated clusters are homogeneous.
    """

    #: Human-readable architecture name (used as legend label in benches).
    name: str = "abstract"

    def __init__(self, gpus_per_node: int = 4) -> None:
        if gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        self.gpus_per_node = gpus_per_node

    # ------------------------------------------------------------- interface
    @abc.abstractmethod
    def usable_gpus(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> int:
        """GPUs that can participate in TP groups of ``tp_size``.

        ``faulty_nodes`` is a set of node indices in ``[0, n_nodes)``; a
        faulty node loses all of its GPUs.  The return value is always a
        multiple of ``tp_size``.
        """

    # ------------------------------------------------------------ derived API
    def total_gpus(self, n_nodes: int) -> int:
        return n_nodes * self.gpus_per_node

    def breakdown(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> WasteBreakdown:
        """Full GPU accounting for one fault scenario."""
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        usable = self.usable_gpus(n_nodes, faulty, tp_size)
        total = self.total_gpus(n_nodes)
        faulty_gpus = len(faulty) * self.gpus_per_node
        if usable > total - faulty_gpus:
            raise RuntimeError(
                f"{self.name}: usable ({usable}) exceeds healthy GPUs "
                f"({total - faulty_gpus})"
            )
        return WasteBreakdown(
            total_gpus=total, faulty_gpus=faulty_gpus, usable_gpus=usable
        )

    # ------------------------------------------------------ count decomposition
    def fault_count_decomposition(
        self, n_nodes: int, tp_size: int
    ) -> FaultCountKernel | None:
        """Per-domain fault-count kernel of ``usable_gpus``, when one exists.

        When the return value is not ``None``, its reference evaluation
        equals ``usable_gpus(n_nodes, faulty, tp_size)`` for **every** fault
        set (property-tested), which lets the batched Monte-Carlo engine
        evaluate whole seed blocks with table gathers instead of per-interval
        Python calls.  The base implementation returns ``None`` -- correct
        for architectures whose capacity depends on *which* nodes failed,
        not just how many per domain.  The batched engine then replays
        InfiniteHBD's K-hop segments through its own segment pass and any
        other such architecture through the exact scalar replay per seed.
        """
        return None

    # ------------------------------------------------------------- placement
    def nodes_per_tp_group(self, tp_size: int) -> int:
        """Whole nodes one TP group of ``tp_size`` GPUs occupies (>= 1)."""
        if tp_size < 1:
            raise ValueError("tp_size must be >= 1")
        return max(1, -(-tp_size // self.gpus_per_node))

    def placement_groups(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> tuple[PlacementGroup, ...]:
        """Disjoint placement domains under a fault set.

        A TP group must be placed entirely inside one domain; the node-level
        placement scheduler carves jobs out of these.  The base
        implementation is the Big-Switch semantics -- one flat domain over
        every healthy node; architectures with internal structure (rings,
        cubes, units, segments) override it so placement respects the same
        boundaries ``usable_gpus`` charges fragmentation against.
        """
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        healthy = tuple(n for n in range(n_nodes) if n not in faulty)
        if not healthy:
            return ()
        return (
            PlacementGroup(
                nodes=healthy,
                nodes_per_group=self.nodes_per_tp_group(tp_size),
                tp_size=tp_size,
            ),
        )

    def waste_ratio(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> float:
        """Healthy-but-unusable GPUs over total GPUs."""
        return self.breakdown(n_nodes, faulty_nodes, tp_size).waste_ratio

    # --------------------------------------------------------------- helpers
    def _clean_faults(
        self, n_nodes: int, faulty_nodes: Iterable[int]
    ) -> frozenset[int]:
        return frozenset(f for f in faulty_nodes if 0 <= f < n_nodes)

    @staticmethod
    def _fit(gpus: int, tp_size: int) -> int:
        """Largest multiple of ``tp_size`` not exceeding ``gpus``."""
        if tp_size < 1:
            raise ValueError("tp_size must be >= 1")
        return (gpus // tp_size) * tp_size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(R={self.gpus_per_node})"
