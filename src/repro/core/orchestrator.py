"""HBD-DCN orchestration algorithms (paper section 4.3 and Appendix D).

The orchestrator answers: given a job that needs ``s`` GPUs arranged into TP
groups of ``t`` GPUs, the current fault set, the InfiniteHBD deployment and
the Fat-Tree DCN, which nodes should host which TP group so that (1) every TP
group is contiguous on the HBD and (2) the outer-parallel (DP/CP/PP/SP)
traffic crosses as few ToRs as possible?

Implemented algorithms (numbering follows the paper):

* ``deployment_strategy``   -- Algorithm 3: interleave nodes into ``p``
  parallel sub-lines so that HBD neighbours sit under *different* ToRs while
  ToR-mates sit at the same position of different sub-lines.
* ``orchestrate_dcn_free``  -- Algorithm 2: DFS/segment based placement that
  only maximises GPU utilisation (no DCN awareness).
* ``placement_fat_tree``    -- Algorithm 4: placement under a given number of
  locality constraints (sub-line confinement + ToR-alignment of faults).
* ``orchestrate_fat_tree``  -- Algorithm 5 / Algorithm 1: binary search over
  the number of constraints; returns the most-constrained placement that
  still satisfies the job scale.
* ``greedy_placement``      -- the Baseline of section 6.4: respects HBD
  contiguity but ignores the DCN structure.

The high-level :class:`Orchestrator` couples these with the
:class:`~repro.dcn.traffic.TrafficModel` so that a single call produces both
the placement and its cross-ToR traffic report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.dcn.fattree import FatTree, FatTreeConfig
from repro.dcn.traffic import CrossToRReport, TrafficModel, TrafficVolumes


# --------------------------------------------------------------------------
# Data structures
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class TPGroup:
    """One tensor-parallel group: an ordered tuple of node ids.

    Node order matters -- consecutive nodes are HBD neighbours and the GPU
    ring is built along this order.
    """

    nodes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class JobSpec:
    """A training job request.

    Attributes
    ----------
    total_gpus:
        ``s`` -- GPUs the job needs in total.
    tp_size:
        ``t`` -- GPUs per TP group.
    gpus_per_node:
        ``r`` -- GPUs per node.
    """

    total_gpus: int
    tp_size: int
    gpus_per_node: int = 4

    def __post_init__(self) -> None:
        if self.total_gpus < 1 or self.tp_size < 1 or self.gpus_per_node < 1:
            raise ValueError("job parameters must be positive")
        if self.tp_size % self.gpus_per_node and self.gpus_per_node % self.tp_size:
            raise ValueError(
                "tp_size and gpus_per_node must divide one another "
                f"(got tp={self.tp_size}, r={self.gpus_per_node})"
            )
        if self.total_gpus % self.tp_size:
            raise ValueError("total_gpus must be a multiple of tp_size")

    @property
    def nodes_per_group(self) -> int:
        """``m`` -- nodes per TP group."""
        return max(1, -(-self.tp_size // self.gpus_per_node))

    @property
    def groups_needed(self) -> int:
        return self.total_gpus // self.tp_size


@dataclass
class DeploymentPlan:
    """Physical deployment of the HBD line over the DCN (Algorithm 3 output).

    ``order`` lists node ids in HBD (deployment) order: position ``i`` and
    ``i+1`` are HBD neighbours.  ``k`` is the hop count of the K-Hop topology,
    ``nodes_per_tor`` the interleaving factor ``p``.
    """

    order: list[int]
    k: int
    nodes_per_tor: int

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError("deployment order contains duplicate nodes")
        self._position = {node: i for i, node in enumerate(self.order)}

    @property
    def n_nodes(self) -> int:
        return len(self.order)

    def position_of(self, node: int) -> int:
        """Position of ``node`` in deployment (HBD) order."""
        return self._position[node]

    def edges(self) -> list[tuple[int, int]]:
        """All HBD links implied by the deployment (within K positions)."""
        result = []
        for i, a in enumerate(self.order):
            for j in range(i + 1, min(i + self.k + 1, len(self.order))):
                result.append((a, self.order[j]))
        return result


@dataclass
class OrchestrationResult:
    """Placement produced by one of the orchestration entry points."""

    placement: list[TPGroup]
    satisfied: bool
    constraints_used: int = 0
    method: str = "dcn_free"

    @property
    def placed_groups(self) -> int:
        return len(self.placement)

    def as_node_lists(self) -> list[list[int]]:
        """Placement as plain lists (for the traffic model)."""
        return [list(g.nodes) for g in self.placement]


# --------------------------------------------------------------------------
# Algorithm 3: deployment strategy
# --------------------------------------------------------------------------
def deployment_strategy(n_nodes: int, k: int, nodes_per_tor: int) -> DeploymentPlan:
    """Interleave physical nodes into ``p`` sub-lines (Algorithm 3).

    Sub-line ``i`` consists of the nodes whose intra-ToR index is ``i``
    (physical ids ``i, i+p, i+2p, ...``); the sub-lines are concatenated so a
    single HBD line covers every node.  HBD neighbours are therefore always
    in *different* ToRs (network distance 3) while ToR-mates occupy the same
    position of different sub-lines -- the property the Fat-Tree placement
    exploits to keep outer-parallel traffic under a ToR.

    Nodes beyond the largest multiple of ``p`` (an incompletely filled ToR)
    are appended at the end of the line.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if nodes_per_tor < 1:
        raise ValueError("nodes_per_tor must be >= 1")
    p = nodes_per_tor
    l = n_nodes // p
    order: list[int] = []
    for i in range(p):
        for j in range(l):
            order.append(i + j * p)
    for leftover in range(l * p, n_nodes):
        order.append(leftover)
    return DeploymentPlan(order=order, k=k, nodes_per_tor=p)


# --------------------------------------------------------------------------
# Algorithm 2: DCN-free orchestration
# --------------------------------------------------------------------------
def _healthy_runs(
    sequence: Sequence[int], faulty: set[int], k: int
) -> list[list[int]]:
    """Split ``sequence`` into healthy runs bridgeable across < k faults.

    Adjacent healthy entries stay in the same run when fewer than ``k``
    consecutive faulty entries separate them (the backup links of the K-Hop
    topology bridge such gaps); a longer fault run is a breakpoint.
    """
    runs: list[list[int]] = []
    current: list[int] = []
    gap = 0
    for node in sequence:
        if node in faulty:
            gap += 1
            continue
        if current and gap >= k:
            runs.append(current)
            current = []
        current.append(node)
        gap = 0
    if current:
        runs.append(current)
    return runs


def orchestrate_dcn_free(
    sequence: Sequence[int],
    k: int,
    faulty: Iterable[int],
    nodes_per_group: int,
) -> list[TPGroup]:
    """Algorithm 2: place TP groups greedily on healthy HBD segments.

    ``sequence`` is a node sequence in HBD order (the full deployment order or
    a sub-line of it).  Healthy connected components are found by bridging
    fault gaps shorter than ``k``; each component is then chopped into
    consecutive groups of ``nodes_per_group`` nodes.
    """
    if nodes_per_group < 1:
        raise ValueError("nodes_per_group must be >= 1")
    faulty_set = set(faulty)
    placement: list[TPGroup] = []
    for run in _healthy_runs(sequence, faulty_set, k):
        for start in range(0, len(run) - nodes_per_group + 1, nodes_per_group):
            placement.append(TPGroup(nodes=tuple(run[start : start + nodes_per_group])))
    return placement


# --------------------------------------------------------------------------
# Algorithm 4: Fat-Tree placement under constraints
# --------------------------------------------------------------------------
def _expand_faults_to_tor(
    faulty: set[int],
    fat_tree: FatTree,
    domains_under_constraint: int,
) -> set[int]:
    """Apply the TP-group alignment constraint.

    For the first ``domains_under_constraint`` aggregation domains, a faulty
    node contaminates its whole ToR: all ToR-mates are treated as faulty so
    that every sub-line loses the same positions and rank alignment is
    preserved.
    """
    expanded = set(faulty)
    for node in list(faulty):
        if node >= fat_tree.config.n_nodes:
            continue
        if fat_tree.domain_of(node) < domains_under_constraint:
            expanded.update(fat_tree.nodes_in_tor(fat_tree.tor_of(node)))
    return expanded


def placement_fat_tree(
    plan: DeploymentPlan,
    fat_tree: FatTree,
    n_constraints: int,
    faulty: Iterable[int],
    nodes_per_group: int,
) -> list[TPGroup]:
    """Algorithm 4: placement under ``n_constraints`` locality constraints.

    Constraints are consumed in two bands:

    1. the first ``n_maxsubline`` constraints confine TP groups to
       domain-restricted sub-lines (no group crosses an aggregation domain
       and groups stay within one sub-line), one constraint per sub-line;
    2. further constraints apply ToR-alignment of faults, one per
       aggregation domain.
    """
    if n_constraints < 0:
        raise ValueError("n_constraints must be >= 0")
    faulty_set = {f for f in faulty if 0 <= f < fat_tree.config.n_nodes}
    p = fat_tree.config.nodes_per_tor
    d = fat_tree.config.nodes_per_domain
    n_domains = fat_tree.config.n_domains
    subline_len = max(1, d // p)
    n_maxsubline = n_domains * p

    n_subline = min(n_maxsubline, n_constraints)
    n_align = max(0, n_constraints - n_maxsubline)
    n_align = min(n_align, n_domains)

    effective_faults = _expand_faults_to_tor(faulty_set, fat_tree, n_align)

    placement: list[TPGroup] = []
    working = list(plan.order)
    for _ in range(n_subline):
        if not working:
            break
        subline, working = working[:subline_len], working[subline_len:]
        placement.extend(
            orchestrate_dcn_free(subline, plan.k, effective_faults, nodes_per_group)
        )
    if working:
        placement.extend(
            orchestrate_dcn_free(working, plan.k, effective_faults, nodes_per_group)
        )
    return placement


# --------------------------------------------------------------------------
# Algorithm 5 / Algorithm 1: binary search over constraints
# --------------------------------------------------------------------------
def orchestrate_fat_tree(
    plan: DeploymentPlan,
    fat_tree: FatTree,
    faulty: Iterable[int],
    job: JobSpec,
) -> OrchestrationResult:
    """Binary search for the most-constrained placement meeting the job scale.

    Returns the placement computed with the largest number of constraints
    that still yields at least ``job.groups_needed`` TP groups; if even the
    unconstrained placement cannot satisfy the job, the unconstrained
    placement is returned with ``satisfied=False``.
    """
    faulty_set = set(faulty)
    m = job.nodes_per_group
    p = fat_tree.config.nodes_per_tor
    n_domains = fat_tree.config.n_domains
    n_maxsubline = n_domains * p
    high = n_domains + n_maxsubline
    low = 0
    best_constraints: int | None = None

    while low <= high:
        mid = (low + high) // 2
        placement = placement_fat_tree(plan, fat_tree, mid, faulty_set, m)
        if len(placement) >= job.groups_needed:
            best_constraints = mid
            low = mid + 1
        else:
            high = mid - 1

    if best_constraints is None:
        placement = placement_fat_tree(plan, fat_tree, 0, faulty_set, m)
        placement = _order_groups_for_outer_parallelism(placement, fat_tree)
        return OrchestrationResult(
            placement=placement[: job.groups_needed] if placement else [],
            satisfied=False,
            constraints_used=0,
            method="fat_tree",
        )

    placement = placement_fat_tree(plan, fat_tree, best_constraints, faulty_set, m)
    placement = _order_groups_for_outer_parallelism(placement, fat_tree)
    return OrchestrationResult(
        placement=placement[: job.groups_needed],
        satisfied=True,
        constraints_used=best_constraints,
        method="fat_tree",
    )


def _order_groups_for_outer_parallelism(
    placement: list[TPGroup], fat_tree: FatTree
) -> list[TPGroup]:
    """Emit the placement in an order that keeps outer-parallel sets aligned.

    The training framework assigns outer-parallel (DP/CP) sets to consecutive
    groups of the emitted placement, so the scheduler:

    1. buckets groups by their exact ToR-coverage tuple -- groups in the same
       bucket are rank-aligned with each other, so sets formed inside a
       bucket exchange all first-tier traffic under shared ToRs;
    2. emits large buckets first and singleton (misaligned) groups last, so
       that when the job needs fewer groups than are available the
       misaligned leftovers are the ones dropped.
    """
    p = fat_tree.config.nodes_per_tor
    buckets: dict[tuple, list[TPGroup]] = {}
    for group in placement:
        tors = tuple(fat_tree.tor_of(n) for n in group.nodes)
        buckets.setdefault(tors, []).append(group)

    ordered: list[TPGroup] = []
    leftovers: list[TPGroup] = []
    # Largest buckets first; ties broken by coverage for determinism.
    for coverage in sorted(buckets, key=lambda c: (-len(buckets[c]), c)):
        bucket = buckets[coverage]
        aligned_count = (len(bucket) // p) * p
        ordered.extend(bucket[:aligned_count])
        leftovers.extend(bucket[aligned_count:])
    return ordered + leftovers


# --------------------------------------------------------------------------
# Baseline: greedy placement ignoring the DCN
# --------------------------------------------------------------------------
def greedy_placement(
    plan: DeploymentPlan,
    faulty: Iterable[int],
    job: JobSpec,
    seed: int = 0,
) -> OrchestrationResult:
    """The Baseline of section 6.4.

    Nodes are picked along the HBD deployment order starting from a random
    offset (so HBD contiguity of each TP group is respected -- the "first
    permutation that meets the requirements"), but the DCN structure is
    ignored: no sub-line confinement, no ToR alignment, and the emitted group
    order is randomised, so outer-parallel sets pair groups from arbitrary
    ToRs.
    """
    rng = random.Random(seed)
    faulty_set = set(faulty)
    m = job.nodes_per_group
    order = list(plan.order)
    offset = rng.randrange(len(order)) if order else 0
    rotated = order[offset:] + order[:offset]
    placement = orchestrate_dcn_free(rotated, plan.k, faulty_set, m)
    rng.shuffle(placement)
    satisfied = len(placement) >= job.groups_needed
    return OrchestrationResult(
        placement=placement[: job.groups_needed] if satisfied else placement,
        satisfied=satisfied,
        constraints_used=0,
        method="greedy",
    )


# --------------------------------------------------------------------------
# High-level facade
# --------------------------------------------------------------------------
#: The ``method`` names :meth:`Orchestrator.place` accepts.
_PLACE_METHODS = ("optimized", "greedy", "dcn_free")


class Orchestrator:
    """Couples the deployment plan, the Fat-Tree and the traffic model."""

    def __init__(
        self,
        n_nodes: int,
        k: int = 2,
        fat_tree_config: FatTreeConfig | None = None,
        volumes: TrafficVolumes | None = None,
    ) -> None:
        self.fat_tree = FatTree(
            fat_tree_config
            or FatTreeConfig(n_nodes=n_nodes, nodes_per_tor=4, tors_per_domain=64)
        )
        if self.fat_tree.config.n_nodes != n_nodes:
            raise ValueError("fat_tree_config.n_nodes must equal n_nodes")
        self.plan = deployment_strategy(
            n_nodes, k, self.fat_tree.config.nodes_per_tor
        )
        self.traffic_model = TrafficModel(self.fat_tree, volumes)

    def place(
        self,
        job: JobSpec,
        faulty: Iterable[int] = (),
        method: str = "optimized",
        seed: int = 0,
    ) -> OrchestrationResult:
        """Place ``job`` with the requested method.

        ``method`` is one of ``"optimized"`` (Algorithm 5), ``"greedy"``
        (baseline) or ``"dcn_free"`` (Algorithm 2 on the deployment order).
        """
        faulty_set = set(faulty)
        if method == "optimized":
            return orchestrate_fat_tree(self.plan, self.fat_tree, faulty_set, job)
        if method == "greedy":
            return greedy_placement(self.plan, faulty_set, job, seed=seed)
        if method == "dcn_free":
            placement = orchestrate_dcn_free(
                self.plan.order, self.plan.k, faulty_set, job.nodes_per_group
            )
            satisfied = len(placement) >= job.groups_needed
            return OrchestrationResult(
                placement=placement[: job.groups_needed] if satisfied else placement,
                satisfied=satisfied,
                method="dcn_free",
            )
        raise ValueError(f"unknown method {method!r}; known: {list(_PLACE_METHODS)}")

    def cross_tor_report(self, result: OrchestrationResult) -> CrossToRReport:
        """Cross-ToR traffic report for a placement."""
        return self.traffic_model.evaluate(result.as_node_lists())

    def place_and_report(
        self,
        job: JobSpec,
        faulty: Iterable[int] = (),
        method: str = "optimized",
        seed: int = 0,
    ) -> tuple[OrchestrationResult, CrossToRReport]:
        """Convenience: place the job and evaluate its cross-ToR traffic."""
        result = self.place(job, faulty, method=method, seed=seed)
        return result, self.cross_tor_report(result)
