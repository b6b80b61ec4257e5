"""Switch-centric NVL-style HBD (NVL-36 / NVL-72 / NVL-576).

The cluster is partitioned into fixed HBD units of ``hbd_size`` GPUs, each
internally connected by NVLink switches (any-to-any inside the unit, nothing
across units).  TP groups must therefore fit entirely inside one unit, and
each unit suffers fragmentation independently -- the paper's waste formula
``((HBD_size - N_fault) mod TP_size) / HBD_size`` applied per unit.

A TP size larger than the unit simply cannot run (zero usable GPUs), which is
how the evaluation treats e.g. TP-64 on NVL-36.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.hbd.base import CountDecomposition, HBDArchitecture, PlacementGroup


class NVLHBD(HBDArchitecture):
    """NVL-style HBD composed of fixed-size switch-connected units."""

    def __init__(self, hbd_size: int, gpus_per_node: int = 4) -> None:
        super().__init__(gpus_per_node)
        if not isinstance(hbd_size, int) or isinstance(hbd_size, bool):
            raise ValueError(f"hbd_size must be an int, got {hbd_size!r}")
        if hbd_size < gpus_per_node:
            raise ValueError("hbd_size must be at least one node worth of GPUs")
        if hbd_size % gpus_per_node:
            raise ValueError("hbd_size must be a multiple of gpus_per_node")
        self.hbd_size = hbd_size
        self.name = f"NVL-{hbd_size}"
        self._skeleton_cache: dict[tuple[int, int], tuple[PlacementGroup, ...]] = {}

    @property
    def nodes_per_unit(self) -> int:
        return self.hbd_size // self.gpus_per_node

    def n_units(self, n_nodes: int) -> int:
        """Number of complete HBD units in an ``n_nodes`` cluster."""
        return n_nodes // self.nodes_per_unit

    def usable_gpus(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> int:
        if tp_size > self.hbd_size:
            return 0
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        faults_per_unit = self._faults_per_unit(n_nodes, faulty)
        untouched = self.n_units(n_nodes) - len(faults_per_unit)
        usable = untouched * self._fit(self.hbd_size, tp_size)
        for count in faults_per_unit.values():
            usable += self._fit(self.hbd_size - count * self.gpus_per_node, tp_size)
        # Nodes beyond the last complete unit (partial unit) are treated as a
        # smaller switch domain of their own.
        leftover_nodes = n_nodes % self.nodes_per_unit
        if leftover_nodes:
            leftover_faults = len(faulty) - sum(faults_per_unit.values())
            healthy_leftover = (leftover_nodes - leftover_faults) * self.gpus_per_node
            usable += self._fit(healthy_leftover, tp_size)
        return usable

    def fault_count_decomposition(
        self, n_nodes: int, tp_size: int
    ) -> CountDecomposition:
        """One domain per HBD unit, one more for the partial trailing unit."""
        if tp_size > self.hbd_size:
            # Infeasible TP size: usable is pinned at zero, no domains.
            return CountDecomposition(
                domain_of_node=(-1,) * n_nodes, tables=(), table_of_domain=()
            )
        npu = self.nodes_per_unit
        n_units = self.n_units(n_nodes)
        unit_table = tuple(
            self._fit(self.hbd_size - count * self.gpus_per_node, tp_size)
            for count in range(npu + 1)
        )
        domain_of_node = tuple(
            min(node // npu, n_units) for node in range(n_nodes)
        )
        leftover = n_nodes % npu
        if leftover:
            leftover_table = tuple(
                self._fit((leftover - count) * self.gpus_per_node, tp_size)
                for count in range(leftover + 1)
            )
            return CountDecomposition(
                domain_of_node=domain_of_node,
                tables=(unit_table, leftover_table),
                table_of_domain=(0,) * n_units + (1,),
            )
        return CountDecomposition(
            domain_of_node=domain_of_node,
            tables=(unit_table,),
            table_of_domain=(0,) * n_units,
        )

    # ------------------------------------------------------------- placement
    def placement_groups(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> tuple[PlacementGroup, ...]:
        """One domain per HBD unit (plus the partial trailing unit).

        Unit boundaries never move, so the all-healthy skeleton is cached
        per ``(n_nodes, tp_size)`` and a fault set only rebuilds the units
        it touches -- O(faults + units) per distinct fault set instead of
        O(n_nodes), and untouched units keep their identity (callers can
        reuse per-domain bookkeeping across fault transitions).
        """
        if tp_size > self.hbd_size:
            return ()
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        npu = self.nodes_per_unit
        npg = self.nodes_per_tp_group(tp_size)
        key = (n_nodes, tp_size)
        skeleton = self._skeleton_cache.get(key)
        if skeleton is None:
            skeleton = tuple(
                PlacementGroup(
                    nodes=tuple(range(start, min(start + npu, n_nodes))),
                    nodes_per_group=npg,
                    tp_size=tp_size,
                )
                for start in range(0, n_nodes, npu)
            )
            self._skeleton_cache[key] = skeleton
        if not faulty:
            return skeleton
        groups: list = list(skeleton)
        for unit in {node // npu for node in faulty}:
            healthy = tuple(
                node for node in skeleton[unit].nodes if node not in faulty
            )
            # A fully faulty unit stays as an empty domain so unit indices
            # never shift (identity-stable positions for the reuse above).
            groups[unit] = PlacementGroup(
                nodes=healthy, nodes_per_group=npg, tp_size=tp_size
            )
        return tuple(groups)

    # --------------------------------------------------------------- helpers
    def _faults_per_unit(self, n_nodes: int, faulty) -> dict[int, int]:
        counts: dict[int, int] = {}
        for node in faulty:
            unit = node // self.nodes_per_unit
            if unit < self.n_units(n_nodes):
                counts[unit] = counts.get(unit, 0) + 1
        return counts
