"""Switch-GPU hybrid HBD modelled after Google TPUv4 (section 2.2, 6.1).

TPUv4 arranges accelerators into 4x4x4 cubes (64 per cube) and connects the
cubes through centralised OCS-based switches.  Resource management is
cube-granular:

* TP groups of up to 64 GPUs are carved out of individual cubes -- a cube
  with ``f`` faulty nodes can only serve ``floor((64 - f*R) / tp) * tp``
  GPUs, so a single fault wastes up to a cube's worth of capacity when the
  TP size is large (the paper's "cube-level fault explosion radius").
* TP groups larger than a cube combine *complete, fully healthy* cubes via
  the OCS layer; a cube with any fault cannot participate.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.hbd.base import (
    CountDecomposition,
    FaultCountKernel,
    HBDArchitecture,
    HealthyGroupDecomposition,
    PlacementGroup,
)


class TPUv4HBD(HBDArchitecture):
    """TPUv4-style hybrid HBD with cube-granular resource management."""

    name = "TPUv4"

    def __init__(self, gpus_per_node: int = 4, cube_size: int = 64) -> None:
        super().__init__(gpus_per_node)
        if not isinstance(cube_size, int) or isinstance(cube_size, bool):
            raise ValueError(f"cube_size must be an int, got {cube_size!r}")
        if cube_size < gpus_per_node or cube_size % gpus_per_node:
            raise ValueError("cube_size must be a positive multiple of gpus_per_node")
        self.cube_size = cube_size

    @property
    def nodes_per_cube(self) -> int:
        return self.cube_size // self.gpus_per_node

    def n_cubes(self, n_nodes: int) -> int:
        return n_nodes // self.nodes_per_cube

    def usable_gpus(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> int:
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        faults_per_cube = self._faults_per_cube(n_nodes, faulty)
        healthy_cubes = self.n_cubes(n_nodes) - len(faults_per_cube)

        if tp_size <= self.cube_size:
            usable = healthy_cubes * self._fit(self.cube_size, tp_size)
            for count in faults_per_cube.values():
                usable += self._fit(self.cube_size - count * self.gpus_per_node, tp_size)
            usable += self._leftover_usable(n_nodes, faulty, tp_size)
            return usable

        # TP group spans multiple cubes: only fully healthy cubes can join.
        cubes_per_group = -(-tp_size // self.cube_size)
        groups = healthy_cubes // cubes_per_group
        return groups * tp_size

    def fault_count_decomposition(
        self, n_nodes: int, tp_size: int
    ) -> FaultCountKernel:
        """Per-cube count tables below the cube size; healthy-cube groups above."""
        npc = self.nodes_per_cube
        n_cubes = self.n_cubes(n_nodes)
        if tp_size <= self.cube_size:
            cube_table = tuple(
                self._fit(self.cube_size - count * self.gpus_per_node, tp_size)
                for count in range(npc + 1)
            )
            domain_of_node = tuple(
                min(node // npc, n_cubes) for node in range(n_nodes)
            )
            leftover = n_nodes % npc
            if leftover:
                leftover_table = tuple(
                    self._fit((leftover - count) * self.gpus_per_node, tp_size)
                    for count in range(leftover + 1)
                )
                return CountDecomposition(
                    domain_of_node=domain_of_node,
                    tables=(cube_table, leftover_table),
                    table_of_domain=(0,) * n_cubes + (1,),
                )
            return CountDecomposition(
                domain_of_node=domain_of_node,
                tables=(cube_table,),
                table_of_domain=(0,) * n_cubes,
            )
        # Multi-cube TP groups: only the count of fully healthy cubes matters,
        # and partial-cube nodes never participate.
        return HealthyGroupDecomposition(
            domain_of_node=tuple(
                node // npc if node // npc < n_cubes else -1
                for node in range(n_nodes)
            ),
            n_domains=n_cubes,
            group_size=-(-tp_size // self.cube_size),
            tp_size=tp_size,
        )

    # ------------------------------------------------------------- placement
    def placement_groups(
        self, n_nodes: int, faulty_nodes: Iterable[int], tp_size: int
    ) -> tuple[PlacementGroup, ...]:
        """Per-cube domains below the cube size; dedicated healthy-cube
        combinations (the whole combination per TP group) above it."""
        faulty = self._clean_faults(n_nodes, faulty_nodes)
        n_cubes = self.n_cubes(n_nodes)
        npc = self.nodes_per_cube

        def cube_nodes(cube: int) -> tuple[int, ...]:
            start = cube * npc
            return tuple(
                node for node in range(start, start + npc) if node not in faulty
            )

        if tp_size <= self.cube_size:
            npg = self.nodes_per_tp_group(tp_size)
            groups = []
            for cube in range(n_cubes):
                healthy = cube_nodes(cube)
                if healthy:
                    groups.append(
                        PlacementGroup(
                            nodes=healthy, nodes_per_group=npg, tp_size=tp_size
                        )
                    )
            leftover = tuple(
                node for node in range(n_cubes * npc, n_nodes) if node not in faulty
            )
            if leftover:
                groups.append(
                    PlacementGroup(
                        nodes=leftover, nodes_per_group=npg, tp_size=tp_size
                    )
                )
            return tuple(groups)

        # TP group spans multiple cubes: chunk the fully healthy cubes (in
        # index order) into dedicated combinations of cubes_per_group; each
        # combination hosts exactly one TP group and is consumed whole.
        faults_per_cube = self._faults_per_cube(n_nodes, faulty)
        cubes_per_group = -(-tp_size // self.cube_size)
        healthy_cubes = [
            cube for cube in range(n_cubes) if faults_per_cube.get(cube, 0) == 0
        ]
        groups = []
        for i in range(0, len(healthy_cubes) - cubes_per_group + 1, cubes_per_group):
            chunk = healthy_cubes[i : i + cubes_per_group]
            nodes = tuple(
                node for cube in chunk for node in range(cube * npc, (cube + 1) * npc)
            )
            groups.append(
                PlacementGroup(
                    nodes=nodes, nodes_per_group=len(nodes), tp_size=tp_size
                )
            )
        return tuple(groups)

    # --------------------------------------------------------------- helpers
    def _faults_per_cube(self, n_nodes: int, faulty) -> dict[int, int]:
        counts: dict[int, int] = {}
        for node in faulty:
            cube = node // self.nodes_per_cube
            if cube < self.n_cubes(n_nodes):
                counts[cube] = counts.get(cube, 0) + 1
        return counts

    def _leftover_usable(self, n_nodes: int, faulty, tp_size: int) -> int:
        """Nodes beyond the last complete cube form a partial cube."""
        leftover_nodes = n_nodes % self.nodes_per_cube
        if not leftover_nodes:
            return 0
        start = self.n_cubes(n_nodes) * self.nodes_per_cube
        healthy = sum(
            self.gpus_per_node for node in range(start, n_nodes) if node not in faulty
        )
        return self._fit(healthy, tp_size)
