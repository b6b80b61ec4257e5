"""Numpy-ready forms of the per-architecture fault-count decompositions.

The hbd layer describes *what* decomposes
(:class:`~repro.hbd.base.CountDecomposition` /
:class:`~repro.hbd.base.HealthyGroupDecomposition`, pure-Python tuples);
this module repacks those descriptions into the flat arrays the batched
replay gathers against:

* :class:`AdditiveKernel` -- ``usable = base + sum of per-domain table
  deltas``; every event's usable-GPU delta is two gathers into one
  flattened table array.
* :class:`HealthyGroupsKernel` -- ``usable = (healthy_domains //
  group_size) * tp_size``; events only matter when they flip a domain
  between healthy and faulty.

:func:`kernel_for` returns ``None`` exactly when the architecture has no
count decomposition.  The batched engine then replays InfiniteHBD, whose
K-hop segments depend on *which* nodes failed, through its segment pass,
and any other such architecture through the exact scalar replay per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.hbd.base import (
    CountDecomposition,
    HBDArchitecture,
    HealthyGroupDecomposition,
)


@dataclass(frozen=True, eq=False)
class AdditiveKernel:
    """Flattened :class:`~repro.hbd.base.CountDecomposition`.

    ``table_flat`` concatenates the distinct lookup tables;
    ``table_offset_of_domain[d]`` is domain ``d``'s offset into it, so the
    usable contribution of domain ``d`` at fault count ``c`` is
    ``table_flat[table_offset_of_domain[d] + c]``.  ``base_usable`` is the
    zero-fault total (every domain at count 0).
    """

    domain_of_node: NDArray[np.int64]
    table_flat: NDArray[np.int64]
    table_offset_of_domain: NDArray[np.int64]
    n_domains: int
    base_usable: int


@dataclass(frozen=True, eq=False)
class HealthyGroupsKernel:
    """Flattened :class:`~repro.hbd.base.HealthyGroupDecomposition`."""

    domain_of_node: NDArray[np.int64]
    n_domains: int
    group_size: int
    tp_size: int
    base_usable: int


def kernel_for(
    architecture: HBDArchitecture, n_nodes: int, tp_size: int
) -> AdditiveKernel | HealthyGroupsKernel | None:
    """The architecture's fault-count kernel, or ``None`` when it has none.

    ``None`` sends :func:`~repro.mc.engine.replay_batch` to its segment pass
    (InfiniteHBD) or to the exact scalar replay per seed (anything else).
    """
    decomposition = architecture.fault_count_decomposition(n_nodes, tp_size)
    if decomposition is None:
        return None
    if isinstance(decomposition, HealthyGroupDecomposition):
        return HealthyGroupsKernel(
            domain_of_node=np.asarray(decomposition.domain_of_node, dtype=np.int64),
            n_domains=decomposition.n_domains,
            group_size=decomposition.group_size,
            tp_size=decomposition.tp_size,
            base_usable=(decomposition.n_domains // decomposition.group_size)
            * decomposition.tp_size,
        )
    return _additive_kernel(decomposition)


def _additive_kernel(decomposition: CountDecomposition) -> AdditiveKernel:
    offsets = [0]
    for table in decomposition.tables:
        offsets.append(offsets[-1] + len(table))
    flat = [entry for table in decomposition.tables for entry in table]
    base = sum(
        decomposition.tables[table_index][0]
        for table_index in decomposition.table_of_domain
    )
    return AdditiveKernel(
        domain_of_node=np.asarray(decomposition.domain_of_node, dtype=np.int64),
        table_flat=np.asarray(flat, dtype=np.int64),
        table_offset_of_domain=np.asarray(
            [offsets[t] for t in decomposition.table_of_domain], dtype=np.int64
        ),
        n_domains=len(decomposition.table_of_domain),
        base_usable=base,
    )


__all__ = [
    "AdditiveKernel",
    "HealthyGroupsKernel",
    "kernel_for",
]
