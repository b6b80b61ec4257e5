"""Mean GPU waste ratio versus an i.i.d. node fault ratio (Figures 14 and 22).

:func:`waste_ratio_vs_fault_ratio` samples independent fault sets at each
fault ratio (:class:`~repro.faults.model.IIDFaultModel`) and averages every
architecture's waste ratio over them.  No trace is involved, and no runner
experiment covers this sweep; Figure 14 and the K and node-size ablations
use it.  The trace-driven figures (13, 15, 16 and 20) and the job goodput
are the :class:`repro.api.ExperimentRunner` experiments ``waste``,
``max_job_scale``, ``fault_waiting`` and ``goodput``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.faults.model import IIDFaultModel
from repro.hbd.base import HBDArchitecture


def waste_ratio_vs_fault_ratio(
    architectures: Sequence[HBDArchitecture],
    n_nodes: int,
    tp_size: int,
    fault_ratios: Sequence[float],
    n_samples: int = 20,
    seed: int = 0,
) -> dict[str, list[float]]:
    """Mean GPU waste ratio versus node fault ratio (Figures 14 / 22)."""
    model = IIDFaultModel(n_nodes=n_nodes, seed=seed, n_samples=n_samples)
    results: dict[str, list[float]] = {}
    for arch in architectures:
        def metric(fault_set: set[int], _arch=arch) -> float:
            return _arch.waste_ratio(n_nodes, fault_set, tp_size)

        results[arch.name] = model.sweep(fault_ratios, metric)
    return results
