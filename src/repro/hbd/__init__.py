"""High-Bandwidth Domain (HBD) architecture models.

Every architecture evaluated in section 6 of the paper is modelled here with
a common interface (:class:`repro.hbd.base.HBDArchitecture`) exposing the
GPU-accounting queries the large-scale simulations need: how many GPUs can
run TP groups of a given size under a given node-fault set, and how many
healthy GPUs are wasted by fragmentation / fault propagation.

Architectures:

* :class:`~repro.hbd.bigswitch.BigSwitchHBD`   -- the ideal upper bound.
* :class:`~repro.hbd.nvl.NVLHBD`               -- switch-centric NVL-36/72/576.
* :class:`~repro.hbd.tpuv4.TPUv4HBD`           -- switch-GPU hybrid (4^3 cubes + OCS).
* :class:`~repro.hbd.sipring.SiPRingHBD`       -- GPU-centric fixed rings.
* :class:`~repro.hbd.infinitehbd.InfiniteHBDArchitecture` -- the paper's design.

:mod:`repro.hbd.registry` holds the plugin registry that builds each of them
by name (:data:`repro.hbd.registry.REGISTRY`, re-exported by
:mod:`repro.api`) and the paper's line-up, :data:`DEFAULT_LINEUP`.
"""

from repro.hbd.base import (
    CountDecomposition,
    FaultCountKernel,
    HBDArchitecture,
    HealthyGroupDecomposition,
    WasteBreakdown,
)
from repro.hbd.bigswitch import BigSwitchHBD
from repro.hbd.nvl import NVLHBD
from repro.hbd.tpuv4 import TPUv4HBD
from repro.hbd.sipring import SiPRingHBD
from repro.hbd.infinitehbd import InfiniteHBDArchitecture
from repro.hbd.registry import DEFAULT_LINEUP, default_architectures

__all__ = [
    "CountDecomposition",
    "FaultCountKernel",
    "HBDArchitecture",
    "HealthyGroupDecomposition",
    "WasteBreakdown",
    "BigSwitchHBD",
    "NVLHBD",
    "TPUv4HBD",
    "SiPRingHBD",
    "InfiniteHBDArchitecture",
    "DEFAULT_LINEUP",
    "default_architectures",
]
