"""Built-in HBD architecture registrations and the classic lookup shims.

The architectures compared throughout section 6 register themselves into the
global :data:`repro.api.registry.REGISTRY` here -- both as parameterizable
families (``infinitehbd``, ``nvl``) and under the exact legend names of the
paper's figures (``InfiniteHBD(K=2)``, ``NVL-72``, ...).  New variants do
*not* need to edit this module: registering a factory anywhere (an example
script, a notebook, a plugin package) makes the architecture runnable by
name through the CLI, spec files and the experiment runner.

:func:`default_architectures` and :func:`architecture_by_name` keep their
historical signatures as thin shims over the registry.
"""

from __future__ import annotations


from repro.api.registry import REGISTRY
from repro.hbd.base import HBDArchitecture
from repro.hbd.bigswitch import BigSwitchHBD
from repro.hbd.infinitehbd import InfiniteHBDArchitecture
from repro.hbd.nvl import NVLHBD
from repro.hbd.sipring import SiPRingHBD
from repro.hbd.tpuv4 import TPUv4HBD

#: The architecture line-up of Figures 13-16 and 20-23, in legend order.
DEFAULT_LINEUP: tuple[str, ...] = (
    "InfiniteHBD(K=2)",
    "InfiniteHBD(K=3)",
    "Big-Switch",
    "TPUv4",
    "NVL-36",
    "NVL-72",
    "NVL-576",
    "SiP-Ring",
)


# ------------------------------------------------------- family registrations
@REGISTRY.register(
    "infinitehbd",
    aliases=("infinite-hbd", "khop-ring"),
    defaults={"k": 2},
    description="InfiniteHBD K-Hop Ring (parameterized by k)",
)
def _make_infinitehbd(gpus_per_node: int = 4, k: int = 2, ring: bool = True) -> HBDArchitecture:
    return InfiniteHBDArchitecture(k=k, gpus_per_node=gpus_per_node, ring=ring)


@REGISTRY.register(
    "nvl",
    defaults={"hbd_size": 72},
    description="Switch-centric NVL unit (parameterized by hbd_size)",
)
def _make_nvl(gpus_per_node: int = 4, hbd_size: int = 72) -> HBDArchitecture:
    return NVLHBD(hbd_size, gpus_per_node=gpus_per_node)


@REGISTRY.register(
    "Big-Switch",
    aliases=("bigswitch",),
    description="Ideal single-switch upper bound",
)
def _make_bigswitch(gpus_per_node: int = 4) -> HBDArchitecture:
    return BigSwitchHBD(gpus_per_node=gpus_per_node)


@REGISTRY.register(
    "TPUv4",
    aliases=("tpu-v4",),
    description="Switch-GPU hybrid: 4^3 cubes behind an OCS",
)
def _make_tpuv4(gpus_per_node: int = 4) -> HBDArchitecture:
    return TPUv4HBD(gpus_per_node=gpus_per_node)


@REGISTRY.register(
    "SiP-Ring",
    aliases=("sipring",),
    description="GPU-centric fixed silicon-photonic rings",
)
def _make_sipring(gpus_per_node: int = 4) -> HBDArchitecture:
    return SiPRingHBD(gpus_per_node=gpus_per_node)


# ----------------------------------------------------- legend-name presets
for _k in (2, 3):
    REGISTRY.register_factory(
        f"InfiniteHBD(K={_k})",
        _make_infinitehbd,
        defaults={"k": _k},
        description=f"InfiniteHBD with K={_k} OCSTrx bundles per node",
    )
for _size in (36, 72, 576):
    REGISTRY.register_factory(
        f"NVL-{_size}",
        _make_nvl,
        aliases=(f"nvl{_size}",),
        defaults={"hbd_size": _size},
        description=f"NVL-style HBD of {_size}-GPU switch units",
    )


# ------------------------------------------------------------- classic shims
def default_architectures(gpus_per_node: int = 4) -> list[HBDArchitecture]:
    """The architecture line-up of Figures 13-16 and 20-23.

    Returned in the paper's legend order: InfiniteHBD (K=2), InfiniteHBD
    (K=3), Big-Switch, TPUv4, NVL-36, NVL-72, NVL-576, SiP-Ring.
    """
    return [
        REGISTRY.create(name, gpus_per_node=gpus_per_node) for name in DEFAULT_LINEUP
    ]


def architecture_by_name(name: str, gpus_per_node: int = 4) -> HBDArchitecture:
    """Look up an architecture by its legend name (case-insensitive).

    Unknown names raise :class:`KeyError` with close-match suggestions,
    e.g. ``unknown architecture 'nvl72'; did you mean 'nvl-72'?``.
    """
    return REGISTRY.create(name, gpus_per_node=gpus_per_node)
