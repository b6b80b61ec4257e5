"""The architecture registry and the paper's built-in line-up.

The registry decouples *naming* an architecture from *constructing* it: a
factory is registered once (typically with the :meth:`ArchitectureRegistry.
register` decorator) and every consumer -- the CLI, the experiment runner,
spec files -- creates instances by name.  New HBD variants therefore plug in
without editing any core module::

    from repro.api import REGISTRY

    @REGISTRY.register("dual-rail", defaults={"hbd_size": 144})
    def _dual_rail(gpus_per_node=4, hbd_size=144):
        return NVLHBD(hbd_size, gpus_per_node=gpus_per_node)

    arch = REGISTRY.create("dual-rail", gpus_per_node=4)

Factories receive ``gpus_per_node`` plus the entry's default parameters
(overridable per call or per :class:`~repro.api.spec.ArchitectureSpec`).
Names are case-insensitive.

The architectures compared throughout section 6 register into the global
:data:`REGISTRY` below its definition, both as parameterizable families
(``infinitehbd``, ``nvl``) and under the exact legend names of the paper's
figures (``InfiniteHBD(K=2)``, ``NVL-72``, ...).  The registry lives beside
the models it builds and imports nothing above :mod:`repro.hbd`;
:mod:`repro.api` re-exports it.
"""

from __future__ import annotations

import difflib
import threading
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from typing import Any

from repro.hbd.base import HBDArchitecture
from repro.hbd.bigswitch import BigSwitchHBD
from repro.hbd.infinitehbd import InfiniteHBDArchitecture
from repro.hbd.nvl import NVLHBD
from repro.hbd.sipring import SiPRingHBD
from repro.hbd.tpuv4 import TPUv4HBD

#: An architecture factory: ``factory(gpus_per_node=..., **params)``.
ArchitectureFactory = Callable[..., HBDArchitecture]


@dataclass(frozen=True)
class ArchitectureEntry:
    """One registered architecture factory plus its default parameters.

    >>> entry = REGISTRY.get("nvl-72")   # aliases are case-insensitive
    >>> entry.name
    'NVL-72'
    >>> entry.build(gpus_per_node=4).hbd_size
    72
    """

    name: str
    factory: ArchitectureFactory
    defaults: tuple[tuple[str, Any], ...] = ()
    aliases: tuple[str, ...] = ()
    description: str = ""

    def build(self, gpus_per_node: int = 4, **params: Any) -> HBDArchitecture:
        """Instantiate the architecture, merging ``params`` over the defaults."""
        merged: dict[str, Any] = dict(self.defaults)
        merged.update(params)
        return self.factory(gpus_per_node=gpus_per_node, **merged)


class ArchitectureRegistry:
    """Mutable mapping from names (and aliases) to architecture factories.

    >>> reg = ArchitectureRegistry()   # fresh and empty; the global one is REGISTRY
    >>> @reg.register("toy", defaults={"hbd_size": 8}, description="tiny NVL")
    ... def _toy(gpus_per_node=4, hbd_size=8):
    ...     return NVLHBD(hbd_size, gpus_per_node=gpus_per_node)
    >>> reg.create("toy", gpus_per_node=4, hbd_size=16).name
    'NVL-16'
    >>> "toy" in reg
    True
    """

    def __init__(self) -> None:
        self._entries: dict[str, ArchitectureEntry] = {}
        self._aliases: dict[str, str] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------ registration
    @staticmethod
    def _normalize(name: str) -> str:
        return name.strip().lower()

    def register(
        self,
        name: str,
        *,
        aliases: tuple[str, ...] = (),
        defaults: Mapping[str, Any] | None = None,
        description: str = "",
        override: bool = False,
    ) -> Callable[[ArchitectureFactory], ArchitectureFactory]:
        """Decorator form of :meth:`register_factory`."""

        def decorator(factory: ArchitectureFactory) -> ArchitectureFactory:
            self.register_factory(
                name,
                factory,
                aliases=aliases,
                defaults=defaults,
                description=description,
                override=override,
            )
            return factory

        return decorator

    def register_factory(
        self,
        name: str,
        factory: ArchitectureFactory,
        *,
        aliases: tuple[str, ...] = (),
        defaults: Mapping[str, Any] | None = None,
        description: str = "",
        override: bool = False,
    ) -> ArchitectureEntry:
        """Register ``factory`` under ``name`` (and ``aliases``).

        Raises :class:`ValueError` when the name or an alias is already taken,
        unless ``override=True`` -- overriding replaces the previous entry and
        all of its aliases.
        """
        entry = ArchitectureEntry(
            name=name,
            factory=factory,
            defaults=tuple(sorted((defaults or {}).items())),
            aliases=tuple(aliases),
            description=description,
        )
        key = self._normalize(name)
        alias_keys = [self._normalize(a) for a in aliases]
        with self._lock:
            taken = [
                k for k in [key, *alias_keys]
                if (k in self._entries or k in self._aliases)
            ]
            if taken and not override:
                raise ValueError(
                    f"architecture name(s) {sorted(set(taken))!r} already "
                    "registered; pass override=True to replace"
                )
            if override:
                for k in taken:
                    self._drop(k)
            self._entries[key] = entry
            for alias in alias_keys:
                self._aliases[alias] = key
        return entry

    def unregister(self, name: str) -> None:
        """Remove an entry (by canonical name or alias) and its aliases."""
        with self._lock:
            self._drop(self._normalize(name))

    def _drop(self, key: str) -> None:
        key = self._aliases.get(key, key)
        entry = self._entries.pop(key, None)
        if entry is not None:
            for alias in entry.aliases:
                self._aliases.pop(self._normalize(alias), None)

    # ----------------------------------------------------------------- lookup
    def get(self, name: str) -> ArchitectureEntry:
        """Resolve ``name`` (or an alias) to its registry entry.

        Unknown names raise :class:`KeyError` with close-match suggestions.
        """
        key = self._normalize(name)
        with self._lock:
            key = self._aliases.get(key, key)
            entry = self._entries.get(key)
            if entry is not None:
                return entry
            known = sorted(set(self._entries) | set(self._aliases))
        suggestions = difflib.get_close_matches(key, known, n=3, cutoff=0.4)
        hint = f"; did you mean {', '.join(map(repr, suggestions))}?" if suggestions else ""
        raise KeyError(f"unknown architecture {name!r}{hint} known: {known}")

    def create(
        self, name: str, gpus_per_node: int = 4, **params: Any
    ) -> HBDArchitecture:
        """Instantiate the architecture registered under ``name``."""
        return self.get(name).build(gpus_per_node=gpus_per_node, **params)

    def names(self) -> list[str]:
        """Canonical registered names, in registration order."""
        with self._lock:
            return [entry.name for entry in self._entries.values()]

    def __contains__(self, name: str) -> bool:
        key = self._normalize(name)
        with self._lock:
            return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[ArchitectureEntry]:
        with self._lock:
            return iter(list(self._entries.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-global registry every consumer shares.
REGISTRY = ArchitectureRegistry()

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


def default_architectures(gpus_per_node: int = 4) -> list[HBDArchitecture]:
    """The architecture line-up of Figures 13-16 and 20-23.

    Returned in the paper's legend order: InfiniteHBD (K=2), InfiniteHBD
    (K=3), Big-Switch, TPUv4, NVL-36, NVL-72, NVL-576, SiP-Ring.
    """
    return [
        REGISTRY.create(name, gpus_per_node=gpus_per_node) for name in DEFAULT_LINEUP
    ]
