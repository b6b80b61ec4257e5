"""Plugin-style registry of HBD architecture factories.

The registry decouples *naming* an architecture from *constructing* it: a
factory is registered once (typically with the :meth:`ArchitectureRegistry.
register` decorator) and every consumer -- the CLI, the experiment runner,
sweep helpers, spec files -- creates instances by name.  New HBD variants
therefore plug in without editing any core module::

    from repro.api import REGISTRY

    @REGISTRY.register("dual-rail", defaults={"hbd_size": 144})
    def _dual_rail(gpus_per_node=4, hbd_size=144):
        return NVLHBD(hbd_size, gpus_per_node=gpus_per_node)

    arch = REGISTRY.create("dual-rail", gpus_per_node=4)

Factories receive ``gpus_per_node`` plus the entry's default parameters
(overridable per call or per :class:`~repro.api.spec.ArchitectureSpec`).
Names are case-insensitive.  The built-in line-up of the paper registers
itself from :mod:`repro.hbd.registry`; this module deliberately imports
nothing from :mod:`repro.hbd` at import time so the two can reference each
other without a cycle.
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Mapping
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.hbd.base import HBDArchitecture

#: An architecture factory: ``factory(gpus_per_node=..., **params)``.
ArchitectureFactory = Callable[..., "HBDArchitecture"]


@dataclass(frozen=True)
class ArchitectureEntry:
    """One registered architecture factory plus its default parameters.

    >>> from repro.api.registry import REGISTRY
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

    >>> reg = ArchitectureRegistry()   # fresh; the global one is REGISTRY
    >>> @reg.register("toy", defaults={"hbd_size": 8}, description="tiny NVL")
    ... def _toy(gpus_per_node=4, hbd_size=8):
    ...     from repro.hbd import NVLHBD
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
        self._builtins_loaded = False

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
    def _ensure_builtins(self) -> None:
        if not self._builtins_loaded and self is REGISTRY:
            import repro.hbd.registry  # noqa: F401  (registers the line-up)

            # Only after a successful import: a transient failure above must
            # stay retryable, not silently leave the registry empty forever.
            self._builtins_loaded = True

    def get(self, name: str) -> ArchitectureEntry:
        """Resolve ``name`` (or an alias) to its registry entry.

        Unknown names raise :class:`KeyError` with close-match suggestions.
        """
        self._ensure_builtins()
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
        self._ensure_builtins()
        with self._lock:
            return [entry.name for entry in self._entries.values()]

    def __contains__(self, name: str) -> bool:
        self._ensure_builtins()
        key = self._normalize(name)
        with self._lock:
            return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[ArchitectureEntry]:
        self._ensure_builtins()
        with self._lock:
            return iter(list(self._entries.values()))

    def __len__(self) -> int:
        self._ensure_builtins()
        with self._lock:
            return len(self._entries)


#: The process-global registry every consumer shares.
REGISTRY = ArchitectureRegistry()
