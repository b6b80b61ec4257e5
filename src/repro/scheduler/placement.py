"""Pluggable node-placement policies for the cluster scheduler.

In placed mode every running job holds a concrete set of node ids, carved
out of the architecture's placement domains
(:meth:`repro.hbd.base.HBDArchitecture.placement_groups`: rings for
SiP-Ring, cubes for TPUv4, units for NVL, healthy segments for InfiniteHBD,
one flat domain for Big-Switch).  The architecture decides *where* a TP
group may live; the placement policy only decides *which* domain to fill
first when several could host the job:

* :class:`PackedPlacement` -- best-fit: fill the domains with the fewest
  free slots first, keeping large contiguous holes open for large jobs (and
  concentrating a job's blast radius in few domains);
* :class:`SpreadPlacement` -- worst-fit: spread TP groups across the
  emptiest domains, trading fragmentation for a lower chance that a single
  domain fault takes out many of one job's nodes.

Both are deterministic: ties always break on the domain index, and nodes
within a domain are handed out lowest-id-first, so a seeded replay is
byte-for-byte reproducible.  ``placement_by_name`` resolves the spec / CLI
names with difflib suggestions, matching the scheduling-policy ergonomics.
"""

from __future__ import annotations

import difflib
from typing import Literal


class PlacementPolicy:
    """Domain-preference order for node-level job placement.

    The engine keeps each domain in a band by its free slots (the TP groups
    it can still host) and fills a job's TP groups band by band, in the
    policy's :attr:`bands` order, until they are all placed (or fails
    without side effects when they cannot be).  Within a band, domains fill
    in index order -- the architecture's deterministic domain order -- so
    placement stays seed-reproducible.
    """

    #: Spec / CLI name of the placement policy.
    name: str = "abstract"

    #: The policy's one contract: ``"ascending"`` fills the domains with the
    #: fewest free slots first, ``"descending"`` the ones with the most.
    bands: Literal["ascending", "descending"]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name})"


class PackedPlacement(PlacementPolicy):
    """Best-fit: fill the fullest domains first (fewest free slots)."""

    name = "packed"
    bands = "ascending"


class SpreadPlacement(PlacementPolicy):
    """Worst-fit: spread TP groups over the emptiest domains first."""

    name = "spread"
    bands = "descending"


_PLACEMENTS: dict[str, type[PlacementPolicy]] = {
    PackedPlacement.name: PackedPlacement,
    SpreadPlacement.name: SpreadPlacement,
}

#: Spec / CLI names of the built-in placement policies, in presentation order.
PLACEMENT_NAMES: tuple[str, ...] = tuple(_PLACEMENTS)


def placement_by_name(name: str) -> PlacementPolicy:
    """Instantiate a placement policy by its spec name.

    >>> placement_by_name("packed")
    PackedPlacement(packed)
    >>> placement_by_name("SPREAD").name   # case-insensitive
    'spread'
    """
    key = name.strip().lower()
    cls = _PLACEMENTS.get(key)
    if cls is None:
        close = difflib.get_close_matches(key, _PLACEMENTS, n=2)
        hint = f"; did you mean {close}?" if close else ""
        raise KeyError(
            f"unknown placement policy {name!r}; known: {list(_PLACEMENTS)}{hint}"
        )
    return cls()


__all__ = [
    "PLACEMENT_NAMES",
    "PackedPlacement",
    "PlacementPolicy",
    "SpreadPlacement",
    "placement_by_name",
]
