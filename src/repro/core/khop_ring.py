"""Reconfigurable K-Hop Ring / K-Hop Line topology (paper section 4.2).

Nodes are arranged on a line (or a ring) in deployment order.  Every node is
connected by OCSTrx external paths to all nodes within ``K`` hops in each
direction, giving it a degree of ``2K``.  During AllReduce only the two links
towards the immediate healthy neighbours are active; the other ``2K - 2``
links are backups used to bypass faulty nodes.

The key property exploited by the large-scale evaluation is: a run of up to
``K - 1`` consecutive faulty nodes can be bypassed (its two healthy endpoints
are at distance <= K and therefore share a backup link), whereas a run of
``K`` or more consecutive faults breaks the line into two disconnected
segments (a *breakpoint* in the paper's Appendix C terminology).

:class:`KHopRingTopology` provides:

* the links of every node (:meth:`~KHopRingTopology.neighbors`),
* healthy-segment extraction under an arbitrary fault set,
* TP-group placement counting (used by the waste-ratio simulations), and
* breakpoint counting (used to validate the Appendix C analysis).

Capacity and breakpoints come from the runs of consecutive faulty nodes, in
O(faults): a segment's size is the difference of the healthy-before counts of
the cuts around it -- cyclic on a ring, framed by 0 and the healthy count on a
line.  The O(n_nodes) :meth:`~KHopRingTopology.healthy_segments` walk, which
placement needs for its node lists, is the reference that arithmetic answers to.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable


@dataclass(frozen=True)
class KHopTopologyConfig:
    """Static parameters of a K-Hop topology.

    Attributes
    ----------
    n_nodes:
        Number of nodes on the line / ring.
    k:
        Hop count ``K`` (number of OCSTrx bundles per node used for
        inter-node connectivity).  ``K=2`` and ``K=3`` are the paper's
        evaluated configurations.
    gpus_per_node:
        ``R`` -- GPUs per node (4 or 8).
    ring:
        If True the topology wraps around (K-Hop Ring); if False it is a
        K-Hop Line (reduced fault tolerance at the two ends).
    """

    n_nodes: int
    k: int = 2
    gpus_per_node: int = 4
    ring: bool = True

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node

    @property
    def degree(self) -> int:
        """External link degree of each node (2K, capped by topology size)."""
        return min(2 * self.k, max(0, self.n_nodes - 1))


@dataclass(frozen=True)
class Segment:
    """A maximal healthy segment of the K-Hop topology.

    ``nodes`` are healthy node ids in deployment order.  Adjacent nodes in the
    sequence are guaranteed to be within ``K`` hops of each other in the
    underlying topology, so the segment can host contiguous GPU rings.
    ``is_ring`` is True when the segment wraps the whole ring (no endpoints).
    """

    nodes: tuple[int, ...]
    is_ring: bool = False

    def __len__(self) -> int:
        return len(self.nodes)


class KHopRingTopology:
    """The reconfigurable K-Hop Ring topology over ``n_nodes`` nodes."""

    def __init__(self, config: KHopTopologyConfig) -> None:
        self.config = config

    # ------------------------------------------------------------ basic graph
    def neighbors(self, node: int) -> list[int]:
        """Nodes within K hops of ``node`` (primary + backup links)."""
        self._check_node(node)
        n, k = self.config.n_nodes, self.config.k
        result: set[int] = set()
        for hop in range(1, k + 1):
            if self.config.ring:
                result.add((node + hop) % n)
                result.add((node - hop) % n)
            else:
                if node + hop < n:
                    result.add(node + hop)
                if node - hop >= 0:
                    result.add(node - hop)
        result.discard(node)
        return sorted(result)

    def has_link(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` share an OCSTrx link (<= K hops)."""
        self._check_node(a)
        self._check_node(b)
        if a == b:
            return False
        return self.hop_distance(a, b) <= self.config.k

    def hop_distance(self, a: int, b: int) -> int:
        """Distance along the deployment line/ring between two nodes."""
        self._check_node(a)
        self._check_node(b)
        diff = abs(a - b)
        if self.config.ring:
            return min(diff, self.config.n_nodes - diff)
        return diff

    # -------------------------------------------------------- healthy segments
    def healthy_segments(self, faulty: Iterable[int]) -> list[Segment]:
        """Maximal healthy segments under ``faulty`` node failures.

        Two consecutive healthy nodes belong to the same segment when the run
        of faulty nodes separating them is strictly shorter than ``K`` (so the
        backup link at distance <= K bridges the gap).  In ring mode the
        segment list also merges across the wrap-around point, and if every
        gap is bridgeable the single resulting segment is flagged
        ``is_ring=True``.
        """
        n, k = self.config.n_nodes, self.config.k
        faulty_set = {f for f in faulty if 0 <= f < n}
        healthy = [i for i in range(n) if i not in faulty_set]
        if not healthy:
            return []
        if not faulty_set and self.config.ring:
            return [Segment(nodes=tuple(healthy), is_ring=True)]

        segments: list[list[int]] = [[healthy[0]]]
        for prev, cur in zip(healthy, healthy[1:], strict=False):
            if cur - prev <= k:
                segments[-1].append(cur)
            else:
                segments.append([cur])

        if self.config.ring and len(segments) > 1:
            # Gap across the wrap point: distance from the last healthy node
            # forward to the first healthy node.
            wrap_gap = (healthy[0] + n) - healthy[-1]
            if wrap_gap <= k:
                tail = segments.pop()
                segments[0] = tail + segments[0]
        elif self.config.ring and len(segments) == 1:
            wrap_gap = (healthy[0] + n) - healthy[-1]
            if wrap_gap <= k and len(faulty_set) > 0:
                # A single segment whose ends reconnect across the wrap forms
                # a ring again.
                return [Segment(nodes=tuple(segments[0]), is_ring=True)]

        return [Segment(nodes=tuple(seg)) for seg in segments]

    def breakpoints(self, faulty: Iterable[int]) -> int:
        """Number of breakpoints (unbridgeable fault gaps) on the topology.

        A breakpoint is a maximal run of >= K consecutive faulty nodes lying
        between two healthy nodes (Appendix C).  For a line topology, fault
        runs touching either end are not breakpoints (they simply shorten the
        line).
        """
        healthy, cuts = self._cuts(faulty)
        if healthy <= 1:
            return 0
        if self.config.ring:
            return len(cuts)
        return sum(1 for cut in cuts if 0 < cut < healthy)

    # ------------------------------------------------------------ TP capacity
    def usable_gpus(self, faulty: Iterable[int], tp_size: int) -> int:
        """GPUs that can participate in TP groups of ``tp_size`` GPUs."""
        nodes_per_group = self.nodes_per_tp_group(tp_size)
        healthy, cuts = self._cuts(faulty)
        if not self.config.ring:
            bounds = [0, *cuts, healthy]
        elif cuts:
            bounds = [cuts[-1] - healthy, *cuts]
        else:
            bounds = [0, healthy]
        groups = sum((b - a) // nodes_per_group for a, b in zip(bounds, bounds[1:]))
        return groups * tp_size

    def wasted_gpus(self, faulty: Iterable[int], tp_size: int) -> int:
        """Healthy GPUs that cannot be used (fragmentation / disconnection)."""
        faulty_set = {f for f in faulty if 0 <= f < self.config.n_nodes}
        healthy_gpus = (
            self.config.n_nodes - len(faulty_set)
        ) * self.config.gpus_per_node
        return healthy_gpus - self.usable_gpus(faulty_set, tp_size)

    def waste_ratio(self, faulty: Iterable[int], tp_size: int) -> float:
        """Wasted healthy GPUs as a fraction of all GPUs in the topology."""
        return self.wasted_gpus(faulty, tp_size) / self.config.total_gpus

    def nodes_per_tp_group(self, tp_size: int) -> int:
        """Nodes needed per TP group of ``tp_size`` GPUs (ceil division)."""
        if tp_size < 1:
            raise ValueError("tp_size must be >= 1")
        r = self.config.gpus_per_node
        return max(1, -(-tp_size // r))

    # --------------------------------------------------------------- helpers
    def _cuts(self, faulty: Iterable[int]) -> tuple[int, list[int]]:
        """Healthy node count and the cuts, in O(F log F) for F faults.

        A cut is a maximal run of >= K consecutive faulty nodes, given by the
        number of healthy nodes before it (ascending).  On a ring the run
        that wraps from node n-1 to node 0 is one run, placed after every
        healthy node.
        """
        n = self.config.n_nodes
        faults = sorted({f for f in faulty if 0 <= f < n})
        runs: list[list[int]] = []  # [healthy nodes before the run, length]
        for rank, node in enumerate(faults):
            if runs and faults[rank - 1] == node - 1:
                runs[-1][1] += 1
            else:
                runs.append([node - rank, 1])
        if self.config.ring and len(runs) > 1 and faults[0] == 0 and faults[-1] == n - 1:
            runs[-1][1] += runs.pop(0)[1]
        return n - len(faults), [before for before, length in runs if length >= self.config.k]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.config.n_nodes:
            raise ValueError(
                f"node {node} out of range for {self.config.n_nodes}-node topology"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        c = self.config
        kind = "Ring" if c.ring else "Line"
        return f"KHop{kind}(n={c.n_nodes}, K={c.k}, R={c.gpus_per_node})"
