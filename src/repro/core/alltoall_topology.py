"""Power-of-two backup-link wiring for AllToAll support (Appendix G.3).

The default K-Hop Ring connects node ``n`` to nodes ``n +- 1 .. n +- K``.
Appendix G proposes an alternative wiring for MoE-style workloads: keep the
one-dimensional arrangement but connect node ``n`` to ``n +- 2^i`` for
``i = 0 .. K-1``.  Binary-Exchange AllToAll partners are always at distances
``2^i``, so every exchange round runs over a direct OCSTrx link (using the
Fast Switch mechanism to hop between partners), without GPU forwarding or
node-level loopback.

The wiring also supports 2-D TP + EP parallelism: TP rings form on the
distance-1 links while EP groups of ``p`` nodes use the ``+-2^i`` links, with
the constraint ``TP_size * EP_size <= R * 2^(K-1)`` for an ``R``-GPU node
with ``K`` OCSTrx bundles (e.g. 64 for a 4-GPU node, 2048 for an 8-GPU node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence


@dataclass(frozen=True)
class AllToAllTopologyConfig:
    """Parameters of the power-of-two wiring.

    ``n_bundles`` plays the role of ``K``: the node reaches distances
    ``2^0 .. 2^(n_bundles-1)`` in both directions.
    """

    n_nodes: int
    n_bundles: int = 4
    gpus_per_node: int = 4
    ring: bool = True

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.n_bundles < 1:
            raise ValueError("n_bundles must be >= 1")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")

    @property
    def max_reach(self) -> int:
        """Largest single-hop distance provided by the wiring."""
        return 2 ** (self.n_bundles - 1)

    @property
    def max_group_product(self) -> int:
        """Upper bound on ``TP_size * EP_size`` (GPUs) for 2-D parallelism."""
        return self.gpus_per_node * (2 ** (self.n_bundles - 1))


class PowerOfTwoTopology:
    """The ``n +- 2^i`` wiring of Appendix G.3."""

    def __init__(self, config: AllToAllTopologyConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------ links
    def link_distances(self) -> list[int]:
        """The set of hop distances covered by direct links."""
        return [2 ** i for i in range(self.config.n_bundles)]

    def neighbors(self, node: int) -> list[int]:
        """Nodes directly reachable from ``node``."""
        self._check(node)
        n = self.config.n_nodes
        result: set[int] = set()
        for distance in self.link_distances():
            if self.config.ring:
                result.add((node + distance) % n)
                result.add((node - distance) % n)
            else:
                if node + distance < n:
                    result.add(node + distance)
                if node - distance >= 0:
                    result.add(node - distance)
        result.discard(node)
        return sorted(result)

    def has_link(self, a: int, b: int) -> bool:
        self._check(a)
        self._check(b)
        if a == b:
            return False
        diff = abs(a - b)
        if self.config.ring:
            diff = min(diff, self.config.n_nodes - diff)
        return diff in self.link_distances()

    # ------------------------------------------------- binary exchange support
    def binary_exchange_rounds(
        self, group_nodes: Sequence[int]
    ) -> list[list[tuple[int, int]]]:
        """Per-round communication pairs of Binary Exchange over ``group_nodes``.

        ``group_nodes`` must have a power-of-two length; round ``k`` pairs the
        member at group index ``i`` with the member at ``i XOR 2^(rounds-k)``.
        Raises ``ValueError`` if any pair lacks a direct link (the group is
        not laid out compatibly with the wiring).
        """
        p = len(group_nodes)
        if p < 1 or (p & (p - 1)) != 0:
            raise ValueError("group size must be a power of two")
        if len(set(group_nodes)) != p:
            raise ValueError("group contains duplicate nodes")
        for node in group_nodes:
            self._check(node)
        rounds = int(math.log2(p)) if p > 1 else 0
        schedule: list[list[tuple[int, int]]] = []
        for k in range(1, rounds + 1):
            mask = 1 << (rounds - k)
            pairs: list[tuple[int, int]] = []
            for index in range(p):
                partner = index ^ mask
                if index < partner:
                    a, b = group_nodes[index], group_nodes[partner]
                    if not self.has_link(a, b):
                        raise ValueError(
                            f"binary exchange needs a link between nodes {a} and {b} "
                            f"(group indices {index} and {partner})"
                        )
                    pairs.append((a, b))
            schedule.append(pairs)
        return schedule

    def supports_binary_exchange(self, group_nodes: Sequence[int]) -> bool:
        """Whether Binary Exchange can run on ``group_nodes`` without forwarding."""
        try:
            self.binary_exchange_rounds(group_nodes)
        except ValueError:
            return False
        return True

    def ep_group(self, start: int, ep_size: int, stride: int = 1) -> list[int]:
        """The ``ep_size`` nodes of an EP group starting at ``start``.

        ``stride`` is the node distance between consecutive EP members (the
        TP group width in nodes when TP and EP are stacked).  Consecutive
        members at stride ``2^j`` keep every exchange distance a power of two,
        which is the layout Figure 24 uses.
        """
        if ep_size < 1:
            raise ValueError("ep_size must be >= 1")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        n = self.config.n_nodes
        members = []
        for i in range(ep_size):
            node = start + i * stride
            if self.config.ring:
                node %= n
            elif node >= n:
                raise ValueError("EP group exceeds the line topology")
            members.append(node)
        return members

    # ------------------------------------------------ 2-D parallelism planning
    def validate_tp_ep(self, tp_size: int, ep_size: int) -> None:
        """Check the ``TP * EP`` constraint of Appendix G.3."""
        if tp_size < 1 or ep_size < 1:
            raise ValueError("tp_size and ep_size must be >= 1")
        product = tp_size * ep_size
        if product > self.config.max_group_product:
            raise ValueError(
                f"TP({tp_size}) x EP({ep_size}) = {product} exceeds the wiring "
                f"limit of {self.config.max_group_product} GPUs "
                f"(R={self.config.gpus_per_node}, bundles={self.config.n_bundles})"
            )
        if ep_size & (ep_size - 1):
            raise ValueError("ep_size must be a power of two for Binary Exchange")

    def plan_tp_ep(
        self, start: int, tp_size: int, ep_size: int
    ) -> dict[str, object]:
        """Lay out one TP x EP block starting at node ``start``.

        Returns the TP node span per EP member plus the Binary Exchange
        schedule between the EP members' lead nodes.
        """
        self.validate_tp_ep(tp_size, ep_size)
        nodes_per_tp = max(1, -(-tp_size // self.config.gpus_per_node))
        ep_leads = self.ep_group(start, ep_size, stride=nodes_per_tp)
        tp_spans = {
            lead: [
                (lead + offset) % self.config.n_nodes
                if self.config.ring
                else lead + offset
                for offset in range(nodes_per_tp)
            ]
            for lead in ep_leads
        }
        schedule = self.binary_exchange_rounds(ep_leads) if ep_size > 1 else []
        return {
            "ep_leads": ep_leads,
            "tp_spans": tp_spans,
            "exchange_schedule": schedule,
            "nodes_per_tp_group": nodes_per_tp,
        }

    # --------------------------------------------------------------- helpers
    def _check(self, node: int) -> None:
        if not 0 <= node < self.config.n_nodes:
            raise ValueError(
                f"node {node} out of range for {self.config.n_nodes}-node topology"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        c = self.config
        return (
            f"PowerOfTwoTopology(n={c.n_nodes}, bundles={c.n_bundles}, "
            f"reach={c.max_reach})"
        )
