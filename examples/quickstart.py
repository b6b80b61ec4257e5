#!/usr/bin/env python3
"""Quickstart: build an InfiniteHBD, fail a node, and watch it reconfigure.

This walks through the core objects of the library:

1. an OCSTrx-equipped GPU node and the reconfigurable K-Hop Ring topology,
2. dynamic GPU-ring construction with the intra-node loopback mechanism,
3. node-level fault isolation via the backup links,
4. the GPU-waste comparison against a switch-centric NVL-72 domain.

Run with:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.khop_ring import KHopRingTopology, KHopTopologyConfig
from repro.core.node import make_nodes
from repro.core.ring_builder import RingBuilder
from repro.hbd.registry import REGISTRY


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A small InfiniteHBD: 16 nodes x 4 GPUs, K = 2 hops.
    # ------------------------------------------------------------------
    n_nodes, gpus_per_node, k = 16, 4, 2
    topology = KHopRingTopology(
        KHopTopologyConfig(n_nodes=n_nodes, k=k, gpus_per_node=gpus_per_node)
    )
    nodes = make_nodes(n_nodes, n_gpus=gpus_per_node, n_bundles=k)
    builder = RingBuilder(topology, nodes)

    print(f"Topology: {topology}")
    print(f"Node 0 reaches nodes {topology.neighbors(0)} through its OCSTrx paths\n")

    # ------------------------------------------------------------------
    # 2. Build a TP-32 GPU ring (8 nodes) using the loopback mechanism.
    # ------------------------------------------------------------------
    ring = builder.build_ring(list(range(8)))
    print(f"Built a {ring.size}-GPU ring over nodes {ring.node_order}")
    print(f"  reconfiguration latency: {ring.reconfiguration_latency_us:.0f} us")
    print(f"  per-hop ring bandwidth : {ring.bandwidth_gbps:.0f} Gbps")
    print(f"  first GPUs on the ring : {ring.gpu_order[:6]} ...\n")

    # ------------------------------------------------------------------
    # 3. Fail a node: the neighbours bypass it over their backup links.
    # ------------------------------------------------------------------
    nodes[3].fail()
    print("Node 3 failed; rebuilding the same-size ring around it ...")
    healed = builder.build_ring_bypassing_faults(start=0, n_nodes=8)
    print(f"  new ring spans nodes {healed.node_order} (node 3 isolated)")
    print(f"  ring size unchanged: {healed.size} GPUs at full bandwidth\n")

    # ------------------------------------------------------------------
    # 4. Waste-ratio comparison against NVL-72 at a 2,880-GPU scale.
    #    Architectures come from the plugin registry by legend name --
    #    the same names spec files and the CLI use.
    # ------------------------------------------------------------------
    cluster_nodes = 720
    faulty = {10, 95, 222, 402, 561, 703}
    for arch_name in ("InfiniteHBD(K=3)", "NVL-72"):
        arch = REGISTRY.create(arch_name, gpus_per_node=4)
        breakdown = arch.breakdown(cluster_nodes, faulty, tp_size=32)
        print(
            f"{arch.name:18s} usable={breakdown.usable_gpus:5d} GPUs   "
            f"wasted={breakdown.wasted_gpus:4d}   waste ratio={breakdown.waste_ratio:.2%}"
        )


if __name__ == "__main__":
    main()
