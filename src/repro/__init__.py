"""repro -- a from-scratch reproduction of InfiniteHBD (SIGCOMM 2025).

InfiniteHBD is a transceiver-centric High-Bandwidth Domain architecture for
LLM training: optical circuit switching embedded in every transceiver
(OCSTrx), a reconfigurable K-Hop Ring topology, and an HBD-DCN orchestration
algorithm.  This package implements the full system plus every substrate and
baseline its evaluation depends on:

* ``repro.hardware``    -- OCSTrx / MZI device models (section 4.1, 5.1).
* ``repro.core``        -- nodes, the K-Hop Ring topology, ring construction
  and the orchestration algorithms (sections 4.2, 4.3, Appendix D).
* ``repro.hbd``         -- architecture models: InfiniteHBD, Big-Switch,
  NVL-36/72/576, TPUv4, SiP-Ring (section 6.2), and the plugin registry
  that builds them by name.
* ``repro.faults``      -- fault trace substrate (Appendix A).
* ``repro.simulation``  -- trace-driven cluster simulation (section 6.2).
* ``repro.scheduler``   -- multi-job cluster scheduling over the exact
  fault timeline (FIFO / smallest-first / shortest-remaining policies,
  Poisson + heavy-tailed workload generation, per-job + cluster metrics).
* ``repro.dcn``         -- Fat-Tree DCN and cross-ToR traffic model (6.4).
* ``repro.training``    -- LLM training MFU simulator (sections 2.3, 6.3).
* ``repro.collectives`` -- ring AllReduce and AllToAll algorithms (5.2, App G).
* ``repro.cost``        -- interconnect cost / power analysis (section 6.5).
* ``repro.analysis``    -- theoretical waste-ratio bound (Appendix C).
* ``repro.api``         -- the Unified Experiment API: declarative scenario
  specs and a parallel experiment runner (it re-exports the registry).

Quickstart -- declare a scenario, run it, serialize the results::

    from repro.api import ExperimentSpec, Scenario, TraceSpec, run_experiment

    spec = ExperimentSpec.of(
        scenario=Scenario.default(
            "quickstart",                      # the paper's 8-architecture line-up
            trace=TraceSpec(days=120, seed=348, gpus_per_node=4),
            tp_sizes=(32,),
            n_nodes=720,                       # a 2,880-GPU cluster
        ),
        experiments=("waste", "goodput"),
    )
    results = run_experiment(spec)             # parallel across architectures
    for r in results.filter(experiment="waste"):
        print(f"{r.architecture:18s} mean waste {r.metric('mean_waste_ratio'):.2%}")
    open("results.json", "w").write(results.to_json())   # round-trippable

The same spec runs from the shell: save ``spec.to_json()`` to a file and
``python -m repro.cli run --spec spec.json --output results.json``.  New HBD
variants plug in by name through the registry (see :mod:`repro.hbd.registry`)
without touching core code; the lower-level building blocks
(:func:`repro.simulation.cluster.replay_intervals`, the architecture classes,
the fault substrate) remain importable for bespoke studies.

``import repro`` imports none of these subpackages: import each name from the
module that defines it (for example
``from repro.core.khop_ring import KHopRingTopology``), so a process loads
only the modules it runs.  Any module can be the first one a process
imports, and the model layers (``repro.faults``, ``repro.hbd``,
``repro.core``, ``repro.analysis``) import nothing from the layers that run
them (``repro.api``, ``repro.cache``, ``repro.cli``, ``repro.mc``,
``repro.scheduler``, ``repro.simulation``).
"""

__version__ = "1.0.0"
