"""InfiniteHBD control plane (section 5.2).

The paper's prototype includes a two-level control plane:

* the **node fabric manager** configures the OCSTrx modules of one node and
  performs topology switching for that node
  (:mod:`repro.control.fabric_manager`);
* the **cluster manager** coordinates global control: it allocates TP rings
  for jobs, reacts to node faults by driving the affected fabric managers to
  bypass the failed node over backup links, and re-forms rings when a bypass
  is impossible (:mod:`repro.control.cluster_manager`).

The control plane operates on the same :class:`~repro.core.node.Node` /
:class:`~repro.hardware.ocstrx.OCSTrxBundle` objects as the ring builder, so
reconfiguration latency and path states are tracked end to end.
"""
