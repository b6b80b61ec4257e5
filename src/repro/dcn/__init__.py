"""Datacenter network (DCN) substrate.

The paper evaluates InfiniteHBD against a Fat-Tree DCN (section 6.4).  This
subpackage provides:

* :mod:`repro.dcn.fattree` -- a three-tier Fat-Tree model with ToR switches,
  aggregation-switch domains and a core layer, exposing the locality queries
  the orchestration algorithms need (ToR of a node, aggregation domain of a
  node, network distance).
* :mod:`repro.dcn.traffic` -- the cross-ToR traffic accounting model used to
  regenerate Figure 17a-c.
"""
