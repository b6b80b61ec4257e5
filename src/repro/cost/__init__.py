"""Interconnect cost and power analysis (section 6.5, Tables 6 and 8).

* :mod:`repro.cost.components` -- the component catalog (unit cost, unit
  bandwidth, unit power) transcribed from Table 8.
* :mod:`repro.cost.architectures` -- per-architecture bills of materials and
  reference deployments.
* :mod:`repro.cost.analysis` -- per-GPU / per-GBps normalisation (Table 6)
  and the fault-aware aggregate-cost model behind Figure 17d.
"""
