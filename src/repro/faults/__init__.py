"""Fault substrate: traces, synthetic generation and fault models.

The paper's trace-driven experiments (Figures 13, 15, 16, 18, 20, 21) replay
a 348-day production fault trace from a ~3K-GPU cluster of 8-GPU nodes with a
mean faulty-node ratio of 2.33% and a p99 of 7.22% (Appendix A).  The trace
itself is not bundled here, so :mod:`repro.faults.synthetic` generates a
statistically equivalent trace; :mod:`repro.faults.convert` applies the
paper's Bayes-rule conversion from 8-GPU-node faults to 4-GPU-node faults,
and :mod:`repro.faults.model` draws i.i.d. fault sets at a target node-fault
ratio for the sweep-style experiments (Figures 14, 17c, 17d, 22).
"""
