"""Theoretical analyses accompanying the system (Appendix C) and shared stats.

* :mod:`repro.analysis.cdf` -- empirical CDFs, duration-weighted quantiles
  and the left-fold :func:`~repro.analysis.cdf.left_sum` behind every float
  total on a result path.
* :mod:`repro.analysis.waste_bound` -- the theoretical waste-ratio upper
  bound of Appendix C (Table 7).
"""
