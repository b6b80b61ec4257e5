"""Trace-driven cluster simulation (section 6.2 metrics).

:func:`repro.simulation.cluster.replay_intervals` replays the exact interval
timeline of a node-fault trace against an HBD architecture model and returns
a one-seed :class:`repro.mc.BatchSeries`, whose exact duration-weighted
aggregates are the fault-resilience metrics of the paper: GPU waste ratio
over time and its quantiles, the maximum supported job scale, and the job
fault-waiting rate.  :class:`~repro.simulation.goodput.
GoodputSimulator` replays one training job against the same timeline.  The
paper's trace-driven figures run both through :class:`repro.api.
ExperimentRunner`; :mod:`repro.simulation.sweeps` provides the i.i.d.
fault-ratio sweep (Figures 14 and 22).
"""
