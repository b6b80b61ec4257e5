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

from repro.faults.trace import (
    FaultEvent,
    FaultTrace,
    TraceStatistics,
    merge_overlapping_events,
)
from repro.faults.events import (
    EVENT_DTYPE,
    ColumnarIntervals,
    columnar_event_log,
    event_log_from_columns,
    event_log_from_intervals,
)
from repro.faults.timeline import (
    FaultInterval,
    IntervalTimeline,
    intervals_from_event_log,
    sweep_intervals,
)
from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.faults.correlated import (
    CorrelatedFaultConfig,
    DomainOutage,
    architecture_domains,
    correlated_trace_with_outages,
    fault_domains,
    generate_correlated_trace,
    sample_domain_outages,
)
from repro.faults.calibrate import (
    CalibrationResult,
    detect_domain_outages,
    fit_correlated_config,
)
from repro.faults.convert import convert_trace_8gpu_to_4gpu, node_fault_probability
from repro.faults.model import IIDFaultModel, sample_fault_set

__all__ = [
    "FaultEvent",
    "FaultTrace",
    "TraceStatistics",
    "merge_overlapping_events",
    "EVENT_DTYPE",
    "ColumnarIntervals",
    "columnar_event_log",
    "event_log_from_columns",
    "event_log_from_intervals",
    "FaultInterval",
    "IntervalTimeline",
    "intervals_from_event_log",
    "sweep_intervals",
    "SyntheticTraceConfig",
    "generate_synthetic_trace",
    "CorrelatedFaultConfig",
    "DomainOutage",
    "architecture_domains",
    "correlated_trace_with_outages",
    "fault_domains",
    "generate_correlated_trace",
    "sample_domain_outages",
    "CalibrationResult",
    "detect_domain_outages",
    "fit_correlated_config",
    "convert_trace_8gpu_to_4gpu",
    "node_fault_probability",
    "IIDFaultModel",
    "sample_fault_set",
]
