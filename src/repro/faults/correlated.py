"""Correlated (domain-level) fault generation over placement domains.

The independent generator (:mod:`repro.faults.synthetic`) draws node faults
one at a time, which makes every architecture's blast radius look the same:
a fault never takes out more than one node.  Real clusters fail differently
-- a power-domain or switch incident takes out a whole rack/domain at once,
and incidents arrive in bursts (a bad firmware rollout, a cooling event)
separated by long quiet stretches.  This module layers exactly that
structure on top of the independent trace:

1. **Failure domains.**  The cluster is partitioned into domains -- by
   default contiguous ``domain_size``-node blocks, or the node sets of an
   architecture's fault-free
   :meth:`~repro.hbd.base.HBDArchitecture.placement_groups` via
   :func:`architecture_domains` -- and every correlated event takes out one
   whole domain.
2. **Burst arrivals.**  Domain outages arrive from a two-state
   Markov-modulated Poisson process (quiet / burst): exponential state
   holding times, a ``burst_multiplier``-times higher arrival rate while in
   the burst state, and a time-averaged cluster-wide rate of
   ``correlation * domain_rate_per_day`` outages per day.
3. **Heavy-tailed, sub-daily repairs.**  Each outage's repair time is drawn
   from a lognormal (``repair_median_hours``, ``repair_sigma``) -- median
   well under a day with a heavy upper tail, matching Philly/Helios-style
   repair logs; the parameters are fittable from an ingested CSV trace via
   :mod:`repro.faults.calibrate`.

The output is an ordinary :class:`~repro.faults.trace.FaultTrace`: the
overlay appends one row per node of every outage to the base trace's
columns, so the columnar event log, the sweep-line timeline, the
Monte-Carlo batch engine, cache keys and the scheduler all consume
correlated traces unchanged.  At
``correlation=0`` the generator *is* the independent generator -- it returns
``generate_synthetic_trace(config.base)`` verbatim, event for event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.faults.trace import HOURS_PER_DAY, FaultTrace

#: Seed-stream tag for the correlated overlay, so the overlay draws never
#: perturb the base generator's stream (correlation=0 stays byte-identical).
_OVERLAY_STREAM = 0x436F7272  # "Corr"


@dataclass(frozen=True)
class CorrelatedFaultConfig:
    """Parameters of the correlated overlay on top of a base config.

    ``correlation`` scales the cluster-wide domain-outage rate from zero
    (``generate_correlated_trace`` returns the plain independent trace) to
    ``domain_rate_per_day`` outages per day at ``correlation=1``.

    >>> config = CorrelatedFaultConfig(
    ...     base=SyntheticTraceConfig(n_nodes=64, duration_days=20, seed=7),
    ...     correlation=0.5,
    ... )
    >>> config.correlation
    0.5
    """

    base: SyntheticTraceConfig = field(default_factory=SyntheticTraceConfig)
    correlation: float = 0.0
    domain_size: int = 8
    domain_rate_per_day: float = 0.25
    burst_multiplier: float = 4.0
    mean_quiet_days: float = 7.0
    mean_burst_days: float = 1.0
    repair_median_hours: float = 4.0
    repair_sigma: float = 1.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must be in [0, 1]")
        if self.domain_size < 1:
            raise ValueError("domain_size must be >= 1")
        if self.domain_rate_per_day <= 0.0:
            raise ValueError("domain_rate_per_day must be positive")
        if self.burst_multiplier < 1.0:
            raise ValueError("burst_multiplier must be >= 1")
        if self.mean_quiet_days <= 0.0 or self.mean_burst_days <= 0.0:
            raise ValueError("mean_quiet_days and mean_burst_days must be positive")
        if self.repair_median_hours <= 0.0:
            raise ValueError("repair_median_hours must be positive")
        if self.repair_sigma < 0.0:
            raise ValueError("repair_sigma must be >= 0")


@dataclass(frozen=True)
class DomainOutage:
    """One correlated event: every node of one domain is down together."""

    domain: int
    nodes: tuple[int, ...]
    start_hour: float
    end_hour: float

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a domain outage must cover at least one node")
        if self.end_hour < self.start_hour:
            raise ValueError("end_hour must be >= start_hour")


def fault_domains(n_nodes: int, domain_size: int) -> tuple[tuple[int, ...], ...]:
    """Partition ``n_nodes`` into contiguous ``domain_size``-node domains.

    The last domain absorbs the remainder, so every node belongs to exactly
    one domain.

    >>> fault_domains(7, 3)
    ((0, 1, 2), (3, 4, 5, 6))
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")
    starts = list(range(0, n_nodes, domain_size))
    if len(starts) > 1 and n_nodes - starts[-1] < domain_size:
        starts.pop()  # fold the short tail into the previous domain
    return tuple(
        tuple(range(start, min(start + domain_size, n_nodes) if i + 1 < len(starts) else n_nodes))
        for i, start in enumerate(starts)
    )


def architecture_domains(
    architecture: object, n_nodes: int, tp_size: int
) -> tuple[tuple[int, ...], ...]:
    """Failure domains from an architecture's fault-free placement domains.

    Wraps :meth:`~repro.hbd.base.HBDArchitecture.placement_groups` on a
    fault-free cluster, so a correlated event takes out exactly one ring /
    cube / unit / segment of the architecture under study.

    >>> from repro.hbd import NVLHBD
    >>> domains = architecture_domains(NVLHBD(36, 4), n_nodes=18, tp_size=4)
    >>> [len(d) for d in domains]
    [9, 9]
    """
    from repro.hbd.base import HBDArchitecture

    if not isinstance(architecture, HBDArchitecture):
        raise TypeError("architecture must be an HBDArchitecture")
    groups = architecture.placement_groups(n_nodes, frozenset(), tp_size)
    return tuple(tuple(sorted(group.nodes)) for group in groups)


def _mmpp_arrival_hours(
    config: CorrelatedFaultConfig, duration_hours: float, rng: np.random.Generator
) -> list[float]:
    """Arrival instants of a two-state Markov-modulated Poisson process.

    State holding times are exponential (means ``mean_quiet_days`` /
    ``mean_burst_days``); the burst-state arrival rate is
    ``burst_multiplier`` times the quiet rate, and the rates are normalized
    so the *time-averaged* cluster-wide rate equals
    ``correlation * domain_rate_per_day`` outages per day.
    """
    mean_quiet_h = config.mean_quiet_days * HOURS_PER_DAY
    mean_burst_h = config.mean_burst_days * HOURS_PER_DAY
    burst_share = mean_burst_h / (mean_quiet_h + mean_burst_h)
    average_per_hour = config.correlation * config.domain_rate_per_day / HOURS_PER_DAY
    quiet_rate = average_per_hour / (
        (1.0 - burst_share) + config.burst_multiplier * burst_share
    )
    rates = (quiet_rate, config.burst_multiplier * quiet_rate)
    holds = (mean_quiet_h, mean_burst_h)

    arrivals: list[float] = []
    t = 0.0
    state = 0  # start quiet: bursts are the exceptional state
    while t < duration_hours:
        state_end = min(t + rng.exponential(holds[state]), duration_hours)
        rate = rates[state]
        if rate > 0.0:
            clock = t
            while True:
                clock += rng.exponential(1.0 / rate)
                if clock >= state_end:
                    break
                arrivals.append(clock)
        t = state_end
        state = 1 - state
    return arrivals


#: The overlay's draws, one entry per outage in arrival order: the domain
#: index, the start hour and the end hour.
_OutageDraws = tuple[list[int], list[float], list[float]]


def _draw_outages(
    config: CorrelatedFaultConfig,
    domains: tuple[tuple[int, ...], ...],
    rng: np.random.Generator,
) -> _OutageDraws:
    """Draw the overlay's outages without building ``DomainOutage`` records."""
    duration_hours = config.base.duration_days * HOURS_PER_DAY
    indexes: list[int] = []
    starts: list[float] = []
    ends: list[float] = []
    for start in _mmpp_arrival_hours(config, duration_hours, rng):
        index = int(rng.integers(len(domains)))
        repair = config.repair_median_hours * float(
            np.exp(config.repair_sigma * rng.standard_normal())
        )
        indexes.append(index)
        starts.append(start)
        ends.append(min(start + repair, duration_hours))
    return indexes, starts, ends


def _outage_records(
    domains: tuple[tuple[int, ...], ...], draws: _OutageDraws
) -> list[DomainOutage]:
    indexes, starts, ends = draws
    return [
        DomainOutage(domain=index, nodes=domains[index], start_hour=start, end_hour=end)
        for index, start, end in zip(indexes, starts, ends, strict=True)
    ]


def sample_domain_outages(
    config: CorrelatedFaultConfig,
    domains: tuple[tuple[int, ...], ...],
    rng: np.random.Generator,
) -> list[DomainOutage]:
    """Draw the correlated overlay: burst-arriving whole-domain outages."""
    return _outage_records(domains, _draw_outages(config, domains, rng))


def _overlay(
    config: CorrelatedFaultConfig, domains: tuple[tuple[int, ...], ...] | None
) -> tuple[FaultTrace, tuple[tuple[int, ...], ...], _OutageDraws]:
    """The correlated trace, its failure domains and the outage draws behind it."""
    base = generate_synthetic_trace(config.base)
    if config.correlation == 0.0:
        return base, (), ([], [], [])
    if domains is None:
        domains = fault_domains(config.base.n_nodes, config.domain_size)
    for domain in domains:
        if not domain:
            raise ValueError("a domain outage must cover at least one node")
        for node in domain:
            if not 0 <= node < config.base.n_nodes:
                raise ValueError(f"domain node {node} outside cluster of {config.base.n_nodes}")
    rng = np.random.default_rng((config.base.seed, _OVERLAY_STREAM))
    draws = _draw_outages(config, domains, rng)
    indexes, starts, ends = draws
    # Each outage appends one row per node of its domain, after the base rows.
    sizes = [len(domains[index]) for index in indexes]
    nodes = np.fromiter(
        (node for index in indexes for node in domains[index]), dtype=np.int64, count=sum(sizes)
    )
    trace = FaultTrace.from_columns(
        config.base.n_nodes,
        config.base.duration_days,
        np.concatenate((base.node_ids, nodes)),
        np.concatenate((base.start_hours, np.repeat(starts, sizes))),
        np.concatenate((base.end_hours, np.repeat(ends, sizes))),
        gpus_per_node=config.base.gpus_per_node,
    )
    return trace, domains, draws


def correlated_trace_with_outages(
    config: CorrelatedFaultConfig,
    domains: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[FaultTrace, tuple[DomainOutage, ...]]:
    """Generate the correlated trace plus its domain-outage ground truth.

    The returned trace appends to the independent base trace's columns one
    row (node, start, end) for every node of every domain outage; the
    outage tuple is the generator's own record of which events
    were correlated (used by blast-radius studies and the property tests).

    Determinism: the overlay draws from a dedicated seed stream
    (``(base.seed, overlay tag)``), so the base trace is bit-identical to
    ``generate_synthetic_trace(config.base)`` at every correlation level and
    the whole output is a pure function of the config.

    >>> config = CorrelatedFaultConfig(
    ...     base=SyntheticTraceConfig(n_nodes=32, duration_days=30, seed=3),
    ...     correlation=1.0, domain_size=8, domain_rate_per_day=0.5)
    >>> trace, outages = correlated_trace_with_outages(config)
    >>> len(outages) > 0 and all(len(o.nodes) == 8 for o in outages)
    True
    """
    trace, domains, draws = _overlay(config, domains)
    return trace, tuple(_outage_records(domains, draws))


def generate_correlated_trace(
    config: CorrelatedFaultConfig,
    domains: tuple[tuple[int, ...], ...] | None = None,
) -> FaultTrace:
    """Generate a correlated fault trace (see :func:`correlated_trace_with_outages`).

    Builds the trace alone, without ``DomainOutage`` records.

    >>> base = SyntheticTraceConfig(n_nodes=32, duration_days=10, seed=3)
    >>> independent = generate_synthetic_trace(base)
    >>> same = generate_correlated_trace(CorrelatedFaultConfig(base=base))
    >>> same.events == independent.events   # correlation=0 is a pass-through
    True
    """
    trace, _, _ = _overlay(config, domains)
    return trace


__all__ = [
    "CorrelatedFaultConfig",
    "DomainOutage",
    "architecture_domains",
    "correlated_trace_with_outages",
    "fault_domains",
    "generate_correlated_trace",
    "sample_domain_outages",
]
