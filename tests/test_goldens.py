"""Golden-file regression snapshots for the blast-radius study and scheduler.

A small canonical packed-vs-spread blast-radius :class:`ResultSet` (two
architectures, three correlation levels) is kept as checked-in JSON and must
stay **byte-stable**: any change to the generators, the scheduler, the
runner's aggregation or the serialization shows up as a diff here.

The scheduler grid pins :class:`ClusterScheduler` itself: every policy, with
preemption forced off and forced on, under both capacity
models (expected-value, packed, spread), with and without backfill, run to
completion and to a finite horizon, on three architectures.  Each case
stores the SHA-256 of its canonical report JSON, so any change to what the
engine schedules -- or to the float rounding of its accounting -- shows up
as a named drifted case.  Every case that reads expected-value capacity is
also rerun with a replayed TP-8 usable-GPU column and must reproduce its
recorded digest.

Refresh intentionally with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.api import ExperimentRunner, ExperimentSpec, Scenario
from repro.api.spec import (
    ArchitectureSpec,
    CorrelatedFaultSpec,
    TraceSpec,
    WorkloadSpec,
)
from repro.faults.trace import FaultEvent, FaultTrace
from repro.hbd.registry import REGISTRY
from repro.scheduler import (
    ClusterScheduler,
    WorkloadConfig,
    generate_workload,
    policy_by_name,
)
from repro.scheduler.policies import POLICY_NAMES
from repro.simulation.cluster import replay_intervals

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _golden_spec():
    """The canonical blast-radius study: fixed forever unless goldens refresh."""
    return ExperimentSpec.of(
        scenario=Scenario(
            name="golden-blast-radius",
            trace=TraceSpec(
                days=30,
                seed=348,
                correlated=CorrelatedFaultSpec(domain_rate_per_day=1.0),
            ),
            architectures=(
                ArchitectureSpec(name="NVL-72"),
                ArchitectureSpec(name="InfiniteHBD(K=2)"),
            ),
            tp_sizes=(8,),
            n_nodes=64,
            workload=WorkloadSpec(n_jobs=8, seed=1, median_work_hours=200.0),
        ),
        experiments=("blast_radius",),
        options={"blast_radius": {"correlations": [0.0, 0.5, 1.0]}},
        max_workers=1,
    )


def _check_or_update(name, rendered, update):
    path = GOLDEN_DIR / name
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered)
        return
    assert path.is_file(), (
        f"golden {path} is missing; generate it with "
        "pytest tests/test_goldens.py --update-goldens"
    )
    assert rendered == path.read_text(), (
        f"golden {name} drifted; if the change is intentional refresh with "
        "pytest tests/test_goldens.py --update-goldens"
    )


class TestBlastRadiusGolden:
    def test_blast_radius_resultset_is_byte_stable(self, update_goldens):
        results = ExperimentRunner(_golden_spec()).run()
        _check_or_update(
            "blast_radius_resultset.json", results.to_json() + "\n", update_goldens
        )

    def test_golden_covers_both_placements_and_architectures(self):
        data = json.loads((GOLDEN_DIR / "blast_radius_resultset.json").read_text())
        rows = data["results"]
        # 2 architectures x 2 placements x 3 correlation levels.
        assert len(rows) == 12
        assert {r["architecture"] for r in rows} == {"NVL-72", "InfiniteHBD(K=2)"}
        placements = {r["metrics"]["placement"] for r in rows}
        assert placements == {"packed", "spread"}
        correlations = {r["metrics"]["correlation"] for r in rows}
        assert correlations == {0.0, 0.5, 1.0}
        # The study is non-degenerate: correlated cells record fault hits.
        assert any(r["metrics"]["fault_events"] > 0 for r in rows)

    def test_golden_matches_a_fresh_run_not_just_bytes(self):
        # Belt and braces: the deserialized metrics agree with a fresh run
        # even if whitespace/serialization conventions ever change.
        fresh = ExperimentRunner(_golden_spec()).run()
        stored = json.loads((GOLDEN_DIR / "blast_radius_resultset.json").read_text())
        fresh_rows = [r.to_dict() for r in fresh]
        assert fresh_rows == stored["results"]


#: Scheduler grid: 72 four-GPU nodes, 24 faults over four days.
GRID_NODES = 72
GRID_DAYS = 4
GRID_FAULTS = 24
GRID_ARCHITECTURES = ("InfiniteHBD(K=2)", "NVL-36", "TPUv4")
#: (case label, policy name, knobs, backfill settings): every built-in
#: policy at its defaults, plus a gittins whose 32 GPU-hour first quantum
#: demotes most jobs and whose starve limit of 1 promotes them back, so its
#: dynamic keys move while jobs wait.  Backfill is a no-op for gittins (not
#: strict-order), so the extra variant runs without it only.
GRID_POLICIES = tuple((name, name, {}, (False, True)) for name in POLICY_NAMES) + (
    (
        "gittins-fast",
        "gittins",
        {"threshold_gpu_hours": 32.0, "starve_limit": 1.0},
        (False,),
    ),
)
GRID_PLACEMENTS = (None, "packed", "spread")
GRID_HORIZONS = (None, 24.0)


def _grid_trace():
    """Faults at fractional hours (many distinct intervals), fixed forever."""
    rng = random.Random(348)
    events = []
    for _ in range(GRID_FAULTS):
        start = rng.uniform(0.0, GRID_DAYS * 24.0)
        events.append(
            FaultEvent(
                node_id=rng.randrange(GRID_NODES),
                start_hour=start,
                end_hour=start + rng.expovariate(1.0 / 12.0),
            )
        )
    return FaultTrace(
        n_nodes=GRID_NODES, duration_days=GRID_DAYS, events=events, gpus_per_node=4
    )


def _grid_jobs():
    """40 jobs mixing TP 8 and TP 16, so placed mode fragments domains."""
    narrow = generate_workload(
        WorkloadConfig(
            n_jobs=30, seed=5, tp_size=8, max_gpus=160,
            mean_interarrival_hours=1.5, median_work_hours=8.0,
        )
    )
    wide = generate_workload(
        WorkloadConfig(
            n_jobs=10, seed=6, tp_size=16, max_gpus=128,
            mean_interarrival_hours=4.0, median_work_hours=6.0,
        )
    )
    return narrow + tuple(
        dataclasses.replace(job, name=f"wide-{job.name}") for job in wide
    )


def _grid_cases():
    """Yield (case id, architecture, ``ClusterScheduler`` keywords) per case."""
    for arch_name in GRID_ARCHITECTURES:
        arch = REGISTRY.create(arch_name)
        for label, policy_name, knobs, backfills in GRID_POLICIES:
            # Both preemption modes for every policy, whatever its default:
            # the non-preemptive and preemptive allocation starts differ.
            for preemptive in (False, True):
                for placement in GRID_PLACEMENTS:
                    for backfill in backfills:
                        for horizon in GRID_HORIZONS:
                            case = (
                                f"{arch_name}|{label}|preemptive={preemptive}"
                                f"|{placement or 'expected-value'}"
                                f"|backfill={backfill}|horizon={horizon}"
                            )
                            yield case, arch, {
                                "policy": policy_by_name(
                                    policy_name, preemptive, **knobs
                                ),
                                "horizon_hours": horizon,
                                "placement": placement,
                                "backfill": backfill,
                            }


def _digest(report):
    """SHA-256 of a ``ClusterReport``'s canonical JSON."""
    canonical = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _scheduler_grid():
    """Case id -> SHA-256 of the run's canonical ``ClusterReport`` JSON."""
    timeline = _grid_trace().interval_timeline()
    jobs = _grid_jobs()
    return {
        case: _digest(ClusterScheduler(arch, timeline, jobs, **kwargs).run())
        for case, arch, kwargs in _grid_cases()
    }


class TestSchedulerGridGolden:
    def test_scheduler_grid_is_byte_stable(self, update_goldens):
        digests = _scheduler_grid()
        name = "scheduler_grid.json"
        if not update_goldens and (GOLDEN_DIR / name).is_file():
            # Name the drifted cases before the whole-file comparison.
            stored = json.loads((GOLDEN_DIR / name).read_text())
            drifted = sorted(
                case for case in digests if stored.get(case) != digests[case]
            )
            assert not drifted, f"scheduler grid cases drifted: {drifted}"
        _check_or_update(name, json.dumps(digests, indent=2) + "\n", update_goldens)

    def test_grid_covers_every_policy_mode_and_capacity_model(self):
        stored = json.loads((GOLDEN_DIR / "scheduler_grid.json").read_text())
        # 6 policies x 2 preemption modes = 12 policy modes, x 3 capacity
        # models x 2 backfill x 2 horizons x 3 architectures; gittins-fast
        # adds 2 preemption modes x 3 capacity models x 2 horizons x 3
        # architectures.
        assert len(stored) == 12 * 3 * 2 * 2 * 3 + 2 * 3 * 2 * 3
        for label, _, _, _ in GRID_POLICIES:
            for preemptive in (False, True):
                assert any(
                    f"|{label}|preemptive={preemptive}|" in case for case in stored
                )

    def test_replayed_capacity_column_reproduces_every_case(self):
        # Expected-value capacity is read in expected-value mode and by the
        # backfill reservation in placed mode.  The grid mixes TP-8 and
        # TP-16 jobs, so the TP-8 column runs beside the memo for TP 16.
        timeline = _grid_trace().interval_timeline()
        jobs = _grid_jobs()
        stored = json.loads((GOLDEN_DIR / "scheduler_grid.json").read_text())
        columns = {}
        checked, drifted = 0, []
        for case, arch, kwargs in _grid_cases():
            if kwargs["placement"] is not None and not kwargs["backfill"]:
                continue
            if arch.name not in columns:
                columns[arch.name] = replay_intervals(arch, timeline, 8).usable_gpus
            report = ClusterScheduler(
                arch, timeline, jobs, usable_gpus={8: columns[arch.name]}, **kwargs
            ).run()
            checked += 1
            if _digest(report) != stored[case]:
                drifted.append(case)
        assert not drifted, f"cases drifted with a replayed column: {drifted}"
        # 156 expected-value cases and 144 placed cases with backfill.
        assert checked == 156 + 144


class TestGoldenHygiene:
    def test_goldens_are_valid_pretty_json(self):
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            text = path.read_text()
            parsed = json.loads(text)
            assert text == json.dumps(parsed, indent=2) + "\n", path.name

    def test_update_flag_is_registered(self, request):
        assert request.config.getoption("--update-goldens") in (True, False)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__]))
