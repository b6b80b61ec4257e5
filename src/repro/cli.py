"""Command-line interface for the InfiniteHBD reproduction.

Exposes the main experiment pipelines as subcommands so results can be
regenerated without writing Python:

* ``trace``         -- generate a synthetic production-style fault trace (CSV).
* ``waste``         -- trace-driven GPU-waste comparison across architectures.
* ``orchestrate``   -- cross-ToR traffic of the greedy baseline vs the
  optimized HBD-DCN orchestration algorithm.
* ``mfu``           -- MFU-optimal parallelism search for Llama / GPT-MoE.
* ``cost``          -- interconnect cost and power table (Table 6).
* ``goodput``       -- job goodput over the fault trace.
* ``schedule``      -- multi-job cluster scheduling over the fault trace;
  every policy in the :mod:`repro.scheduler.policies` registry is available
  (``--policy`` enumerates them), optionally preemptive / placed.
* ``run``           -- execute a declarative JSON experiment spec through the
  Unified Experiment API (:mod:`repro.api`) and emit serializable results,
  optionally memoized through the content-addressed result cache
  (``--cache memory|disk``).
* ``cache``         -- inspect or clear the on-disk result cache.
* ``architectures`` -- list every architecture in the plugin registry.
* ``docs``          -- emit the generated CLI reference (docs/cli.md).

Every subcommand that computes results runs an :class:`repro.api.
ExperimentSpec` through :class:`repro.api.ExperimentRunner` and only formats
its rows, so the CLI prints what ``run`` computes.  The trace-driven ones
share memoized trace generation and can fan the architecture line-up out
over a process pool (``--workers``).

Run ``python -m repro.cli --help`` (or the ``infinitehbd-repro`` entry point)
for the full option list.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Iterator, Sequence
from typing import Any, cast

from repro.api.results import ResultSet
from repro.api.runner import ExperimentRunner
from repro.api.spec import (
    CorrelatedFaultSpec,
    ExperimentSpec,
    Scenario,
    SchedulerSpec,
    TraceSpec,
    WorkloadSpec,
    default_architecture_specs,
)
from repro.cache import CACHE_MODES
from repro.scheduler.placement import PLACEMENT_NAMES
from repro.scheduler.policies import POLICY_NAMES


# --------------------------------------------------------------------------
# subcommand implementations (return lines of text so they are testable)
# --------------------------------------------------------------------------
def cmd_trace(args: argparse.Namespace) -> list[str]:
    # TraceSpec owns the node-granularity logic: 8 GPUs/node is the generated
    # trace, 4 GPUs/node applies the Bayes conversion; anything else is
    # rejected by both argparse (choices) and TraceSpec validation.
    spec = TraceSpec(days=args.days, seed=args.seed, gpus_per_node=args.gpus_per_node)
    trace = spec.build()
    stats = trace.statistics()
    lines = [
        f"nodes={trace.n_nodes} gpus_per_node={trace.gpus_per_node} days={trace.duration_days}",
        f"events={stats.n_events} mean_ratio={stats.mean_fault_ratio:.4f} "
        f"p99_ratio={stats.p99_fault_ratio:.4f}",
    ]
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(trace.to_csv())
        lines.append(f"wrote {args.output}")
    return lines


def _run(scenario: Scenario, experiment: str, workers: int | None = 1, **options: Any) -> ResultSet:
    """Run one experiment over ``scenario`` through :class:`ExperimentRunner`.

    An option left unset (``None``) takes the runner's default; with none
    set, the spec has no ``options`` entry, like a spec file without one.
    """
    options = {key: value for key, value in options.items() if value is not None}
    spec = ExperimentSpec.of(
        scenario=scenario,
        experiments=(experiment,),
        options={experiment: options} if options else None,
        max_workers=workers,
    )
    return ExperimentRunner(spec).run()


def _trace_scenario(
    args: argparse.Namespace,
    name: str,
    correlated: CorrelatedFaultSpec | None = None,
    **fields: Any,
) -> Scenario:
    """The paper's line-up over the ``--days`` / ``--seed`` trace, at ``--nodes`` and ``--tp``."""
    return Scenario(
        name=name,
        trace=TraceSpec(days=args.days, seed=args.seed, gpus_per_node=4, correlated=correlated),
        architectures=default_architecture_specs(),
        tp_sizes=(args.tp,),
        n_nodes=args.nodes,
        seed=args.seed,
        **fields,
    )


def cmd_waste(args: argparse.Namespace) -> list[str]:
    results = _run(_trace_scenario(args, "cli-waste"), "waste", args.workers)
    lines = [f"{'architecture':20s} {'mean waste':>11s} {'p99 waste':>10s} {'min usable':>11s}"]
    for result in results:
        lines.append(
            f"{result.architecture:20s} {result.metric('mean_waste_ratio'):11.4f} "
            f"{result.metric('p99_waste_ratio'):10.4f} {result.metric('min_usable_gpus'):11d}"
        )
    return lines


def cmd_orchestrate(args: argparse.Namespace) -> list[str]:
    from repro.faults.model import fault_count

    n_nodes = args.gpus // 4
    results = _run(
        Scenario(name="cli-orchestrate", tp_sizes=(args.tp,), n_nodes=n_nodes, seed=args.seed),
        "cross_tor",
        k=args.k,
        job_scale_ratio=args.job_scale_ratio,
        fault_ratio=args.fault_ratio,
        tors_per_domain=args.tors_per_domain,
    )
    lines = [
        f"cluster={args.gpus} GPUs  job={results[0].metric('job_gpus')} GPUs (TP-{args.tp})  "
        f"faults={fault_count(n_nodes, args.fault_ratio)} nodes ({args.fault_ratio:.1%})"
    ]
    for result in results:
        lines.append(
            f"{result.architecture.removeprefix('orchestrator:'):10s} "
            f"satisfied={result.metric('satisfied')} "
            f"constraints={result.metric('constraints_used')} "
            f"cross_tor_rate={result.metric('cross_tor_rate'):.4f}"
        )
    return lines


def cmd_mfu(args: argparse.Namespace) -> list[str]:
    (result,) = _run(
        Scenario(name="cli-mfu"),
        "mfu",
        model=args.model,
        gpus=args.gpus,
        global_batch=args.global_batch,
        imbalance=args.imbalance,
        max_tp=args.max_tp,
    )
    if not result.metric("feasible"):
        return [f"no feasible strategy for {result.architecture} on {args.gpus} GPUs"]
    metric = result.metric
    return [
        f"model={result.architecture} gpus={args.gpus} global_batch={metric('global_batch')}",
        f"best: TP={metric('tp')} PP={metric('pp')} DP={metric('dp')} EP={metric('ep')}",
        f"mfu={metric('mfu'):.4f} iteration_time_s={metric('iteration_time_s'):.3f} "
        f"bubble={metric('bubble_fraction'):.3f} memory_GiB={metric('memory_gib_per_gpu'):.1f}",
    ]


def cmd_cost(args: argparse.Namespace) -> list[str]:
    results = _run(Scenario(name="cli-cost"), "cost", include_hpn=args.include_hpn)
    lines = [f"{'architecture':20s} {'$/GPU':>10s} {'W/GPU':>8s} {'$/GBps':>8s} {'W/GBps':>8s}"]
    for result in results:
        lines.append(
            f"{result.architecture:20s} {result.metric('cost_per_gpu'):10.2f} "
            f"{result.metric('power_per_gpu'):8.2f} {result.metric('cost_per_gBps'):8.2f} "
            f"{result.metric('power_per_gBps'):8.3f}"
        )
    return lines


def cmd_goodput(args: argparse.Namespace) -> list[str]:
    results = _run(
        _trace_scenario(args, "cli-goodput", job_gpus=args.job_gpus), "goodput", args.workers
    )
    # job_impacting_faults is an expected value (float) since the exact
    # event-driven goodput accounting landed.
    lines = [f"{'architecture':20s} {'goodput':>8s} {'waiting':>8s} {'restarts':>9s}"]
    for result in results:
        lines.append(
            f"{result.architecture:20s} {result.metric('goodput'):8.4f} "
            f"{result.metric('waiting_fraction'):8.4f} "
            f"{result.metric('job_impacting_faults'):9.2f}"
        )
    return lines


def cmd_schedule(args: argparse.Namespace) -> list[str]:
    correlated = (
        CorrelatedFaultSpec(correlation=args.correlation, domain_size=args.domain_size)
        if args.correlation is not None
        else None
    )
    scenario = _trace_scenario(
        args,
        "cli-schedule",
        correlated=correlated,
        workload=WorkloadSpec(
            n_jobs=args.jobs,
            seed=args.seed,
            mean_interarrival_hours=args.mean_interarrival,
            median_work_hours=args.median_work,
        ),
        scheduler=SchedulerSpec(
            policy=args.policy,
            preemptive=args.preemptive,
            placement=args.placement,
            backfill=args.backfill,
            gittins_threshold_gpu_hours=args.gittins_threshold,
            gittins_levels=args.gittins_levels,
            gittins_starve_limit=args.gittins_starve_limit,
            lookahead_k=args.lookahead_k,
            optimizer_horizon_hours=args.optimizer_horizon,
            optimizer_stability_bonus=args.optimizer_stability,
        ),
    )
    results = _run(scenario, "schedule", args.workers)
    # The rows carry the resolved preemption mode (gittins / optimizer
    # preempt by default even without --preemptive).
    lines = [
        f"policy={args.policy} preemptive={results[0].metric('preemptive')} "
        f"placement={args.placement or 'expected-value'} "
        f"backfill={args.backfill} jobs={args.jobs}",
        f"{'architecture':20s} {'done':>9s} {'makespan':>9s} {'mean JCT':>9s} "
        f"{'p99 JCT':>9s} {'queue':>7s} {'goodput':>8s} {'rho':>6s} {'Jain':>6s}",
    ]
    for result in results:
        lines.append(
            f"{result.architecture:20s} "
            f"{result.metric('finished_jobs'):4d}/{result.metric('n_jobs'):<4d} "
            f"{result.metric('makespan_hours'):9.1f} "
            f"{result.metric('mean_jct_hours'):9.2f} "
            f"{result.metric('p99_jct_hours'):9.2f} "
            f"{result.metric('mean_queueing_delay_hours'):7.2f} "
            f"{result.metric('cluster_goodput'):8.4f} "
            f"{result.metric('mean_finish_time_fairness'):6.2f} "
            f"{result.metric('jain_fairness_index'):6.3f}"
        )
    return lines


def cmd_run(args: argparse.Namespace) -> list[str]:
    with open(args.spec) as handle:
        spec = ExperimentSpec.from_dict(json.load(handle))
    if args.correlation is not None:
        # Dial the correlated overlay without editing the spec file; the
        # overlay keeps the spec's other knobs (or the defaults if unset).
        trace = spec.scenario.trace
        overlay = dataclasses.replace(
            trace.correlated or CorrelatedFaultSpec(), correlation=args.correlation
        )
        spec = dataclasses.replace(
            spec,
            scenario=dataclasses.replace(
                spec.scenario,
                trace=dataclasses.replace(trace, correlated=overlay),
            ),
        )
    results = ExperimentRunner(
        spec, max_workers=args.workers, num_seeds=args.seeds, cache=args.cache
    ).run()

    lines = [
        f"scenario={spec.scenario.name} experiments={','.join(spec.experiments)} "
        f"rows={len(results)} spec_sha256={spec.digest()[:12]}"
    ]
    for result in results:
        scalars = " ".join(
            f"{key}={_fmt_metric(value)}"
            for key, value in result.metrics
            if not isinstance(value, (list, tuple))
        )
        tp = f" tp={result.tp_size}" if result.tp_size else ""
        lines.append(f"{result.experiment:>14s} {result.architecture:20s}{tp} {scalars}")
    if results.cache_stats is not None:
        stats = results.cache_stats
        lines.append(
            f"cache[{stats.mode}] hits={stats.hits} misses={stats.misses} "
            f"stored={stats.stored}"
        )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(results.to_json())
        lines.append(f"wrote {args.output}")
    return lines


def cmd_cache(args: argparse.Namespace) -> list[str]:
    from repro.cache import clear_disk_cache, clear_memory_cache, disk_cache_info

    if args.action == "clear":
        removed = clear_disk_cache(args.dir)
        dropped = clear_memory_cache()
        return [f"removed {removed} disk entries, dropped {dropped} memory entries"]
    info = disk_cache_info(args.dir)
    return [
        f"directory={info.directory}",
        f"schema_version={info.schema_version}",
        f"entries={info.entries} total_bytes={info.total_bytes}",
    ]


def cmd_architectures(args: argparse.Namespace) -> list[str]:
    from repro.hbd.registry import REGISTRY

    lines = [f"{'name':20s} {'aliases':28s} description"]
    for entry in REGISTRY:
        aliases = ", ".join(entry.aliases) if entry.aliases else "-"
        lines.append(f"{entry.name:20s} {aliases:28s} {entry.description}")
    return lines


def cmd_docs(args: argparse.Namespace) -> list[str]:
    return render_cli_reference().splitlines()


def cmd_lint(args: argparse.Namespace) -> list[str]:
    import io

    from repro.devtools.lint import run as lint_run

    argv = list(args.paths) + ["--format", args.format]
    if args.config is not None:
        argv += ["--config", args.config]
    buffer = io.StringIO()
    status = lint_run(argv, stream=buffer)
    lines = buffer.getvalue().splitlines()
    if status:
        # Findings remain: print them here so the nonzero exit can propagate.
        for line in lines:
            print(line)
        raise SystemExit(status)
    return lines


def _whole_nodes(value: str) -> int:
    """An ``orchestrate --gpus`` value: the runner simulates whole 4-GPU nodes."""
    if not value.isdecimal() or int(value) < 1 or int(value) % 4:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a positive multiple of the 4 GPUs per node"
        )
    return int(value)


def _fmt_metric(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------
class _DocHelpFormatter(argparse.HelpFormatter):
    """Fixed-width help formatter so the generated reference is stable.

    The default formatter wraps at the current terminal width, which would
    make ``docs/cli.md`` depend on whoever regenerated it last; pinning the
    width makes the docs reproducible and lets a test diff them against the
    live argparse output.
    """

    WIDTH = 78

    def __init__(self, prog: str) -> None:
        super().__init__(prog, width=self.WIDTH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infinitehbd-repro",
        description="InfiniteHBD (SIGCOMM 2025) reproduction experiments",
        formatter_class=_DocHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs: Any) -> argparse.ArgumentParser:
        kwargs.setdefault("formatter_class", _DocHelpFormatter)
        return sub.add_parser(name, **kwargs)

    p = add_parser("trace", help="generate a synthetic fault trace")
    p.add_argument("--days", type=int, default=348)
    p.add_argument("--seed", type=int, default=348)
    p.add_argument("--gpus-per-node", type=int, choices=(4, 8), default=8)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_trace)

    p = add_parser("waste", help="GPU waste comparison over the trace")
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--seed", type=int, default=348)
    p.add_argument("--nodes", type=int, default=720)
    p.add_argument("--tp", type=int, default=32)
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: one per CPU)")
    p.set_defaults(func=cmd_waste)

    p = add_parser("orchestrate", help="cross-ToR traffic comparison")
    p.add_argument("--gpus", type=_whole_nodes, default=8192,
                   help="cluster size, a multiple of the 4 GPUs per node")
    p.add_argument("--tp", type=int, default=32)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--job-scale-ratio", type=float, default=0.85)
    p.add_argument("--fault-ratio", type=float, default=0.05)
    p.add_argument("--tors-per-domain", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_orchestrate)

    p = add_parser("mfu", help="optimal parallelism search")
    p.add_argument("--model", choices=("llama", "moe"), default="llama")
    p.add_argument("--gpus", type=int, default=8192)
    p.add_argument("--global-batch", type=int, default=None)
    p.add_argument("--imbalance", type=float, default=0.2)
    p.add_argument("--max-tp", type=int, default=None)
    p.set_defaults(func=cmd_mfu)

    p = add_parser("cost", help="interconnect cost / power table")
    p.add_argument("--include-hpn", action="store_true")
    p.set_defaults(func=cmd_cost)

    p = add_parser("goodput", help="job goodput over the fault trace")
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--seed", type=int, default=348)
    p.add_argument("--nodes", type=int, default=720)
    p.add_argument("--tp", type=int, default=32)
    p.add_argument("--job-gpus", type=int, default=2560)
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: one per CPU)")
    p.set_defaults(func=cmd_goodput)

    p = add_parser(
        "schedule", help="multi-job cluster scheduling over the fault trace"
    )
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--seed", type=int, default=348)
    p.add_argument("--nodes", type=int, default=720)
    p.add_argument("--tp", type=int, default=32)
    p.add_argument("--jobs", type=int, default=200,
                   help="number of synthetic jobs in the queue")
    p.add_argument("--policy", choices=POLICY_NAMES, default="fifo",
                   help="scheduling policy, from the policy registry "
                        f"({', '.join(POLICY_NAMES)}; default: fifo)")
    p.add_argument("--preemptive", action="store_true",
                   help="force preemption on (gittins and optimizer are "
                        "preemptive by default)")
    p.add_argument("--gittins-threshold", type=float, default=2048.0,
                   help="gittins: first demotion threshold in attained "
                        "GPU-hours; doubles per queue level")
    p.add_argument("--gittins-levels", type=int, default=3,
                   help="gittins: number of discretized priority queues")
    p.add_argument("--gittins-starve-limit", type=float, default=4.0,
                   help="gittins: promote a demoted job once it has waited "
                        "this many times its executed hours")
    p.add_argument("--lookahead-k", type=int, default=5,
                   help="lookahead: queue window scored per admission")
    p.add_argument("--optimizer-horizon", type=float, default=8.0,
                   help="optimizer: goodput-utility planning horizon (hours)")
    p.add_argument("--optimizer-stability", type=float, default=0.5,
                   help="optimizer: per-GPU utility bonus for keeping an "
                        "allocated job in place (migration penalty)")
    p.add_argument("--placement", choices=PLACEMENT_NAMES, default=None,
                   help="node-level placement policy (default: expected-value "
                        "capacity replay without concrete nodes)")
    p.add_argument("--backfill", action="store_true",
                   help="EASY backfill: small jobs may jump a blocked FIFO "
                        "head when they cannot delay its projected start")
    p.add_argument("--mean-interarrival", type=float, default=1.0,
                   help="mean Poisson inter-arrival time (hours)")
    p.add_argument("--median-work", type=float, default=8.0,
                   help="median productive work per job (hours)")
    p.add_argument("--correlation", type=float, default=None,
                   help="layer correlated domain failures on the trace at "
                        "this level in [0, 1] (default: independent faults "
                        "only; 0 is byte-identical to the default)")
    p.add_argument("--domain-size", type=int, default=8,
                   help="nodes per failure domain for --correlation")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: one per CPU)")
    p.set_defaults(func=cmd_schedule)

    p = add_parser(
        "run", help="run a declarative JSON experiment spec (repro.api)"
    )
    p.add_argument("--spec", type=str, required=True,
                   help="path to an ExperimentSpec JSON file")
    p.add_argument("--output", type=str, default=None,
                   help="write the ResultSet JSON here")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: one per CPU)")
    p.add_argument("--seeds", type=int, default=None,
                   help="Monte-Carlo seed count: repeat every experiment over "
                        "N trace seeds and add mean/stddev/ci95 metric "
                        "columns (default: the spec's num_seeds, usually 1)")
    p.add_argument("--cache", choices=CACHE_MODES, default=None,
                   help="result cache mode: serve repeated tasks from the "
                        "content-addressed store (memory = this process, "
                        "disk = persistent under $REPRO_CACHE_DIR or "
                        "~/.cache/repro; default: the spec's cache, "
                        "usually off)")
    p.add_argument("--correlation", type=float, default=None,
                   help="override the trace's correlated-failure level in "
                        "[0, 1] without editing the spec file (default: the "
                        "spec's own overlay, usually none)")
    p.set_defaults(func=cmd_run)

    p = add_parser("cache", help="inspect or clear the on-disk result cache")
    p.add_argument("action", choices=("info", "clear"),
                   help="info: entry count and size; clear: remove every entry")
    p.add_argument("--dir", type=str, default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro)")
    p.set_defaults(func=cmd_cache)

    p = add_parser("architectures", help="list the architecture registry")
    p.set_defaults(func=cmd_architectures)

    p = add_parser("docs", help="print the generated CLI reference (markdown)")
    p.set_defaults(func=cmd_docs)

    p = add_parser("lint", help="determinism linter (rules D001-D009)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")
    p.add_argument("--config", metavar="PYPROJECT", default=None,
                   help="explicit pyproject.toml to read [tool.repro-lint] from")
    p.set_defaults(func=cmd_lint)

    return parser


# --------------------------------------------------------------------------
# generated CLI reference (docs/cli.md)
# --------------------------------------------------------------------------
#: One runnable invocation per subcommand, shown in the generated reference.
_DOC_EXAMPLES = {
    "trace": "python -m repro.cli trace --days 60 --output trace.csv",
    "waste": "python -m repro.cli waste --days 60 --nodes 720 --tp 32",
    "orchestrate": "python -m repro.cli orchestrate --gpus 8192 --tp 32 --fault-ratio 0.05",
    "mfu": "python -m repro.cli mfu --model moe --gpus 8192",
    "cost": "python -m repro.cli cost --include-hpn",
    "goodput": "python -m repro.cli goodput --days 60 --job-gpus 2560",
    "schedule": "python -m repro.cli schedule --jobs 200 --placement packed --backfill",
    "run": "python -m repro.cli run --spec demo.json --cache disk --output results.json",
    "cache": "python -m repro.cli cache info",
    "architectures": "python -m repro.cli architectures",
    "docs": "python -m repro.cli docs > docs/cli.md",
    "lint": "python -m repro.cli lint src",
}


def iter_subcommands(
    parser: argparse.ArgumentParser | None = None,
) -> Iterator[tuple[str, argparse.ArgumentParser]]:
    """``(name, subparser)`` pairs of the CLI, in registration order."""
    parser = parser if parser is not None else build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            # choices preserves registration order and skips alias duplicates
            choices = cast("dict[str, argparse.ArgumentParser]", action.choices)
            yield from choices.items()


def render_cli_reference() -> str:
    """The markdown CLI reference, generated from the live argparse tree.

    ``docs/cli.md`` is this function's verbatim output (regenerate with
    ``python -m repro.cli docs > docs/cli.md``); a test diffs the file
    against a fresh render so documented help text can never drift from
    ``--help``.
    """
    parser = build_parser()
    lines = [
        "# CLI reference",
        "",
        "Every experiment pipeline is exposed as a subcommand of "
        "`python -m repro.cli` (installed as `infinitehbd-repro`).",
        "",
        "**Generated file -- do not edit by hand.**  Regenerate with "
        "`python -m repro.cli docs > docs/cli.md`; CI fails when this file "
        "and the argparse `--help` output disagree.",
        "",
        "```text",
        parser.format_help().rstrip(),
        "```",
    ]
    for name, subparser in iter_subcommands(parser):
        lines += [
            "",
            f"## `{name}`",
            "",
            "```bash",
            _DOC_EXAMPLES[name],
            "```",
            "",
            "```text",
            subparser.format_help().rstrip(),
            "```",
        ]
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for line in args.func(args):
        print(line)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
