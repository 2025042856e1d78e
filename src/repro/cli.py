"""Command-line interface: ``pdpa-sim`` / ``python -m repro``.

Subcommands map one-to-one onto the experiment harnesses:

* ``speedups``  — Fig. 3 speedup curves of the application catalog.
* ``run``       — one workload under one policy, with summary tables.
* ``compare``   — a figure-style comparison (Figs. 4/6/9/10).
* ``view``      — Fig. 5 execution views (IRIX vs PDPA).
* ``table2``    — burst/migration statistics.
* ``mpl``       — Fig. 8 dynamic multiprogramming level plot.
* ``tables``    — Tables 1, 3 and 4.
* ``swf``       — generate a workload and print it in SWF format.
* ``lint``      — static determinism sanitizer over Python sources.
* ``replay``    — time-travel replay of a checkpoint snapshot.
* ``fuzz``      — stateful protocol fuzzing with differential policy
  checking; shrunk counterexamples land in a replayable corpus
  (``--stream`` fuzzes the open-system serve stack instead).
* ``serve``     — crash-safe streaming service: open-system arrivals
  (synthetic Poisson or an SWF log) through bounded-ingress admission
  control, with journalled recovery via ``--restore``.
* ``torture``   — crash-consistency checking of every durability
  protocol: record a real run's IO-op trace, enumerate every legal
  crash state plus a deterministic fault matrix, run each protocol's
  recovery path, and assert its recovery invariant
  (``--mutate drop-fsync`` self-tests the enumerator).

The global ``--checkpoint-dir`` flag (with the ``--checkpoint-every``
cadence) makes ``run`` and ``serve`` autosnapshot their full
simulation state; every other command refuses it.  ``run --restore``
continues a run from such a snapshot with byte-identical output, and
``replay`` drives a snapshot forward to a later simulated time — the
bisection tool for divergence and race reports.

The global ``--sanitize`` flag attaches the runtime half of the
determinism sanitizer (the event-race detector) to every in-process
simulation; its report goes to stderr so command output stays
byte-identical, and ambiguous cohorts make the exit code non-zero.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, List, Optional, TypeVar

from repro.experiments import fig3, fig5_table2, fig7_fig8, tables, workloads
from repro.experiments.common import (
    POLICY_NAMES,
    ExperimentConfig,
    run_workload,
    workload_jobs,
)
from repro.faults.scenarios import SCENARIOS, build_scenario
from repro.metrics.paraver import MIN_VIEW_WIDTH
from repro.metrics.stats import format_table
from repro.qs.streaming import SHED_POLICIES
from repro.qs.swf import jobs_to_swf, write_swf
from repro.qs.workload import TABLE1_MIXES

_Number = TypeVar("_Number", int, float)


def _bounded(
    convert: Callable[[str], _Number], minimum: Optional[int] = None
) -> Callable[[str], _Number]:
    """An argparse ``type`` that makes an out-of-range value a usage error.

    Without *minimum* the value must be positive.  With it the value
    must be at least *minimum*: 0 for flags where zero means something
    (no retries, an unbounded budget), more where the consumer needs
    it (a view's width).  A float must also be finite.
    """
    if minimum is None:
        bound = "positive"
    else:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"

    def parse(text: str) -> _Number:
        value = convert(text)
        if not (value > 0 if minimum is None else value >= minimum):  # also refuses nan
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        return value

    # argparse names the type in its "invalid int value" message
    parse.__name__ = convert.__name__
    return parse


positive_int = _bounded(int)
positive_float = _bounded(float)
non_negative_int = _bounded(int, minimum=0)
non_negative_float = _bounded(float, minimum=0)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="pdpa-sim",
        description=(
            "Reproduction of Performance-Driven Processor Allocation: "
            "simulate parallel workloads under PDPA, Equipartition, "
            "Equal_efficiency and the native IRIX scheduler."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--cpus", type=positive_int, default=60,
                        help="machine size (default 60)")
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for sweep-shaped commands "
             "(compare/mpl/tables/ablations/report); 1 = serial (default)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed result cache for sweep cells "
             "(re-runs of unchanged cells are served from disk)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir (compute every cell fresh)",
    )
    parser.add_argument(
        "--timeout", type=positive_float, default=None, metavar="SEC",
        help="per-cell wall-clock timeout for pooled sweep cells (--jobs "
             "> 1); hung workers are killed and the cell retried "
             "(default: no timeout)",
    )
    parser.add_argument(
        "--retries", type=non_negative_int, default=2, metavar="N",
        help="re-attempts for a crashed/hung/lost sweep cell before it is "
             "quarantined as a poison cell (default 2)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="abort the sweep as soon as any cell exhausts its retry "
             "budget, instead of quarantining it and carrying on",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay completed cells from the sweep journal in "
             "--cache-dir and execute only the unfinished ones "
             "(requires --cache-dir)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="autosnapshot `run` and `serve` into DIR (atomic, checksummed "
             "snapshots; a killed run resumes via `run --restore` or "
             "`serve --restore`); other commands refuse it",
    )
    parser.add_argument(
        "--checkpoint-every", type=positive_int, default=None, metavar="N",
        help="autosnapshot every N logical simulation events: fired "
             "events plus absorbed iteration ends (requires "
             "--checkpoint-dir; default 1000)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="attach the determinism sanitizer's event-race detector to "
             "every in-process simulation; the report goes to stderr and "
             "ambiguous same-timestamp cohorts fail the command "
             "(sweep cells are not observed)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("speedups", help="print the Fig. 3 speedup curves")

    p_run = sub.add_parser("run", help="run one workload under one policy")
    p_run.add_argument("policy", choices=POLICY_NAMES)
    p_run.add_argument("workload", choices=sorted(TABLE1_MIXES))
    p_run.add_argument("--load", type=positive_float, default=1.0,
                       help="load fraction (0.6/0.8/1.0)")
    p_run.add_argument("--mpl", type=positive_int, default=4,
                       help="(base) multiprogramming level")
    p_run.add_argument("--prv", metavar="FILE",
                       help="export the execution trace in Paraver format")
    p_run.add_argument("--faults", choices=sorted(SCENARIOS), metavar="SCENARIO",
                       help="inject a canned fault scenario "
                            f"({', '.join(sorted(SCENARIOS))})")
    p_run.add_argument("--restore", metavar="SNAPSHOT",
                       help="continue this exact run from a checkpoint "
                            "snapshot instead of starting fresh; refuses "
                            "snapshots from different code, config, "
                            "policy, workload or load")
    p_run.add_argument("--profile", metavar="FILE",
                       help="run under cProfile and write cumulative-sorted "
                            "stats to FILE; the stats carry wall-clock "
                            "timings and are NOT deterministic, but stdout "
                            "stays byte-identical to an unprofiled run")

    p_cmp = sub.add_parser("compare", help="figure-style policy comparison")
    p_cmp.add_argument("workload", choices=sorted(TABLE1_MIXES))
    p_cmp.add_argument("--loads", type=positive_float, nargs="+", default=[0.6, 0.8, 1.0])
    p_cmp.add_argument("--policies", nargs="+", default=list(POLICY_NAMES),
                       choices=POLICY_NAMES)
    p_cmp.add_argument("--seeds", type=int, nargs="+", default=[0, 1])

    p_view = sub.add_parser("view", help="Fig. 5 execution views (w1, 100%%)")
    p_view.add_argument("--width", type=_bounded(int, MIN_VIEW_WIDTH), default=100)

    sub.add_parser("table2", help="Table 2 burst/migration statistics")

    p_mpl = sub.add_parser("mpl", help="Fig. 8 dynamic multiprogramming level")
    p_mpl.add_argument("--workload", choices=sorted(TABLE1_MIXES), default="w2")
    p_mpl.add_argument("--load", type=positive_float, default=1.0)

    sub.add_parser("tables", help="Tables 1, 3 and 4")

    p_abl = sub.add_parser("ablations", help="run the PDPA design-choice ablations")
    p_abl.add_argument("--workload", choices=sorted(TABLE1_MIXES), default="w3")
    p_abl.add_argument("--load", type=positive_float, default=1.0)

    p_report = sub.add_parser(
        "report", help="regenerate every table/figure into a markdown report"
    )
    p_report.add_argument("--output", metavar="FILE",
                          help="write the report here (default: stdout)")
    p_report.add_argument("--quick", action="store_true",
                          help="single seed, no ablations (faster)")

    p_swf = sub.add_parser("swf", help="generate a workload trace in SWF format")
    p_swf.add_argument("workload", choices=sorted(TABLE1_MIXES))
    p_swf.add_argument("--load", type=positive_float, default=1.0)

    p_replay = sub.add_parser(
        "replay",
        help="time-travel replay: drive a checkpoint snapshot forward "
             "to a later simulated time (bisect divergence and race "
             "reports)",
    )
    p_replay.add_argument("snapshot", help="checkpoint snapshot file")
    p_replay.add_argument("--until", type=non_negative_float, default=None, metavar="T",
                          help="replay to simulated time T, no earlier than "
                               "the snapshot's cut (default: run to completion)")
    p_replay.add_argument("--save", metavar="FILE",
                          help="snapshot the replayed state to FILE "
                               "(chain replays to bisect)")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="stateful protocol fuzzing: arbitrary interleavings of "
             "arrival/progress/fault/checkpoint ops against live "
             "sessions, with an incremental invariant oracle",
    )
    p_fuzz.add_argument(
        "--policies", nargs="+", default=None, metavar="POLICY",
        help="policies to fuzz (default: Equip Equal_eff PDPA)",
    )
    p_fuzz.add_argument(
        "--profile", choices=("ci", "dev", "nightly"), default="dev",
        help="campaign size: ci=smoke (PR gate), dev=default, "
             "nightly=deep (default: dev)",
    )
    p_fuzz.add_argument(
        "--budget", type=positive_int, default=None, metavar="N",
        help="hypothesis examples per policy (overrides --profile)",
    )
    p_fuzz.add_argument(
        "--steps", type=positive_int, default=None, metavar="N",
        help="max rules per example (overrides --profile)",
    )
    p_fuzz.add_argument(
        "--corpus-dir", metavar="DIR", default=None,
        help="write shrunk counterexamples here "
             "(default: tests/fuzz_corpus)",
    )
    p_fuzz.add_argument(
        "--no-differential", action="store_true",
        help="skip the cross-policy differential conservation pass",
    )
    p_fuzz.add_argument(
        "--stream", action="store_true",
        help="fuzz the open-system serve stack (bounded-ingress "
             "admission, fold-on-completion stats, serve checkpoint "
             "round-trips) instead of the batch sessions",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the crash-safe streaming scheduler service: "
             "open-system arrivals through bounded-ingress admission "
             "control, periodic snapshots, an fsync'd arrival journal, "
             "and journalled recovery via --restore",
    )
    p_serve.add_argument("policy", choices=POLICY_NAMES)
    p_serve.add_argument(
        "--workload", choices=sorted(TABLE1_MIXES), default="w2",
        help="application mix for the synthetic Poisson generator "
             "(default w2; ignored with --swf)",
    )
    p_serve.add_argument(
        "--swf", metavar="FILE",
        help="stream arrivals from a (possibly dirty) SWF log instead "
             "of the synthetic generator",
    )
    p_serve.add_argument(
        "--load", type=positive_float, default=1.0,
        help="offered load for the synthetic generator; >1 oversubscribes "
             "on purpose (default 1.0)",
    )
    p_serve.add_argument(
        "--max-jobs", type=non_negative_int, default=100, metavar="N",
        help="stop drawing after N arrivals; 0 streams until the source "
             "ends (SWF) — the synthetic generator never ends "
             "(default 100)",
    )
    p_serve.add_argument(
        "--ingress-limit", type=non_negative_int, default=0, metavar="N",
        help="bounded ingress queue size; 0 = unbounded (default)",
    )
    p_serve.add_argument(
        "--overload", choices=SHED_POLICIES, default="reject",
        help="what a full ingress queue does: reject the newcomer, "
             "drop-oldest from the queue head, or block the generator "
             "(default reject)",
    )
    p_serve.add_argument(
        "--journal", metavar="FILE",
        help="fsync'd arrival journal (required for verified recovery)",
    )
    p_serve.add_argument(
        "--status-file", metavar="FILE",
        help="atomically-replaced heartbeat status file",
    )
    p_serve.add_argument(
        "--watchdog", type=positive_float, default=None, metavar="SEC",
        help="exit nonzero (after a best-effort snapshot) when no "
             "progress happens for SEC wall seconds",
    )
    p_serve.add_argument(
        "--step-events", type=positive_int, default=2048, metavar="N",
        help="events per run-loop batch (bounds prune/heartbeat/signal "
             "latency; default 2048)",
    )
    p_serve.add_argument(
        "--restore", metavar="SNAPSHOT",
        help="resume from a snapshot plus the journal tail (--journal "
             "required); replayed arrivals are verified against their "
             "journalled records",
    )
    p_serve.add_argument(
        "--stats-out", metavar="FILE",
        help="write the final bounded-memory aggregates as JSON",
    )
    p_serve.add_argument(
        "--faults", choices=sorted(SCENARIOS), metavar="SCENARIO",
        help="inject a canned fault scenario "
             f"({', '.join(sorted(SCENARIOS))})",
    )

    p_lint = sub.add_parser(
        "lint", help="static determinism sanitizer (AST lint pass)"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format; json is sorted by (path, line, rule)",
    )
    p_lint.add_argument(
        "--changed", action="store_true",
        help="lint only the Python files under the paths that changed "
             "relative to git HEAD (tracked modifications plus untracked "
             "files)",
    )

    p_torture = sub.add_parser(
        "torture",
        help="crash-consistency torture of the durability protocols",
    )
    p_torture.add_argument(
        "--protocol", default="all",
        choices=("all", "journal", "checkpoint", "cache", "status", "serve"),
        help="which durability protocol to torture (default: all five)",
    )
    p_torture.add_argument(
        "--budget", type=non_negative_int, default=400, metavar="N",
        help="max crash states checked per protocol; 0 = unbounded "
             "(default: 400)",
    )
    p_torture.add_argument(
        "--dir", metavar="DIR",
        help="scratch directory for traces and materialised states "
             "(default: a temporary directory, removed afterwards)",
    )
    p_torture.add_argument(
        "--keep-failures", metavar="DIR",
        help="preserve every violating crash state (files plus a "
             "VIOLATIONS.txt) under this directory",
    )
    p_torture.add_argument(
        "--mutate", choices=("drop-fsync",),
        help="self-test: run the protocols on a layer that silently "
             "skips every fsync; exit 0 only if the enumerator catches "
             "the mutant",
    )
    return parser


def _config(args: argparse.Namespace, mpl: Optional[int] = None) -> ExperimentConfig:
    config = ExperimentConfig(seed=args.seed, n_cpus=args.cpus)
    if mpl is not None:
        config = config.with_mpl(mpl)
    return config


def _check_checkpoint_flags(args: argparse.Namespace) -> None:
    """Refuse checkpoint flags that would otherwise be ignored.

    Only ``run`` and ``serve`` take snapshots, so any other command
    given ``--checkpoint-dir`` or ``--checkpoint-every`` exits with an
    error, as does a cadence without a directory.
    """
    given = [
        flag for flag, value in (
            ("--checkpoint-dir", args.checkpoint_dir),
            ("--checkpoint-every", args.checkpoint_every),
        ) if value is not None
    ]
    if given and args.command not in ("run", "serve"):
        raise SystemExit(
            f"error: `{args.command}` takes no snapshots, so it refuses "
            f"{' and '.join(given)}; only `run` and `serve` take them"
        )
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        raise SystemExit("error: --checkpoint-every requires --checkpoint-dir")


def _checkpoint_plan(args: argparse.Namespace, name: str):
    """The autosnapshot plan for snapshot *name* in ``--checkpoint-dir``.

    ``None`` without the flag; the cadence defaults to 1000 events.
    """
    from repro.checkpoint.session import CheckpointPlan

    if args.checkpoint_dir is None:
        return None
    return CheckpointPlan(
        path=Path(args.checkpoint_dir) / name,
        every_events=args.checkpoint_every or 1000,
    )


def _runner(args: argparse.Namespace):
    """The supervised sweep runner the global flags describe."""
    from repro.parallel.cache import ResultCache
    from repro.parallel.journal import SweepJournal
    from repro.parallel.runner import SweepRunner
    from repro.parallel.supervisor import SupervisionPolicy

    cache = None
    if args.cache_dir and not args.no_cache:
        cache = ResultCache(args.cache_dir)
    if args.resume and cache is None:
        raise SystemExit("--resume requires --cache-dir (the journal lives there)")

    journal = None
    if cache is not None:
        journal = SweepJournal(
            Path(args.cache_dir) / "journal.jsonl", resume=args.resume
        )

    return SweepRunner(
        jobs=args.jobs,
        cache=cache,
        supervision=SupervisionPolicy(timeout=args.timeout, retries=args.retries),
        journal=journal,
        strict=args.strict,
    )


def cmd_run(args: argparse.Namespace, sanitizer=None) -> str:
    """Execute one workload run and format its summaries.

    ``--restore`` continues the run from a snapshot instead of
    starting fresh; stdout is byte-identical either way.  Snapshots
    from different code, config, policy, workload or load are refused
    with the checkpoint error taxonomy's message and a non-zero exit.
    """
    from repro.checkpoint.errors import CheckpointError

    config = _config(args, mpl=args.mpl)
    if getattr(args, "faults", None):
        config = config.with_faults(build_scenario(args.faults, config.n_cpus))
    plan = _checkpoint_plan(
        args, f"{args.policy}-{args.workload}-load{args.load:g}-seed{args.seed}.ckpt"
    )

    def _execute():
        return run_workload(args.policy, args.workload, args.load, config,
                            sanitizer=sanitizer, checkpoint=plan,
                            restore=Path(args.restore) if args.restore else None)

    profiler = None
    if getattr(args, "profile", None):
        import cProfile

        profiler = cProfile.Profile()
    try:
        out = profiler.runcall(_execute) if profiler is not None else _execute()
    except CheckpointError as exc:
        raise SystemExit(f"error: {exc}")
    if profiler is not None:
        # The stats file carries wall-clock timings, so it is outside
        # the byte-identity contract; the note goes to stderr so stdout
        # stays byte-identical to an unprofiled run.
        import pstats

        with open(args.profile, "w", encoding="utf-8") as handle:
            pstats.Stats(profiler, stream=handle).sort_stats("cumulative").print_stats()
        print(f"[profile] cumulative-sorted stats written to {args.profile}",
              file=sys.stderr)
    if plan is not None and out.rm.sim.logical_events < plan.every_events:
        # The first autosave fires at the cadence, so this run saved nothing.
        print(f"[checkpoint] no snapshot written: the run ended after "
              f"{out.rm.sim.logical_events} logical events, before the first "
              f"autosave at {plan.every_events} (set a smaller --checkpoint-every)",
              file=sys.stderr)
    result = out.result
    rows = []
    for app, summary in sorted(result.by_app().items()):
        rows.append([
            app, summary.count,
            round(summary.mean_response_time, 1),
            round(summary.mean_execution_time, 1),
            round(summary.mean_wait_time, 1),
        ])
    table = format_table(
        ["app", "jobs", "mean resp (s)", "mean exec (s)", "mean wait (s)"],
        rows,
        title=(
            f"{args.policy} on {args.workload} at load "
            f"{int(args.load * 100)}% (seed {args.seed})"
        ),
    )
    footer = (
        f"makespan {result.makespan:.1f}s  workload-exec {result.total_execution_time:.1f}s  "
        f"max-mpl {result.max_mpl}  reallocations {result.reallocations}  "
        f"migrations {result.migrations}  utilization {result.cpu_utilization:.0%}"
    )
    if getattr(args, "faults", None):
        from repro.metrics.faults import fault_statistics

        stats = fault_statistics(out.trace)
        footer += (
            f"\nfaults [{args.faults}]: {stats.summary_line()}"
        )
    if getattr(args, "prv", None):
        from repro.metrics.prv import export_prv

        with open(args.prv, "w", encoding="utf-8") as handle:
            handle.write(export_prv(out.trace, title=f"{args.policy}-{args.workload}"))
        footer += f"\nParaver trace written to {args.prv}"
    return table + "\n" + footer


def _changed_python_files() -> List[str]:
    """Python files changed vs. git HEAD (tracked diffs + untracked).

    Robust against the states a working tree actually gets into:
    deleted files are skipped (nothing left to lint), renames report
    the *new* path, paths with spaces or non-ASCII names survive
    (NUL-separated plumbing output, no quoting), and running from a
    subdirectory works — git reports repo-root-relative paths, so they
    are re-anchored at the toplevel before the existence check.
    """
    import os
    import subprocess

    def git(cmd: List[str]) -> str:
        try:
            return subprocess.run(
                ["git", *cmd], capture_output=True, text=True, check=True
            ).stdout
        except (OSError, subprocess.CalledProcessError) as exc:
            raise SystemExit(f"--changed needs a git checkout: {exc}")

    toplevel = git(["rev-parse", "--show-toplevel"]).strip()
    candidates: set = set()
    tokens = git(["diff", "--name-status", "-z", "-M", "HEAD"]).split("\0")
    index = 0
    while index < len(tokens):
        status = tokens[index]
        if not status:
            index += 1
            continue
        # R/C records carry two paths (old, new); everything else one
        width = 3 if status[:1] in ("R", "C") else 2
        paths = tokens[index + 1:index + width]
        index += width
        if status[:1] == "D" or not paths:
            continue
        candidates.add(paths[-1])
    for entry in git(["ls-files", "--others", "--exclude-standard", "-z"]).split("\0"):
        if entry:
            candidates.add(entry)
    out = []
    for rel in sorted(candidates):
        if not rel.endswith(".py"):
            continue
        absolute = os.path.join(toplevel, rel)
        if os.path.exists(absolute):
            out.append(os.path.relpath(absolute))
    return sorted(out)


def _under(path: str, roots: List[str]) -> bool:
    """Whether *path* is one of *roots* or lies inside one of them."""
    target = Path(path).resolve()
    return any(
        target == root or root in target.parents
        for root in (Path(r).resolve() for r in roots)
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static determinism sanitizer; exit code 1 on findings."""
    from repro.analysis.findings import render_json, render_text
    from repro.analysis.linter import lint_paths

    paths = args.paths
    if args.changed:
        paths = [path for path in _changed_python_files() if _under(path, args.paths)]
    findings = lint_paths(paths) if paths else []
    if args.format == "json":
        print(render_json(findings))
    elif not paths:
        print("clean: no changed Python files")
    else:
        print(render_text(findings))
    return 1 if findings else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run fuzz campaigns + the differential pass; 1 on any finding.

    Output is deterministic for a fixed (seed, profile, policy set):
    the same seed explores the same rule sequences and reaches the
    same verdict, so a CI failure reproduces locally verbatim.
    """
    from pathlib import Path

    from repro.fuzz.corpus import (
        CORPUS_DIR,
        CorpusEntry,
        violation_dicts,
        write_corpus,
    )
    from repro.fuzz.differential import differential_check, random_stimulus
    from repro.fuzz.profiles import CAMPAIGN_BUDGETS
    from repro.fuzz.runner import run_campaign
    from repro.fuzz.targets import FUZZ_POLICIES

    policies = tuple(args.policies) if args.policies else FUZZ_POLICIES
    for policy in policies:
        if policy not in FUZZ_POLICIES:
            raise SystemExit(
                f"error: unknown policy {policy!r} "
                f"(choose from {', '.join(FUZZ_POLICIES)})"
            )
    budget, steps = CAMPAIGN_BUDGETS[args.profile]
    if args.budget is not None:
        budget = args.budget
    if args.steps is not None:
        steps = args.steps
    corpus_dir = Path(args.corpus_dir) if args.corpus_dir else CORPUS_DIR

    mode = " stream=on" if args.stream else ""
    print(
        f"fuzz: profile={args.profile} seed={args.seed} "
        f"budget={budget} steps={steps} "
        f"policies={','.join(policies)}{mode}"
    )
    findings = 0
    for policy in policies:
        result = run_campaign(policy, seed=args.seed, budget=budget,
                              steps=steps, stream=args.stream)
        if result.ok:
            print(f"  {policy:<10} ok  ({budget} examples)")
            continue
        findings += 1
        failure = result.failure
        assert failure is not None
        entry = CorpusEntry(
            stimulus=failure.stimulus,
            violations=violation_dicts(failure.violations),
            crash=failure.crash,
            note=(
                f"shrunk by `repro fuzz --seed {args.seed} "
                f"--profile {args.profile}`"
            ),
        )
        path = write_corpus(entry, corpus_dir)
        verdict = failure.crash or "; ".join(
            str(v) for v in failure.violations
        )
        print(f"  {policy:<10} FAIL after {len(failure.stimulus.ops)} ops")
        print(f"    {verdict}")
        print(f"    counterexample written to {path}")

    if args.stream and not args.no_differential:
        # The differential pass replays one stimulus under every batch
        # policy; serve targets answer to validate_stream instead.
        print("  differential skipped (batch-session machinery; "
              "stream invariants run in-campaign)")
    elif not args.no_differential:
        stimulus = random_stimulus(args.seed)
        diff = differential_check(stimulus.ops, seed=args.seed, policies=policies)
        if diff.clean:
            print(
                f"  differential ok  ({len(stimulus.ops)} shared ops, "
                f"{len(policies)} policies agree on conservation)"
            )
        else:
            findings += 1
            print("  differential FAIL")
            for line in diff.describe().splitlines():
                print(f"    {line}")

    if findings:
        print(f"fuzz: {findings} finding(s)")
        return 1
    print("fuzz: clean")
    return 0


def cmd_torture(args: argparse.Namespace) -> int:
    """Run the crash-consistency torture campaign; 1 on any violation.

    Output is deterministic for a fixed (seed, protocol, budget): the
    op traces, crash-state enumeration and fault matrix are all
    seeded, and no scratch paths are printed.  Under ``--mutate`` the
    exit-code sense inverts: 0 means the enumerator *caught* the
    mutant (the self-test passed), 1 means the mutant survived.
    """
    import logging
    import shutil
    import tempfile

    from repro.storage.protocols import PROTOCOL_NAMES, run_torture
    from repro.validate import render_violations, validate_torture

    names = PROTOCOL_NAMES if args.protocol == "all" else (args.protocol,)
    if args.dir:
        base = Path(args.dir)
        base.mkdir(parents=True, exist_ok=True)
        cleanup = False
    else:
        base = Path(tempfile.mkdtemp(prefix="repro-torture-"))
        cleanup = True
    keep = Path(args.keep_failures) if args.keep_failures else None
    # Injected faults make the wired protocols log their degradation
    # warnings thousands of times; that is the behavior under test,
    # not operator-relevant noise.
    logging.getLogger("repro").setLevel(logging.CRITICAL)
    print(
        f"torture: seed={args.seed} budget={args.budget} "
        f"protocols={','.join(names)}"
        + (f" mutate={args.mutate}" if args.mutate else "")
    )
    try:
        reports = run_torture(
            names, seed=args.seed, budget=args.budget, base_dir=base,
            mutate=args.mutate, keep_failures=keep,
        )
    finally:
        if cleanup:
            shutil.rmtree(base, ignore_errors=True)
    for report in reports:
        print(report.summary_line())
    total = sum(report.states for report in reports)
    violated = sum(len(report.violations) for report in reports)
    if args.mutate:
        verdict = "caught" if violated else "SURVIVED"
        print(
            f"torture: mutant {args.mutate} {verdict} "
            f"({violated} violation(s) across {total} state(s))"
        )
        return 0 if violated else 1
    problems = validate_torture(reports, budget=args.budget)
    if problems:
        print(render_violations(problems))
        print(f"torture: {len(problems)} violation(s)")
        return 1
    print(f"torture: clean ({total} distinct crash/fault states)")
    return 0


def cmd_serve(args: argparse.Namespace, sanitizer=None) -> int:
    """Run the crash-safe streaming service; return its exit code.

    Fresh runs assemble a source (synthetic Poisson or SWF) behind the
    bounded-ingress queue; ``--restore`` rebuilds the service from its
    last snapshot plus the journal tail, with every replayed arrival
    verified against its journalled record.  The summary on stdout is
    deterministic (simulated time and counters only, no wall clock).
    *sanitizer* observes the service's simulator, fresh or restored;
    its report goes to stderr, and a finding makes an otherwise clean
    drain exit 1.
    """
    from repro.checkpoint.errors import CheckpointError
    from repro.serve.service import EXIT_DEADLOCK, ServeService
    from repro.serve.session import (
        ServeConfig,
        StreamDivergenceError,
        build_serve_session,
    )
    from repro.serve.source import SwfSource, SyntheticSource
    from repro.qs.streaming import IngressConfig

    if args.restore and not args.journal:
        raise SystemExit(
            "error: --restore requires --journal (recovery is verified "
            "against the arrival journal)"
        )
    config = _config(args)
    if args.faults:
        config = config.with_faults(build_scenario(args.faults, config.n_cpus))

    plan = _checkpoint_plan(args, f"serve-{args.policy}.ckpt")

    max_jobs = None if args.max_jobs == 0 else args.max_jobs
    try:
        if args.restore:
            # ServeConfig (ingress/step-events/watchdog) lives inside
            # the snapshot: the restored run continues the crashed one.
            service = ServeService.restore(
                Path(args.restore),
                args.journal,
                expected_config=config,
                expected_policy=args.policy,
                status_path=args.status_file,
                checkpoint=plan,
            )
        else:
            if args.swf:
                source = SwfSource(args.swf, max_jobs=max_jobs)
            else:
                source = SyntheticSource(
                    TABLE1_MIXES[args.workload],
                    args.load,
                    n_cpus=config.n_cpus,
                    seed=args.seed,
                    max_jobs=max_jobs,
                )
            serve_config = ServeConfig(
                ingress=IngressConfig(
                    max_queue=args.ingress_limit, policy=args.overload
                ),
                step_events=args.step_events,
                watchdog_seconds=args.watchdog,
            )
            session = build_serve_session(
                args.policy, source, config=config,
                serve_config=serve_config, load=args.load,
            )
            service = ServeService(
                session,
                journal_path=args.journal,
                status_path=args.status_file,
                checkpoint=plan,
            )
    except (CheckpointError, OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")

    session = service.session
    if sanitizer is not None:
        sanitizer.begin_run(f"serve {args.policy} seed={session.config.seed}")
        session.sim.attach_observer(sanitizer)
    try:
        code = service.run()
    except StreamDivergenceError as exc:
        raise SystemExit(f"error: {exc}")
    stats = session.stats
    phase = "deadlock" if code == EXIT_DEADLOCK else "drained"
    src = session.source.describe()
    lines = [
        f"serve: {args.policy} source={src['kind']} "
        f"ingress={session.qs.ingress.max_queue or 'unbounded'} "
        f"policy={session.qs.ingress.policy}",
        f"  {phase} at t={session.sim.now:.6g}s after "
        f"{session.sim.events_fired} events ({session.source.drawn} drawn)",
        f"  submitted={stats.submitted} admitted={stats.admitted} "
        f"completed={stats.completed} failed={stats.failed} "
        f"shed={stats.shed} requeues={stats.requeues} "
        f"overloads={stats.overload_events}",
        f"  peak-backlog={session.qs.peak_queue} "
        f"replay-verified={session.pump.replay_verified}",
        f"  stats digest {stats.digest()}",
    ]
    parse_stats = getattr(session.source, "parse_stats", None)
    if parse_stats is not None:
        lines.append(f"  swf: {parse_stats.summary_line()}")
    print("\n".join(lines))
    if args.stats_out:
        import json

        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(stats.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"aggregates written to {args.stats_out}")
    # serve's own exit codes take precedence over a sanitizer finding
    sanitized = _finish_sanitizer(sanitizer)
    return code or sanitized


def cmd_replay(args: argparse.Namespace, sanitizer=None) -> str:
    """Time-travel a snapshot: replay it to ``--until`` (or the end).

    Deterministic replay makes the snapshot a bisection tool: given a
    divergence or race report at time T, replay to just before T (with
    ``--sanitize`` to re-observe the event cohort), and ``--save`` the
    state to chain narrower and narrower replays.  An ``--until``
    before the snapshot's cut is refused: replay cannot run backwards.
    """
    from repro.checkpoint.errors import CheckpointError
    from repro.checkpoint.format import read_meta
    from repro.checkpoint.session import SimulationSession

    try:
        meta = read_meta(args.snapshot)
        session = SimulationSession.restore(Path(args.snapshot))
    except CheckpointError as exc:
        raise SystemExit(f"error: {exc}")
    if args.until is not None and args.until < session.sim.now:
        raise SystemExit(
            f"error: --until {args.until:g} is before the snapshot's cut "
            f"at t={session.sim.now:.6g}s; replay only moves forward"
        )
    lines = [
        f"snapshot {args.snapshot}",
        f"  policy {meta['policy']}  workload {meta.get('workload') or '-'}  "
        f"load {meta['load']:g}  seed {meta['seed']}",
        f"  cut: t={meta['sim_time']:.6g}s after {meta['events_fired']} "
        f"events ({meta['pending_events']} pending)",
    ]
    if sanitizer is not None:
        sanitizer.begin_run(
            f"replay {session.policy_name} seed={session.config.seed}"
        )
    session.run(until=args.until, sanitizer=sanitizer)
    if sanitizer is not None:
        sanitizer.finish()
    lines.append(
        f"replayed to t={session.sim.now:.6g}s: "
        f"{session.sim.events_fired} events fired, "
        f"{session.sim.pending_events} pending"
    )
    if session.complete:
        result = session.finish().result
        lines.append(
            f"run complete: makespan {result.makespan:.1f}s  "
            f"reallocations {result.reallocations}  "
            f"migrations {result.migrations}  failed {result.failed}"
        )
    else:
        lines.append(
            "run incomplete (replay further with a later --until, "
            "or omit it to run to completion)"
        )
    if args.save:
        session.save(Path(args.save), label=f"replay@{session.sim.now:g}")
        lines.append(f"state saved to {args.save}")
    return "\n".join(lines)


def cmd_compare(args: argparse.Namespace) -> str:
    """Run the Figs. 4/6/9/10-style comparison."""
    comparison = workloads.run_comparison(
        args.workload,
        loads=args.loads,
        policies=args.policies,
        seeds=args.seeds,
        config=_config(args),
        runner=_runner(args),
    )
    return workloads.render(comparison, title=f"[{args.workload}]")


def _sanitizer(args: argparse.Namespace):
    """The event-race detector under ``--sanitize``, else ``None``.

    The detector never observes a sweep cell or a fuzz target; a
    stderr note names each command that runs any, or that simulates
    nothing, rather than silently sanitizing less.
    """
    if not args.sanitize:
        return None
    from repro.analysis.race import RaceDetector

    if args.command in ("speedups", "swf", "lint", "torture"):
        print(f"[sanitize] note: `{args.command}` simulates nothing",
              file=sys.stderr)
        return None
    if args.command == "fuzz":
        print("[sanitize] note: `fuzz` checks its targets with its own "
              "oracle, and they are not observed", file=sys.stderr)
        return None
    share = {"compare": "all", "mpl": "all", "tables": "all",
             "ablations": "some", "report": "some"}.get(args.command)
    if share is not None:
        print(
            f"[sanitize] note: `{args.command}` runs {share} of its "
            "simulations as sweep cells, and sweep cells are not observed, "
            "whether they run serially, in the pool or come from the cache",
            file=sys.stderr,
        )
    return None if share == "all" else RaceDetector()


def _finish_sanitizer(detector) -> int:
    """Print the ``--sanitize`` report to stderr; 1 on ambiguity.

    Everything goes to stderr so command stdout stays byte-identical
    with and without the sanitizer.
    """
    if detector is None:
        return 0
    stats = detector.finish()
    print(f"[sanitize] {stats.summary_line()}", file=sys.stderr)
    for finding in stats.findings:
        print(f"[sanitize] {finding.severity}: {finding.describe()}",
              file=sys.stderr)
    return 1 if stats.error_findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _check_checkpoint_flags(args)
    sanitizer = _sanitizer(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "fuzz":
        return cmd_fuzz(args)
    if args.command == "torture":
        return cmd_torture(args)
    if args.command == "serve":
        return cmd_serve(args, sanitizer=sanitizer)
    if args.command == "speedups":
        print(fig3.render())
    elif args.command == "run":
        print(cmd_run(args, sanitizer=sanitizer))
    elif args.command == "replay":
        print(cmd_replay(args, sanitizer=sanitizer))
    elif args.command == "compare":
        print(cmd_compare(args))
    elif args.command == "view":
        result = fig5_table2.run(config=_config(args), sanitizer=sanitizer)
        print(fig5_table2.render_fig5(result, width=args.width))
    elif args.command == "table2":
        result = fig5_table2.run(config=_config(args), sanitizer=sanitizer)
        print(fig5_table2.render_table2(result))
    elif args.command == "mpl":
        timeline = fig7_fig8.run_fig8(
            args.workload, args.load, _config(args), runner=_runner(args)
        )
        print(fig7_fig8.render_fig8(timeline))
    elif args.command == "tables":
        runner = _runner(args)
        print(tables.render_table1())
        print()
        print(tables.render_table3(tables.run_table3(_config(args), runner=runner)))
        print()
        print(tables.render_table4(tables.run_table4(_config(args), runner=runner)))
    elif args.command == "report":
        from repro.experiments.report import generate_report

        text = generate_report(
            config=_config(args),
            seeds=(args.seed,) if args.quick else (args.seed, args.seed + 1),
            include_ablations=not args.quick,
            progress=args.output is not None,
            runner=_runner(args),
            sanitizer=sanitizer,
        )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"report written to {args.output}")
        else:
            print(text)
    elif args.command == "ablations":
        from repro.experiments import ablations

        rows = ablations.run_coordination_ablation(
            args.workload, args.load, _config(args), sanitizer=sanitizer
        )
        print(ablations.render_rows(
            rows, f"Coordination ablation — {args.workload}, "
                  f"load {int(args.load * 100)}%"
        ))
        sweep = ablations.run_noise_sweep(config=_config(args), runner=_runner(args))
        print()
        print(ablations.render_noise_sweep(
            sweep, "Measurement-noise sensitivity (w2, 100%)"
        ))
    elif args.command == "swf":
        records = jobs_to_swf(workload_jobs(args.workload, args.load, _config(args)))
        print(write_swf(records, header={
            "Workload": args.workload,
            "Load": f"{args.load:.2f}",
            "MaxProcs": str(args.cpus),
            "Generator": "repro (PDPA reproduction)",
        }), end="")
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(f"unknown command {args.command!r}")
    return _finish_sanitizer(sanitizer)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
