#!/usr/bin/env python3
"""Layer-by-layer benchmark of the PDPA simulator.

Run from the repository root::

    python3 perfbench/run.py --workload closed-steady --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it carry the environment
stamp, the output digests and the per-workload metric names.  A full report
(and, when traced, the raw spans and the cProfile rollup) is written
to ``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"
#: fresh interpreters timed for ``setup_s``, besides this process
SETUP_CHILDREN = 4


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cells/jobs per workload (the smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time setup in this interpreter, print it, exit")
    return parser.parse_args(argv)


def stamp(seed: int) -> Dict[str, Any]:
    """What a result must be compared like for like against."""
    from repro.parallel.cache import code_version
    from repro.sim import columns

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "code_version": code_version(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columns_backend": columns.BACKEND,
        "seed": seed,
    }


def setup_children(args: argparse.Namespace) -> List[float]:
    """Time setup in fresh interpreters (imports are paid once per process)."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else []),
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def emit(specs: List[Dict[str, Any]], values: Dict[str, float]) -> Dict[str, Any]:
    names = {s["name"] for s in specs}
    missing = sorted(names - set(values))
    unknown = sorted(set(values) - names)
    if missing or unknown:
        raise RuntimeError(f"metrics not measured: {missing}; not declared: {unknown}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / f"{args.workload}-{os.getpid()}"
    bench = workloads.WORKLOADS[args.workload](args.seed, args.seconds, work, args.tiny)
    try:
        bench.setup()
        setup_s = (time.perf_counter() - T0) / bench.pace()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = stamp(args.seed)
        report: Dict[str, Any] = {"workload": args.workload, "stamp": env}
        if args.trace:
            # a workload-specific metric reads 0 on the other workloads
            values = dict.fromkeys(workloads.SPECIFIC, 0.0)
            values.update(bench.traced())
            assert bench.table is not None
            values.update(tracer.layer_metrics(bench.table))
            values["validate.s"] = bench.ledger.validate_s
            metrics = emit(spec["per_layer"], values)
            OUT.mkdir(exist_ok=True)
            bench.table.write(OUT / f"{args.workload}.spans")
            layers = bench.table.by_layer()
            rollup = tracer.profile_rollup(bench.pstats)
            report.update({
                "spans_by_name": bench.table.by_name(),
                "self_s_by_layer": layers,
                "span_overhead_ns": {
                    "parent": 1e9 * bench.table.parent_overhead,
                    "own": 1e9 * bench.table.own_overhead,
                },
                "cprofile": rollup,
                "share_disagreements": tracer.share_disagreements(layers, rollup),
            })
            aliases: Dict[str, Any] = {}
        else:
            values, aliases = bench.measure()
            aliases["host_slowness"] = (statistics.median(bench.slowness), "x")
            values["setup_s"] = statistics.median([setup_s] + setup_children(args))
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            metrics = emit(spec["end_to_end"], values)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = bench.ledger
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    report.update({"digests": bench.digests, "aliases": aliases,
                   "problems": ledger.problems, "result": result})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print("stamp " + json.dumps(env, sort_keys=True))
    for key, digest in sorted(bench.digests.items()):
        print(f"digest {key} {digest}")
    for name, (value, unit) in aliases.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for row in report.get("share_disagreements", []):
        print("share-gap " + json.dumps(row, sort_keys=True))
    for problem in ledger.problems:
        print(f"problem {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
