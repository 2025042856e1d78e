#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload.

Run from the repository root (takes under a minute)::

    python3 perfbench/smoke.py

For each workload it runs ``run.py --tiny`` untraced and traced, and
asserts that every operation passed its checks, that exactly the
metrics ``BENCHMARK.json`` declares were emitted, and that each
per-layer metric is nonzero on the workloads whose layer it measures.
It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLOSED, SWEEP, SERVE = "closed-steady", "sweep-churn", "serve-durable"
ALL = (CLOSED, SWEEP, SERVE)

#: per-layer metric -> workloads on which it must read nonzero; the
#: rest (gap terms and collector numbers, which may legitimately be 0
#: or negative on a tiny run) are only checked for presence
NONZERO_ON = {
    **dict.fromkeys((
        "sim.events", "sim.events.iter", "sim.events.startup", "sim.events.teardown",
        "sim.iter_share", "sim.dispatch_s.iter", "sim.dispatch_s.other",
        "rng.draws", "rng.s", "runtime.iterations", "runtime.reports",
        "runtime.report_ratio", "runtime.analyzer_s", "runtime.s",
        "rm.reports", "rm.report_s", "rm.report_noop_ratio", "rm.s",
        "policy.calls", "policy.decide_s", "policy.validate_s",
        "machine.resizes", "machine.s", "trace.records", "trace.s", "qs.ops", "qs.s",
        "validate.s", "bench.trace_overhead_ratio",
    ), ALL),
    "sim.events.submit": (CLOSED, SWEEP),
    "sim.events.arrival": (SERVE,),
    "sim.events.other": (SWEEP,),
    "faults.events": (SWEEP,),
    "qs.prune_s": (SERVE,),
    **dict.fromkeys((
        "checkpoint.saves", "checkpoint.save_ms_p50", "checkpoint.save_ms_p99",
        "checkpoint.encode_s", "checkpoint.bytes", "serve.journal_appends",
        "serve.journal_append_ms_p50", "serve.journal_append_ms_p99",
        "serve.status_writes", "serve.step_ms_p50", "serve.step_ms_p99",
        "serve.gap_s", "serve.checkpoint_overhead_ratio",
    ), (SERVE,)),
    **dict.fromkeys((
        "storage.fsyncs", "storage.fsync_s", "storage.write_atomic_s",
        "storage.bytes_written", "storage.s",
    ), (SWEEP, SERVE)),
    **dict.fromkeys((
        "parallel.cells_executed", "parallel.cache_hits", "parallel.cache_hit_ratio",
        "parallel.cache_get_s", "parallel.cache_put_s", "parallel.journal_appends",
        "parallel.journal_s", "parallel.pool_speedup", "parallel.per_core_scaling",
    ), (SWEEP,)),
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    unknown = set(NONZERO_ON) - {m["name"] for m in spec["per_layer"]}
    assert not unknown, f"smoke table names undeclared metrics: {unknown}"
    failures = []
    for workload in ALL:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']}/{result['attempted']} failed")
            metrics = result["metrics"]
            names = [m["name"] for m in declared[trace]]
            if sorted(metrics) != sorted(names):
                failures.append(f"{label}: emitted {sorted(set(metrics) ^ set(names))}")
                continue
            for m in declared[trace]:
                if metrics[m["name"]]["unit"] != m["unit"]:
                    failures.append(f"{label}: {m['name']} unit {metrics[m['name']]['unit']}")
                value = metrics[m["name"]]["value"]
                must = trace == 0 or workload in NONZERO_ON.get(m["name"], ())
                if must and not value:
                    failures.append(f"{label}: {m['name']} reads {value}")
            print(f"ok {label}: {result['attempted']} operations", flush=True)

    # A directory with only the benchmark's files must be refused.
    stripped = ROOT / ".perfbench-work" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, stripped / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(stripped, CLOSED, 0)
    shutil.rmtree(stripped, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("the benchmark ran in a directory without the program")
    else:
        print(f"ok stripped directory refused (exit {proc.returncode})")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
