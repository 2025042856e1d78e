"""The benchmark's three workloads: what each times, checks and traces.

Every workload runs on the 60-CPU machine with Table 1 mixes, and
every input derives from the ``--seed`` argument.  Each one has

* ``setup()`` — everything before the first timed operation;
* ``measure()`` — the untraced end-to-end run (``--trace 0``), which
  returns ``jobs_per_s`` and ``key_op_ms`` plus the per-workload names;
* ``traced()`` — the per-layer run (``--trace 1``): untraced reference
  passes, one traced pass whose digests must equal theirs, and one
  cProfile pass.

An operation is one closed cell, one sweep cell, one serve run or one
restore; it fails when it raises or its output check fails, and the
:class:`Ledger` counts both against the operations attempted.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import hashlib
import heapq
import json
import os
import pstats
import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import tracer as tracing

from repro.checkpoint import CheckpointPlan
from repro.experiments.common import ExperimentConfig, run_workload, workload_cell_spec
from repro.faults.scenarios import build_scenario
from repro.parallel import ResultCache, SweepJournal, SweepRunner
from repro.parallel.cache import canonical_dumps
from repro.parallel.cells import trace_digest
from repro.qs.workload import TABLE1_MIXES
from repro.serve.service import ServeService
from repro.serve.session import ServeConfig, build_serve_session
from repro.serve.source import SyntheticSource
from repro.sim.rng import derive_seed
from repro.validate import validate_run, validate_stream, validate_sweep

N_CPUS = 60
LOAD = 1.0
MIXES = ("w1", "w2", "w3", "w4")

clock = time.perf_counter


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def median(values: List[float]) -> float:
    return statistics.median(values)


#: what the reference loop takes on the host the normalised end-to-end
#: metrics are stated for; any constant would do, it only scales them
REF_NOMINAL_S = 0.010


class _RefObject:
    def __init__(self, i: int) -> None:
        self.a = i
        self.b = 2 * i
        self.seen: Dict[int, int] = {}

    def touch(self, r: int) -> int:
        self.seen[r] = self.a + r
        return self.b


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes right now.

    Attribute loads, dict stores, calls and heap operations: the kind of
    work the simulator does, but none of its code, so no change under
    ``src/`` can move it.  The shared host's speed drifts by up to ±20%
    over minutes; timed next to each sample, this loop tracks that drift
    to within a few percent, so the end-to-end times are divided by it.
    The collector is off so the program's heap size cannot leak in.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        objects = [_RefObject(i) for i in range(200)]
        heap: List[Tuple[int, int]] = []
        for r in range(100):
            for obj in objects:
                heapq.heappush(heap, (obj.touch(r), r))
            while heap:
                heapq.heappop(heap)
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class Ledger:
    """Operations attempted and failed, plus the time spent checking."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.validate_s = 0.0

    def op(self, what: str, problems: List[str]) -> bool:
        """Count one operation; it failed if *problems* is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(map(str, problems[:3]))}")
        return not problems

    def run(self, what: str, fn: Callable[[], Any]) -> Tuple[bool, Any]:
        """Run one operation; an exception counts it as failed."""
        try:
            return True, fn()
        except Exception as exc:  # an operation that raises is a failed op
            self.op(what, [f"{type(exc).__name__}: {exc}"])
            traceback.print_exc()
            return False, None

    def check(self, fn: Callable[[], List[str]]) -> List[str]:
        """Run an output check, timing it as ``validate.s``."""
        t0 = clock()
        try:
            return list(fn())
        finally:
            self.validate_s += clock() - t0


def profile(fn: Callable[[], Any]) -> Dict[str, Any]:
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    return pstats.Stats(prof).stats  # type: ignore[attr-defined]


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float, work: Path, tiny: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tiny = tiny
        self.config = ExperimentConfig(n_cpus=N_CPUS, seed=seed)
        self.ledger = Ledger()
        #: output digests, printed so two commits can be compared
        self.digests: Dict[str, str] = {}
        #: the traced pass's spans and cProfile stats, for the report
        self.table: Optional[tracing.SpanTable] = None
        #: wrapper cost measured by the first traced pass, reused by the
        #: rest so their self times are comparable
        self.overhead: Optional[Tuple[float, float]] = None
        self.pstats: Dict[Any, Any] = {}
        #: host slowness (reference loop ÷ nominal) at each pace() call
        self.slowness: List[float] = []

    def pace(self) -> float:
        """Mean host slowness over the interval since the previous call.

        A sample's normalised time is its wall time divided by this.
        """
        now = reference_loop() / REF_NOMINAL_S
        prev = self.slowness[-1] if self.slowness else now
        self.slowness.append(now)
        return (prev + now) / 2

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str]]]:
        raise NotImplementedError

    def traced(self) -> Dict[str, float]:
        raise NotImplementedError

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def trace(self, fn: Callable[[], Any]) -> Tuple[float, Any]:
        """Run *fn* once with the tracer installed; keep its spans."""
        tracer = tracing.Tracer(self.overhead)
        with tracer:
            t0 = clock()
            out = fn()
            wall = clock() - t0
        self.overhead = tracer.overhead
        self.table = tracer.spans()
        return wall, out


# ----------------------------------------------------------------------
# closed-steady
# ----------------------------------------------------------------------
class ClosedSteady(Workload):
    """Serial ``run_workload`` for IRIX, Equip and PDPA on w1-w4.

    No faults, no durability: the engine -> NthLib/SelfAnalyzer -> RM
    -> policy chain does nearly all the work, and most reports change
    nothing, so iteration coalescing shows its full effect here.
    """

    name = "closed-steady"

    def setup(self) -> None:
        if self.tiny:
            self.cells = [("PDPA", "w2"), ("IRIX", "w2")]
        else:
            self.cells = [(p, m) for p in ("IRIX", "Equip", "PDPA") for m in MIXES]
        #: jobs each cell completes (the same every pass)
        self.jobs_of: Dict[str, int] = {}

    def one_pass(self, validate: bool) -> Tuple[float, int, Dict[str, float], Dict[str, str]]:
        walls: Dict[str, float] = {}
        digests: Dict[str, str] = {}
        jobs = 0
        for policy, mix in self.cells:
            key = f"{policy}/{mix}"
            t0 = clock()
            ok, out = self.ledger.run(key, lambda: run_workload(policy, mix, LOAD, self.config))
            walls[key] = clock() - t0
            if not ok:
                continue
            jobs += len(out.result.records)
            self.jobs_of[key] = len(out.result.records)
            digests[key] = sha(canonical_dumps(out.result.to_dict())) + ":" + trace_digest(out)
            problems = self.ledger.check(lambda: validate_run(out)) if validate else []
            ref = self.digests.setdefault(key, digests[key])
            if ref != digests[key]:
                problems.append(f"digest {digests[key][:16]} != first pass {ref[:16]}")
            self.ledger.op(key, problems)
        return sum(walls.values()), jobs, walls, digests

    def measure(self) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str]]]:
        rates: List[float] = []
        key_ms: List[float] = []
        raw: List[float] = []
        start = clock()
        self.pace()
        while len(rates) < 3 or clock() - start < self.seconds:
            wall, jobs, walls, _ = self.one_pass(validate=not rates)
            slow = self.pace()
            raw.append(jobs / wall)
            rates.append(jobs / wall * slow)
            pdpa = sum(v for k, v in walls.items() if k.startswith("PDPA/"))
            pdpa_jobs = sum(n for k, n in self.jobs_of.items() if k.startswith("PDPA/"))
            key_ms.append(1000 * pdpa / slow / pdpa_jobs)
        jobs_per_s = median(rates)
        return (
            {"jobs_per_s": jobs_per_s, "key_op_ms": median(key_ms)},
            {"closed_jobs_per_s": (jobs_per_s, "jobs/s"),
             "closed_pdpa_ms_per_job": (median(key_ms), "ms"),
             "closed_jobs_per_s_wall": (median(raw), "jobs/s")},
        )

    def traced(self) -> Dict[str, float]:
        walls = [self.one_pass(validate=i == 0)[0] for i in range(3)]
        # one_pass checks every traced cell against the untraced digests
        traced_wall, _ = self.trace(lambda: self.one_pass(validate=False))
        self.pstats = profile(lambda: self.one_pass(validate=False))
        return {"bench.trace_overhead_ratio": traced_wall / median(walls)}


# ----------------------------------------------------------------------
# sweep-churn
# ----------------------------------------------------------------------
class SweepChurn(Workload):
    """A fixed grid through ``SweepRunner(jobs=nproc)``, cold then warm.

    Equal_eff re-decides on every report and the fault scenarios keep
    splitting allocations, so the policy, RM and fault layers do the
    work; this is the only workload that exercises ``repro.parallel``
    (pool dispatch, cache writes then reads, journal appends).
    """

    name = "sweep-churn"
    WARM_PASSES = 3

    def setup(self) -> None:
        if self.tiny:
            grid = [("Equal_eff", "w2", None), ("PDPA", "w2", "brownout")]
        else:
            grid = [("Equal_eff", m, None) for m in MIXES] + [
                ("PDPA", "w3", f) for f in ("cpukill8", "flaky-reports", "brownout")
            ]
        self.cells = []
        for policy, mix, faults in grid:
            config = self.config
            if faults:
                config = config.with_faults(build_scenario(faults, N_CPUS))
            cell = workload_cell_spec(policy, mix, LOAD, config)
            if faults:
                cell = dataclasses.replace(cell, key=f"{cell.key}/faults={faults}")
            self.cells.append(cell)
        self.jobs = os.cpu_count() or 1
        self.pass_no = 0
        self.stats_log: List[Any] = []

    def runner(self, jobs: int) -> SweepRunner:
        self.pass_no += 1
        root = self.fresh_dir(f"pass{self.pass_no}")
        return SweepRunner(
            jobs=jobs,
            cache=ResultCache(root / "cache"),
            journal=SweepJournal(root / "journal.jsonl"),
        )

    def finish(self, runner: SweepRunner) -> None:
        assert runner.journal is not None
        runner.journal.close()
        shutil.rmtree(self.work / f"pass{self.pass_no}", ignore_errors=True)

    def sweep(self, runner: SweepRunner, what: str, expect_hits: bool,
              reference: Optional[List[str]]) -> Tuple[float, Optional[List[str]]]:
        """One timed pass over every cell, then its per-cell checks."""
        t0 = clock()
        ok, payloads = self.ledger.run(what, lambda: runner.run_serialized(self.cells))
        wall = clock() - t0
        if not ok:
            return wall, None
        stats = runner.last_stats
        self.stats_log.append(stats)
        problems = self.ledger.check(lambda: validate_sweep(runner, self.cells, payloads))
        n = len(self.cells)
        if expect_hits and stats.cache_hits != n:
            problems.append(f"{stats.cache_hits}/{n} cache hits on a warm pass")
        if not expect_hits and stats.executed != n:
            problems.append(f"{stats.executed}/{n} cells executed on a cold pass")
        for i, cell in enumerate(self.cells):
            mismatch = reference is not None and payloads[i] != reference[i]
            self.ledger.op(f"{what} {cell.key}", problems + (
                [f"payload differs from the {'cold' if expect_hits else 'first'} pass"]
                if mismatch else []
            ))
        return wall, payloads

    def cold_and_warm(self, jobs: int, reference: Optional[List[str]],
                      warm: int) -> Tuple[float, List[float], Optional[List[str]]]:
        runner = self.runner(jobs)
        cold_wall, cold = self.sweep(runner, f"cold(jobs={jobs})", False, reference)
        warm_walls = []
        for _ in range(warm if cold is not None else 0):
            wall, _ = self.sweep(runner, "warm", True, cold)
            warm_walls.append(wall)
        self.finish(runner)
        return cold_wall, warm_walls, cold

    def record_digests(self, payloads: List[str]) -> None:
        for cell, payload in zip(self.cells, payloads):
            self.digests[cell.key] = sha(payload)
        self.n_jobs = sum(len(json.loads(p)["records"]) for p in payloads)

    def measure(self) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str]]]:
        colds: List[float] = []
        warms: List[float] = []
        raw: List[float] = []
        pool_payloads: List[List[str]] = []
        reference: Optional[List[str]] = None
        start = clock()
        self.pace()
        while len(colds) < 3 or clock() - start < self.seconds:
            cold, warm, payloads = self.cold_and_warm(self.jobs, reference, self.WARM_PASSES)
            slow = self.pace()
            raw.append(cold)
            colds.append(cold / slow)
            warms.extend(w / slow for w in warm)
            if payloads is not None:
                reference = reference or payloads
                pool_payloads.append(payloads)
        # The pool must agree with the serial path, cell by cell.
        ok, serial = self.ledger.run(
            "serial", lambda: SweepRunner(jobs=1).run_serialized(self.cells)
        )
        self.record_digests(serial if ok else reference)
        if ok and pool_payloads:
            self.ledger.op("pool == serial", [
                f"{cell.key}: pool payload differs from serial"
                for i, cell in enumerate(self.cells) if pool_payloads[0][i] != serial[i]
            ])
        n = len(self.cells)
        jobs_per_s = median([self.n_jobs / c for c in colds])
        warm_ms = 1000 * median(warms)
        return (
            {"jobs_per_s": jobs_per_s, "key_op_ms": warm_ms},
            {"sweep_cells_per_s": (median([n / c for c in colds]), "cells/s"),
             "sweep_warm_cells_per_s": (n / median(warms), "cells/s"),
             "sweep_jobs_per_s": (jobs_per_s, "jobs/s"),
             "sweep_jobs_per_s_wall": (median([self.n_jobs / c for c in raw]), "jobs/s")},
        )

    def traced(self) -> Dict[str, float]:
        pool: List[float] = []
        serial: List[float] = []
        reference: Optional[List[str]] = None
        for _ in range(2):
            wall, _, payloads = self.cold_and_warm(self.jobs, reference, 0)
            pool.append(wall)
            reference = reference or payloads
            wall, _, _ = self.cold_and_warm(1, reference, 0)
            serial.append(wall)
        if reference is not None:
            self.record_digests(reference)

        def traced_pass() -> Tuple[float, List[float]]:
            cold, warm, _ = self.cold_and_warm(1, reference, 1)
            return cold, warm

        _, (traced_cold, _) = self.trace(traced_pass)
        cold_stats, warm_stats = self.stats_log[-2:]
        self.pstats = profile(lambda: self.cold_and_warm(1, reference, 0))
        n = len(self.cells)
        executed = cold_stats.executed + warm_stats.executed
        hits = cold_stats.cache_hits + warm_stats.cache_hits
        speedup = median(serial) / median(pool)
        return {
            "parallel.cells_executed": executed,
            "parallel.cache_hits": hits,
            "parallel.cache_hit_ratio": warm_stats.cache_hits / n,
            "parallel.pool_speedup": speedup,
            "parallel.per_core_scaling": speedup / min(self.jobs, n),
            "bench.trace_overhead_ratio": traced_cold / median(serial),
        }


# ----------------------------------------------------------------------
# serve-durable
# ----------------------------------------------------------------------
class ServeDurable(Workload):
    """``ServeService`` for PDPA on a synthetic w2 stream, run durably.

    Arrival journal, status file and autosnapshots every 2,000 events
    are on, as an operator runs it.  Arrivals are open-loop in
    simulated time but driven as fast as the host allows, so the metric
    is wall throughput.  Storage, checkpoint and journal work sits on
    the same sim core here and nowhere else.
    """

    name = "serve-durable"
    CADENCE = 2000
    #: where in the stream (share of jobs drawn) the restore fixture
    #: snapshots: restore time follows snapshot size, which at any one
    #: instant varies by ±30% with the seed, so several are averaged
    SNAPSHOT_AT = (0.3, 0.4, 0.5, 0.6, 0.7)
    #: restores per snapshot, normalised as one block
    RESTORES = 8
    #: journalled arrivals past the last snapshot at the "crash"
    TAIL = 50
    #: stream length of one timed run; short runs give many samples,
    #: each normalised over a short window
    JOBS = 200
    #: stream length of the traced runs: the autosnapshot gap of a
    #: 200-job run (~0.1 s) drowns in run-to-run noise, so the gap
    #: split uses the 1,000-job stream the gap was first reported on
    TRACED_JOBS = 1000

    def setup(self) -> None:
        self.n_jobs = 40 if self.tiny else self.JOBS
        self.run_no = 0
        self.next = self.build(checkpoint=True)

    def build(self, checkpoint: bool, stream_seed: Optional[int] = None) -> ServeService:
        self.run_no += 1
        root = self.fresh_dir(f"run{self.run_no}")
        source = SyntheticSource(
            TABLE1_MIXES["w2"], LOAD, n_cpus=N_CPUS,
            seed=self.seed if stream_seed is None else stream_seed, max_jobs=self.n_jobs,
        )
        session = build_serve_session(
            "PDPA", source, config=self.config, serve_config=ServeConfig(), load=LOAD
        )
        return ServeService(
            session,
            journal_path=root / "arrivals.jsonl",
            status_path=root / "status.json",
            checkpoint=self.plan(root) if checkpoint else None,
        )

    def plan(self, root: Path) -> CheckpointPlan:
        return CheckpointPlan(path=root / "serve.ckpt", every_events=self.CADENCE)

    def serve(self, service: Optional[ServeService] = None,
              checkpoint: bool = True) -> Tuple[float, Optional[str]]:
        """One timed ``ServeService.run()`` plus its checks."""
        service = service or self.build(checkpoint)
        t0 = clock()
        ok, code = self.ledger.run("serve", lambda: service.run(handle_signals=False))
        wall = clock() - t0
        if not ok:
            return wall, None
        digest = service.session.stats.digest()
        problems = self.ledger.check(lambda: validate_stream(service.session))
        if code != 0:
            problems.append(f"serve exited {code}")
        if service.session.stats.completed != self.n_jobs:
            problems.append(f"{service.session.stats.completed}/{self.n_jobs} completed")
        ref = self.digests.setdefault("stats", digest)
        if digest != ref:
            problems.append(f"stats digest {digest[:16]} != first run {ref[:16]}")
        self.ledger.op("serve", problems)
        shutil.rmtree(self.work / f"run{self.run_no}", ignore_errors=True)
        return wall, digest

    def restore_streams(self) -> List[int]:
        """Source seeds of the restore fixtures, the first being --seed's.

        At load 1.0 the live-job count, and with it snapshot size and
        restore time, wanders far over a whole stream; one stream per
        seed made restore time vary by ±25% with the seed alone.
        """
        return [self.seed] + [
            derive_seed(self.seed, f"restore-stream-{k}") & 0x7FFFFFFF for k in (1, 2)
        ]

    def fixture(self, stream_seed: Optional[int] = None) -> Tuple[List[Tuple[Path, str, int]], Path]:
        """Mid-stream snapshots plus the journal a crash left behind.

        Returns each snapshot with the stats digest and draw cursor it
        was taken at, and the journal.
        """
        service = self.build(checkpoint=False, stream_seed=stream_seed)
        session = service.session
        root = self.work / f"run{self.run_no}"
        session.pump.prime()
        snapshots = []
        for i, share in enumerate(self.SNAPSHOT_AT):
            while session.source.drawn < share * self.n_jobs and session.sim.step(256):
                session.prune()
            path = root / f"mid{i}.ckpt"
            session.save(path, label="mid-stream")
            snapshots.append((path, session.stats.digest(), session.source.drawn))
        while session.source.drawn < snapshots[-1][2] + self.TAIL and session.sim.step(1):
            pass
        assert service.journal is not None
        service.journal.close()
        self.crash_drawn = session.source.drawn
        return snapshots, root / "arrivals.jsonl"

    def restore(self, snapshot: Path, journal: Path, digest: str,
                drawn: int) -> Tuple[float, Optional[ServeService]]:
        """One timed ``ServeService.restore`` plus its checks."""
        copy = journal.with_name(f"restore-{self.ledger.attempted}.jsonl")
        shutil.copyfile(journal, copy)
        t0 = clock()
        ok, service = self.ledger.run("restore", lambda: ServeService.restore(
            snapshot, copy, expected_config=self.config, expected_policy="PDPA",
            status_path=copy.with_suffix(".status"), checkpoint=self.plan(copy.parent),
        ))
        wall = clock() - t0
        if not ok:
            return wall, None
        session = service.session
        problems = []
        if session.stats.digest() != digest:
            problems.append("restored stats digest differs from the snapshot's")
        tail = self.crash_drawn - drawn
        if session.source.drawn != drawn or len(session.pump.replay) != tail:
            problems.append(
                f"restored at draw {session.source.drawn} with "
                f"{len(session.pump.replay)} to replay; expected {drawn} and {tail}"
            )
        self.ledger.op("restore", problems)
        return wall, service

    def measure(self) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str]]]:
        walls: List[float] = []
        raw: List[float] = []
        start = clock()
        service: Optional[ServeService] = self.next
        self.pace()
        while len(walls) < 3 or clock() - start < self.seconds:
            wall, _ = self.serve(service)
            raw.append(wall)
            walls.append(wall / self.pace())
            service = None
        restores: List[float] = []
        finish: Optional[ServeService] = None
        for stream_seed in reversed(self.restore_streams()):
            snapshots, journal = self.fixture(stream_seed)
            last: Optional[ServeService] = None
            self.pace()
            for snapshot, digest, drawn in snapshots:
                block = []
                for _ in range(self.RESTORES):
                    if last is not None and last.journal is not None:
                        last.journal.close()
                    wall, last = self.restore(snapshot, journal, digest, drawn)
                    block.append(wall)
                restores.append(median(block) / self.pace())
            if finish is not None and finish.journal is not None:
                finish.journal.close()
            finish = last
        if finish is not None:
            # --seed's stream comes last: its restored run must finish
            # exactly where the uninterrupted one did.
            self.serve(finish)
        jobs_per_s = median([self.n_jobs / w for w in walls])
        restore_ms = 1000 * statistics.mean(restores)
        return (
            {"jobs_per_s": jobs_per_s, "key_op_ms": restore_ms},
            {"serve_jobs_per_s": (jobs_per_s, "jobs/s"),
             "serve_restore_ms": (restore_ms, "ms"),
             "serve_jobs_per_s_wall": (median([self.n_jobs / w for w in raw]), "jobs/s")},
        )

    #: layers whose autosnapshot cost is charged to them directly; the
    #: rest of the simulation slices' self time is the "step" term
    GAP_LAYERS = ("checkpoint", "storage", "gc")

    def gap_terms(self, checkpoint: bool) -> Dict[str, float]:
        """One traced serve run, reduced to the terms of the gap split.

        The terms are normalised by host slowness like the end-to-end
        times, so runs made while the host ran at different speeds can
        be subtracted.
        """
        self.pace()
        self.trace(lambda: self.serve(checkpoint=checkpoint))
        slow = self.pace()
        table = self.table
        assert table is not None
        layers = table.by_layer()
        step = table.self_within(table.ids("Simulator.step"))
        terms = {f"serve.gap.{layer}_s": layers.get(layer, 0.0) for layer in self.GAP_LAYERS}
        terms["serve.gap.step_s"] = sum(
            v for k, v in step.items() if k not in self.GAP_LAYERS
        )
        terms["serve.gap_s"] = table.incl_s(table.ids("ServeService.run"))
        return {k: v / slow for k, v in terms.items()}

    def traced(self) -> Dict[str, float]:
        assert self.next.journal is not None
        self.next.journal.close()
        if not self.tiny:
            self.n_jobs = self.TRACED_JOBS
        on: List[float] = []
        off: List[float] = []
        self.pace()
        for _ in range(2):
            on.append(self.serve()[0] / self.pace())
            off.append(self.serve(checkpoint=False)[0] / self.pace())
        snapshots, _ = self.fixture()
        snapshot_bytes = statistics.mean(path.stat().st_size for path, _, _ in snapshots)

        # Three traced pairs, autosnapshots on then off.  The first "on"
        # run (the operator's configuration) gives this workload's
        # per-layer numbers; the mean difference of each term over the
        # pairs splits the autosnapshot gap.
        on_terms: List[Dict[str, float]] = []
        off_terms: List[Dict[str, float]] = []
        kept = None
        for _ in range(3):
            on_terms.append(self.gap_terms(checkpoint=True))
            kept = kept or self.table
            off_terms.append(self.gap_terms(checkpoint=False))
        self.table = kept
        self.pstats = profile(lambda: self.serve())

        gap = {
            k: statistics.mean(t[k] for t in on_terms) - statistics.mean(t[k] for t in off_terms)
            for k in on_terms[0]
        }
        gap["serve.unattributed_s"] = gap["serve.gap_s"] - sum(
            v for k, v in gap.items() if k != "serve.gap_s"
        )
        traced_on = statistics.mean(t["serve.gap_s"] for t in on_terms)
        return {
            **gap,
            "serve.checkpoint_overhead_ratio": median(on) / median(off) - 1.0,
            "checkpoint.bytes": snapshot_bytes,
            "bench.trace_overhead_ratio": traced_on / median(on),
        }


#: per-layer metrics that only one workload's traced() measures
SPECIFIC = (
    "parallel.cells_executed", "parallel.cache_hits", "parallel.cache_hit_ratio",
    "parallel.pool_speedup", "parallel.per_core_scaling", "checkpoint.bytes",
    "serve.gap_s", "serve.gap.checkpoint_s", "serve.gap.storage_s", "serve.gap.gc_s",
    "serve.gap.step_s", "serve.unattributed_s", "serve.checkpoint_overhead_ratio",
)

WORKLOADS = {w.name: w for w in (ClosedSteady, SweepChurn, ServeDurable)}
