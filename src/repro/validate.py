"""Run validation: invariants every correct execution must satisfy.

A scheduling simulator is only as trustworthy as its bookkeeping.
:func:`validate_run` audits a completed :class:`~repro.experiments.RunOutput`
against the structural invariants of the system and returns the list
of violations (empty = clean).  It is used by the test suite as a
failure-injection detector and is part of the public API so users can
assert their own experiments' integrity.

Checked invariants
------------------
* **job accounting** — every job record has ``submit <= start <= end``;
  response = wait + execution.
* **burst sanity** — bursts have positive duration, lie on a CPU of
  the machine and never overlap on the same CPU.
* **trace/record consistency** — a job's bursts fall inside its
  [first start, end] window.
* **reallocation records** — chain correctly (each change's
  ``old_procs`` equals the previous change's ``new_procs``); a chain
  restarts from zero after a fault killed the execution.
* **fault offline overlap** — no burst overlaps an offline window of
  its CPU (:class:`repro.metrics.faults.OfflineFold` says when a CPU
  is offline).
* **fault requeue terminal** — every requeued job reaches a terminal
  state (DONE or FAILED).

More concurrent bursts than (healthy) CPUs needs a burst on an unknown
CPU, two overlapping bursts on one CPU, or a burst in an offline
window, so burst sanity and the offline overlap also bound capacity.

Every invariant but the last is written once, as the incremental
:class:`TraceChecker`: ``validate_run`` feeds it a finished run in one
call, and the fuzzer's live oracle (:class:`repro.fuzz.oracle.LiveOracle`)
feeds it each op's new records between events.  Only the requeue
check waits for the end of the run, because a requeued job may still
be pending until then.

Alongside the per-run invariants, :func:`validate_sweep` audits the
**harness** after a sweep: no cell may be lost (every slot is either a
payload or an accounted quarantine), the stats must balance
(``cache_hits + resumed + executed + quarantined == cells``), every
completed cell must be journalled when a journal is in use (a journal
that lost durability may miss entries, but only if the stats honestly
count the degradation), and every journal digest must match the
payload bytes it promises.

:func:`validate_stream` audits a **streaming service** at any instant:
submissions must be conserved across admitted/shed/live/terminal
states, a configured ingress bound must never have been exceeded (the
recorded peak is checked, so the bound cannot lie retroactively), and
a restored session must have consumed every arrival-journal replay
expectation — the recovery fixed point.  The fuzzer's live oracle runs
it verbatim between events.

:func:`validate_checkpoint` audits a **snapshot file**: the envelope
must verify (magic, lengths, sha256), the payload must restore into a
session of the current code version, the envelope meta must describe
the restored graph exactly (cut time, events fired, pending events,
run identity), and the restored event queue must survive compaction
with its live-count invariant intact.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.common import RunOutput
from repro.metrics.faults import OfflineFold
from repro.metrics.stats import JobRecord
from repro.metrics.trace import Burst, FaultRecord, ReallocationRecord
from repro.qs.job import JobState

#: tolerance for floating-point time comparisons
_EPS = 1e-6

#: canonical layer order; every validator sorts its output by this,
#: so the same violations always render in the same sequence
LAYER_ORDER: Tuple[str, ...] = (
    "job", "trace", "alloc", "fault", "stream", "sweep", "checkpoint",
    "storage",
)


class Violation(str):
    """One invariant violation: a message with (code, layer) identity.

    A ``str`` subclass, so every existing consumer — ``== []`` checks,
    substring matching, ``"\\n".join`` — keeps working unchanged,
    while the fuzzer, the CLI and the tests can dispatch on the
    stable ``code`` instead of parsing prose.
    """

    __slots__ = ("code", "layer")

    code: str
    layer: str

    def __new__(cls, code: str, layer: str, message: str) -> "Violation":
        if layer not in LAYER_ORDER:
            raise ValueError(f"unknown violation layer {layer!r}")
        self = super().__new__(cls, message)
        self.code = code
        self.layer = layer
        return self

    @property
    def message(self) -> str:
        """The human-readable text (the string value itself)."""
        return str(self)

    def render(self) -> str:
        """Canonical one-line rendering: ``[layer/code] message``."""
        return f"[{self.layer}/{self.code}] {self}"


def render_violations(problems: Iterable[Violation]) -> str:
    """Render violations one per line, identically on every surface."""
    return "\n".join(p.render() for p in problems)


def _ordered(problems: List[Violation]) -> List[Violation]:
    """Deterministic order: by (layer, code), stable within a group."""
    return sorted(problems, key=lambda p: (LAYER_ORDER.index(p.layer), p.code))


#: minimum distinct crash/fault states a full torture campaign (every
#: protocol) must exercise before its "clean" verdict counts (the
#: acceptance floor from the robustness issue); per-protocol budgets
#: low enough to make the floor unreachable waive it.
TORTURE_STATE_FLOOR = 200


def validate_run(out: RunOutput) -> List[Violation]:
    """Audit one run; returns human-readable violations (empty = ok).

    One whole feed of the run's records through :class:`TraceChecker`,
    plus ``fault-requeue-terminal``, the one statement that holds only
    once the run is over.
    """
    trace = out.trace
    problems = TraceChecker(trace.n_cpus).feed(
        trace.bursts, trace.reallocations, trace.faults, out.result.records
    )
    states = {job.job_id: job.state for job in out.jobs}
    for fault in trace.faults:
        state = states.get(fault.target)
        if fault.kind == "job_requeue" and state not in (JobState.DONE, JobState.FAILED):
            problems.append(Violation(
                "fault-requeue-terminal", "fault",
                f"job {fault.target}: requeued at t={fault.time:.3f} but "
                f"ended in state {state}",
            ))
    return _ordered(problems)


def assert_valid(out: RunOutput) -> None:
    """Raise ``AssertionError`` listing all violations, if any."""
    problems = validate_run(out)
    if problems:
        raise AssertionError(
            f"{len(problems)} invariant violation(s):\n"
            + render_violations(problems)
        )


_time = attrgetter("time")
_start = attrgetter("start")


def _overlap(cpu: int, a: Burst, b: Burst) -> Violation:
    return Violation(
        "burst-sanity", "trace",
        f"cpu {cpu}: overlapping bursts "
        f"[{a.start:.3f},{a.end:.3f}] ({a.app_name}) and "
        f"[{b.start:.3f},{b.end:.3f}] ({b.app_name})",
    )


def _outside(burst: Burst, window: Tuple[float, float]) -> List[Violation]:
    start, end = window
    if burst.start < start - _EPS or burst.end > end + _EPS:
        return [Violation(
            "trace-consistency", "trace",
            f"job {burst.job_id}: burst [{burst.start:.3f},{burst.end:.3f}] "
            f"outside its execution window [{start:.3f},{end:.3f}]",
        )]
    return []


def _offline(burst: Burst, down: float) -> Violation:
    # Only the start of the window: a live feed may not know its end yet.
    return Violation(
        "fault-offline-overlap", "fault",
        f"cpu {burst.cpu}: burst [{burst.start:.3f},{burst.end:.3f}] "
        f"({burst.app_name}) overlaps offline window opened at t={down:.3f}",
    )


class TraceChecker:
    """Every per-run invariant over one run's records, fed incrementally.

    The one implementation of ``job-accounting``, ``burst-sanity``,
    ``trace-consistency``, ``realloc-chain`` and
    ``fault-offline-overlap``: :func:`validate_run` feeds it a finished
    run in one call, and the fuzzer's live oracle keeps one checker per
    run and feeds it each op's new records.  Cursors remember how much
    of each list was already checked, so a call costs O(new records);
    the recorded lists themselves are the event stream, so nothing is
    recorded twice.

    Within one call, faults are taken by time, then reallocations by
    time, job records in the order given and bursts by start time, as
    a post-hoc sort of the whole run would take them.  A burst whose
    job has no record yet is checked against its window when the
    record arrives.  Feeding a recorded run in time-ordered prefixes,
    as the live oracle does between events, finds what one whole feed
    finds.
    """

    __slots__ = (
        "n_cpus", "_cursors", "_placed", "_expected", "_kills", "_down",
        "_windows", "_waiting",
    )

    def __init__(self, n_cpus: int) -> None:
        self.n_cpus = n_cpus
        #: bursts, reallocations, faults and job records already checked
        self._cursors = (0, 0, 0, 0)
        #: per CPU: the bursts checked so far, sorted by start
        self._placed: Dict[int, List[Burst]] = {}
        #: per job: the ``old_procs`` its next reallocation must carry
        self._expected: Dict[int, int] = {}
        #: per job: kill times not yet matched to a chain restart
        self._kills: Dict[int, List[float]] = {}
        #: when each CPU is offline, from the faults checked so far
        self._down = OfflineFold()
        #: per job with a record: its [first start, end] window
        self._windows: Dict[int, Tuple[float, float]] = {}
        #: per job without a record yet: its bursts so far
        self._waiting: Dict[int, List[Burst]] = {}

    def feed(
        self,
        bursts: Sequence[Burst],
        reallocations: Sequence[ReallocationRecord],
        faults: Sequence[FaultRecord],
        records: Sequence[JobRecord],
        now: Optional[float] = None,
    ) -> List[Violation]:
        """Check what was appended to the four lists since the last call.

        *records* are the finished jobs' records.  *now*, the live
        clock, also flags bursts that end after it.
        """
        seen_bursts, seen_reallocs, seen_faults, seen_records = self._cursors
        self._cursors = (len(bursts), len(reallocations), len(faults), len(records))
        for fault in sorted(faults[seen_faults:], key=_time):
            self._down.add(fault)
            if fault.kind == "job_kill":
                self._kills.setdefault(fault.target, []).append(fault.time)
        problems = self._check_chain(sorted(reallocations[seen_reallocs:], key=_time))
        problems.extend(self._check_records(records[seen_records:]))
        problems.extend(self._check_bursts(sorted(bursts[seen_bursts:], key=_start), now))
        return problems

    def _check_chain(self, records: List[ReallocationRecord]) -> List[Violation]:
        problems = []
        for record in records:
            job_id = record.job_id
            kills = self._kills.get(job_id, [])
            expected = self._expected.get(job_id, 0)
            # Kills strictly before this record definitely reset the
            # chain.  A kill at the *same* timestamp is ambiguous in
            # the flat record streams — a job can start, be killed and
            # restart within one simulated instant — so a tied kill is
            # consumed lazily, only when it is the explanation for a
            # restart (old_procs == 0) the chain would otherwise
            # reject.
            while kills and kills[0] < record.time - _EPS:
                kills.pop(0)
                expected = 0
            if record.old_procs != expected:
                if (record.old_procs == 0
                        and kills and kills[0] <= record.time + _EPS):
                    kills.pop(0)
                else:
                    problems.append(Violation(
                        "realloc-chain", "alloc",
                        f"job {job_id}: reallocation chain broken at "
                        f"t={record.time:.3f} (expected old={expected}, "
                        f"recorded old={record.old_procs})",
                    ))
            if record.new_procs < 1:
                problems.append(Violation(
                    "realloc-chain", "alloc",
                    f"job {job_id}: allocated {record.new_procs} CPUs at "
                    f"t={record.time:.3f}",
                ))
            self._expected[job_id] = record.new_procs
        return problems

    def _check_records(self, records: Sequence[JobRecord]) -> List[Violation]:
        problems = []
        for record in records:
            job_id = record.job_id
            if not (record.submit_time - _EPS <= record.start_time <= record.end_time + _EPS):
                problems.append(Violation(
                    "job-accounting", "job",
                    f"job {job_id}: times out of order "
                    f"(submit {record.submit_time}, start {record.start_time}, "
                    f"end {record.end_time})",
                ))
            recomposed = record.wait_time + record.execution_time
            if abs(recomposed - record.response_time) > _EPS:
                problems.append(Violation(
                    "job-accounting", "job",
                    f"job {job_id}: wait+exec != response "
                    f"({recomposed} != {record.response_time})",
                ))
            window = (record.start_time, record.end_time)
            self._windows[job_id] = window
            for burst in self._waiting.pop(job_id, ()):
                problems.extend(_outside(burst, window))
        return problems

    def _check_bursts(self, bursts: List[Burst], now: Optional[float]) -> List[Violation]:
        problems = []
        for burst in bursts:
            cpu, start, end = burst.cpu, burst.start, burst.end
            if end <= start:
                problems.append(Violation(
                    "burst-sanity", "trace",
                    f"cpu {cpu}: non-positive burst {burst}",
                ))
            window = self._windows.get(burst.job_id)
            if window is None:
                self._waiting.setdefault(burst.job_id, []).append(burst)
            else:
                problems.extend(_outside(burst, window))
            if not 0 <= cpu < self.n_cpus:
                problems.append(Violation(
                    "burst-sanity", "trace", f"burst on unknown cpu {cpu}"
                ))
                continue
            if now is not None and end > now + _EPS:
                problems.append(Violation(
                    "burst-sanity", "trace",
                    f"cpu {cpu}: burst ends at {end:.3f}, after now ({now:.3f})",
                ))
            # Compare with the neighbours by start time, as a post-hoc
            # sort would.  Fed in time order, a burst ends after every
            # checked one, so it has a successor only if it contains it.
            placed = self._placed.setdefault(cpu, [])
            index = bisect_right(placed, start, key=_start)
            if index > 0 and start < placed[index - 1].end - _EPS:
                problems.append(_overlap(cpu, placed[index - 1], burst))
            if index < len(placed) and placed[index].start < end - _EPS:
                problems.append(_overlap(cpu, burst, placed[index]))
            placed.insert(index, burst)
            # Fed in time order, every window that opened before this
            # burst ended is known; one still open may close later.
            for down, up in self._down.closed.get(cpu, ()):
                if start < up - _EPS and end > down + _EPS:
                    problems.append(_offline(burst, down))
            down = self._down.down_since.get(cpu)
            if down is not None and end > down + _EPS:
                problems.append(_offline(burst, down))
        return problems


def validate_sweep(
    runner,
    cells: Sequence,
    payloads: Sequence[Optional[str]],
) -> List[Violation]:
    """Audit one completed sweep of the experiment harness.

    *runner* is the :class:`~repro.parallel.SweepRunner` that executed
    *cells* (its ``last_stats``, cache and journal are inspected);
    *payloads* is what :meth:`run_serialized` returned.  Returns
    human-readable violations (empty = clean).
    """
    from repro.parallel import cell_key, payload_digest

    problems: List[Violation] = []
    stats = runner.last_stats

    # 1. No lost cells: every slot holds a payload or an accounted
    #    quarantine.
    quarantined_keys = {f.key for f in stats.failures}
    for cell, payload in zip(cells, payloads):
        if payload is None and cell.key not in quarantined_keys:
            problems.append(Violation(
                "sweep-lost-cell", "sweep",
                f"cell {cell.key!r}: lost (no payload, not quarantined)",
            ))
        if payload is not None and cell.key in quarantined_keys:
            problems.append(Violation(
                "sweep-lost-cell", "sweep",
                f"cell {cell.key!r}: both quarantined and completed",
            ))
    if len(payloads) != len(cells):
        problems.append(Violation(
            "sweep-lost-cell", "sweep",
            f"payload count {len(payloads)} != cell count {len(cells)}",
        ))

    # 2. The books must balance.
    accounted = stats.cache_hits + stats.resumed + stats.executed + stats.quarantined
    if accounted != stats.cells:
        problems.append(Violation(
            "sweep-stats-balance", "sweep",
            f"stats unbalanced: hits {stats.cache_hits} + resumed "
            f"{stats.resumed} + executed {stats.executed} + quarantined "
            f"{stats.quarantined} != cells {stats.cells}",
        ))

    # 3. Journal: every completed cell journalled, every digest honest.
    #    A journal that lost durability mid-sweep (fsyncgate, ENOSPC)
    #    is allowed to be missing entries — but only if the runner
    #    *admitted* the degradation in its stats; a broken journal
    #    with a clean storage_degraded count is a lie.
    journal = getattr(runner, "journal", None)
    if journal is not None and runner.cache is not None:
        broken = getattr(journal, "broken", None)
        missing = 0
        for cell, payload in zip(cells, payloads):
            if payload is None:
                continue
            key = cell_key(cell.fn, cell.params)
            entry = journal.get(key)
            if entry is None:
                missing += 1
                if broken is None:
                    problems.append(Violation(
                        "sweep-journal", "sweep",
                        f"cell {cell.key!r}: completed but not journalled",
                    ))
            elif not entry.matches(payload):
                problems.append(Violation(
                    "sweep-journal", "sweep",
                    f"cell {cell.key!r}: journal digest {entry.digest[:12]}… "
                    f"does not match payload digest "
                    f"{payload_digest(payload)[:12]}…",
                ))
        if broken is not None and missing > 0 and stats.storage_degraded == 0:
            problems.append(Violation(
                "sweep-journal", "sweep",
                f"journal broke ({type(broken).__name__}) and {missing} "
                f"completion(s) are unjournalled, but stats claim zero "
                f"storage degradation",
            ))
    return _ordered(problems)


def validate_checkpoint(
    path, expected_config=None, session_cls=None
) -> List[Violation]:
    """Audit one checkpoint snapshot; returns violations (empty = ok).

    Verifies the envelope (magic, section lengths, sha256), restores
    the session (which enforces the code-version gate and, with
    *expected_config*, the config gate), and then cross-checks the
    envelope meta against the restored simulation graph: the cut
    point it advertises must be the cut point the graph is actually
    at, and the event queue must survive compaction with its
    live-count invariant intact.  A snapshot that passes restores
    into a run whose continuation is byte-identical to the
    uninterrupted one.

    *session_cls* selects which session class restores the snapshot —
    each kind of session tags its envelopes (``meta["kind"]``), so a
    serve snapshot must be audited with
    :class:`~repro.serve.ServeSession`, not the batch default.
    """
    from repro.checkpoint import CheckpointError, SimulationSession, read_snapshot

    if session_cls is None:
        session_cls = SimulationSession
    try:
        meta, _ = read_snapshot(path)
    except CheckpointError as exc:
        return [Violation(
            "ckpt-envelope", "checkpoint", f"envelope ({exc.kind}): {exc}"
        )]
    try:
        session = session_cls.restore(path, expected_config=expected_config)
    except CheckpointError as exc:
        return [Violation(
            "ckpt-restore", "checkpoint", f"restore ({exc.kind}): {exc}"
        )]

    problems: List[Violation] = []
    sim = session.sim
    for field, actual in (
        ("sim_time", sim.now),
        ("events_fired", sim.events_fired),
        ("pending_events", sim.pending_events),
        ("policy", session.policy_name),
        ("workload", session.workload),
        ("load", session.load),
        ("seed", session.config.seed),
    ):
        if meta.get(field) != actual:
            problems.append(Violation(
                "ckpt-meta", "checkpoint",
                f"meta {field} {meta.get(field)!r} does not describe the "
                f"restored graph ({actual!r})",
            ))
    pending_before = sim.pending_events
    try:
        sim.compact()
    except Exception as exc:  # SimulationError: _live invariant broken
        problems.append(Violation(
            "ckpt-compaction", "checkpoint",
            f"event-queue compaction invariant: {exc}",
        ))
    else:
        if sim.pending_events != pending_before:
            problems.append(Violation(
                "ckpt-compaction", "checkpoint",
                f"compaction changed the live event count "
                f"({pending_before} -> {sim.pending_events})",
            ))
    if meta.get("pending_events") == 0 and not session.complete:
        problems.append(Violation(
            "ckpt-wedged", "checkpoint",
            "no pending events but the run is not complete (wedged graph)",
        ))
    return _ordered(problems)


def validate_stream(session) -> List[Violation]:
    """Audit a streaming (:class:`~repro.serve.ServeSession`) service.

    Callable at *any* instant — between run-loop batches, at drain, or
    on a freshly restored session — because every invariant is stated
    over monotone counters and current live state:

    * **stream-conservation** — every submission is accounted exactly
      once (``submitted == admitted + shed_rejected``) and every
      admitted job is live or terminal
      (``admitted == live + completed + failed + shed_dropped``);
      requeues never exceed what the retry policy could have issued.
    * **stream-bounded-queue** — a configured ingress bound was honest:
      neither the current backlog nor the recorded peak ever exceeded
      the bound plus the retry re-entries issued (a killed job's retry
      re-enters without passing admission control — admitted work is
      never shed on retry — so retry-free runs get the strict bound).
    * **stream-recovery** — a restored pump consumed every journal
      replay expectation; leftovers mean the source under-drew and the
      restored stream is NOT a fixed point of the crashed one.
    """
    problems: List[Violation] = []
    stats = session.qs.stats
    qs = session.qs
    pump = session.pump

    live = qs.live_jobs
    if stats.submitted != stats.admitted + stats.shed_rejected:
        problems.append(Violation(
            "stream-conservation", "stream",
            f"submissions unaccounted: submitted {stats.submitted} != "
            f"admitted {stats.admitted} + rejected {stats.shed_rejected}",
        ))
    accounted = live + stats.completed + stats.failed + stats.shed_dropped
    if stats.admitted != accounted:
        problems.append(Violation(
            "stream-conservation", "stream",
            f"admissions unaccounted: admitted {stats.admitted} != "
            f"live {live} + completed {stats.completed} + failed "
            f"{stats.failed} + dropped {stats.shed_dropped}",
        ))
    # A job fails only on its max_retries-th kill, so it was requeued
    # (max_retries - 1) times before that — a floor on total requeues.
    requeue_floor = stats.failed * max(0, qs.retry.max_retries - 1)
    if stats.requeues < requeue_floor:
        problems.append(Violation(
            "stream-conservation", "stream",
            f"{stats.failed} job(s) failed after fewer total requeues "
            f"({stats.requeues}) than the retry policy mandates "
            f"(>= {requeue_floor})",
        ))

    bound = qs.ingress.max_queue
    if bound > 0:
        # The bound caps *admissions*; a killed job's retry re-enters
        # the queue without passing admission control (admitted work is
        # never shed on retry), so the provable cap is the bound plus
        # the retry re-entries ever issued — exactly the strict bound
        # in retry-free runs.  Found by the streaming fuzzer: a
        # crash-requeue under a full queue legitimately reaches
        # backlog == bound + 1.
        slack = bound + stats.requeues
        if len(qs.queue) > slack:
            problems.append(Violation(
                "stream-bounded-queue", "stream",
                f"backlog {len(qs.queue)} exceeds the ingress bound "
                f"{bound} plus {stats.requeues} retry re-entries",
            ))
        if qs.peak_queue > slack:
            problems.append(Violation(
                "stream-bounded-queue", "stream",
                f"recorded peak backlog {qs.peak_queue} exceeds the "
                f"ingress bound {bound} plus {stats.requeues} retry "
                f"re-entries (the bound lied)",
            ))
        if qs.ingress.policy != "block" and pump.blocked:
            problems.append(Violation(
                "stream-bounded-queue", "stream",
                f"pump holds a blocked arrival under the "
                f"{qs.ingress.policy!r} policy (only 'block' may hold)",
            ))

    if pump.replay:
        problems.append(Violation(
            "stream-recovery", "stream",
            f"{len(pump.replay)} journalled arrival(s) never re-drawn "
            f"after restore (first unconsumed seq "
            f"{pump.replay[0].seq}); the restored stream is not a "
            f"fixed point of the crashed one",
        ))
    if pump.done and qs.all_done and live != 0:
        problems.append(Violation(
            "stream-conservation", "stream",
            f"drained stream still reports {live} live job(s)",
        ))
    return _ordered(problems)


def validate_torture(reports, budget: int = 0) -> List[Violation]:
    """Check a storage-torture campaign's verdict and its coverage.

    *reports* is the :func:`repro.storage.protocols.run_torture`
    output.  Two kinds of violations:

    * ``torture-invariant`` — a protocol's recovery invariant failed
      in some crash/fault state (one violation per failed state
      message, capped at 20 per protocol to keep renderings bounded).
    * ``torture-coverage`` — the campaign claims a clean bill for every
      protocol but exercised fewer than
      :data:`TORTURE_STATE_FLOOR` distinct states; a "clean" verdict
      from a too-small campaign is not evidence.  Waived when the
      caller explicitly capped the per-protocol *budget* below 40
      states (smoke runs are allowed to be small, they are just not
      allowed to claim full coverage).
    """
    from repro.storage.protocols import PROTOCOL_NAMES

    problems: List[Violation] = []
    for report in reports:
        for message in report.violations[:20]:
            problems.append(Violation(
                "torture-invariant", "storage",
                f"{message}",
            ))
        overflow = len(report.violations) - 20
        if overflow > 0:
            problems.append(Violation(
                "torture-invariant", "storage",
                f"{report.protocol}: {overflow} further violation(s) "
                f"elided",
            ))
    covered = {report.protocol for report in reports}
    total = sum(report.states for report in reports)
    floor_applies = covered == set(PROTOCOL_NAMES) and (
        budget == 0 or budget >= 40
    )
    if floor_applies and total < TORTURE_STATE_FLOOR:
        problems.append(Violation(
            "torture-coverage", "storage",
            f"full campaign exercised only {total} distinct states "
            f"(floor: {TORTURE_STATE_FLOOR}) — enumeration shrank",
        ))
    return _ordered(problems)
