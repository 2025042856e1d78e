"""Incremental invariant oracle, callable on live simulation state.

:mod:`repro.validate` audits *completed* runs from their output shape
(records, bursts, fault logs).  The protocol fuzzer asserts invariants
between any two events instead, and this module is its oracle.  Each
invariant is implemented once:

* the trace invariants (``burst-sanity``, ``realloc-chain``) are
  :class:`repro.validate.TraceChecker`, one per trace, fed the records
  each op appended;
* the stream invariants are :func:`repro.validate.validate_stream`,
  run verbatim;
* the checks here are the ones that need the live object graph —
  machine books, RM tables, QS queues, the event heap — which a
  finished run no longer has.

Every check is incremental or stated over current state, so a call
costs O(new records + live state), not O(history).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.machine.machine import MachineError
from repro.qs.job import JobState
from repro.validate import TraceChecker, Violation, validate_run, validate_stream

if TYPE_CHECKING:
    from repro.fuzz.targets import FuzzTarget

#: tolerance for floating-point time comparisons (same as validate)
_EPS = 1e-6

class LiveOracle:
    """Audits a live :class:`~repro.fuzz.targets.FuzzTarget` mid-run.

    Stateful: a :class:`~repro.validate.TraceChecker` over the trace
    holds the cursors over the already-audited records, and the
    terminal states already observed are kept so terminal transitions
    are checked for monotonicity.  Checkpoint swaps are transparent —
    the restored graph is at the same point in history, so every
    cursor stays valid.
    """

    def __init__(self) -> None:
        #: checker of the target's trace, built on the first check
        self._checker: Optional[TraceChecker] = None
        #: job_id -> (state value, end_time) once terminal
        self._terminal: Dict[int, Tuple[str, Optional[float]]] = {}

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def check(self, target: "FuzzTarget") -> List[Violation]:
        """Run every per-rule check; returns violations (empty = ok)."""
        problems: List[Violation] = []
        problems.extend(self.check_cpu_books(target))
        problems.extend(self.check_cpu_conservation(target))
        problems.extend(self.check_fault_offline(target))
        problems.extend(self.check_alloc_bounds(target))
        problems.extend(self.check_mpl_bound(target))
        problems.extend(self.check_job_conservation(target))
        problems.extend(self.check_job_retry(target))
        problems.extend(self.check_trace(target))
        problems.extend(self.check_policy_sync(target))
        problems.extend(self.check_no_wedge(target))
        problems.extend(self.check_stream_invariants(target))
        return problems

    # ------------------------------------------------------------------
    # CPU conservation (validate: capacity, fault-capacity)
    # ------------------------------------------------------------------
    def check_cpu_books(self, target: "FuzzTarget") -> List[Violation]:
        """The machine's incremental books match its CPU ground truth."""
        try:
            target.rm.machine.check_invariants()
        except MachineError as exc:
            return [Violation("cpu-books", "alloc", str(exc))]
        return []

    def check_cpu_conservation(self, target: "FuzzTarget") -> List[Violation]:
        """No lost or phantom CPUs: free + allocated == healthy.

        Every allocatable CPU is either idle (free pool) or owned by
        exactly one partition; offline CPUs are neither.  The live
        counterpart of the post-hoc ``capacity`` and ``fault-capacity``
        sweeps: concurrent bursts can only exceed (healthy) capacity if
        this identity broke first.
        """
        problems = []
        machine = target.rm.machine
        free = machine.free_cpus
        allocated = machine.allocated_cpus
        healthy = machine.healthy_cpus
        if free + allocated != healthy:
            problems.append(Violation(
                "cpu-conservation", "alloc",
                f"free {free} + allocated {allocated} != healthy {healthy} "
                f"(of {machine.n_cpus}) — lost or phantom CPUs",
            ))
        total = sum(machine.allocations().values())
        if total != allocated:
            problems.append(Violation(
                "cpu-conservation", "alloc",
                f"partitions hold {total} CPUs but allocated count "
                f"says {allocated}",
            ))
        return problems

    def check_fault_offline(self, target: "FuzzTarget") -> List[Violation]:
        """No OFFLINE CPU may be owned (live form of offline-overlap)."""
        problems = []
        for cpu in target.rm.machine.cpus:
            if not cpu.allocatable and cpu.owner is not None:
                problems.append(Violation(
                    "fault-offline", "fault",
                    f"offline CPU {cpu.cpu_id} still owned by job {cpu.owner}",
                ))
        return problems

    # ------------------------------------------------------------------
    # allocation bounds and MPL (validate: realloc-chain bounds)
    # ------------------------------------------------------------------
    def check_alloc_bounds(self, target: "FuzzTarget") -> List[Violation]:
        """Every running job holds between 1 and ``request`` CPUs."""
        problems = []
        for job in target.running_jobs():
            alloc = target.rm.machine.allocation_of(job.job_id)
            if alloc < 1:
                problems.append(Violation(
                    "alloc-bounds", "alloc",
                    f"job {job.job_id}: running with allocation {alloc} < 1",
                ))
            assert job.request is not None
            if alloc > job.request:
                problems.append(Violation(
                    "alloc-bounds", "alloc",
                    f"job {job.job_id}: allocation {alloc} exceeds its "
                    f"request {job.request}",
                ))
        return problems

    def check_mpl_bound(self, target: "FuzzTarget") -> List[Violation]:
        """Fixed-MPL policies never run more jobs than their level."""
        fixed = target.fixed_mpl()
        if fixed is None:
            return []
        running = target.rm.running_count
        if running > fixed:
            return [Violation(
                "mpl-bound", "alloc",
                f"{running} jobs running under a fixed multiprogramming "
                f"level of {fixed}",
            )]
        return []

    # ------------------------------------------------------------------
    # job conservation (validate: job-accounting, fault-requeue-terminal)
    # ------------------------------------------------------------------
    def check_job_conservation(self, target: "FuzzTarget") -> List[Violation]:
        """Every job sits in exactly the bucket its state names.

        QUEUED jobs are in the FCFS queue or have a pending
        submit/requeue event (anything else is a lost job); RUNNING
        jobs are in the RM's table with a runtime; DONE/FAILED jobs are
        in the QS's terminal lists.  Timestamps must be causally
        ordered and never in the simulated future.
        """
        problems = []
        qs = target.qs
        now = target.sim.now
        labels = target.sim.live_labels()
        pending_submit = set()
        pending_requeue = set()
        for label in labels:
            if label.startswith("submit:"):
                pending_submit.add(int(label.split(":", 1)[1]))
            elif label.startswith("requeue:"):
                pending_requeue.add(int(label.split(":", 1)[1]))
        queued_ids = [job.job_id for job in qs.queue]
        running_ids = set(target.rm.jobs)
        completed_ids = [job.job_id for job in qs.completed]
        failed_ids = [job.job_id for job in qs.failed]
        for name, bucket in (
            ("queue", queued_ids),
            ("completed", completed_ids),
            ("failed", failed_ids),
        ):
            if len(set(bucket)) != len(bucket):
                problems.append(Violation(
                    "job-conservation", "job",
                    f"duplicate job ids in the {name} list: {bucket}",
                ))
        queued_set = set(queued_ids)
        completed_set = set(completed_ids)
        failed_set = set(failed_ids)
        for job in qs.jobs:
            jid = job.job_id
            places = []
            if jid in queued_set:
                places.append("queue")
            if jid in running_ids:
                places.append("running")
            if jid in completed_set:
                places.append("completed")
            if jid in failed_set:
                places.append("failed")
            if jid in pending_submit:
                places.append("pending-submit")
            if jid in pending_requeue:
                places.append("pending-requeue")
            if len(places) > 1:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: duplicated across {places}",
                ))
            state = job.state
            if state is JobState.QUEUED and not places:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: QUEUED but lost — not in the queue and "
                    f"no pending submit/requeue event",
                ))
            elif state is JobState.RUNNING and places != ["running"]:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: RUNNING but found in {places or 'nowhere'}",
                ))
            elif state is JobState.DONE and places != ["completed"]:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: DONE but found in {places or 'nowhere'}",
                ))
            elif state is JobState.FAILED and places != ["failed"]:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: FAILED but found in {places or 'nowhere'}",
                ))
            # Timestamps: causal order, never in the simulated future.
            if job.start_time is not None:
                if job.start_time < job.submit_time - _EPS:
                    problems.append(Violation(
                        "job-conservation", "job",
                        f"job {jid}: started at {job.start_time} before "
                        f"its submission at {job.submit_time}",
                    ))
                if job.start_time > now + _EPS:
                    problems.append(Violation(
                        "job-conservation", "job",
                        f"job {jid}: start time {job.start_time} lies in "
                        f"the future (now {now})",
                    ))
            if job.end_time is not None and job.end_time > now + _EPS:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: end time {job.end_time} lies in the "
                    f"future (now {now})",
                ))
            if (state in (JobState.DONE, JobState.FAILED)
                    and job.end_time is None):
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: terminal ({state.value}) without an "
                    f"end time",
                ))
        known = {job.job_id for job in qs.jobs}
        for jid in sorted(running_ids - known):
            problems.append(Violation(
                "job-conservation", "job",
                f"job {jid}: running in the RM but unknown to the QS "
                f"(phantom job)",
            ))
        runtime_ids = set(target.rm.runtimes)
        if runtime_ids != running_ids:
            problems.append(Violation(
                "job-conservation", "job",
                f"runtime table {sorted(runtime_ids)} disagrees with the "
                f"running table {sorted(running_ids)}",
            ))
        return problems

    def check_job_retry(self, target: "FuzzTarget") -> List[Violation]:
        """Retry accounting: attempts bounded, terminal states final."""
        problems = []
        max_retries = target.qs.retry.max_retries
        for job in target.qs.jobs:
            if job.attempts > max_retries + 1:
                problems.append(Violation(
                    "job-retry", "job",
                    f"job {job.job_id}: {job.attempts} killed runs exceed "
                    f"the retry budget of {max_retries}",
                ))
            if job.state is JobState.QUEUED and job.attempts > max_retries:
                problems.append(Violation(
                    "job-retry", "job",
                    f"job {job.job_id}: requeued after exhausting the "
                    f"retry budget ({job.attempts} > {max_retries})",
                ))
            if job.state in (JobState.DONE, JobState.FAILED):
                entry = (job.state.value, job.end_time)
                seen = self._terminal.get(job.job_id)
                if seen is None:
                    self._terminal[job.job_id] = entry
                elif seen != entry:
                    problems.append(Violation(
                        "job-retry", "job",
                        f"job {job.job_id}: terminal state changed from "
                        f"{seen} to {entry} — terminal states are final",
                    ))
        return problems

    # ------------------------------------------------------------------
    # trace invariants (burst-sanity, realloc-chain)
    # ------------------------------------------------------------------
    def check_trace(self, target: "FuzzTarget") -> List[Violation]:
        """Feed the trace's new records to the :class:`TraceChecker`."""
        trace = target.session.trace
        if self._checker is None:
            self._checker = TraceChecker(trace.n_cpus)
        return self._checker.feed(
            trace.bursts, trace.reallocations, trace.faults, target.sim.now
        )

    # ------------------------------------------------------------------
    # policy coherence
    # ------------------------------------------------------------------
    def check_policy_sync(self, target: "FuzzTarget") -> List[Violation]:
        """The policy's remembered allocations match the machine's.

        Report-driven policies (PDPA, Equal_efficiency) keep per-job
        allocation memory; a fault or forced allocation that bypasses
        ``note_forced_allocation`` desynchronises them, and their next
        decision resizes partitions from stale numbers.
        """
        policy = getattr(target.rm, "policy", None)
        states = getattr(policy, "states", None)
        if not isinstance(states, dict):
            return []
        problems = []
        for job_id in sorted(target.rm.jobs):
            state = states.get(job_id)
            believed = getattr(state, "allocation", None)
            if state is None or believed is None:
                continue
            actual = target.rm.machine.allocation_of(job_id)
            if believed != actual:
                problems.append(Violation(
                    "policy-sync", "alloc",
                    f"job {job_id}: policy believes allocation {believed} "
                    f"but the machine holds {actual}",
                ))
        return problems

    # ------------------------------------------------------------------
    # liveness (validate: ckpt-wedged)
    # ------------------------------------------------------------------
    def check_no_wedge(self, target: "FuzzTarget") -> List[Violation]:
        """An incomplete run must always have a pending event.

        Zero pending events with non-terminal jobs means nothing will
        ever fire again: queued jobs are lost, the graph is wedged.
        """
        if target.sim.pending_events == 0 and not target.qs.all_done:
            stuck = sorted(
                job.job_id for job in target.qs.jobs
                if job.state not in (JobState.DONE, JobState.FAILED)
            )
            return [Violation(
                "no-wedge", "job",
                f"no pending events but jobs {stuck} are not terminal "
                f"(wedged graph)",
            )]
        return []

    # ------------------------------------------------------------------
    # streaming invariants (validate: stream-conservation,
    # stream-bounded-queue, stream-recovery)
    # ------------------------------------------------------------------
    def check_stream_invariants(self, target: "FuzzTarget") -> List[Violation]:
        """Streaming targets pass the full stream audit at every cut.

        ``validate_stream`` is already stated over monotone counters
        and live state — callable at any instant — so the live oracle
        simply runs it verbatim: submissions conserved through
        admit/shed, the ingress bound honest (current backlog *and*
        recorded peak), and no journal replay expectation left behind.
        Batch targets have no streaming surface and return clean.
        """
        if not getattr(target, "is_stream", False):
            return []
        return validate_stream(target.session)


def final_audit(target: "FuzzTarget") -> List[Violation]:
    """Post-hoc audit of a fully drained target.

    After a drain that completed every job, the live session must also
    satisfy the *post-hoc* validators — the completed run is harvested
    through ``session.finish()`` and passed to ``validate_run``, which
    adds the checks that need a finished run's job records and whole
    trace (job accounting, capacity, trace consistency, fault
    invariants) and re-checks the flushed final bursts.

    Incomplete targets return no problems here (the live oracle's
    ``no-wedge`` check already flagged a wedge).  Streaming targets
    folded (and pruned) their records as jobs finished, so their
    post-hoc audit is ``validate_stream`` over the drained session
    instead of ``validate_run`` over a harvest.
    """
    if not target.qs.all_done:
        return []
    if target.is_stream:
        return validate_stream(target.session)
    return validate_run(target.session.finish())
