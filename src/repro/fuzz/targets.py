"""Live Simulator+RM+QS sessions wrapped as fuzzable targets.

A :class:`FuzzTarget` is one policy's full coordination stack — the
DES engine, the resource manager, the queuing system, and the trace
recorder — assembled exactly as the experiment runner assembles it,
but driven op-by-op instead of to completion.
The stimulus layer (:mod:`repro.fuzz.stimulus`) mutates it; the oracle
(:mod:`repro.fuzz.oracle`) audits it between any two events.

The target also owns the checkpoint round-trip: save the session at
the current cut point, audit the snapshot with ``validate_checkpoint``,
restore it, prove the restored graph is at the same point in history
(fingerprint equality) and is a serialization fixed point (a second
and third save are byte-identical), then **continue the fuzz run on
the restored graph** — every op after a checkpoint op exercises the
restored object graph, not the original.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.speedup import AmdahlSpeedup, TabulatedSpeedup
from repro.checkpoint.format import read_snapshot
from repro.checkpoint.session import SimulationSession
from repro.experiments.common import ExperimentConfig, build_session
from repro.metrics.trace import TraceRecorder
from repro.qs.job import Job
from repro.qs.queuing import NanosQS, RetryConfig
from repro.qs.streaming import BLOCKED, IngressConfig
from repro.qs.workload import TABLE1_MIXES
from repro.serve.session import ServeConfig, build_serve_session
from repro.serve.source import SyntheticSource
from repro.sim.engine import Simulator
from repro.validate import Violation, validate_checkpoint, validate_stream

#: machine size of every fuzz target
FUZZ_N_CPUS = 16

#: policies the fuzzer drives, batch and streaming alike (IRIX is
#: time-shared — no partitions, no fault surface — so the
#: space-sharing invariants do not apply to it)
FUZZ_POLICIES: Tuple[str, ...] = ("Equip", "Equal_eff", "PDPA")

#: ingress bound of streaming targets — small enough that a handful of
#: submissions reaches the shed path
FUZZ_INGRESS_QUEUE = 3

#: retry budget small enough that the fuzzer reaches FAILED routinely
FUZZ_RETRY = RetryConfig(max_retries=1, backoff_base=1.0, backoff_cap=4.0)

#: event budget for drains — far above any stimulus the fuzzer emits
_DRAIN_MAX_EVENTS = 200_000


def _fuzz_apps() -> Dict[str, ApplicationSpec]:
    """Small, fast applications exercising every scalability shape."""
    linear = ApplicationSpec(
        name="fz-linear",
        app_class=AppClass.SUPERLINEAR,
        speedup_model=AmdahlSpeedup(0.0, name="fz-linear"),
        iterations=4,
        t_iter_seq=2.0,
        t_startup=0.1,
        t_teardown=0.1,
        default_request=8,
    )
    amdahl = ApplicationSpec(
        name="fz-amdahl",
        app_class=AppClass.MEDIUM,
        speedup_model=AmdahlSpeedup(0.2, name="fz-amdahl"),
        iterations=3,
        t_iter_seq=1.5,
        t_startup=0.1,
        t_teardown=0.1,
        default_request=6,
    )
    flat = ApplicationSpec(
        name="fz-flat",
        app_class=AppClass.NONE,
        speedup_model=TabulatedSpeedup(
            [(1, 1.0), (2, 1.3), (4, 1.5), (8, 1.55)], name="fz-flat"
        ),
        iterations=3,
        t_iter_seq=1.5,
        t_startup=0.1,
        t_teardown=0.1,
        default_request=4,
    )
    rigid = ApplicationSpec(
        name="fz-rigid",
        app_class=AppClass.HIGH,
        speedup_model=AmdahlSpeedup(0.05, name="fz-rigid"),
        iterations=3,
        t_iter_seq=1.5,
        t_startup=0.1,
        t_teardown=0.1,
        default_request=4,
        malleable=False,
    )
    return {spec.name: spec for spec in (linear, amdahl, flat, rigid)}


FUZZ_APPS: Dict[str, ApplicationSpec] = _fuzz_apps()


def fuzz_config(seed: int) -> ExperimentConfig:
    """The experiment config every fuzz target runs under."""
    return ExperimentConfig(n_cpus=FUZZ_N_CPUS, seed=seed, duration=60.0)


class FuzzTarget:
    """One policy's coordination stack, driven op-by-op.

    Parameters
    ----------
    policy:
        One of :data:`FUZZ_POLICIES`.
    seed:
        Master seed for the session's RNG streams.
    stream:
        ``True`` builds the open-system serve stack instead of the
        batch session: a :class:`~repro.qs.streaming.StreamingQS` with
        a small bounded ingress queue (shed policy picked
        deterministically from the seed) behind an exhausted arrival
        pump, so every fuzz submission goes through admission control
        and the bounded-memory fold/prune path.
    """

    def __init__(self, policy: str, seed: int = 0, stream: bool = False) -> None:
        if policy not in FUZZ_POLICIES:
            raise ValueError(
                f"unknown fuzz policy {policy!r}; expected one of {FUZZ_POLICIES}"
            )
        self.policy = policy
        self.seed = seed
        self.stream = stream
        self.n_cpus = FUZZ_N_CPUS
        self._next_job_id = 1 if stream else 0
        self._snapdir: Optional[str] = None
        config = fuzz_config(seed)
        if stream:
            self.session = _build_stream_session(policy, config)
        else:
            self.session = build_session(policy, [], config, load=0.0)
        # A small retry budget so the FAILED path is reachable; the
        # experiment assembly only wires retry when a fault plan is
        # configured, and the fuzzer injects faults directly.
        self.session.qs.retry = FUZZ_RETRY

    # ------------------------------------------------------------------
    # component access (valid across checkpoint swaps)
    # ------------------------------------------------------------------
    @property
    def sim(self) -> Simulator:
        """The session's simulator (rebinds after a checkpoint swap)."""
        return self.session.sim

    @property
    def rm(self) -> Any:
        """The resource manager."""
        return self.session.rm

    @property
    def qs(self) -> NanosQS:
        """The queuing system."""
        return self.session.qs

    @property
    def is_stream(self) -> bool:
        """Whether this target drives the open-system serve stack."""
        return self.stream

    def fixed_mpl(self) -> Optional[int]:
        """The policy's fixed multiprogramming level, if it has one."""
        policy = getattr(self.rm, "policy", None)
        return getattr(policy, "fixed_mpl", None)

    def running_jobs(self) -> List[Job]:
        """Jobs currently executing, ordered by id."""
        return [self.rm.jobs[job_id] for job_id in sorted(self.rm.jobs)]

    # ------------------------------------------------------------------
    # stimulus surface
    # ------------------------------------------------------------------
    def submit(self, app: str, request: int) -> Job:
        """Submit one job of application *app* at the current time.

        Streaming targets go through :meth:`StreamingQS.offer`, so a
        submission over a full ingress queue is shed (or evicts the
        queue head) exactly as the service would shed it.
        """
        spec = FUZZ_APPS[app]
        request = max(1, min(request, self.n_cpus))
        job = Job(
            job_id=self._next_job_id,
            spec=spec,
            submit_time=self.sim.now,
            request=request,
        )
        self._next_job_id += 1
        if self.is_stream:
            # offer() owns the accounting; reject/drop-oldest never
            # return BLOCKED.
            outcome = self.qs.offer(job)
            assert outcome != BLOCKED
        else:
            self.qs.submit(job)
        return job

    def prune(self) -> int:
        """Reclaim terminal jobs (streaming only; no-op elsewhere).

        The deterministic guard for the ``prune`` op: batch sessions
        keep every job for the final summary, so pruning them would
        change the universe the post-hoc validators audit.
        """
        if not self.is_stream:
            return 0
        return self.session.prune()

    def step_events(self, n: int) -> int:
        """Fire up to *n* pending events; returns the number fired."""
        return self.sim.step(n)

    def advance_time(self, dt: float) -> None:
        """Run the simulation *dt* simulated seconds forward."""
        self.sim.run(until=self.sim.now + dt, max_events=_DRAIN_MAX_EVENTS)

    def drain(self) -> None:
        """Fire events until the queue empties or every job is terminal."""
        while self.sim.pending_events > 0 and not self.qs.all_done:
            if self.sim.step(10_000) == 0:
                break

    # ------------------------------------------------------------------
    # checkpoint round-trip (the PR 5 machinery, mid-fuzz)
    # ------------------------------------------------------------------
    def checkpoint_roundtrip(self) -> List[Violation]:
        """Save, audit, restore, verify, and continue on the restored graph.

        The oracle contract for checkpoints at an arbitrary cut point:

        * the snapshot passes ``validate_checkpoint`` (envelope
          integrity, code/config gates, meta-vs-graph agreement);
        * the restored session is at the same point in history — same
          clock, same fired-event count, same job states, same
          partitions, same live events (fingerprint equality);
        * restore→save is a serialization **fixed point**: saving the
          restored session twice yields byte-identical payloads and
          identical metas (the first save may differ from the original
          byte stream only through pickle memoization, never in meaning).

        On success the target swaps to the restored session, so every
        subsequent op replays against state that went through disk.
        """
        problems: List[Violation] = []
        snapdir = self._ensure_snapdir()
        first = snapdir / "roundtrip-1.ckpt"
        second = snapdir / "roundtrip-2.ckpt"
        third = snapdir / "roundtrip-3.ckpt"
        # Serve sessions prune inside save(); prune *before* taking the
        # reference fingerprint so both sides describe the pruned graph.
        if self.is_stream:
            self.session.prune()
        fp_before = self.fingerprint()
        session_cls = type(self.session)
        self.session.save(first)
        problems.extend(validate_checkpoint(
            first, expected_config=self.session.config, session_cls=session_cls
        ))
        if problems:
            return problems
        restored = session_cls.restore(
            first, expected_config=self.session.config
        )
        fp_restored = _session_fingerprint(restored)
        if fp_restored != fp_before:
            problems.append(Violation(
                "ckpt-roundtrip", "checkpoint",
                f"restored session is at a different point in history: "
                f"{_fingerprint_diff(fp_before, fp_restored)}",
            ))
            return problems
        if self.is_stream:
            problems.extend(self._stream_roundtrip_checks(restored))
            if problems:
                return problems
        restored.save(second)
        again = session_cls.restore(second, expected_config=self.session.config)
        again.save(third)
        meta2, payload2 = read_snapshot(second)
        meta3, payload3 = read_snapshot(third)
        if payload2 != payload3:
            problems.append(Violation(
                "ckpt-roundtrip", "checkpoint",
                f"restore→save is not a fixed point: second and third "
                f"round-trip payloads differ ({len(payload2)} vs "
                f"{len(payload3)} bytes)",
            ))
        meta1, _ = read_snapshot(first)
        for key in ("sim_time", "events_fired", "pending_events",
                    "config_digest", "policy", "seed"):
            values = {meta1.get(key), meta2.get(key), meta3.get(key)}
            if len(values) != 1:
                problems.append(Violation(
                    "ckpt-roundtrip", "checkpoint",
                    f"meta field {key!r} drifts across round trips: "
                    f"{meta1.get(key)} / {meta2.get(key)} / {meta3.get(key)}",
                ))
        if _session_fingerprint(again) != fp_before:
            problems.append(Violation(
                "ckpt-roundtrip", "checkpoint",
                "second restore is at a different point in history than "
                "the session that was saved",
            ))
        if problems:
            return problems
        # Continue the run on the graph that went through disk.
        self.session = again
        return problems

    def _stream_roundtrip_checks(self, restored: Any) -> List[Violation]:
        """Serve-specific round-trip contract: aggregates and invariants.

        The restored stream must report byte-identical bounded-memory
        aggregates (the ``StreamingStats`` digest) and must itself pass
        every streaming invariant — a snapshot that resurrects an
        invalid stream is as broken as one that loses a job.
        """
        problems: List[Violation] = []
        before = self.session.stats.digest()
        after = restored.stats.digest()
        if before != after:
            problems.append(Violation(
                "ckpt-roundtrip", "checkpoint",
                f"restored streaming aggregates diverge: stats digest "
                f"{before} -> {after}",
            ))
        problems.extend(validate_stream(restored))
        return problems

    def _ensure_snapdir(self) -> Path:
        if self._snapdir is None:
            self._snapdir = tempfile.mkdtemp(prefix="repro-fuzz-")
        return Path(self._snapdir)

    def close(self) -> None:
        """Delete scratch snapshot files."""
        if self._snapdir is not None:
            shutil.rmtree(self._snapdir, ignore_errors=True)
            self._snapdir = None

    def __enter__(self) -> "FuzzTarget":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> Tuple[Any, ...]:
        """Deterministic digest of the observable simulation state.

        Two sessions with equal fingerprints are at the same point in
        history: same clock, same event counts, same live events, same
        job lifecycle timestamps, same partitions.  Used to prove
        checkpoint round-trips and replay determinism.
        """
        return _session_fingerprint(self.session)


def _session_fingerprint(session: SimulationSession) -> Tuple[Any, ...]:
    jobs = tuple(
        (job.job_id, job.state.value, job.submit_time, job.start_time,
         job.end_time, job.attempts)
        for job in session.qs.jobs
    )
    allocations = tuple(sorted(session.rm.machine.allocations().items()))
    # Streaming sessions fold terminal jobs into bounded aggregates and
    # prune the objects — the digest is the part of history the job
    # tuple no longer carries.
    stats = getattr(session, "stats", None)
    stats_digest = stats.digest() if stats is not None else None
    return (
        jobs,
        session.sim.now,
        session.sim.events_fired,
        session.sim.pending_events,
        tuple(session.sim.live_labels()),
        allocations,
        stats_digest,
    )


def _fingerprint_diff(before: Tuple[Any, ...], after: Tuple[Any, ...]) -> str:
    names = ("jobs", "now", "events_fired", "pending_events", "live_labels",
             "allocations", "stats_digest")
    parts = [
        f"{name}: {b!r} -> {a!r}"
        for name, b, a in zip(names, before, after)
        if b != a
    ]
    return "; ".join(parts) if parts else "(no observable difference)"


def _build_stream_session(policy: str, config: ExperimentConfig) -> Any:
    """Assemble the serve stack as a fuzz target.

    The source is a real :class:`SyntheticSource` capped at
    ``max_jobs=0``: priming the pump exhausts it immediately, so every
    arrival comes from fuzz ``submit`` ops through ``offer()`` — the
    fuzzer controls the interleaving, not a Poisson clock — while the
    pump/queue/stats wiring stays exactly the service's.  The trace
    keeps every record (the service folds them), so the oracle's run
    checker sees this target's bursts, reallocations and faults.  The
    shed policy alternates with the seed so both deterministic
    shedding modes are fuzzed (``block`` needs a cooperating pump and
    is exercised by the serve unit tests instead).
    """
    ingress = IngressConfig(
        max_queue=FUZZ_INGRESS_QUEUE,
        policy=("reject", "drop-oldest")[config.seed % 2],
    )
    source = SyntheticSource(
        TABLE1_MIXES["w2"],
        load=1.0,
        n_cpus=config.n_cpus,
        seed=config.seed,
        max_jobs=0,
    )
    session = build_serve_session(
        policy,
        source,
        config=config,
        serve_config=ServeConfig(ingress=ingress),
        trace=TraceRecorder(config.n_cpus),
    )
    session.pump.prime()  # draws nothing (max_jobs=0) and exhausts
    return session
