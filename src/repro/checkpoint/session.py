"""Checkpointable simulation sessions.

A :class:`SimulationSession` bundles every live component of one
workload execution — the :class:`~repro.sim.engine.Simulator` (clock +
event queue, including each pending event's callback and arguments),
the resource manager with its machine/CPU/NUMA bookkeeping and RNG
streams, the queuing system, the application runtimes hanging off the
scheduled events, the fault-injector schedule, and the
:class:`~repro.metrics.trace.TraceRecorder` metrics accumulators —
into one object graph that can be

* **run** to completion (optionally autosnapshotting every N events
  or sim-seconds),
* **saved** between two events as one pickle of the whole graph inside
  a checksummed :mod:`repro.checkpoint.format` envelope, and
* **restored** later — in the same process or a fresh one — to
  continue exactly where it stopped.

Determinism contract
--------------------
A snapshot is taken *between* events, so it captures a well-defined
prefix of the event history.  Restoring it and running to completion
produces **byte-identical** results to the uninterrupted run: the
pickle preserves RNG stream states exactly (``random.Random`` state is
exact), event order (heap + insertion sequence counter), float values
bit-for-bit, and the shared-object structure of the graph (one pickle
= one graph, so the restored RM, QS and events still point at the same
machine and jobs).  Host-side attachments — race-detector observers
and the checkpoint hook itself — are *not* simulation state and are
dropped on save (see ``Simulator.__getstate__``); re-attach after
restore if needed.

Safety contract
---------------
Restore refuses, with a typed
:class:`~repro.checkpoint.errors.CheckpointMismatchError`, any
snapshot whose **code version** (digest over every ``repro`` source
file) or **experiment config digest** differs from the caller's: the
continued half of the run would be computed by different rules than
the first half, which can only produce silently-wrong output.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.checkpoint.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
)
from repro.checkpoint.format import read_snapshot, write_snapshot
from repro.parallel.cache import canonical_dumps, code_version

if TYPE_CHECKING:  # import cycle: common builds sessions
    from repro.experiments.common import ExperimentConfig, RunOutput
    from repro.metrics.trace import TraceRecorder
    from repro.qs.queuing import NanosQS
    from repro.rm.manager import BaseResourceManager
    from repro.sim.engine import Simulator

#: pickle protocol for snapshot payloads — 4 is supported by every
#: Python this package runs on, so snapshots written under one minor
#: version restore under another (the code-version check still pins
#: the *repro* sources exactly).
PICKLE_PROTOCOL = 4


def config_digest(config: Any) -> str:
    """Stable SHA-256 of one experiment configuration.

    Uses the same canonical encoding as the sweep cache, so two
    configs digest equal iff the cache would treat them as the same
    experiment.
    """
    return hashlib.sha256(canonical_dumps(config).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CheckpointPlan:
    """Where and how often a running session autosnapshots.

    Attributes
    ----------
    path:
        Snapshot file; each save atomically replaces the previous one,
        so the file always holds the latest complete snapshot.
    every_events:
        Snapshot after every N logical events (``None`` disables):
        fired events plus iteration ends absorbed without firing
        (:attr:`~repro.sim.engine.Simulator.logical_events`), so the
        cadence is the one the per-iteration event path would have.
    every_sim_seconds:
        Snapshot when simulation time advances this far past the last
        snapshot (``None`` disables).  Both cadences may be active;
        whichever trips first wins.
    """

    path: Path
    every_events: Optional[int] = None
    every_sim_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every_events is not None and self.every_events < 1:
            raise ValueError(
                f"every_events must be >= 1, got {self.every_events}"
            )
        if self.every_sim_seconds is not None and self.every_sim_seconds <= 0:
            raise ValueError(
                f"every_sim_seconds must be positive, got {self.every_sim_seconds}"
            )
        if self.every_events is None and self.every_sim_seconds is None:
            raise ValueError(
                "checkpoint plan needs every_events and/or every_sim_seconds"
            )


class SimulationSession:
    """One workload execution as a saveable/restorable object graph.

    Built by :func:`repro.experiments.common.build_session` (or
    rebuilt by :meth:`restore`); driven by :meth:`run`; harvested by
    :meth:`finish`.
    """

    #: envelope kind tag; subclasses (the serve session) override it so
    #: a snapshot can never be restored as the wrong session flavour
    KIND = "simulation-session"

    __slots__ = (
        "policy_name", "load", "config", "sim", "rm", "qs", "trace", "jobs",
        "workload", "request_overrides",
    )

    def __init__(
        self,
        policy_name: str,
        load: float,
        config: "ExperimentConfig",
        sim: "Simulator",
        rm: "BaseResourceManager",
        qs: "NanosQS",
        trace: "TraceRecorder",
        jobs: List[Any],
        workload: Optional[str] = None,
        request_overrides: Optional[Dict[str, int]] = None,
    ) -> None:
        self.policy_name = policy_name
        self.load = load
        self.config = config
        self.sim = sim
        self.rm = rm
        self.qs = qs
        self.trace = trace
        self.jobs = jobs
        self.workload = workload
        self.request_overrides = request_overrides

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def meta(self, label: str = "") -> Dict[str, Any]:
        """The envelope meta describing this session at this instant."""
        return {
            "kind": self.KIND,
            "code_version": code_version(),
            "config_digest": config_digest(self.config),
            "policy": self.policy_name,
            "workload": self.workload,
            "load": self.load,
            "seed": self.config.seed,
            "request_overrides": (
                dict(self.request_overrides) if self.request_overrides else None
            ),
            "sim_time": self.sim.now,
            "events_fired": self.sim.events_fired,
            "pending_events": self.sim.pending_events,
            "label": label,
        }

    @property
    def complete(self) -> bool:
        """Whether every job has reached a terminal state."""
        return bool(self.qs.all_done)

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def save(self, path: Path, label: str = "") -> None:
        """Snapshot this session to *path* (atomic, checksummed).

        Compacts the event queue first, so lazily-deleted (cancelled)
        events do not bloat the payload.  Safe to call from inside the
        run loop via the autosnapshot hook: the pickled simulator
        always restores in a runnable (not mid-``run``) state.
        """
        self.sim.compact()
        payload = pickle.dumps(self, protocol=PICKLE_PROTOCOL)
        write_snapshot(path, self.meta(label=label), payload)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    @classmethod
    def restore(
        cls,
        path: Path,
        expected_config: Optional["ExperimentConfig"] = None,
        expected_policy: Optional[str] = None,
        expected_workload: Optional[str] = None,
        expected_load: Optional[float] = None,
    ) -> "SimulationSession":
        """Load a snapshot, verifying integrity and compatibility.

        Raises the :mod:`repro.checkpoint.errors` taxonomy: corrupt
        envelopes and undecodable payloads raise
        :class:`CheckpointCorruptError`; a snapshot written by
        different ``repro`` sources, or for a different experiment
        than the caller expects, raises
        :class:`CheckpointMismatchError` — never a silently-wrong run.
        """
        meta, payload = read_snapshot(path)
        if meta.get("kind") != cls.KIND:
            raise CheckpointMismatchError(
                path, "kind", cls.KIND, meta.get("kind")
            )
        current = code_version()
        if meta.get("code_version") != current:
            raise CheckpointMismatchError(
                path, "code_version", current, meta.get("code_version")
            )
        if expected_config is not None:
            expected_digest = config_digest(expected_config)
            if meta.get("config_digest") != expected_digest:
                raise CheckpointMismatchError(
                    path, "config", expected_digest, meta.get("config_digest")
                )
        if expected_policy is not None and meta.get("policy") != expected_policy:
            raise CheckpointMismatchError(
                path, "policy", expected_policy, meta.get("policy")
            )
        if expected_workload is not None and meta.get("workload") != expected_workload:
            raise CheckpointMismatchError(
                path, "workload", expected_workload, meta.get("workload")
            )
        if expected_load is not None and meta.get("load") != expected_load:
            raise CheckpointMismatchError(
                path, "load", expected_load, meta.get("load")
            )
        try:
            session = pickle.loads(payload)
        except Exception as exc:  # unpicklable payload = corrupt snapshot
            raise CheckpointCorruptError(
                path, f"payload does not unpickle: {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(session, cls):
            raise CheckpointCorruptError(
                path, f"payload is {type(session).__name__}, not a session"
            )
        # Defense in depth: the embedded config must agree with the
        # digest the envelope advertised (and was matched against).
        if config_digest(session.config) != meta.get("config_digest"):
            raise CheckpointCorruptError(
                path, "embedded config disagrees with envelope config_digest"
            )
        return session

    # ------------------------------------------------------------------
    # drive
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        sanitizer: Optional[Any] = None,
        checkpoint: Optional[CheckpointPlan] = None,
    ) -> float:
        """Run the simulation (to completion unless *until* is given).

        *sanitizer* attaches the event-race detector for the duration
        of this call; *checkpoint* installs the periodic autosnapshot
        hook.  Both are detached afterwards — neither is part of the
        saveable simulation state.
        """
        if sanitizer is not None:
            self.sim.attach_observer(sanitizer)
        if checkpoint is not None:
            plan = checkpoint

            def autosave() -> None:
                self.save(plan.path, label="auto")

            self.sim.set_checkpoint_hook(
                autosave,
                every_events=plan.every_events,
                every_sim_seconds=plan.every_sim_seconds,
            )
        try:
            return float(self.sim.run(
                until=until, max_events=self.config.max_events
            ))
        finally:
            if checkpoint is not None:
                self.sim.clear_checkpoint_hook()
            if sanitizer is not None:
                self.sim.detach_observer()

    # ------------------------------------------------------------------
    # harvest
    # ------------------------------------------------------------------
    def finish(self) -> "RunOutput":
        """Collect the completed run's metrics into a ``RunOutput``.

        Byte-identical whether the session ran uninterrupted or was
        restored any number of times along the way.
        """
        from repro.experiments.common import RunOutput
        from repro.metrics.paraver import burst_statistics, max_mpl
        from repro.metrics.stats import JobRecord, WorkloadResult
        from repro.qs.job import JobState

        if not self.qs.all_done:
            unfinished = [job.job_id for job in self.qs.unfinished_jobs()]
            raise RuntimeError(
                f"{self.policy_name}: workload did not complete; "
                f"unfinished jobs {unfinished}"
            )
        self.rm.finalize()

        # FAILED jobs have no completion record but still count in the
        # result so availability analyses see them.
        done_jobs = [job for job in self.jobs if job.state is JobState.DONE]
        records = [JobRecord.from_job(job) for job in done_jobs]
        stats = burst_statistics(self.trace)
        makespan = max((r.end_time for r in records), default=0.0)
        result = WorkloadResult(
            policy=self.policy_name,
            load=self.load,
            records=records,
            makespan=makespan,
            migrations=stats.migrations,
            avg_burst_time=stats.avg_burst_time,
            avg_bursts_per_cpu=stats.avg_bursts_per_cpu,
            reallocations=self.rm.reallocation_count,
            max_mpl=max_mpl(self.trace),
            cpu_utilization=self.trace.cpu_utilization(makespan),
            failed=len(self.qs.failed),
        )
        return RunOutput(
            result=result, trace=self.trace, rm=self.rm, jobs=list(self.jobs)
        )
