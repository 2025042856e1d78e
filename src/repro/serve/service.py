"""The long-lived serve process: run loop, signals, heartbeat, watchdog.

:class:`ServeService` wraps a :class:`~repro.serve.session.ServeSession`
with everything a *process* needs that a *session* must not contain —
an fsync'd arrival journal, periodic checkpoint envelopes, an atomic
status file other processes can poll, POSIX signal handling, and a
no-progress watchdog.  All of it is host state: none of it enters the
snapshot, so a snapshot taken by a service restores into a bare
session (or a differently-configured service) unchanged.

Exit protocol
-------------
* ``0`` — drained: the source was exhausted (or a SIGTERM asked for a
  graceful drain) and every admitted job reached a terminal state.
* :data:`EXIT_DEADLOCK` (4) — the event queue emptied with work still
  admitted or held: the configuration cannot make progress (e.g. a
  held arrival requests more CPUs than the machine has).
* :data:`EXIT_WEDGED` (3) — the watchdog saw no progress for its
  window; a best-effort snapshot and a ``wedged`` status record are
  written first, so the operator restarts from the last good state.
* :data:`EXIT_STORAGE` (5) — the arrival journal lost durability
  (fsyncgate: a failed fsync may have dropped acknowledged bytes).
  The service stops drawing *new* arrivals immediately — an arrival
  that cannot be journalled must never enter the system — finishes
  everything already admitted, then exits with this code so the
  operator knows the journal tail cannot be trusted past its last
  good record.  Status-file and autosnapshot write failures are
  softer: they are counted in the ``storage_errors`` status field and
  the service keeps running (losing a heartbeat or a snapshot costs
  observability and recovery granularity, not correctness).

Wall-clock discipline: the service never reads a host clock directly —
it takes an injected :class:`~repro.experiments.clock.ReportClock`
(tests inject a fake), keeping the determinism lint's single
wall-clock-site rule intact.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.checkpoint.errors import CheckpointError
from repro.checkpoint.session import CheckpointPlan
from repro.experiments.clock import ReportClock
from repro.qs.job import Job
from repro.serve.journal import ArrivalJournal, JournalEntry
from repro.serve.session import ServeSession
from repro.storage.layer import JournalWriteError, StorageLayer, default_storage

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentConfig

__all__ = [
    "EXIT_DEADLOCK",
    "EXIT_STORAGE",
    "EXIT_WEDGED",
    "ServeService",
    "read_status",
    "write_status_payload",
]

logger = logging.getLogger(__name__)

#: watchdog saw no progress for its whole window
EXIT_WEDGED = 3
#: event queue drained with admitted/held work that can never start
EXIT_DEADLOCK = 4
#: the arrival journal lost durability; drained admitted work, then left
EXIT_STORAGE = 5

#: status-file schema version
STATUS_VERSION = 1


def read_status(path: os.PathLike) -> Optional[Dict[str, Any]]:
    """Parse a service status file; ``None`` if absent or torn.

    The writer replaces the file atomically, so a torn read can only
    mean the service never completed its first heartbeat.
    """
    try:
        raw = Path(path).read_text()
    except OSError:
        return None
    try:
        status = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(status, dict) or status.get("v") != STATUS_VERSION:
        return None
    return status


def write_status_payload(path: os.PathLike, payload: str,
                         storage: Optional[StorageLayer] = None) -> None:
    """Durably and atomically publish one status *payload* at *path*.

    tmp file → write → flush → **fsync** → ``os.replace``.  The fsync
    before the rename matters: without it a crash shortly after the
    rename can publish a zero-length or torn file (the rename is
    metadata and may reach disk before the data does), breaking the
    "status file is always old-or-new, never torn" contract that
    :func:`read_status` relies on.  Raises ``OSError`` on failure —
    the caller decides whether a lost heartbeat is fatal.
    """
    layer = storage if storage is not None else default_storage()
    layer.write_atomic(
        Path(path), payload.encode("utf-8"),
        sync_file=True, sync_dir=False,
    )


class ServeService:
    """Host-side driver for one streaming session.

    Parameters
    ----------
    session:
        The (fresh or restored) :class:`ServeSession` to drive.
    journal_path:
        Arrival journal file; ``None`` disables journalling (and with
        it, verified recovery).
    status_path:
        Heartbeat status file; ``None`` disables the heartbeat.
    checkpoint:
        Autosnapshot plan; ``None`` disables periodic envelopes (the
        final drain snapshot is still written when a plan exists).
    clock:
        Injected wall clock for heartbeat pacing and uptime.
    journal:
        A pre-opened journal (the restore path), overriding
        *journal_path*.
    storage:
        The :class:`~repro.storage.layer.StorageLayer` the status
        writer, the snapshots and a journal built from *journal_path*
        go through; defaults to the pass-through layer.
    """

    def __init__(
        self,
        session: ServeSession,
        journal_path: Optional[os.PathLike] = None,
        status_path: Optional[os.PathLike] = None,
        checkpoint: Optional[CheckpointPlan] = None,
        clock: Optional[ReportClock] = None,
        journal: Optional[ArrivalJournal] = None,
        storage: Optional[StorageLayer] = None,
    ) -> None:
        self.session = session
        self.checkpoint = checkpoint
        self.status_path = Path(status_path) if status_path else None
        self.clock = clock or ReportClock()
        self.storage = storage if storage is not None else default_storage()
        self.journal: Optional[ArrivalJournal]
        if journal is not None:
            self.journal = journal
        elif journal_path is not None:
            self.journal = ArrivalJournal(
                journal_path, resume=False, storage=self.storage
            )
        else:
            self.journal = None
        if self.journal is not None:
            self.session.pump.on_draw = self._journal_draw
        self.heartbeats = 0
        self.exit_code: Optional[int] = None
        #: status/snapshot writes that failed and were survived
        self.storage_errors = 0
        self._drain_requested = False
        self._in_step = False
        self._last_beat: Optional[float] = None
        self._watchdog_progress = -1
        self._prev_sigterm: Any = None
        self._prev_sigalrm: Any = None
        self._storage_failed: Optional[JournalWriteError] = None
        self._storage_error_logged = False

    # ------------------------------------------------------------------
    # construction from a crash
    # ------------------------------------------------------------------
    @classmethod
    def restore(
        cls,
        snapshot_path: os.PathLike,
        journal_path: os.PathLike,
        expected_config: Optional["ExperimentConfig"] = None,
        expected_policy: Optional[str] = None,
        status_path: Optional[os.PathLike] = None,
        checkpoint: Optional[CheckpointPlan] = None,
        clock: Optional[ReportClock] = None,
    ) -> "ServeService":
        """Rebuild a service from its last snapshot plus journal tail.

        The journal entries beyond the snapshot's draw cursor become
        the pump's replay expectations: the restored source re-draws
        them deterministically and each is verified against its
        journalled record before any genuinely new arrival is drawn.
        """
        session = ServeSession.restore(
            Path(snapshot_path),
            expected_config=expected_config,
            expected_policy=expected_policy,
        )
        journal = ArrivalJournal(journal_path, resume=True)
        session.pump.set_replay(journal.tail_after(session.source.drawn))
        return cls(
            session,
            status_path=status_path,
            checkpoint=checkpoint,
            clock=clock,
            journal=journal,
        )

    # ------------------------------------------------------------------
    # journalling
    # ------------------------------------------------------------------
    def _journal_draw(self, group: List[Tuple[int, Job]]) -> None:
        assert self.journal is not None
        self.journal.append(
            [JournalEntry.from_job(seq, job) for seq, job in group]
        )

    # ------------------------------------------------------------------
    # heartbeat
    # ------------------------------------------------------------------
    def status(self, phase: str) -> Dict[str, Any]:
        """The liveness answers an operator polls for."""
        session = self.session
        stats = session.stats
        qs = session.qs
        return {
            "v": STATUS_VERSION,
            "phase": phase,
            "pid": os.getpid(),
            "uptime": self.clock.elapsed(),
            "heartbeats": self.heartbeats,
            "sim_time": session.sim.now,
            "events_fired": session.sim.events_fired,
            "drawn": session.source.drawn,
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "completed": stats.completed,
            "failed": stats.failed,
            "shed": stats.shed,
            "shed_rate": stats.shed / stats.submitted if stats.submitted else 0.0,
            "backlog": len(qs.queue),
            "running": qs.rm.running_count,
            "blocked": session.pump.blocked,
            "overloaded": qs.overloaded,
            "utilization": session.trace.cpu_utilization(session.sim.now),
            "healthy_cpus": qs.healthy_capacity,
            "stats_digest": stats.digest(),
            "storage_errors": self.storage_errors,
            "journal_broken": bool(
                self.journal is not None and self.journal.broken is not None
            ),
        }

    def write_status(self, phase: str) -> None:
        """Durably replace the status file (tmp + fsync + rename).

        A failed write is survivable — it is counted (and exposed as
        the ``storage_errors`` status field once writes recover) and
        logged once, but never stops the service: a stale heartbeat
        is strictly better than no service.
        """
        if self.status_path is None:
            return
        self.heartbeats += 1
        payload = json.dumps(self.status(phase), sort_keys=True)
        try:
            write_status_payload(self.status_path, payload + "\n", self.storage)
        except OSError as exc:
            self._count_storage_error("status write", exc)

    def _count_storage_error(self, what: str, exc: BaseException) -> None:
        self.storage_errors += 1
        if not self._storage_error_logged:
            self._storage_error_logged = True
            logger.warning(
                "%s failed (%s: %s) — continuing; further storage errors "
                "will be counted in the status file silently",
                what, type(exc).__name__, exc,
            )

    def _maybe_heartbeat(self, phase: str) -> None:
        if self.status_path is None:
            return
        now = self.clock.elapsed()
        gap = self.session.serve_config.heartbeat_seconds
        if self._last_beat is None or now - self._last_beat >= gap:
            self._last_beat = now
            self.write_status(phase)

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Stop drawing new arrivals; finish what was admitted."""
        self._drain_requested = True

    def _note_journal_failure(self, exc: JournalWriteError) -> None:
        """The journal is permanently broken: drain, then EXIT_STORAGE.

        An arrival that cannot be made durable must never enter the
        system — a crash would silently lose it from recovery — so
        drawing stops immediately.  Admitted work finishes normally:
        its arrivals are already journalled.
        """
        if self._storage_failed is None:
            self._storage_failed = exc
            logger.error(
                "arrival journal lost durability (%s) — draining admitted "
                "work, then exiting with EXIT_STORAGE", exc,
            )
        self._drain_requested = True
        self.session.pump.draining = True

    def _on_sigterm(self, signum: int, frame: Any) -> None:
        self.request_drain()

    def _on_sigalrm(self, signum: int, frame: Any) -> None:
        progress = self._progress_marker()
        if progress != self._watchdog_progress:
            self._watchdog_progress = progress
            self._arm_watchdog()
            return
        # No progress for a whole window: leave evidence, then die
        # loudly.  Snapshot only from a safe point — the alarm may have
        # interrupted an event callback mid-mutation.
        try:
            if not self._in_step and self.checkpoint is not None:
                self.session.save(
                    self.checkpoint.path, label="wedged", storage=self.storage
                )
        except Exception:
            pass
        try:
            self.write_status("wedged")
        except Exception:
            pass
        os._exit(EXIT_WEDGED)

    def _progress_marker(self) -> int:
        return self.session.sim.events_fired + self.session.source.drawn

    def _arm_watchdog(self) -> None:
        window = self.session.serve_config.watchdog_seconds
        if window is not None:
            signal.alarm(max(1, int(window)))

    def _install_signals(self) -> bool:
        if threading.current_thread() is not threading.main_thread():
            return False
        self._prev_sigterm = signal.signal(signal.SIGTERM, self._on_sigterm)
        if self.session.serve_config.watchdog_seconds is not None:
            self._prev_sigalrm = signal.signal(signal.SIGALRM, self._on_sigalrm)
            self._watchdog_progress = self._progress_marker()
            self._arm_watchdog()
        return True

    def _uninstall_signals(self, installed: bool) -> None:
        if not installed:
            return
        signal.signal(signal.SIGTERM, self._prev_sigterm)
        if self._prev_sigalrm is not None:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, self._prev_sigalrm)
            self._prev_sigalrm = None

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, handle_signals: bool = True) -> int:
        """Drive the session until drained (or dead); return exit code.

        The loop alternates bounded simulation slices with host work:
        fire up to ``step_events`` events, prune terminal jobs, beat
        the heart, honor a requested drain.  The simulator's own
        checkpoint hook fires *between* events inside the slice, so
        autosnapshot cadence is independent of the slice size.
        """
        session = self.session
        installed = self._install_signals() if handle_signals else False
        if self.checkpoint is not None:
            plan = self.checkpoint

            def autosave() -> None:
                try:
                    session.save(plan.path, label="auto", storage=self.storage)
                except (OSError, CheckpointError) as exc:
                    # A missed autosnapshot widens the recovery window;
                    # it does not corrupt anything (the previous
                    # envelope is intact), so the service survives it.
                    self._count_storage_error("autosnapshot", exc)

            session.sim.set_checkpoint_hook(autosave, plan.every_events)
        try:
            try:
                session.pump.prime()
            except JournalWriteError as exc:
                self._note_journal_failure(exc)
            self._maybe_heartbeat("running")
            while True:
                if self._drain_requested and not session.pump.draining:
                    session.pump.draining = True
                self._in_step = True
                try:
                    fired = session.sim.step(session.serve_config.step_events)
                except JournalWriteError as exc:
                    # The group that could not be journalled was
                    # dropped before any of it entered the system;
                    # everything already admitted is unaffected.  Count
                    # the slice as progress and keep draining.
                    self._note_journal_failure(exc)
                    fired = 1
                finally:
                    self._in_step = False
                session.prune()
                phase = "draining" if session.pump.draining else "running"
                self._maybe_heartbeat(phase)
                if fired == 0:
                    if self._drain_requested and not session.pump.draining:
                        continue
                    break
            if not session.complete:
                # Nothing pending, nothing fired, work still admitted
                # or held: this configuration can never finish.
                self.exit_code = EXIT_DEADLOCK
                final_phase = "deadlock"
            elif self._storage_failed is not None:
                self.exit_code = EXIT_STORAGE
                final_phase = "storage"
            else:
                self.exit_code = 0
                final_phase = "drained"
            if self.checkpoint is not None:
                try:
                    session.save(
                        self.checkpoint.path, label=final_phase,
                        storage=self.storage,
                    )
                except (OSError, CheckpointError) as exc:
                    self._count_storage_error("final snapshot", exc)
            self.write_status(final_phase)
            return self.exit_code
        finally:
            if self.checkpoint is not None:
                session.sim.clear_checkpoint_hook()
            self._uninstall_signals(installed)
            if self.journal is not None:
                self.journal.close()
            session.source.close()
