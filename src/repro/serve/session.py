"""The saveable open-system session and its arrival pump.

A :class:`ServeSession` is a :class:`~repro.checkpoint.SimulationSession`
whose jobs come from an :class:`~repro.serve.source.ArrivalSource`
instead of a preloaded list.  The :class:`ArrivalPump` keeps exactly
one next-arrival event pending on the simulator — a self-perpetuating
chain, so the event queue stays O(running jobs), never O(jobs drawn).

Recovery contract
-----------------
The pump notifies a host-side ``on_draw`` hook the instant a job is
drawn (the service journals it there, fsync'd, *before* the arrival is
scheduled).  The hook is host state — dropped on pickling like the
simulator's checkpoint hook.  On restore, the journal tail beyond the
snapshot's draw cursor becomes the pump's *replay expectations*: each
re-drawn arrival must match its journalled record bit-for-bit, or the
pump raises :class:`StreamDivergenceError` instead of letting the
restored run silently diverge from the crashed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.checkpoint.session import SimulationSession, config_digest
from repro.metrics.streaming import StreamingStats
from repro.metrics.trace import FoldingTraceRecorder, TraceRecorder
from repro.qs.job import Job
from repro.qs.streaming import ADMITTED, BLOCKED, SHED, IngressConfig, StreamingQS
from repro.serve.journal import JournalEntry
from repro.serve.source import ArrivalSource
from repro.sim.engine import Simulator
from repro.sim.slots import set_slot_state, slot_state

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentConfig

__all__ = [
    "ArrivalPump",
    "ServeConfig",
    "ServeSession",
    "StreamDivergenceError",
    "build_serve_session",
]


class StreamDivergenceError(RuntimeError):
    """A restored source re-drew an arrival the journal disagrees with.

    The recovery contract requires re-draws to be bit-identical to the
    journalled originals; divergence means the source is no longer the
    one that ran before the crash (different code, edited trace file,
    wrong seed) and continuing would silently corrupt the aggregates.
    """

    def __init__(self, expected: JournalEntry, job: Job) -> None:
        self.expected = expected
        self.job = job
        super().__init__(
            f"journal replay mismatch at seq {expected.seq}: journalled "
            f"(job={expected.job_id}, app={expected.app!r}, "
            f"submit={expected.submit!r}, request={expected.request}) but "
            f"source re-drew (job={job.job_id}, app={job.spec.name!r}, "
            f"submit={job.submit_time!r}, request={job.request})"
        )


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Service-level knobs layered over the experiment config.

    Attributes
    ----------
    ingress:
        Bounded-queue admission control (see
        :class:`~repro.qs.streaming.IngressConfig`).
    step_events:
        Events fired per run-loop batch; pruning, heartbeat and signal
        checks happen between batches, so this bounds their latency.
    heartbeat_seconds:
        Minimum wall-clock gap between status-file writes.
    watchdog_seconds:
        No-progress window after which the watchdog snapshots (best
        effort) and exits nonzero; ``None`` disables the watchdog.
    """

    ingress: IngressConfig = IngressConfig()
    step_events: int = 2048
    heartbeat_seconds: float = 1.0
    watchdog_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.step_events < 1:
            raise ValueError(f"step_events must be >= 1, got {self.step_events}")
        if self.heartbeat_seconds < 0:
            raise ValueError("heartbeat_seconds must be >= 0")
        if self.watchdog_seconds is not None and not self.watchdog_seconds > 0:
            raise ValueError("watchdog_seconds must be positive")


class ArrivalPump:
    """Feeds one source into one streaming queue, one event at a time.

    Exactly one next-arrival event is pending at any instant (none
    while the queue exerts backpressure under the ``block`` policy or
    after the source is exhausted), so the pump adds O(1) to the event
    queue and to every snapshot.
    """

    __slots__ = (
        "sim", "qs", "source", "blocked_job", "exhausted", "draining", "replay",
        "replay_verified", "on_draw", "_pending", "_resuming",
    )

    def __init__(self, sim: Simulator, qs: StreamingQS, source: ArrivalSource) -> None:
        self.sim = sim
        self.qs = qs
        self.source = source
        #: job held while the queue is full under the ``block`` policy
        self.blocked_job: Optional[Job] = None
        self.exhausted = False
        #: drain mode: stop drawing, let in-flight work finish
        self.draining = False
        #: journalled arrivals a restored source must re-draw verbatim
        self.replay: List[JournalEntry] = []
        self.replay_verified = 0
        #: host hook, fired as ``on_draw(seq, job)`` the instant a job
        #: is drawn (before its arrival is scheduled); not pickled
        self.on_draw: Optional[Callable[[int, Job], None]] = None
        self._pending = False
        self._resuming = False

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def blocked(self) -> bool:
        """Whether backpressure is currently holding an arrival."""
        return self.blocked_job is not None

    @property
    def done(self) -> bool:
        """No more arrivals will ever be delivered."""
        return (self.exhausted or self.draining) and not self.blocked

    def delivering(self) -> bool:
        """Whether more arrivals may still be delivered (``not done``)."""
        return not self.done

    def set_replay(self, entries: List[JournalEntry]) -> None:
        """Install the journal tail as replay-verify expectations."""
        self.replay = list(entries)
        self.replay_verified = 0

    # ------------------------------------------------------------------
    # the chain
    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Schedule the next arrival, if the chain is not already live.

        Idempotent; called once at service start and again after
        restore (the pending event itself is part of the snapshot, so
        a restored pump usually finds ``_pending`` already true).
        """
        if self._pending or self.blocked or self.done:
            return
        self._schedule_next()

    def _schedule_next(self) -> None:
        # Single-event discipline: offering a job can fire the queue's
        # capacity hook re-entrantly (admit → start → capacity free →
        # resume), so both resume() and _deliver() may ask for the next
        # draw in one stack — only the first request wins, or two
        # arrival chains would race and a later BLOCKED outcome could
        # overwrite (lose) a held job.
        if self._pending or self.blocked_job is not None or self.draining:
            return
        job = self._draw()
        if job is None:
            self.exhausted = True
            return
        self._pending = True
        # Clamp into the present: a restored clock may sit past the
        # submit time the source drew (SWF sources after a long outage).
        self.sim.schedule_at(
            max(job.submit_time, self.sim.now),
            self._deliver,
            job,
            label=f"arrival:{job.job_id}",
        )

    def _draw(self) -> Optional[Job]:
        job = self.source.draw()
        if job is None:
            return None
        seq = self.source.drawn
        if self.replay:
            expected = self.replay.pop(0)
            if expected.seq != seq or not expected.matches_job(job):
                raise StreamDivergenceError(expected, job)
            self.replay_verified += 1
        if self.on_draw is not None:
            self.on_draw(seq, job)
        return job

    def _deliver(self, job: Job) -> None:
        self._pending = False
        outcome = self.qs.offer(job)
        if outcome == BLOCKED:
            self.blocked_job = job
            return
        assert outcome in (ADMITTED, SHED)
        self._schedule_next()

    def resume(self) -> None:
        """Queue capacity freed: re-offer the held job, restart the chain.

        Wired to :attr:`StreamingQS.on_capacity_available`; re-entrant
        calls (offering the held job starts it, which frees capacity,
        which fires this hook again) are coalesced.
        """
        if self._resuming:
            return
        self._resuming = True
        try:
            while self.blocked_job is not None and self.qs.has_capacity:
                job = self.blocked_job
                self.blocked_job = None
                outcome = self.qs.offer(job)
                if outcome == BLOCKED:
                    self.blocked_job = job
                    return
            if self.blocked_job is None and not self._pending and not self.done:
                self._schedule_next()
        finally:
            self._resuming = False

    # ------------------------------------------------------------------
    # pickling: the host hook is not simulation state
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = slot_state(self)
        state["on_draw"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        set_slot_state(self, state)


class ServeSession(SimulationSession):
    """A streaming (open-system) session: source + pump + bounded QS.

    Snapshots carry the whole graph — source cursor and RNG streams,
    pump chain state (including a held blocked job and the pending
    arrival event), queue, RM, folded stats — so restore-and-continue
    is byte-identical in every aggregate.
    """

    KIND = "serve-session"

    __slots__ = ("serve_config", "source", "pump")

    def __init__(
        self,
        policy_name: str,
        load: float,
        config: "ExperimentConfig",
        serve_config: ServeConfig,
        sim: Simulator,
        rm: Any,
        qs: StreamingQS,
        trace: Any,
        source: ArrivalSource,
        pump: ArrivalPump,
    ) -> None:
        super().__init__(
            policy_name, load, config, sim, rm, qs, trace,
            workload=f"stream:{source.describe()['kind']}",
        )
        self.serve_config = serve_config
        self.source = source
        self.pump = pump

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StreamingStats:
        """The bounded-memory aggregates (owned by the queue)."""
        return self.qs.stats

    def serve_digest(self) -> str:
        """Digest over everything that defines *this* stream service."""
        return config_digest({
            "serve": self.serve_config,
            "ingress": self.qs.ingress,
            "source": self.source.describe(),
        })

    def meta(self, label: str = "") -> Dict[str, Any]:
        meta = super().meta(label=label)
        meta["serve_digest"] = self.serve_digest()
        meta["drawn"] = self.source.drawn
        meta["stats_digest"] = self.stats.digest()
        return meta

    @property
    def complete(self) -> bool:
        """Source exhausted (or draining), nothing held, nothing live."""
        return self.pump.done and bool(self.qs.all_done)

    # ------------------------------------------------------------------
    # bounded memory
    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Reclaim terminal jobs and their per-job RNG streams.

        Aggregates were folded at completion time, so pruning never
        changes a digest — only the working set.
        """
        return self.qs.prune_terminal(getattr(self.rm, "streams", None))

    def save(self, path: Any, label: str = "") -> None:
        """Prune, then snapshot — envelopes stay O(live jobs)."""
        self.prune()
        super().save(path, label=label)


def build_serve_session(
    policy_name: str,
    source: ArrivalSource,
    config: Optional["ExperimentConfig"] = None,
    serve_config: Optional[ServeConfig] = None,
    load: float = 0.0,
    reservoir_seed: int = 0,
    trace: Optional[TraceRecorder] = None,
) -> ServeSession:
    """Assemble the streaming twin of ``experiments.common.build_session``.

    Same resource-manager and fault wiring, with the bounded-memory
    parts swapped in: :class:`StreamingQS` for the queue, an
    :class:`ArrivalPump` instead of preloaded submissions and, unless
    *trace* names another recorder, a :class:`FoldingTraceRecorder`.
    A caller that checks the trace (the stream fuzz target) passes a
    :class:`TraceRecorder`, which keeps every record.
    """
    from repro.experiments.common import ExperimentConfig, build_queue, build_resource_manager

    config = config or ExperimentConfig()
    serve_config = serve_config or ServeConfig()
    ingress = serve_config.ingress
    sim = Simulator()
    if trace is None:
        trace = FoldingTraceRecorder(config.n_cpus)
    rm = build_resource_manager(policy_name, config, sim, trace)
    stats = StreamingStats(reservoir_seed=reservoir_seed)
    qs = build_queue(config, sim, rm, trace, lambda retry: StreamingQS(
        sim, rm, trace, retry=retry, ingress=ingress, stats=stats,
    ))
    pump = ArrivalPump(sim, qs, source)
    qs.on_capacity_available = pump.resume
    qs.source_open = pump.delivering
    return ServeSession(
        policy_name, load, config, serve_config,
        sim, rm, qs, trace, source, pump,
    )
