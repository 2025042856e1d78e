"""NthLib: the parallel runtime that executes jobs on the simulator.

NthLib is the application-level half of the coordination protocol: it
"requests for processors and reacts to changes in the number of
processors allocated to the application".  In this reproduction it

* drives the job through its phases (sequential startup, the
  iterative parallel region, sequential teardown) as simulator events,
* reads the allocation granted by the resource manager at every
  iteration boundary (malleability happens at parallel-region
  boundaries, exactly as for a real OpenMP code),
* runs the SelfAnalyzer's baseline measure on a reduced processor
  count, and forwards its performance reports to the resource manager.

The resource manager side of the protocol is any object implementing
the callbacks documented on :class:`RuntimeHost`.

Iteration spans
---------------
Most iteration ends change nothing anyone else can see: no report is
due, or the report is ignored (Equipartition) or leaves a settled
PDPA job where it is.  So every iteration end is scheduled as an
*absorbable* event
(:meth:`~repro.sim.engine.Simulator.schedule_absorbable`) whose owner
is the runtime: it holds the iteration in flight, its processors and
duration, and the engine calls its :meth:`NthLibRuntime.absorb` at
the end's instant.  The runtime asks whether the SelfAnalyzer reports
now and, if it does, hands the host the report's processors and
speedup (:meth:`RuntimeHost.absorb_report`), which proves the report
a no-op and applies it in one pass.  If no report is due or the host
takes it, the runtime finishes the iteration on the spot — the same
iteration count, SelfAnalyzer counters and next-iteration draws as the
event would have made, but no
:class:`~repro.runtime.selfanalyzer.PerformanceReport` — and no event
fires.  Otherwise nothing has changed and :meth:`NthLibRuntime.fire`
runs as the usual ``iter:`` event.  The absorbed ends before one that
fires form an *iteration span*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional, Union

from repro.apps.application import IterativeApplication
from repro.qs.job import Job
from repro.runtime.selfanalyzer import PerformanceReport, SelfAnalyzer, SelfAnalyzerConfig
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams


class RuntimeHost:
    """Interface NthLib expects from the resource manager.

    The default implementations raise so that partial hosts fail
    loudly; :class:`repro.rm.manager.SpaceSharedResourceManager` and
    :class:`repro.rm.irix.IrixResourceManager` provide the real
    behaviour.
    """

    __slots__ = ()

    def current_allocation(self, job: Job) -> int:
        """Processors currently granted to *job* (its thread count)."""
        raise NotImplementedError

    def iteration_speedup(self, job: Job, nominal_procs: int) -> float:
        """Execution rate (speedup over sequential) of the next iteration.

        Asked once per iteration, as it begins on *nominal_procs*.  The
        host evaluates the application's speedup curve at the processor
        share the iteration really gets — *nominal_procs* under space
        sharing, the fractional CPU share of the job's threads under
        the time-shared IRIX model — folds rigid applications onto
        their partition, and applies whatever slows the partition down
        (memory locality, degraded nodes).
        """
        raise NotImplementedError

    def deliver_report(self, job: Job, report: PerformanceReport) -> None:
        """Receive a SelfAnalyzer performance report."""
        raise NotImplementedError

    def absorb_report(self, job: Job, procs: int, speedup: float) -> bool:
        """Take a report of *speedup* on *procs* if it is a no-op.

        Called at the instant the report is due, in place of
        :meth:`deliver_report`.  Answers True, having made the state
        changes delivering it would have made, only when delivering it
        could neither move an allocation nor change what the queuing
        system is told; otherwise answers False having changed
        nothing.  The default takes no report.

        An iteration end that makes no report, or whose report this
        hook takes, completes without an event and skips
        ``deliver_report`` with the state-change notification to the
        queuing system.  So nothing else a host does may depend on
        when an iteration ends.
        """
        return False

    def job_completed(self, job: Job) -> None:
        """Notification that *job* finished its last phase."""
        raise NotImplementedError


class JobPhase(enum.Enum):
    """Execution phases of an iterative application."""

    CREATED = "created"
    STARTUP = "startup"
    ITERATING = "iterating"
    TEARDOWN = "teardown"
    DONE = "done"
    #: torn down by the resource manager after a fault (crash, hang,
    #: lost partition); the host is NOT notified of completion
    ABORTED = "aborted"


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """Execution-model parameters.

    Attributes
    ----------
    noise_sigma:
        Log-normal sigma of per-iteration execution jitter.  The
        paper's measurements are noisy; this is what makes
        Equal_efficiency "too sensitive to small changes in the
        efficiency measurements".
    use_selfanalyzer:
        Whether the job is instrumented.  The native IRIX runtime
        (SGI-MP library) has no SelfAnalyzer and never reports.
    analyzer:
        SelfAnalyzer configuration (ignored when disabled).
    reset_analyzer_on_phase_change:
        When True, the SelfAnalyzer re-measures its baseline at every
        declared work-phase boundary — the compiler-inserted reset the
        paper's §3.1 proposes for applications with variable working
        sets.  Only applies to phases declared in the application
        spec (a compiler knows them; a binary-only run does not).
    """

    noise_sigma: float = 0.015
    use_selfanalyzer: bool = True
    analyzer: SelfAnalyzerConfig = SelfAnalyzerConfig()
    reset_analyzer_on_phase_change: bool = False

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


class NthLibRuntime:
    """Executes one job's phases as discrete events."""

    __slots__ = (
        "sim", "job", "host", "config", "app", "analyzer",
        "_streams", "_noise_stream", "phase", "_procs", "_duration", "_pending",
        "hung",
    )

    def __init__(
        self,
        sim: Simulator,
        job: Job,
        host: RuntimeHost,
        streams: RandomStreams,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.sim = sim
        self.job = job
        self.host = host
        self.config = config or RuntimeConfig()
        self.app = IterativeApplication(job.spec)
        # The SelfAnalyzer requires malleability (it controls the
        # baseline processor count); rigid MPI-style jobs run
        # uninstrumented, as in the paper's §6 status quo.
        use_analyzer = self.config.use_selfanalyzer and job.spec.malleable
        self.analyzer: Optional[SelfAnalyzer] = (
            SelfAnalyzer(job.job_id, self.config.analyzer) if use_analyzer else None
        )
        self._streams = streams
        self._noise_stream = f"iter-noise:{job.job_id}"
        self.phase = JobPhase.CREATED
        #: processors and duration of the iteration in flight (of the
        #: last one begun; 0 processors before the first)
        self._procs = 0
        self._duration = 0.0
        #: handle of the next scheduled phase event (for abort/hang)
        self._pending: Optional[Union[Event, List[Any]]] = None
        #: True once hang() froze this runtime (it stops progressing
        #: but stays in its phase, exactly like a livelocked binary)
        self.hung = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin execution (called by the RM once a partition exists)."""
        if self.phase is not JobPhase.CREATED:
            raise RuntimeError(f"job {self.job.job_id}: started twice")
        self.phase = JobPhase.STARTUP
        duration = self.job.spec.t_startup * self._noise()
        self._pending = self.sim.schedule_after(
            duration, self._startup_done, label=f"startup:{self.job.job_id}"
        )

    def _startup_done(self) -> None:
        self.phase = JobPhase.ITERATING
        self._begin_iteration()

    def _begin_iteration(self) -> None:
        app = self.app
        job = self.job
        iteration = app.completed_iterations
        if iteration >= app.spec.iterations:
            self._begin_teardown()
            return
        analyzer = self.analyzer
        if (
            analyzer is not None
            and self.config.reset_analyzer_on_phase_change
            and any(start == iteration for start, _ in job.spec.work_phases)
        ):
            analyzer.reset_baseline()
        host = self.host
        allocation = host.current_allocation(job)
        if allocation < 1:
            raise RuntimeError(
                f"job {job.job_id}: zero allocation while iterating"
            )
        procs = allocation
        if analyzer is not None and analyzer.in_baseline:
            procs = analyzer.baseline_allocation(allocation)
        last = self._procs
        duration = app.iteration_duration_from_speedup(
            host.iteration_speedup(job, procs),
            procs - last if last else 0,
            self._streams.lognormal_factor(self._noise_stream, self.config.noise_sigma),
        )
        self._procs = procs
        self._duration = duration
        self._pending = self.sim.schedule_absorbable(
            duration, self, f"iter:{job.job_id}:{iteration}"
        )

    def fire(self) -> None:
        """End the iteration in flight as an event (engine hook)."""
        app = self.app
        iteration = app.completed_iterations
        app.record_iteration()
        analyzer = self.analyzer
        if analyzer is not None:
            report = analyzer.on_iteration(
                self.sim.now, iteration, self._procs, self._duration
            )
            if report is not None:
                self.host.deliver_report(self.job, report)
        self._begin_iteration()

    def absorb(self) -> bool:
        """End the iteration in flight without an event if its report is
        a no-op (engine hook).

        Returns False, having changed nothing, when the host declines
        the report the SelfAnalyzer is about to make: the end then
        fires, for the full delivery path.
        """
        analyzer = self.analyzer
        if analyzer is not None:
            procs = self._procs
            duration = self._duration
            if analyzer.would_report(procs) and not self.host.absorb_report(
                self.job, procs, analyzer.estimate_speedup(procs, duration)
            ):
                return False
            analyzer.commit(procs, duration)
        self.app.record_iteration()
        self._begin_iteration()
        return True

    def _begin_teardown(self) -> None:
        self.phase = JobPhase.TEARDOWN
        duration = self.job.spec.t_teardown * self._noise()
        self._pending = self.sim.schedule_after(
            duration, self._complete, label=f"teardown:{self.job.job_id}"
        )

    def _complete(self) -> None:
        self.phase = JobPhase.DONE
        self._pending = None
        self.app.finished = True
        self.host.job_completed(self.job)

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    def abort(self) -> None:
        """Tear the runtime down without completing the job.

        Cancels whatever phase event is in flight; the host is *not*
        notified (the resource manager calls this while killing the
        job, so it already knows).  Idempotent.
        """
        if self.phase in (JobPhase.DONE, JobPhase.ABORTED):
            return
        if self._pending is not None:
            self.sim.cancel(self._pending)
            self._pending = None
        self.phase = JobPhase.ABORTED

    def hang(self) -> None:
        """Freeze the runtime: it keeps its processors but never
        progresses again (a livelock/deadlock model).

        Only a watchdog kill (:meth:`abort` via the resource manager)
        gets the processors back.  Hanging a finished runtime is a
        no-op.
        """
        if self.phase in (JobPhase.DONE, JobPhase.ABORTED):
            return
        if self._pending is not None:
            self.sim.cancel(self._pending)
            self._pending = None
        self.hung = True

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _noise(self) -> float:
        return self._streams.lognormal_factor(self._noise_stream, self.config.noise_sigma)

    @property
    def progress(self) -> float:
        """Fraction of iterations completed, in [0, 1]."""
        return self.app.completed_iterations / self.job.spec.iterations
