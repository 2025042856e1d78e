"""NthLib: the parallel runtime that executes jobs on the simulator.

NthLib is the application-level half of the coordination protocol: it
"requests for processors and reacts to changes in the number of
processors allocated to the application".  In this reproduction it

* drives the job through its phases (sequential startup, the
  iterative parallel region, sequential teardown) as simulator events,
* reads the allocation granted by the resource manager at every
  iteration boundary (malleability happens at parallel-region
  boundaries, exactly as for a real OpenMP code),
* runs the SelfAnalyzer's baseline iteration on one processor, and
  forwards its performance reports to the resource manager.

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
the end's instant.  The runtime steps the SelfAnalyzer inline and, if
a report is due, judges it by its plan's no-op band or hands the host
the report's processors and speedup
(:meth:`RuntimeHost.absorb_report`), which proves the report a no-op
and applies it in one pass.  If no report is due or the report is a
no-op, the runtime finishes the iteration on the spot — the same
iteration count, SelfAnalyzer state and next-iteration draws as the
event would have made, but no
:class:`~repro.runtime.selfanalyzer.PerformanceReport` — and no event
fires.  Otherwise nothing has changed and :meth:`NthLibRuntime.fire`
runs as the usual ``iter:`` event.  The absorbed ends before one that
fires form an *iteration span*.  The runtime reads what its iterations
need from the host once, as an :class:`IterationPlan`, and keeps it
until the host drops it, so a settled job's ends make no host call.

A job whose plan is held begins its next iteration without asking its
host: it lasts the plan's base times a draw from the job's own noise
generator (both dropped on pickle, like the plan).  The base folds in
the partition's fault factor and, while the job's locality record
recovers, the locality factor at the iteration's start.  An absorbed
end whose plan the host dropped or that is the baseline's, and the end
of a job's last iteration, go through
:meth:`NthLibRuntime._begin_iteration`.  The absorbable entry holds the iteration's index, not its
``iter:<job>:<i>`` label, which :meth:`NthLibRuntime.event_label`
renders only when the engine is asked for it.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.application import IterativeApplication
from repro.machine.memory import LocalityModel, LocalityRecord
from repro.qs.job import Job
from repro.runtime.selfanalyzer import PerformanceReport, SelfAnalyzer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, lognormal_noise
from repro.sim.slots import set_slot_state, slot_state


@dataclass(slots=True)
class IterationPlan:
    """What a job's iterations read from their host, until it drops it.

    *procs* is the *allocation*, or one processor for the
    SelfAnalyzer's baseline iteration, and *speedup* the curve (or folded)
    speedup at them.  *locality* and *record* are the locality model
    and the job's record while the record recovers (None otherwise);
    *fault* is the partition's fault factor.  *band* is the policy's
    no-op band ``(lo, hi, top)`` (see
    :meth:`~repro.rm.base.SchedulingPolicy.report_band`) or None: a
    report it settles changes only its time in *report_times*, the
    host's table.  Snapshots do not carry plans (derived state).
    """

    allocation: int
    procs: int
    speedup: float
    locality: Optional[LocalityModel]
    record: Optional[LocalityRecord]
    fault: float
    band: Optional[Tuple[float, float, float]]
    report_times: Dict[int, float]


class RuntimeHost:
    """Interface NthLib expects from the resource manager.

    The default implementations raise so that partial hosts fail
    loudly; :class:`repro.rm.manager.SpaceSharedResourceManager` and
    :class:`repro.rm.irix.IrixResourceManager` provide the real
    behaviour.
    """

    __slots__ = ()

    def iteration_plan(self, job: Job, baseline: bool) -> IterationPlan:
        """The plan for *job*'s next iterations.

        *baseline* is True for the SelfAnalyzer's baseline iteration,
        which runs on one processor.  The speedup is the curve's at the processor share the
        iterations really get — the processors under space sharing, the
        CPU share of the job's threads under the time-shared IRIX
        model — with rigid applications folded onto their partition.
        The host drops the runtime's plan (``runtime.plan = None``)
        wherever anything it holds changes.
        """
        raise NotImplementedError

    def free_cpus(self) -> int:
        """Processors no job holds (read for a report above a band's hi)."""
        raise NotImplementedError

    def deliver_report(self, job: Job, report: PerformanceReport) -> None:
        """Receive a SelfAnalyzer performance report."""
        raise NotImplementedError

    def absorb_report(self, job: Job, procs: int, speedup: float) -> bool:
        """Take a report of *speedup* on *procs* if it is a no-op.

        Called at the instant the report is due, in place of
        :meth:`deliver_report`, unless the plan's band settles it.
        Answers True, having made the state changes delivering it would
        have made, only when delivering it could neither move an
        allocation nor change what the queuing system is told;
        otherwise answers False having changed nothing.  The default
        takes no report.

        An iteration end that makes no report, or whose report the band
        or this hook takes, completes without an event and skips
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
    """

    noise_sigma: float = 0.015
    use_selfanalyzer: bool = True

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


class NthLibRuntime:
    """Executes one job's phases as discrete events."""

    __slots__ = (
        "sim", "job", "host", "config", "app", "analyzer",
        "_streams", "_noise_stream", "phase", "_procs", "_duration", "_pending",
        "hung", "plan", "_base", "_rng",
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
            SelfAnalyzer(job.job_id) if use_analyzer else None
        )
        self._streams = streams
        self._noise_stream = f"iter-noise:{job.job_id}"
        self.phase = JobPhase.CREATED
        #: processors and duration of the iteration in flight (of the
        #: last one begun; 0 processors before the first)
        self._procs = 0
        self._duration = 0.0
        #: handle of the next scheduled phase event (for abort/hang)
        self._pending: Optional[List[Any]] = None
        #: True once hang() froze this runtime (it stops progressing
        #: but stays in its phase, exactly like a livelocked binary)
        self.hung = False
        #: the host's plan for the next iterations (None: ask for one)
        self.plan: Optional[IterationPlan] = None
        #: the held plan's iteration duration before noise, when it is
        #: the same for every iteration (None for a plan whose locality
        #: record recovers; reset when a plan is read): absorb() begins
        #: the next iteration from it
        self._base: Optional[float] = None
        #: the job's noise stream, held for absorb() (None until a
        #: held plan with noise needs it)
        self._rng: Optional[random.Random] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = slot_state(self)
        # derived state: the generator lives on in the pickled streams
        del state["plan"], state["_base"], state["_rng"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        set_slot_state(self, state)
        self.plan = None
        self._base = None
        self._rng = None

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
        self._begin_iteration(self.sim.now)

    def _begin_iteration(self, now: float) -> None:
        app = self.app
        job = self.job
        spec = app.spec
        iteration = app.completed_iterations
        if iteration >= spec.iterations:
            self._begin_teardown()
            return
        plan = self.plan
        if plan is None:
            analyzer = self.analyzer
            baseline = analyzer is not None and analyzer._t_base is None
            plan = self.host.iteration_plan(job, baseline)
            if plan.allocation < 1:
                raise RuntimeError(f"job {job.job_id}: zero allocation while iterating")
            # the baseline is this one iteration: keep no plan for it
            self.plan = None if baseline else plan
            self._base = None
        procs = plan.procs
        speedup = plan.speedup
        if plan.locality is not None:
            speedup *= plan.locality.factor(plan.record, now)
        if plan.fault != 1.0:
            speedup *= plan.fault
        last = self._procs
        sigma = self.config.noise_sigma
        duration = app.iteration_duration_from_speedup(
            speedup,
            procs - last if last else 0,
            self._streams.lognormal_factor(self._noise_stream, sigma),
        )
        self._procs = procs
        self._duration = duration
        if self.plan is plan:
            # held: absorb() begins the plan's next iterations.  The
            # base is iteration_duration_from_speedup's, in its float
            # order, before its noise factor; while the locality record
            # recovers, absorb() computes it at each iteration's start.
            if plan.locality is None:
                self._base = (spec.t_iter_seq / speedup) * (1.0 + spec.measurement_overhead)
            if sigma > 0.0 and self._rng is None:
                self._rng = self._streams.stream(self._noise_stream)
        self._pending = self.sim.schedule_absorbable(duration, self, iteration)

    def event_label(self, iteration: int) -> str:
        """The label of the iteration end scheduled for *iteration*.

        Absorbable entries hold the iteration index; the engine renders
        it through this only when a label is read.
        """
        return f"iter:{self.job.job_id}:{iteration}"

    def fire(self) -> None:
        """End the iteration in flight as an event (engine hook)."""
        app = self.app
        iteration = app.completed_iterations
        app.record_iteration()
        now = self.sim.now
        analyzer = self.analyzer
        if analyzer is not None:
            report = analyzer.on_iteration(now, iteration, self._procs, self._duration)
            if report is not None:
                self.host.deliver_report(self.job, report)
        self._begin_iteration(now)

    def absorb(self) -> bool:
        """End the iteration in flight without an event if its report is
        a no-op (engine hook).

        The SelfAnalyzer's rule runs inline (see
        :mod:`repro.runtime.selfanalyzer`).  A report the plan's band
        settles changes only the report time; any other goes to the
        host.  Returns False, having changed nothing, when the host
        declines it: the end then fires, for the full delivery path.

        A runtime whose plan is still the one it read begins the next
        iteration in place, unless the iteration just ended is the
        job's last.  The next iteration lasts the plan's base times a
        draw from the job's own generator: the allocation is the
        plan's, so there is no reallocation penalty.  The base is the
        one :meth:`_begin_iteration` kept, or, while the job's locality
        record recovers, its float operations redone here with the
        locality factor at *now*.  Every other end, and one whose
        report makes the host drop the plan, begins it through
        :meth:`_begin_iteration`.  tests/test_spans.py checks that both
        end alike.
        """
        # the entry's time: the engine is at this end's instant
        now: float = self._pending[0]  # type: ignore[index]
        analyzer = self.analyzer
        plan = self.plan
        if analyzer is not None:
            procs = self._procs
            t_base = analyzer._t_base
            if t_base is None:
                analyzer._t_base = self._duration
            elif procs == analyzer._last_procs:
                speedup = t_base / self._duration
                if 1e-6 > speedup:
                    speedup = 1e-6
                band = None if plan is None else plan.band
                efficiency = speedup / procs
                if band is not None and (
                    band[0] <= efficiency <= band[1]
                    or band[1] < efficiency <= band[2] and self.host.free_cpus() == 0
                ):
                    plan.report_times[self.job.job_id] = now  # type: ignore[union-attr]
                elif not self.host.absorb_report(self.job, procs, speedup):
                    return False
            analyzer._last_procs = procs
        app = self.app
        # record_iteration without its guards: this iteration began, so
        # the application is unfinished and below its iteration count
        iteration = app.completed_iterations + 1
        app.completed_iterations = iteration
        spec = app.spec
        if plan is not None and self.plan is plan and iteration < spec.iterations:
            base = self._base
            if base is None:
                # LocalityModel.factor inline, then _begin_iteration's
                # speedup and base, each in its float order
                record: LocalityRecord = plan.record  # type: ignore[assignment]
                config = plan.locality.config  # type: ignore[union-attr]
                elapsed = now - record.since
                if not elapsed > 0.0:
                    elapsed = 0.0
                locality = 1.0 - (1.0 - record.value) * math.exp(
                    -elapsed / config.migration_tau
                )
                speedup = plan.speedup * (1.0 - config.max_slowdown * (1.0 - locality))
                if plan.fault != 1.0:
                    speedup *= plan.fault
                base = (spec.t_iter_seq / speedup) * (1.0 + spec.measurement_overhead)
            rng = self._rng
            duration = base * (
                1.0 if rng is None else lognormal_noise(rng, self.config.noise_sigma)
            )
            self._duration = duration
            self._pending = self.sim.schedule_absorbable(duration, self, iteration)
        else:
            self._begin_iteration(now)
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
