"""Model of the native IRIX scheduler with the SGI-MP runtime.

The paper's IRIX baseline runs each application with
``OMP_NUM_THREADS`` kernel threads (the tuned request) under the
operating system's time-sharing scheduler.  Its problems, observed in
§5.1.1, are structural and reproduced here:

* **no space sharing** — kernel threads of all applications compete
  for the CPUs, so with the default multiprogramming level of 4 and
  three 30-thread applications the machine is heavily overcommitted;
* **placement interference** — "sometimes two kernel threads belonging
  to the same or different applications can be allocated to the same
  processor, degrading the application performance and generating many
  process migrations";
* **no coordination** with the queuing system: the multiprogramming
  level is fixed.

The model computes each application's *effective* processor share per
segment between scheduling events:

    eff_procs = threads * min(1, P / T) * placement_efficiency
                        / (1 + overcommit_penalty * max(0, T/P - 1))

where ``T`` is the total number of runnable kernel threads.  Burst and
migration statistics are accounted analytically per segment (recording
every ~quarter-second quantum individually would add nothing but heat).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.metrics.trace import TraceRecorder
from repro.qs.job import Job
from repro.rm.manager import BaseResourceManager
from repro.runtime.nthlib import RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.slots import set_slot_state, slot_state


@dataclass(frozen=True, slots=True)
class IrixConfig:
    """Calibration of the IRIX time-sharing model.

    Attributes
    ----------
    mpl:
        Fixed multiprogramming level enforced by the queuing system.
    quantum:
        Scheduler quantum: the average CPU burst length under
        time-sharing (Table 2 measures ~243 ms under IRIX).
    placement_efficiency:
        Throughput factor for affinity/placement imperfections that
        exist even without overcommit.
    overcommit_penalty:
        Slowdown per unit of overcommit (T/P - 1): context switching,
        cache pollution and lock-holder preemption.
    interference_per_job:
        Slowdown per *additional co-running application*.  Models the
        placement pathologies §5.1.1 describes — "two kernel threads
        belonging to the same or different applications can be
        allocated to the same processor" — plus the memory-locality
        loss caused by the constant thread migrations, which grow with
        the number of competing applications even before the machine
        is overcommitted.
    migration_rate_overcommitted:
        Kernel-thread migrations per thread-second while T > P.
    migration_rate_normal:
        Migrations per thread-second while the machine is not
        overcommitted.
    """

    mpl: int = 4
    quantum: float = 0.243
    placement_efficiency: float = 0.90
    overcommit_penalty: float = 0.35
    interference_per_job: float = 0.12
    migration_rate_overcommitted: float = 1.7
    migration_rate_normal: float = 0.02

    def __post_init__(self) -> None:
        if self.mpl < 1:
            raise ValueError("mpl must be >= 1")
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        if not 0 < self.placement_efficiency <= 1:
            raise ValueError("placement_efficiency must be in (0, 1]")
        if self.overcommit_penalty < 0:
            raise ValueError("overcommit_penalty must be >= 0")
        if self.interference_per_job < 0:
            raise ValueError("interference_per_job must be >= 0")
        if self.migration_rate_overcommitted < 0 or self.migration_rate_normal < 0:
            raise ValueError("migration rates must be >= 0")


class IrixResourceManager(BaseResourceManager):
    """Time-shared execution under the native scheduler model."""

    name = "IRIX"

    __slots__ = (
        "config", "_threads", "_segment_start", "_migration_debt", "_offline", "_shares",
    )

    def __init__(
        self,
        sim: Simulator,
        n_cpus: int,
        streams: RandomStreams,
        trace: Optional[TraceRecorder] = None,
        config: Optional[IrixConfig] = None,
        runtime_config: Optional[RuntimeConfig] = None,
    ) -> None:
        base_runtime = runtime_config or RuntimeConfig()
        # The SGI-MP library has no SelfAnalyzer: jobs never report.
        runtime = RuntimeConfig(
            noise_sigma=base_runtime.noise_sigma,
            use_selfanalyzer=False,
            analyzer=base_runtime.analyzer,
        )
        super().__init__(sim, n_cpus, streams, trace, runtime)
        self.config = config or IrixConfig()
        self._threads: Dict[int, int] = {}
        self._segment_start = sim.now
        self._migration_debt = 0.0
        #: CPUs currently failed (the time-sharing model has no
        #: per-CPU placement, so a set of ids is all we need)
        self._offline: Set[int] = set()
        #: effective_procs(threads) memoised by thread count for the
        #: current segment; _account_segment, which runs before every
        #: change to _threads or _offline, clears it
        self._shares: Dict[int, float] = {}

    def __getstate__(self) -> Dict[str, Any]:
        # Sorted canonical form: set iteration order depends on
        # insertion history, and snapshot bytes must not (see
        # Machine.__getstate__).  The share memo is derived state.
        state = slot_state(self)
        state["_offline"] = sorted(self._offline)
        del state["_shares"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state["_offline"] = set(state["_offline"])
        set_slot_state(self, state)
        self._shares = {}

    # ------------------------------------------------------------------
    # admission: fixed multiprogramming level, no coordination
    # ------------------------------------------------------------------
    def can_admit(self, queued_jobs: int, head_request: Optional[int] = None) -> bool:
        return queued_jobs > 0 and self.running_count < self.config.mpl

    def _allocation(self, job_id: int) -> int:
        return self._threads[job_id]

    def current_allocation(self, job: Job) -> int:
        return self._threads[job.job_id]

    @property
    def effective_cpus(self) -> int:
        """CPUs still healthy (time-sharing spreads over all of them)."""
        return self.n_cpus - len(self._offline)

    # ------------------------------------------------------------------
    # fault handling: capacity shrinks, every running job slows down
    # ------------------------------------------------------------------
    def on_cpu_failed(self, cpu_id: int, permanent: bool = True) -> None:
        if not 0 <= cpu_id < self.n_cpus or cpu_id in self._offline:
            return
        if self.effective_cpus <= 1:
            self._record_fault(
                "cpu_fail", cpu_id, detail="skipped: last healthy CPU"
            )
            return
        self._account_segment()
        self._offline.add(cpu_id)
        self._record_fault(
            "cpu_fail", cpu_id, detail="permanent" if permanent else "transient"
        )
        self.on_state_change()

    def on_cpu_repaired(self, cpu_id: int) -> None:
        if cpu_id not in self._offline:
            return
        self._account_segment()
        self._offline.discard(cpu_id)
        self._record_fault("cpu_repair", cpu_id)
        self.on_state_change()

    # ------------------------------------------------------------------
    # effective processor shares
    # ------------------------------------------------------------------
    @property
    def total_threads(self) -> int:
        """Runnable kernel threads across all jobs."""
        return sum(self._threads.values())

    def effective_procs(self, threads: int) -> float:
        """Effective CPU share of a job running *threads* threads."""
        total = self.total_threads
        if total <= 0 or threads <= 0:
            return 0.0
        cfg = self.config
        capacity = self.effective_cpus
        share = threads * min(1.0, capacity / total)
        overcommit = max(0.0, total / capacity - 1.0)
        share *= cfg.placement_efficiency / (1.0 + cfg.overcommit_penalty * overcommit)
        interference = cfg.interference_per_job * max(0, len(self._threads) - 1)
        share /= 1.0 + interference
        return max(share, 0.05)

    def iteration_speedup(self, job: Job, nominal_procs: int) -> float:
        """Execution rate for the next iteration.

        The job's curve (for a rigid job, its folded processes) at the
        effective CPU share of its threads, which every job's threads
        and the healthy CPUs decide; *nominal_procs* plays no part.
        """
        threads = self._threads[job.job_id]
        share = self._shares.get(threads)
        if share is None:
            share = self._shares[threads] = self.effective_procs(threads)
        spec = job.spec
        if spec.malleable:
            return spec.speedup_model.speedup(share)
        assert job.request is not None
        return spec.folded_speedup(job.request, share)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start_job(self, job: Job) -> None:
        self._account_segment()
        job.mark_started(self.sim.now)
        assert job.request is not None
        self._threads[job.job_id] = job.request
        self._launch_runtime(job)
        self.on_state_change()

    def _release_job(self, job: Job) -> None:
        self._account_segment()
        del self._threads[job.job_id]

    def finalize(self) -> None:
        """Account the trailing segment at the end of the run."""
        self._account_segment()

    # ------------------------------------------------------------------
    # analytic trace accounting
    # ------------------------------------------------------------------
    def _account_segment(self) -> None:
        self._shares.clear()
        now = self.sim.now
        duration = now - self._segment_start
        self._segment_start = now
        if duration <= 0 or not self._threads or self.trace is None:
            return
        total = self.total_threads
        cfg = self.config
        capacity = self.effective_cpus
        # Thread-to-CPU distribution: round-robin, so `rem` CPUs hold
        # one extra thread.
        if total >= capacity:
            base, rem = divmod(total, capacity)
            for cpu in range(capacity):
                sharers = base + (1 if cpu < rem else 0)
                self.trace.record_timeshare_segment(
                    cpu, now - duration, now, sharers, cfg.quantum
                )
            rate = cfg.migration_rate_overcommitted
        else:
            for cpu in range(total):
                self.trace.record_timeshare_segment(
                    cpu, now - duration, now, 1, cfg.quantum
                )
            rate = cfg.migration_rate_normal
        self._migration_debt += rate * total * duration
        whole = int(self._migration_debt)
        if whole > 0:
            self.trace.record_migrations(whole)
            self._migration_debt -= whole
