"""Supervised execution of sweep cells over a worker pool.

A bare ``ProcessPoolExecutor`` whose futures are read with
``future.result()`` lets one crashed, hung or SIGKILL'd worker abort
the whole sweep and throw away every completed cell.  Every
:class:`~repro.parallel.runner.SweepRunner` therefore runs its cells
under this module's supervision loop — :class:`PoolSupervisor` over a
pool, :func:`run_serial_supervised` in-process for ``jobs=1``:

* **per-cell timeouts** — a cell's clock starts when its future is
  first observed running; past the deadline the pool is torn down
  (hung workers killed), the cell charged a :class:`CellTimeout`, and
  the survivors resubmitted;
* **bounded retries** — crashes and timeouts are retried up to
  ``retries`` times with exponential backoff and deterministic jitter;
* **poison-cell quarantine** — a cell that exhausts its budget is
  quarantined and reported in ``SweepStats`` instead of sinking the
  sweep (strict mode raises :class:`PoisonCellError` instead);
* **pool-break attribution by isolation** — when a worker dies hard,
  ``BrokenProcessPool`` hits *every* in-flight future, so the harness
  cannot know which cell did it.  Cells that were running at the break
  become *suspects* and are re-run one at a time in a fresh pool:
  innocents exonerate themselves, the true poison cell keeps breaking
  its solitary pool until quarantined;
* **graceful degradation** — if a worker pool cannot be (re)built at
  all (unusable mp context, fork bombs out, EPERM on semaphores), the
  remaining cells run serially under the same retry/quarantine rules
  rather than failing the sweep.

The loop is deliberately single-threaded: all bookkeeping (stats,
cache, journal) happens in the parent between ``wait()`` calls, so no
lock ever guards sweep state.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.parallel.errors import (
    CellCrash,
    CellError,
    CellTimeout,
    PoisonCellError,
    WorkerLost,
)

#: poll interval while waiting for a submitted future to start running
#: (only relevant when a per-cell timeout is configured)
_POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard the harness fights for each cell before giving up.

    Attributes
    ----------
    timeout:
        Per-cell wall-clock budget in seconds, measured from the first
        moment the cell is observed running in a worker.  ``None``
        disables deadlines (cells may run forever).  Timeouts are only
        enforceable on the pool path — a serial cell runs in the
        calling process and cannot be preempted.
    retries:
        How many times a failed cell is re-attempted; ``retries=2``
        means up to three attempts total before quarantine.
    backoff_base / backoff_cap:
        Exponential-backoff schedule between attempts:
        ``min(cap, base * 2**(attempt-1))`` scaled by a deterministic
        jitter factor in [0.5, 1.0) derived from the cell key, so two
        concurrent sweeps never thundering-herd in lockstep yet a
        given sweep remains reproducible.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 5.0

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    @property
    def max_attempts(self) -> int:
        """Total attempts before a cell is declared poison."""
        return self.retries + 1

    def backoff(self, key: str, attempt: int) -> float:
        """Delay before re-attempting *key* after *attempt* failures."""
        raw = min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        jitter = 0.5 + (digest[0] / 256.0) * 0.5
        return raw * jitter


@dataclass
class CellFailure:
    """One quarantined cell, as reported in ``SweepStats.failures``."""

    key: str
    kind: str
    attempts: int
    detail: str


class _PoolBroken(Exception):
    """Internal: the pool must be torn down and rebuilt.

    ``blamed`` maps cell index -> the error charged to it (timeout, or
    worker-lost for cells running at a hard break); ``unfinished``
    lists indices to resubmit without charge.
    """

    def __init__(self, blamed: Dict[int, CellError], unfinished: List[int],
                 progressed: bool = False) -> None:
        super().__init__(f"pool broken ({len(blamed)} blamed)")
        self.blamed = blamed
        self.unfinished = unfinished
        #: whether any cell of the batch completed before the break
        self.progressed = progressed


class PoolSupervisor:
    """Drives one batch of pending cells to completion or quarantine.

    Parameters
    ----------
    cells:
        The full cell sequence (indexed by the pending indices).
    policy:
        Retry/timeout budgets.
    worker_fn:
        Module-level ``(index, fn, params) -> (index, payload)``
        callable submitted to the pool (picklable by reference).
    on_success:
        Callback ``(index, payload)`` invoked in the parent for every
        completed cell — the runner stores, caches and journals there.
    stats:
        Mutable stats object with ``retried``, ``quarantined``,
        ``degraded`` counters and a ``failures`` list.
    """

    def __init__(
        self,
        cells: Sequence[Any],
        policy: SupervisionPolicy,
        worker_fn: Callable[..., Any],
        on_success: Callable[[int, str], None],
        stats: Any,
        jobs: int,
        mp_context: Optional[Any] = None,
        strict: bool = False,
    ) -> None:
        self.cells = cells
        self.policy = policy
        self.worker_fn = worker_fn
        self.on_success = on_success
        self.stats = stats
        self.jobs = jobs
        self.mp_context = mp_context
        self.strict = strict
        self.pool: Optional[ProcessPoolExecutor] = None
        self.attempts: Dict[int, int] = {}
        self.last_error: Dict[int, CellError] = {}
        self.quarantined: List[int] = []

    # ------------------------------------------------------------------
    # top-level loop
    # ------------------------------------------------------------------
    def run(self, pending: Sequence[int]) -> List[int]:
        """Execute *pending* cells; returns the quarantined indices."""
        remaining = deque(pending)
        suspects: deque = deque()
        stalls = 0  # consecutive pool breaks with zero progress
        try:
            while remaining or suspects:
                degrade = stalls >= 2
                if not degrade and self.pool is None:
                    degrade = not self._build_pool(len(suspects) or len(remaining))
                if degrade:
                    # Pool unusable: degrade to supervised serial
                    # execution for everything still outstanding.
                    leftovers = list(suspects) + list(remaining)
                    suspects.clear()
                    remaining.clear()
                    self._run_degraded(leftovers)
                    break
                if suspects:
                    batch = [suspects.popleft()]  # isolation: one at a time
                else:
                    batch = list(remaining)
                    remaining.clear()
                try:
                    self._execute_batch(batch)
                    stalls = 0
                except _PoolBroken as broken:
                    self._teardown_pool(kill=True)
                    stalls = 0 if (broken.blamed or broken.progressed) else stalls + 1
                    for index, error in broken.blamed.items():
                        if not self._record_failure(index, error):
                            suspects.append(index)
                    for index in broken.unfinished:
                        remaining.append(index)
        finally:
            self._teardown_pool(kill=False)
        return self.quarantined

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _build_pool(self, batch_size: int) -> bool:
        workers = max(1, min(self.jobs, batch_size))
        try:
            self.pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=self.mp_context
            )
            return True
        except (OSError, ValueError, ImportError, RuntimeError) as exc:
            warnings.warn(
                f"worker pool unavailable ({type(exc).__name__}: {exc}); "
                "degrading to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            self.pool = None
            return False

    def _teardown_pool(self, kill: bool) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        if kill:
            # A hung or half-dead pool: SIGKILL the workers so their
            # cells actually stop consuming CPU, then abandon the
            # executor without waiting on it.
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.kill()
                except (OSError, AttributeError):
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # one batch over one pool
    # ------------------------------------------------------------------
    def _execute_batch(self, batch: Sequence[int]) -> None:
        assert self.pool is not None
        futures: Dict[Any, int] = {}
        started: Dict[int, float] = {}
        progressed = False
        for index in batch:
            if not self._submit(futures, index):
                # Submitted siblings die with the pool; resubmit all.
                raise _PoolBroken({}, list(batch), progressed=False)

        while futures:
            now = time.monotonic()  # repro: allow(DET102): hung-worker detection measures host wall-time by definition; simulated time never reaches the harness layer
            for future, index in futures.items():
                if index not in started and future.running():
                    started[index] = now
            done, _ = wait(
                set(futures),
                timeout=self._wait_timeout(futures, started, now),
                return_when=FIRST_COMPLETED,
            )
            broken_indices: List[int] = []
            for future in done:
                index = futures.pop(future)
                try:
                    _, payload = future.result()
                except BrokenProcessPool:
                    broken_indices.append(index)
                except Exception as exc:  # the cell itself crashed
                    started.pop(index, None)
                    if not self._record_failure(index, CellCrash(
                        self._key(index), exc, self.attempts.get(index, 0) + 1
                    )):
                        if not self._submit(futures, index):
                            # Already charged for the crash; resubmit
                            # on the next pool without further blame.
                            broken_indices.append(index)
                else:
                    self.on_success(index, payload)
                    progressed = True
            if broken_indices:
                raise self._broken(broken_indices, futures, started, progressed)
            self._check_deadlines(futures, started, progressed)

    def _submit(self, futures: Dict[Any, int], index: int) -> bool:
        cell = self.cells[index]
        try:
            future = self.pool.submit(
                self.worker_fn, index, cell.fn, dict(cell.params)
            )
        except (BrokenProcessPool, RuntimeError):
            return False
        futures[future] = index
        return True

    def _wait_timeout(
        self,
        futures: Dict[Any, int],
        started: Dict[int, float],
        now: float,
    ) -> Optional[float]:
        if self.policy.timeout is None:
            return None
        deadlines = [
            started[index] + self.policy.timeout
            for index in futures.values()
            if index in started
        ]
        if not deadlines:
            return _POLL_INTERVAL  # nothing running yet; poll for starts
        return max(0.0, min(deadlines) - now)

    def _check_deadlines(
        self,
        futures: Dict[Any, int],
        started: Dict[int, float],
        progressed: bool,
    ) -> None:
        if self.policy.timeout is None or not futures:
            return
        now = time.monotonic()  # repro: allow(DET102): per-cell timeout accounting is host wall-time; cells are pure functions so this cannot perturb results
        blamed: Dict[int, CellError] = {}
        unfinished: List[int] = []
        for future, index in futures.items():
            if (index in started
                    and now - started[index] >= self.policy.timeout
                    and not future.done()):
                blamed[index] = CellTimeout(
                    self._key(index), self.policy.timeout,
                    self.attempts.get(index, 0) + 1,
                )
            else:
                unfinished.append(index)
        if blamed:
            # A running future cannot be cancelled; the only way to
            # reclaim a hung worker is to kill the pool under it.
            raise _PoolBroken(blamed, unfinished, progressed)

    def _broken(
        self,
        broken_indices: List[int],
        futures: Dict[Any, int],
        started: Dict[int, float],
        progressed: bool,
    ) -> _PoolBroken:
        """Classify every outstanding cell after a hard pool break.

        Cells that were observed running are blamed (they *might* have
        killed the worker — isolation sorts the innocents out); cells
        still queued are resubmitted without charge.
        """
        blamed: Dict[int, CellError] = {}
        unfinished: List[int] = []
        for index in broken_indices + list(futures.values()):
            if index in started:
                blamed[index] = WorkerLost(
                    self._key(index), self.attempts.get(index, 0) + 1
                )
            else:
                unfinished.append(index)
        return _PoolBroken(blamed, unfinished, progressed)

    # ------------------------------------------------------------------
    # failure accounting (shared by pool and serial paths)
    # ------------------------------------------------------------------
    def _record_failure(self, index: int, error: CellError) -> bool:
        """Charge one failure; returns True when the cell is now poison."""
        count = self.attempts.get(index, 0) + 1
        self.attempts[index] = count
        self.last_error[index] = error
        if count >= self.policy.max_attempts:
            self._quarantine(index, count, error)
            return True
        self.stats.retried += 1
        time.sleep(self.policy.backoff(self._key(index), count))  # repro: allow(DET102): retry backoff is a real-time wait between attempts; the re-executed cell's output is unaffected
        return False

    def _quarantine(self, index: int, attempts: int, error: CellError) -> None:
        poison = PoisonCellError(self._key(index), attempts, error)
        if self.strict:
            raise poison
        self.quarantined.append(index)
        self.stats.quarantined += 1
        self.stats.failures.append(CellFailure(
            key=self._key(index), kind=error.kind,
            attempts=attempts, detail=error.message,
        ))

    def _key(self, index: int) -> str:
        return self.cells[index].key

    # ------------------------------------------------------------------
    # serial degradation
    # ------------------------------------------------------------------
    def _run_degraded(self, indices: Sequence[int]) -> None:
        from repro.parallel.runner import execute_cell

        self.stats.degraded += len(indices)
        run_serial_supervised(
            self.cells, indices, self.policy, execute_cell,
            self.on_success, self,
        )


def run_serial_supervised(
    cells: Sequence[Any],
    indices: Sequence[int],
    policy: SupervisionPolicy,
    execute: Callable[[str, Any], str],
    on_success: Callable[[int, str], None],
    supervisor: Optional[PoolSupervisor] = None,
    stats: Any = None,
    strict: bool = False,
) -> List[int]:
    """Run cells in-process under the same retry/quarantine rules.

    Used both by the serial (``jobs=1``) path of the runner and as the
    degraded path when no worker pool can be built.  Timeouts are not
    enforced here — a cell runs in the calling process and cannot be
    preempted — but crashes are retried and poison cells quarantined
    exactly as on the pool path.  Returns the quarantined indices.
    """
    if supervisor is None:
        supervisor = PoolSupervisor(
            cells, policy, worker_fn=None, on_success=on_success,
            stats=stats, jobs=1, strict=strict,
        )
    for index in indices:
        while True:
            try:
                payload = execute(cells[index].fn, cells[index].params)
            except Exception as exc:
                crash = CellCrash(
                    cells[index].key, exc,
                    supervisor.attempts.get(index, 0) + 1,
                )
                if supervisor._record_failure(index, crash):
                    break  # quarantined (or PoisonCellError raised in strict)
            else:
                on_success(index, payload)
                break
    return supervisor.quarantined
