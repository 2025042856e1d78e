"""Hostile sweep cells for the chaos test harness.

These module-level functions are addressed by dotted path
(``"tests.chaos_cells:sigkill_cell"``) exactly like real cells, so the
supervisor sees them through the same machinery it supervises in
production.  Each one reproduces a distinct harness failure mode:

* :func:`crash_cell` — the cell raises (worker survives);
* :func:`sigkill_cell` — the cell SIGKILLs its own worker process,
  breaking the pool (``BrokenProcessPool`` on every in-flight future);
* :func:`sleep_cell` — the cell hangs long enough to blow any
  reasonable per-cell timeout;
* :func:`flaky_cell` — fails the first ``fail_times`` attempts and
  then succeeds, using an on-disk attempt counter shared across worker
  processes (retries must cross process boundaries to count);
* :func:`slow_echo_cell` — a well-behaved but slow cell, for
  interrupt-and-resume tests;
* :func:`unserialisable_cell` — returns a record only ``repr`` could
  encode, to prove ``execute_cell`` refuses to cache garbage;
* :func:`killed_workload_cell` — SIGKILLs its worker halfway through
  a workload run on the first attempt and runs the whole workload
  cell on the retry.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict


def crash_cell(i: int = 0, message: str = "chaos: deliberate crash") -> Dict[str, Any]:
    """Raise inside the worker; the worker process itself survives."""
    raise RuntimeError(f"{message} (cell {i})")


def sigkill_cell(i: int = 0) -> Dict[str, Any]:
    """Kill the worker process outright — no exception, no cleanup."""
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)  # never reached; belt-and-braces if SIGKILL is delayed
    return {"i": i}


def sleep_cell(i: int = 0, seconds: float = 60.0) -> Dict[str, Any]:
    """Hang well past any per-cell timeout under test."""
    time.sleep(seconds)
    return {"i": i, "slept": seconds}


def flaky_cell(i: int, counter_dir: str, fail_times: int = 1) -> Dict[str, Any]:
    """Fail the first *fail_times* attempts, then succeed.

    Attempts are counted in ``counter_dir`` (one marker file per
    attempt), so the count survives worker death and is shared between
    the serial and pool paths.  The returned record is independent of
    how many attempts it took — retries must not leak into payloads.
    """
    os.makedirs(counter_dir, exist_ok=True)
    attempt = len(os.listdir(counter_dir)) + 1
    with open(os.path.join(counter_dir, f"attempt-{attempt}-{os.getpid()}"), "w"):
        pass
    if attempt <= fail_times:
        raise RuntimeError(f"chaos: flaky failure {attempt}/{fail_times}")
    return {"i": i, "ok": True}


def slow_echo_cell(i: int, delay: float = 0.2) -> Dict[str, Any]:
    """Echo *i* after *delay* seconds (for interrupt/resume tests)."""
    time.sleep(delay)
    return {"i": i, "value": i * i}


def unserialisable_cell() -> Dict[str, Any]:
    """Return a record that falls into the repr() canonicalisation trap."""
    return {"handle": object()}


def killed_workload_cell(
    policy: str,
    workload: str,
    load: float,
    config: Any,
    state_dir: str,
) -> Dict[str, Any]:
    """Die halfway through a workload run; recompute it on the retry.

    First attempt: runs the workload to half its submission window,
    then SIGKILLs its own worker — the crash window of a real
    preemption.  Attempts are counted in *state_dir* (one marker file
    each), so the count survives the worker's death.  The retry runs
    :func:`~repro.parallel.cells.workload_cell` from scratch, as any
    retried cell does.
    """
    from pathlib import Path

    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    attempt = len(list(state.glob("attempt-*"))) + 1
    (state / f"attempt-{attempt}-{os.getpid()}").touch()

    if attempt == 1:
        from repro.experiments.common import build_session, workload_jobs

        session = build_session(policy, workload_jobs(workload, load, config),
                                config, load=load, workload=workload)
        session.run(until=config.duration / 2)
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # never reached; belt-and-braces if SIGKILL is delayed

    from repro.parallel.cells import workload_cell

    return workload_cell(policy, workload, load, config)
