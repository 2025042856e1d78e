"""Typed failure taxonomy for the sweep harness.

The simulator's *simulated* faults live in :mod:`repro.faults`; this
module classifies faults of the **harness itself** — workers that
crash, hang or are killed, cache entries whose bytes rotted on disk,
and cells whose records cannot be canonicalised.  Every class carries
the cell's human-readable ``key`` and the number of ``attempts`` spent
on it, so supervision reports read like an incident log rather than a
bare traceback.

Hierarchy::

    CellError
    ├── CellCrash            worker raised an exception
    ├── CellTimeout          cell exceeded its per-cell deadline
    ├── WorkerLost           the process pool broke under the cell
    ├── CorruptResult        cached payload failed its integrity check
    ├── UnserialisableRecord cell record fell into the repr() fallback
    └── PoisonCellError      cell exhausted its retry budget

:class:`PoisonCellError` is also what strict mode raises; in the
default (non-strict) mode poison cells are quarantined and reported in
:class:`~repro.parallel.runner.SweepStats` instead.
"""

from __future__ import annotations

from typing import Optional, Sequence


class CellError(Exception):
    """Base class for harness-level sweep-cell failures."""

    #: short machine-readable failure kind (stable across messages)
    kind: str = "error"

    def __init__(self, key: str, message: str, attempts: int = 1) -> None:
        super().__init__(f"cell {key!r}: {message}")
        self.key = key
        self.message = message
        self.attempts = attempts


class CellCrash(CellError):
    """The cell function raised inside a worker (or serially)."""

    kind = "crash"

    def __init__(self, key: str, cause: BaseException, attempts: int = 1) -> None:
        super().__init__(
            key,
            f"crashed with {type(cause).__name__}: {cause}",
            attempts=attempts,
        )
        self.cause = cause


class CellTimeout(CellError):
    """The cell ran longer than the supervision policy allows."""

    kind = "timeout"

    def __init__(self, key: str, timeout: float, attempts: int = 1) -> None:
        super().__init__(
            key, f"exceeded per-cell timeout of {timeout:g}s", attempts=attempts
        )
        self.timeout = timeout


class WorkerLost(CellError):
    """The process pool broke while the cell was in flight.

    Raised (or recorded) when a worker dies hard — SIGKILL, OOM kill,
    interpreter abort — which surfaces as ``BrokenProcessPool`` on
    every in-flight future.  Attribution is by isolation: suspects are
    re-run one at a time, so only the cell that actually kills its
    worker keeps accumulating these.
    """

    kind = "worker-lost"

    def __init__(self, key: str, attempts: int = 1,
                 detail: str = "process pool broke while cell was running") -> None:
        super().__init__(key, detail, attempts=attempts)


class CorruptResult(CellError):
    """A cached or journalled payload failed its integrity check."""

    kind = "corrupt-result"

    def __init__(self, key: str, detail: str, attempts: int = 1) -> None:
        super().__init__(key, f"corrupt result: {detail}", attempts=attempts)


class UnserialisableRecord(CellError):
    """A cell record could not be canonicalised losslessly.

    :func:`repro.canonical.canonical` maps unknown objects to a
    ``{"__repr__": ...}`` marker, which is fine for *hashing* cache
    keys but silently lossy for *payloads*: the record could never be
    decoded back.  ``execute_cell`` therefore refuses to cache such a
    record and raises this instead.
    """

    kind = "unserialisable"

    def __init__(self, key: str, paths: Sequence[str]) -> None:
        super().__init__(
            key,
            "record is not canonical JSON (repr fallback at "
            + ", ".join(paths) + ")",
        )
        self.paths = tuple(paths)


class PoisonCellError(CellError):
    """A cell exhausted its retry budget and was quarantined.

    In strict mode this propagates out of :meth:`SweepRunner.run`;
    otherwise it is recorded in ``SweepStats.failures`` and the sweep
    carries on without the cell.
    """

    kind = "poison"

    def __init__(self, key: str, attempts: int,
                 last_error: Optional[CellError] = None) -> None:
        detail = f"failed {attempts} attempt(s)"
        if last_error is not None:
            detail += f"; last failure: {last_error.kind} ({last_error.message})"
        super().__init__(key, detail, attempts=attempts)
        self.last_error = last_error
