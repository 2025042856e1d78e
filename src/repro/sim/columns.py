"""Columnar hot-core state: packed per-CPU/per-job columns + batched kernels.

Per-CPU burst accounting and SelfAnalyzer iteration timing keep their
state in contiguous *columns* (structure-of-arrays) instead of one
Python object per entity, and the burst accounting exposes *batched
kernels* that process a whole partition per call.

Storage is dependency-free ``array``/``bytearray`` packed columns, and
each kernel is a tight scalar loop inside a single function call.  The
kernels perform the same elementwise IEEE-754 double operations in the
same order as the scalar paths the per-CPU view uses
(``CpuColumns.assign_one`` and ``flush_one``), and the parity suite
(tests/test_columns.py) pins the columns' bits, including NaN/inf/-0.0
payloads.

Serialization is canonical: columns pickle as little-endian packed
bytes (``struct``), never as Python object lists, so checkpoint
envelopes stay small and byte-stable.
"""
from __future__ import annotations

import struct
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The column backend; stamped into benchmark rows.
BACKEND = "python"

# Health codes (mirrored by repro.machine.cpu.CpuHealth; kept as plain
# ints here so the columns module has no dependency on the machine
# layer).
HEALTH_ONLINE = 0
HEALTH_DEGRADED = 1
HEALTH_OFFLINE = 2

#: Owner column value meaning "idle" (no job owns the CPU).
NO_OWNER = -1


def _pack_f64(values: Sequence[float]) -> bytes:
    """Canonical little-endian packing of a float64 column."""
    return struct.pack("<%dd" % len(values), *values)


def _pack_i64(values: Sequence[int]) -> bytes:
    return struct.pack("<%dq" % len(values), *values)


def _unpack_f64(blob: bytes) -> List[float]:
    return list(struct.unpack("<%dd" % (len(blob) // 8), blob))


def _unpack_i64(blob: bytes) -> List[int]:
    return list(struct.unpack("<%dq" % (len(blob) // 8), blob))


# ----------------------------------------------------------------------
# per-CPU columns
# ----------------------------------------------------------------------
class CpuColumns:
    """Packed ownership/burst state for all CPUs of one machine.

    Columns (one slot per CPU id):

    ======== ======= ==============================================
    column   dtype   meaning
    ======== ======= ==============================================
    owner    int64   owning job id, ``NO_OWNER`` (-1) when idle
    app      str     application name while owned, ``""`` when idle
    since    float64 time the current burst (busy or idle) started
    busy     float64 accumulated busy seconds
    switches int64   ownership changes seen by this CPU
    health   int8    HEALTH_ONLINE / HEALTH_DEGRADED / HEALTH_OFFLINE
    ======== ======= ==============================================

    The batched kernels (:meth:`seize`, :meth:`release`,
    :meth:`flush_all`) replace what used to be one ``CpuState.assign``
    call per CPU per event.  Burst emission into the trace stays
    per-record (the trace API is row-oriented) and happens in ascending
    position order — exactly the order the old per-CPU loops used.

    Storage is packed ``array``/``bytearray`` columns: scalar indexing
    into them is as fast as lists, and they pickle as packed bytes.
    """

    __slots__ = ("n", "owner", "app", "since", "busy", "switches", "health")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"need at least one CPU, got {n}")
        self.n = n
        self.app: List[str] = [""] * n
        self.owner = array("q", bytes(8 * n))
        self.since = array("d", bytes(8 * n))
        self.busy = array("d", bytes(8 * n))
        self.switches = array("q", bytes(8 * n))
        self.health = bytearray(n)
        for i in range(n):
            self.owner[i] = NO_OWNER

    # ------------------------------------------------------------------
    # scalar access (cold paths: faults, queries, the CpuState view)
    # ------------------------------------------------------------------
    def owner_of(self, i: int) -> Optional[int]:
        """Owning job id of CPU *i*, or ``None`` when idle."""
        value = self.owner[i]
        return None if value == NO_OWNER else int(value)

    def assign_one(
        self,
        i: int,
        job_id: Optional[int],
        app_name: str,
        now: float,
        emit: Optional[Callable[[int, int, str, float, float], None]] = None,
    ) -> Optional[int]:
        """Scalar ownership switch — the pre-columnar ``CpuState.assign``.

        Closes the running burst (if any), hands ``(cpu, owner, app,
        start, end)`` to *emit*, and returns the previous owner id (or
        ``None``).  The batched kernels below are loop-fused versions
        of exactly this function; the parity suite holds them to it.
        """
        previous = self.owner_of(i)
        if previous == job_id:
            return previous
        if previous is not None:
            since = float(self.since[i])
            duration = now - since
            if duration < 0:
                raise ValueError(
                    f"cpu {i}: time went backwards ({since} -> {now})"
                )
            self.busy[i] += duration
            if emit is not None:
                emit(i, previous, self.app[i], since, now)
        self.owner[i] = NO_OWNER if job_id is None else job_id
        self.app[i] = app_name if job_id is not None else ""
        self.since[i] = now
        self.switches[i] += 1
        return previous

    def flush_one(
        self,
        i: int,
        now: float,
        emit: Optional[Callable[[int, int, str, float, float], None]] = None,
    ) -> None:
        """Scalar burst flush — the pre-columnar ``CpuState.flush``."""
        if self.owner[i] == NO_OWNER:
            return
        started = float(self.since[i])
        duration = now - started
        if duration < 0:
            raise ValueError(f"cpu {i}: flush before burst start")
        self.busy[i] += duration
        if emit is not None and duration > 0:
            emit(i, int(self.owner[i]), self.app[i], started, now)
        self.since[i] = now

    # ------------------------------------------------------------------
    # batched kernels (hot paths)
    # ------------------------------------------------------------------
    def seize(self, ids: Sequence[int], job_id: int, app_name: str, now: float) -> None:
        """Assign the idle CPUs *ids* to *job_id* in one call.

        Every id must currently be idle (the machine only grows from
        its free set); a non-idle id raises ``ValueError`` before any
        column is modified.
        """
        owner = self.owner
        app = self.app
        since = self.since
        switches = self.switches
        for i in ids:
            if owner[i] != NO_OWNER:
                raise ValueError(
                    f"cpu {i}: seize of non-idle CPU (owner {int(owner[i])})"
                )
            owner[i] = job_id
            app[i] = app_name
            since[i] = now
            switches[i] += 1

    def release(
        self,
        ids: Sequence[int],
        now: float,
        emit: Optional[Callable[[int, int, str, float, float], None]] = None,
    ) -> None:
        """Return the owned CPUs *ids* to idle, closing their bursts.

        Bursts are handed to *emit* in the order of *ids* — callers
        pass ids in the same order the old per-CPU loop iterated, so
        trace contents are byte-identical.
        """
        owner = self.owner
        since = self.since
        busy = self.busy
        app = self.app
        switches = self.switches
        for i in ids:
            started = since[i]
            duration = now - started
            if duration < 0:
                raise ValueError(
                    f"cpu {i}: time went backwards ({started} -> {now})"
                )
            busy[i] += duration
            if emit is not None:
                emit(i, int(owner[i]), app[i], float(started), now)
            owner[i] = NO_OWNER
            app[i] = ""
            since[i] = now
            switches[i] += 1

    def flush_all(
        self,
        now: float,
        emit: Optional[Callable[[int, int, str, float, float], None]] = None,
    ) -> None:
        """Close every in-progress busy burst without changing owners.

        End-of-run accounting: owned CPUs accumulate ``now - since``
        into ``busy`` and restart their burst at *now*.  Zero-length
        bursts are accumulated but not emitted, matching the scalar
        reference.
        """
        owner = self.owner
        since = self.since
        busy = self.busy
        for i in range(self.n):
            if owner[i] == NO_OWNER:
                continue
            started = since[i]
            duration = now - started
            if duration < 0:
                raise ValueError(f"cpu {i}: flush before burst start")
            busy[i] += duration
            if emit is not None and duration > 0:
                emit(i, int(owner[i]), self.app[i], float(started), now)
            since[i] = now

    # ------------------------------------------------------------------
    # canonical serialization (packed)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "owner": _pack_i64(self.owner),
            "app": list(self.app),
            "since": _pack_f64(self.since),
            "busy": _pack_f64(self.busy),
            "switches": _pack_i64(self.switches),
            "health": bytes(self.health),
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.n = state["n"]
        self.app = list(state["app"])
        self.owner = array("q", _unpack_i64(state["owner"]))
        self.since = array("d", _unpack_f64(state["since"]))
        self.busy = array("d", _unpack_f64(state["busy"]))
        self.switches = array("q", _unpack_i64(state["switches"]))
        self.health = bytearray(state["health"])


# ----------------------------------------------------------------------
# per-job timing columns
# ----------------------------------------------------------------------
class RunningMean:
    """Running-sum fold of a sample stream (sum / count / max-procs).

    Replaces the SelfAnalyzer's per-sample list append + whole-list
    ``sum()`` at baseline close.  Accumulating ``total += x`` per
    sample is bit-identical to an explicit left fold over the retained
    list (``acc = 0.0; acc = acc + x`` per element) — the parity suite
    checks this with NaN/inf/-0.0 payloads.  It is *not* guaranteed to
    match the ``sum()`` builtin on every interpreter: CPython 3.12+
    uses Neumaier compensated summation for floats, and NaN-payload
    propagation differs between the two foldings even earlier.  Every
    consumer that needs fold-equality (``repro.metrics``) therefore
    folds through :func:`repro.metrics.stats.fold_sum`, never the
    builtin.
    """

    __slots__ = ("total", "count", "max_procs")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self.max_procs = 0

    def add(self, value: float, procs: int) -> None:
        self.total += value
        self.count += 1
        if procs > self.max_procs:
            self.max_procs = procs

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of zero samples")
        return self.total / self.count

    def clear(self) -> None:
        self.total = 0.0
        self.count = 0
        self.max_procs = 0

    def __getstate__(self) -> Tuple[bytes, int, int]:
        return (_pack_f64([self.total]), self.count, self.max_procs)

    def __setstate__(self, state: Tuple[bytes, int, int]) -> None:
        self.total = _unpack_f64(state[0])[0]
        self.count = state[1]
        self.max_procs = state[2]
