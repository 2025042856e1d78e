"""The fault-injectable IO layer every durability protocol writes through.

Every byte the repo promises to keep — journal appends, checkpoint
envelopes, cache records, the status heartbeat — reaches disk via a
:class:`StorageLayer`.  The layer exposes exactly the primitives the
protocols are built from (``open_append`` / ``open_tmp`` / ``write`` /
``flush`` / ``fsync`` / ``replace`` / ``fsync_dir`` / ``unlink`` /
``write_atomic``) and, around each one, does three things the raw
:mod:`os` calls cannot:

* **fault injection** — a :class:`~repro.storage.plan.FailPlan` can
  make any primitive fail deterministically (:class:`StorageError`,
  an ``OSError``), land only part of a write (torn write), or kill the
  process right after the op (:class:`CrashPoint`);
* **tracing** — an :class:`OpTrace` records the exact sequence of
  durability-relevant operations, which is what the crash-state
  enumerator (:mod:`repro.storage.torture`) replays;
* **honest fsync semantics** — on an injected fsync error the layer
  truncates the file back to its last durable size before raising,
  emulating the *fsyncgate* behavior (Linux drops the dirty pages and
  marks them clean, so a retry "succeeds" without the data ever
  landing).  Protocols that retry an append after a failed fsync are
  therefore caught, not humored.

File handles are unbuffered (``buffering=0``): a ``write`` primitive
is one kernel write, so the trace is the truth about what could be on
disk and torn-write injection tears at a real boundary.

Durability contract implemented here rather than in each caller:

* ``open_append`` that *creates* a file fsyncs the parent directory —
  a journal's first record is worthless if the journal's directory
  entry is still volatile.
* ``write_atomic`` is the tmp + write + flush + [fsync] + ``replace``
  + [dir fsync] sequence with deterministic temp names (a counter,
  not :func:`tempfile.mkstemp`, so a traced run replays identically)
  and crash-safe cleanup (an injected *crash* leaves the temp file in
  place, exactly as a real power cut would).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, List, Optional

from repro.storage.plan import FailPlan, FailRule

__all__ = [
    "CrashPoint",
    "JournalWriteError",
    "OpTrace",
    "StorageError",
    "StorageHandle",
    "StorageLayer",
    "StorageOp",
    "TraceMark",
    "default_storage",
]


class StorageError(OSError):
    """An injected storage fault, surfaced as the ``OSError`` it emulates."""

    def __init__(self, err: int, op: str, path: str) -> None:
        super().__init__(err, f"injected {op} failure", path)
        self.op = op
        self.path = str(path)


class CrashPoint(BaseException):
    """Simulated process death immediately after a storage operation.

    Deliberately a ``BaseException``: protocol code that catches
    ``Exception`` for cleanup must not swallow a simulated power cut,
    and cleanup that *would* run (unlinking temp files, truncating)
    must be skipped — a dead process cleans up nothing.
    """

    def __init__(self, op: str, path: str) -> None:
        super().__init__(f"simulated crash after {op} on {path}")
        self.op = op
        self.path = str(path)


class JournalWriteError(RuntimeError):
    """An append-only journal lost durability and refuses further writes.

    Raised by both journals on the first failed append *and on every
    append after it*: once an fsync has failed, the dirty pages may be
    gone (fsyncgate), so no retry can be trusted.  The journal object
    stays readable; only appends are dead.
    """

    def __init__(self, path: object, cause: BaseException) -> None:
        super().__init__(
            f"journal {path} lost durability and is closed to writes "
            f"({type(cause).__name__}: {cause})"
        )
        self.path = str(path)
        self.cause = cause


class StorageOp:
    """One traced primitive operation (paths relative to the trace root)."""

    __slots__ = ("index", "op", "path", "data", "dst", "created")

    def __init__(self, index: int, op: str, path: str, data: bytes = b"",
                 dst: str = "", created: bool = False) -> None:
        self.index = index
        self.op = op
        self.path = path
        self.data = data
        self.dst = dst
        self.created = created

    def __repr__(self) -> str:
        extra = f" -> {self.dst}" if self.dst else ""
        return f"<op {self.index} {self.op} {self.path}{extra} {len(self.data)}B>"


class TraceMark:
    """A durability acknowledgment: ops[:index] made this promise durable."""

    __slots__ = ("index", "label", "data")

    def __init__(self, index: int, label: str, data: str = "") -> None:
        self.index = index
        self.label = label
        self.data = data


class OpTrace:
    """Ordered record of the storage ops (and acks) of one traced run."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root).resolve()
        self.ops: List[StorageOp] = []
        self.marks: List[TraceMark] = []

    def rel(self, path: os.PathLike) -> str:
        """*path* relative to the trace root, as a posix string."""
        resolved = Path(path)
        if not resolved.is_absolute():
            resolved = Path(os.path.abspath(str(resolved)))
        rel = os.path.relpath(str(resolved), str(self.root))
        rel = rel.replace(os.sep, "/")
        if rel.startswith(".."):
            raise ValueError(f"traced path {path} escapes trace root {self.root}")
        return rel

    def record(self, op: str, path: os.PathLike, data: bytes = b"",
               dst: str = "", created: bool = False) -> None:
        self.ops.append(StorageOp(
            index=len(self.ops), op=op, path=self.rel(path),
            data=data, dst=dst, created=created,
        ))

    def mark(self, label: str, data: str = "") -> None:
        """Record that everything acked so far is durable at this point."""
        self.marks.append(TraceMark(index=len(self.ops), label=label, data=data))

    def acked_at(self, cut: int) -> int:
        """How many acks had been issued by op index *cut*."""
        return sum(1 for mark in self.marks if mark.index <= cut)


class StorageHandle:
    """An open file routed through its :class:`StorageLayer`."""

    __slots__ = ("path", "_layer", "_file", "synced_size", "closed")

    def __init__(self, layer: "StorageLayer", path: Path, file: IO[bytes]) -> None:
        self.path = path
        self._layer = layer
        self._file = file
        self.synced_size = os.fstat(file.fileno()).st_size
        self.closed = False

    def write(self, data: bytes) -> None:
        self._layer.write(self, data)

    def flush(self) -> None:
        self._layer.flush(self)

    def fsync(self) -> None:
        self._layer.fsync(self)

    def fileno(self) -> int:
        return self._file.fileno()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._file.close()

    def __enter__(self) -> "StorageHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class StorageLayer:
    """Primitive durability operations with injection, tracing, and honesty.

    Parameters
    ----------
    plan:
        Fault schedule consulted before every primitive; ``None`` means
        every operation behaves like the raw ``os`` call.
    trace:
        Where to record the op sequence; ``None`` disables tracing.
    drop_fsync:
        Mutation hook for the torture enumerator's self-test: silently
        skip every ``fsync``/``fsync_dir`` (not executed, not traced,
        durable sizes not advanced).  A correct enumerator must catch
        a protocol running on such a layer.
    """

    def __init__(self, plan: Optional[FailPlan] = None,
                 trace: Optional[OpTrace] = None,
                 drop_fsync: bool = False) -> None:
        self.plan = plan
        self.trace = trace
        self.drop_fsync = drop_fsync
        #: injected faults (errors, short writes, crashes) raised so far
        self.faults_injected = 0
        self._tmp_counter = 0

    # ------------------------------------------------------------------
    # injection plumbing
    # ------------------------------------------------------------------
    def _consult(self, op: str, path: os.PathLike) -> Optional[FailRule]:
        if self.plan is None:
            return None
        return self.plan.consult(op, str(path))

    def _record(self, op: str, path: os.PathLike, data: bytes = b"",
                dst: str = "", created: bool = False) -> None:
        if self.trace is not None:
            self.trace.record(op, path, data=data, dst=dst, created=created)

    def _raise_error(self, rule: FailRule, op: str, path: os.PathLike) -> None:
        self.faults_injected += 1
        raise StorageError(rule.err, op, str(path))

    def _maybe_crash(self, rule: Optional[FailRule], op: str,
                     path: os.PathLike) -> None:
        if rule is not None and rule.kind == "crash":
            self.faults_injected += 1
            raise CrashPoint(op, str(path))

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def open_append(self, path: os.PathLike) -> StorageHandle:
        """Open *path* for appending, creating it (durably) if needed.

        On creation the parent directory is fsynced: an append-only
        journal's existence must survive the same crashes its records
        do.  (The temp files of ``write_atomic`` deliberately skip
        this — their directory entries are volatile by design.)
        """
        target = Path(path)
        rule = self._consult("open", target)
        if rule is not None and rule.kind in ("error", "short"):
            self._raise_error(rule, "open", target)
        target.parent.mkdir(parents=True, exist_ok=True)
        created = not target.exists()
        raw = open(target, "ab", buffering=0)
        handle = StorageHandle(self, target, raw)
        self._record("open", target, created=created)
        self._maybe_crash(rule, "open", target)
        if created:
            self.fsync_dir(target.parent)
        return handle

    def open_tmp(self, directory: os.PathLike, suffix: str = ".tmp") -> StorageHandle:
        """Create a fresh exclusive temp file with a deterministic name.

        Names come from a per-layer counter (``.tmp-<n><suffix>``)
        rather than :func:`tempfile.mkstemp` randomness, so a traced
        run is replayable byte-for-byte; an ``O_EXCL`` retry loop keeps
        concurrent writers in the same directory safe.  The directory
        entry is *not* fsynced — a temp file is volatile until renamed.
        """
        parent = Path(directory)
        parent.mkdir(parents=True, exist_ok=True)
        while True:
            self._tmp_counter += 1
            candidate = parent / f".tmp-{self._tmp_counter}{suffix}"
            rule = self._consult("open", candidate)
            if rule is not None and rule.kind in ("error", "short"):
                self._raise_error(rule, "open", candidate)
            try:
                fd = os.open(str(candidate),
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                continue
            raw = os.fdopen(fd, "wb", buffering=0)
            handle = StorageHandle(self, candidate, raw)
            self._record("open", candidate, created=True)
            self._maybe_crash(rule, "open", candidate)
            return handle

    def write(self, handle: StorageHandle, data: bytes) -> None:
        """One kernel write of *data*; injectable as error/short/crash."""
        rule = self._consult("write", handle.path)
        if rule is not None and rule.kind in ("error", "short"):
            self.faults_injected += 1
            if rule.kind == "short" and len(data) > 1:
                part = data[: len(data) // 2]
                handle._file.write(part)
                self._record("write", handle.path, data=part)
            raise StorageError(rule.err, "write", str(handle.path))
        handle._file.write(data)
        self._record("write", handle.path, data=data)
        self._maybe_crash(rule, "write", handle.path)

    def flush(self, handle: StorageHandle) -> None:
        """Flush userspace buffers (a no-op for the layer's raw files)."""
        rule = self._consult("flush", handle.path)
        if rule is not None and rule.kind in ("error", "short"):
            self._raise_error(rule, "flush", handle.path)
        handle._file.flush()
        self._record("flush", handle.path)
        self._maybe_crash(rule, "flush", handle.path)

    def fsync(self, handle: StorageHandle) -> None:
        """Make the file's bytes durable — or fail like fsyncgate.

        An injected fsync error truncates the file back to the size of
        its last *successful* fsync before raising: the kernel has
        dropped the dirty pages and marked them clean, so the bytes
        written since then are gone and a retried fsync would report
        success without restoring them.
        """
        if self.drop_fsync:
            return
        rule = self._consult("fsync", handle.path)
        if rule is not None and rule.kind in ("error", "short"):
            self.faults_injected += 1
            try:
                os.ftruncate(handle.fileno(), handle.synced_size)
            except OSError:
                pass
            raise StorageError(rule.err, "fsync", str(handle.path))
        os.fsync(handle.fileno())
        handle.synced_size = os.fstat(handle.fileno()).st_size
        self._record("fsync", handle.path)
        self._maybe_crash(rule, "fsync", handle.path)

    def replace(self, src: os.PathLike, dst: os.PathLike) -> None:
        """Atomic rename of *src* over *dst* (``os.replace``)."""
        rule = self._consult("replace", dst)
        if rule is not None and rule.kind in ("error", "short"):
            self._raise_error(rule, "replace", dst)
        os.replace(src, dst)
        self._record("replace", src, dst=self.trace.rel(dst) if self.trace else str(dst))
        self._maybe_crash(rule, "replace", dst)

    def fsync_dir(self, directory: os.PathLike) -> None:
        """Make a directory's entries durable (renames, creations).

        The *real* fsync stays best-effort — some filesystems refuse
        directory fsync and there is nothing useful to do about it —
        but an *injected* fault raises, because the torture harness
        needs to prove the callers survive it.
        """
        if self.drop_fsync:
            return
        rule = self._consult("dir_fsync", directory)
        if rule is not None and rule.kind in ("error", "short"):
            self._raise_error(rule, "dir_fsync", directory)
        try:
            fd = os.open(str(directory), os.O_RDONLY)
        except OSError:
            return
        try:
            try:
                os.fsync(fd)
            except OSError:
                return
        finally:
            os.close(fd)
        self._record("dir_fsync", directory)
        self._maybe_crash(rule, "dir_fsync", directory)

    def unlink(self, path: os.PathLike) -> None:
        """Remove *path* if it exists (missing is not an error)."""
        target = Path(path)
        rule = self._consult("unlink", target)
        if rule is not None and rule.kind in ("error", "short"):
            self._raise_error(rule, "unlink", target)
        existed = target.exists()
        if existed:
            target.unlink()
            self._record("unlink", target)
        self._maybe_crash(rule, "unlink", target)

    # ------------------------------------------------------------------
    # composed protocol
    # ------------------------------------------------------------------
    def write_atomic(self, path: os.PathLike, *chunks: bytes,
                     sync_file: bool = True, sync_dir: bool = False) -> None:
        """Publish *chunks* at *path* via the atomic-replace protocol.

        temp file → one ``write`` per chunk → ``flush`` → ``fsync``
        (when *sync_file*) → ``os.replace`` → parent ``fsync_dir``
        (when *sync_dir*).  On an injected or real error the temp file
        is removed; on a simulated :class:`CrashPoint` it is left
        behind, as a real crash would leave it.
        """
        target = Path(path)
        handle = self.open_tmp(target.parent, suffix=target.suffix + ".tmp")
        try:
            for chunk in chunks:
                self.write(handle, chunk)
            self.flush(handle)
            if sync_file:
                self.fsync(handle)
            handle.close()
            self.replace(handle.path, target)
        except CrashPoint:
            handle.close()
            raise
        except BaseException:
            handle.close()
            try:
                os.unlink(str(handle.path))
            except OSError:
                pass
            raise
        if sync_dir:
            self.fsync_dir(target.parent)

    # ------------------------------------------------------------------
    # ack plumbing
    # ------------------------------------------------------------------
    def ack(self, label: str, data: str = "") -> None:
        """Mark everything done so far as durably acknowledged."""
        if self.trace is not None:
            self.trace.mark(label, data)


_DEFAULT = StorageLayer()


def default_storage() -> StorageLayer:
    """The process-wide pass-through layer (no plan, no trace)."""
    return _DEFAULT
