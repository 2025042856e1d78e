"""Append-only, fsync'd JSONL journal of keyed records.

Both write-ahead journals — the service's arrival journal
(:class:`repro.serve.journal.ArrivalJournal`) and the sweep's
completion journal (:class:`repro.parallel.journal.SweepJournal`) —
are a :class:`RecordJournal` with a different entry type.  The entry
type is the codec: ``to_json``/``from_json`` plus a ``key`` that
identifies the record (an arrival's sequence number, a cell's cache
key).  Everything about durability lives here, once:

* **appends** are one ``write`` call, flushed and ``fsync``'d before
  the entry is indexed; the parent directory is fsynced when the file
  is first created (a record is only as durable as the directory entry
  that reaches it);
* **torn tails** are expected, not fatal: loading stops at the first
  line that is not a well-formed record — a crash mid-write, or a line
  that parses as JSON but has the wrong shape — and sets
  :attr:`RecordJournal.torn_tail`;
* **duplicate keys** — a crash between the fsync and a snapshot, then
  a restart re-appending the same record — resolve last-wins and are
  counted in :attr:`RecordJournal.duplicates`;
* **compaction on resume**: a torn tail, or a final record that lost
  only its newline, would hide every later append behind an
  unparseable line, so resume atomically rewrites the intact records
  (first-seen key order, last value) before accepting appends;
* **fsyncgate**: the first failed append marks the journal
  :attr:`RecordJournal.broken` and every later append raises
  :class:`~repro.storage.layer.JournalWriteError`.  A failed ``fsync``
  may have dropped the dirty pages while marking them clean, so a
  retry that "succeeds" proves nothing.

Subclasses set :attr:`RecordJournal.entry_type` and define their own
typed ``append`` (and lookups) on top of :meth:`RecordJournal._write`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Generic, Hashable, Optional, Protocol, Type, TypeVar

from repro.storage.layer import (
    JournalWriteError,
    StorageHandle,
    StorageLayer,
    default_storage,
)

__all__ = ["RecordJournal"]

R = TypeVar("R", bound="JournalRecord")


class JournalRecord(Protocol):
    """What a journal entry type provides."""

    @property
    def key(self) -> Hashable: ...

    def to_json(self) -> str: ...

    @classmethod
    def from_json(cls: Type[R], line: str) -> R: ...


E = TypeVar("E", bound=JournalRecord)
J = TypeVar("J", bound="RecordJournal[Any]")


class RecordJournal(Generic[E]):
    """The shared write-ahead journal machinery.

    Parameters
    ----------
    path:
        Journal file.  Parent directories are created on first append.
    resume:
        ``True`` loads surviving records (a restart); ``False`` (a
        fresh run) truncates any existing journal.
    storage:
        The :class:`~repro.storage.layer.StorageLayer` all IO goes
        through; defaults to the process-wide pass-through layer.
    """

    #: the record class: ``from_json(line)``, ``to_json()`` and ``key``
    entry_type: Type[E]

    def __init__(self, path: os.PathLike, resume: bool = False,
                 storage: Optional[StorageLayer] = None) -> None:
        self.path = Path(path)
        self.resume = resume
        self.storage = storage if storage is not None else default_storage()
        #: intact records by key, in first-seen order
        self.entries: Dict[Any, E] = {}
        self.torn_tail = False
        #: intact records whose key had already appeared (last wins)
        self.duplicates = 0
        #: the failure that permanently closed this journal to writes
        self.broken: Optional[BaseException] = None
        self._handle: Optional[StorageHandle] = None
        if resume:
            ragged = self._load()
            if ragged or self.torn_tail:
                self._compact()
        elif self.path.exists():
            self.storage.unlink(self.path)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _load(self) -> bool:
        """Index every intact record; whether the file ends mid-line.

        Stops at the first line that is not a record — by construction
        only a torn tail, since each record is one ``write`` + fsync.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return False
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = self.entry_type.from_json(line.decode("utf-8"))
                duplicate = entry.key in self.entries
            except (ValueError, LookupError, TypeError, AttributeError):
                self.torn_tail = True
                break
            if duplicate:
                self.duplicates += 1
            self.entries[entry.key] = entry
        return bool(raw) and not raw.endswith(b"\n")

    def _compact(self) -> None:
        """Atomically rewrite the journal to end at a record boundary.

        Uses the temp-fsync-rename protocol.  If the rewrite itself
        fails the journal opens broken: its entries are still good for
        replay and resume decisions, but writes are refused rather than
        silently unrecoverable.
        """
        payload = b"".join(
            self._encode(entry) for entry in self.entries.values()
        )
        try:
            self.storage.write_atomic(
                self.path, payload, sync_file=True, sync_dir=True
            )
        except OSError as exc:
            self.broken = exc

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(entry: JournalRecord) -> bytes:
        return entry.to_json().encode("utf-8") + b"\n"

    def _write(self, entry: E) -> E:
        """Durably record *entry*, then index it under its key.

        Raises
        ------
        JournalWriteError
            On the first IO failure and on every append after it; the
            entry is *not* indexed as written.
        """
        if self.broken is not None:
            raise JournalWriteError(self.path, self.broken)
        try:
            if self._handle is None:
                self._handle = self.storage.open_append(self.path)
            self._handle.write(self._encode(entry))
            self._handle.flush()
            self._handle.fsync()
        except OSError as exc:
            self.broken = exc
            raise JournalWriteError(self.path, exc) from exc
        self.entries[entry.key] = entry
        return entry

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self: J) -> J:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
