"""Write-ahead sweep journal: crash-safe progress for long sweeps.

The :class:`~repro.parallel.cache.ResultCache` makes finished cells
*reusable*; the journal makes a sweep's **progress** durable.  Every
completed cell appends one JSONL record — cache key, payload digest,
payload length — to an append-only file that is flushed and
``fsync``'d before the runner moves on.  Kill the parent process at
any instant and the journal still names exactly the cells that
finished, each with the SHA-256 its payload must hash to.

Resume (``--resume``) replays the journal: a cell whose key appears in
the journal *and* whose cached payload matches the journalled digest
is served without re-execution; everything else — including cells
whose cache entry rotted after the journal was written — is recomputed.
Because payloads are canonical JSON, a resumed sweep is byte-identical
to an uninterrupted one.

Durability is the shared :class:`~repro.storage.journal.RecordJournal`
machinery: a torn tail (power loss between ``write`` and ``fsync``)
stops the load at the first bad line and that cell is simply
recomputed; a cell journalled twice — a crash after the fsync but
before the in-memory index updated, or two attempts racing a retry —
resolves last-wins (the most recent completion) and is counted in
:attr:`SweepJournal.duplicates`.  Write failures are permanent
(fsyncgate): the runner then degrades to unjournaled execution —
results stay correct, resume coverage is honestly reduced and counted
in the sweep stats — rather than trusting a lying journal.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from repro.storage.journal import RecordJournal

__all__ = ["JournalEntry", "SweepJournal", "payload_digest"]


def payload_digest(payload: str) -> str:
    """SHA-256 hex digest of a canonical-JSON payload."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class JournalEntry:
    """One completed cell as recorded in the journal."""

    __slots__ = ("key", "digest", "length", "label")

    def __init__(self, key: str, digest: str, length: int, label: str = "") -> None:
        self.key = key
        self.digest = digest
        self.length = length
        self.label = label

    def matches(self, payload: str) -> bool:
        """Whether *payload* is byte-identical to the journalled one."""
        return len(payload) == self.length and payload_digest(payload) == self.digest

    def to_json(self) -> str:
        return json.dumps(
            {"v": 1, "key": self.key, "sha256": self.digest,
             "bytes": self.length, "label": self.label},
            sort_keys=True, separators=(",", ":"),
        )

    @classmethod
    def from_obj(cls, obj: Any) -> "JournalEntry":
        """The entry a decoded record holds; raises on a wrong shape."""
        if obj.get("v") != 1:
            raise ValueError(f"unknown journal record version {obj.get('v')!r}")
        return cls(
            key=obj["key"], digest=obj["sha256"],
            length=int(obj["bytes"]), label=obj.get("label", ""),
        )


class SweepJournal(RecordJournal[JournalEntry]):
    """Append-only, fsync'd JSONL journal of completed sweep cells."""

    entry_type = JournalEntry

    def get(self, key: str) -> Optional[JournalEntry]:
        """The journalled entry for *key*, or ``None``."""
        return self.entries.get(key)

    def append(self, key: str, payload: str, label: str = "") -> JournalEntry:
        """Durably record that *key* completed with *payload*.

        The record is written in one ``write`` call, flushed, and
        ``fsync``'d before this returns — after that, no crash of the
        parent can lose the fact that the cell finished.

        Raises
        ------
        JournalWriteError
            On the first IO failure and on every append after it
            (fsyncgate: the dirty pages may already be gone, so the
            journal breaks permanently instead of retrying).  The
            entry is *not* indexed as written.
        """
        entry = JournalEntry(
            key=key, digest=payload_digest(payload),
            length=len(payload), label=label,
        )
        self._write([entry])
        return entry
