"""Write-ahead arrival journal: crash-safe ingress for the service.

The checkpoint envelope makes the *session* durable every N events;
the journal makes every **drawn arrival** durable before it is
offered.  The arrival pump draws its source a group at a time
(:data:`~repro.serve.session.DRAW_AHEAD` arrivals), and the service
appends each group as JSONL records — sequence number, job id,
application, submit time, processor request — in one ``write``,
flushed and ``fsync``'d once, *before* the group's first arrival is
offered to the queue.  Kill the service at any instant and the
journal names every arrival that entered the system after the last
snapshot, plus at most one group's drawn arrivals that were not yet
offered.

Recovery replays the journal tail: the restored source re-draws its
arrivals deterministically, and each re-draw is checked against the
journalled record (:meth:`JournalEntry.matches_job`).  A mismatch
means the source stopped being deterministic — different code, edited
SWF file, wrong seed — and recovery refuses rather than silently
diverging (the ``stream-recovery`` validation invariant).

Durability — fsync before the arrival is offered, torn-tail and
ragged-tail compaction on resume, last-wins duplicate sequence numbers
(a crash between fsync and snapshot, then a restart re-drawing the
same arrival), and the permanent fsyncgate ``broken`` state — is the
shared :class:`~repro.storage.journal.RecordJournal` machinery; this
module adds the arrival record and its replay lookups.
"""

from __future__ import annotations

import json
from typing import Any, List, Sequence

from repro.storage.journal import RecordJournal

__all__ = ["ArrivalJournal", "JournalEntry"]


class JournalEntry:
    """One drawn arrival as recorded in the journal."""

    __slots__ = ("seq", "job_id", "app", "submit", "request")

    def __init__(
        self, seq: int, job_id: int, app: str, submit: float, request: int
    ) -> None:
        self.seq = seq
        self.job_id = job_id
        self.app = app
        self.submit = submit
        self.request = request

    @property
    def key(self) -> int:
        """The journal key: the arrival's sequence number."""
        return self.seq

    def matches_job(self, job: Any) -> bool:
        """Whether a re-drawn job is identical to the journalled one.

        Floats compare with ``==`` — re-draws are bit-identical by the
        determinism contract, so any inequality is real divergence.
        """
        return (
            job.job_id == self.job_id
            and job.spec.name == self.app
            and job.submit_time == self.submit
            and job.request == self.request
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "v": 1,
                "seq": self.seq,
                "job": self.job_id,
                "app": self.app,
                "submit": self.submit,
                "request": self.request,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_obj(cls, obj: Any) -> "JournalEntry":
        """The entry a decoded record holds; raises on a wrong shape."""
        if obj.get("v") != 1:
            raise ValueError(f"unknown journal record version {obj.get('v')!r}")
        return cls(
            int(obj["seq"]), int(obj["job"]), str(obj["app"]),
            float(obj["submit"]), int(obj["request"]),
        )

    @classmethod
    def from_job(cls, seq: int, job: Any) -> "JournalEntry":
        return cls(
            seq=seq,
            job_id=job.job_id,
            app=job.spec.name,
            submit=job.submit_time,
            request=job.request,
        )


class ArrivalJournal(RecordJournal[JournalEntry]):
    """Append-only, fsync'd JSONL journal of drawn arrivals, keyed by seq."""

    entry_type = JournalEntry

    def append(self, entries: Sequence[JournalEntry]) -> None:
        """Durably record a group of drawn arrivals.

        Written in one ``write`` call, flushed, and ``fsync``'d once
        before this returns — after that, no crash can lose the fact
        that these arrivals were drawn.

        Raises
        ------
        JournalWriteError
            On the first IO failure and on every append after it.  A
            failed fsync may have dropped the dirty pages while
            marking them clean (fsyncgate), so no retry can restore
            durability; the journal is permanently broken instead and
            no entry of the group is indexed as written.
        """
        self._write(entries)

    def tail_after(self, seq: int) -> List[JournalEntry]:
        """Journalled entries with sequence numbers beyond *seq*, in order.

        These are the arrivals drawn after the snapshot at *seq* was
        taken — the replay-verify expectations for recovery.
        """
        return [self.entries[s] for s in sorted(self.entries) if s > seq]

    @property
    def max_seq(self) -> int:
        """Highest journalled sequence number (0 when empty)."""
        return max(self.entries, default=0)
