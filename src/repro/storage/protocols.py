"""The durability protocols under torture, and their invariants.

Each harness knows how to *run* its protocol through a traced
:class:`~repro.storage.layer.StorageLayer`, how to *check* its
recovery invariant against a materialised crash state, and which
*fault plans* to inject for the degraded-behavior contract.  The
first four torture one writer each; ``serve`` tortures the streaming
service, whose journal, snapshots and status file share one layer:

========================  =============================================
protocol                  recovery invariant
========================  =============================================
``journal``               recovered records are a byte-identical
                          prefix of the appended series, at least as
                          long as the acked count; loading never raises
``checkpoint``            :func:`read_snapshot` yields exactly one
                          *written* version, never older than the last
                          acked one, never a blend; a file that exists
                          always verifies; absence only before the
                          first ack
``cache``                 :meth:`ResultCache.get` returns the exact
                          stored payload or a miss — never wrong
                          bytes, never an exception (corruption is
                          quarantined)
``status``                if the status file exists it parses to a
                          complete previously-written payload — old or
                          new, never torn, never empty
``serve``                 the journal holds every offered arrival; an
                          acked save restores; restore (or a fresh
                          run, before any snapshot) drains to the
                          uninterrupted stats digest; the status file
                          is an old record or a new one
========================  =============================================

The fault pass runs each protocol under a matrix of injected errors
(ENOSPC/EIO on each primitive, short writes, crash-after-op, plus
seeded random plans) and checks the *degraded-behavior* contract:
journals break permanently with
:class:`~repro.storage.layer.JournalWriteError` (fsyncgate — no
retry), checkpoints fail with a typed
:class:`~repro.checkpoint.errors.CheckpointWriteError` leaving the
previous envelope intact, the cache degrades to "not cached" without
raising, and the status writer surfaces a plain ``OSError`` for the
service to count and survive.  The service itself drains and exits
:data:`~repro.serve.service.EXIT_STORAGE` when its journal breaks,
and counts a failed snapshot or status write and runs on.
"""

from __future__ import annotations

import errno
import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.checkpoint.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointWriteError,
)
from repro.checkpoint.format import read_snapshot, write_snapshot
from repro.checkpoint.session import CheckpointPlan
from repro.experiments.clock import FakeClock, ReportClock
from repro.experiments.common import ExperimentConfig
from repro.parallel.cache import ResultCache
from repro.parallel.journal import (
    JournalEntry as CellEntry,
    SweepJournal,
    payload_digest,
)
from repro.qs.workload import TABLE1_MIXES
from repro.serve.journal import ArrivalJournal, JournalEntry
from repro.serve.service import (
    EXIT_STORAGE,
    ServeService,
    read_status,
    write_status_payload,
)
from repro.serve.session import ServeConfig, ServeSession, build_serve_session
from repro.serve.source import SyntheticSource
from repro.storage.layer import (
    CrashPoint,
    JournalWriteError,
    OpTrace,
    StorageLayer,
    TraceMark,
)
from repro.storage.plan import FailPlan
from repro.storage.torture import enumerate_crash_states, materialise

__all__ = [
    "JournalProtocol",
    "PROTOCOL_NAMES",
    "ServeProtocol",
    "TortureReport",
    "run_protocol_torture",
    "run_torture",
]

#: canonical protocol order (CLI choices, reports, docs)
PROTOCOL_NAMES: Tuple[str, ...] = ("journal", "checkpoint", "cache", "status", "serve")

#: errnos exercised by the deterministic fault matrix
_MATRIX_ERRNOS = (errno.ENOSPC, errno.EIO)
#: occurrence numbers exercised per (op, errno) pair
_MATRIX_NTHS = (1, 2, 5)


class TortureReport:
    """Outcome of torturing one protocol."""

    def __init__(self, protocol: str) -> None:
        self.protocol = protocol
        #: distinct crash states enumerated and checked
        self.crash_states = 0
        #: fault-injection runs executed and checked
        self.fault_runs = 0
        #: human-readable invariant violations (empty = clean)
        self.violations: List[str] = []

    @property
    def states(self) -> int:
        """Total adversarial states exercised (crash + fault)."""
        return self.crash_states + self.fault_runs

    def summary_line(self) -> str:
        return (
            f"{self.protocol}: {self.crash_states} crash states, "
            f"{self.fault_runs} fault runs, "
            f"{len(self.violations)} violation(s)"
        )


# ----------------------------------------------------------------------
# shared fault-matrix construction
# ----------------------------------------------------------------------
def _fault_plans(ops: Sequence[str], crash_ops: Sequence[str],
                 seed: int) -> List[FailPlan]:
    """The deterministic fault matrix for a protocol touching *ops*."""
    plans: List[FailPlan] = []
    for op in ops:
        for err in _MATRIX_ERRNOS:
            for nth in _MATRIX_NTHS:
                plans.append(FailPlan.single(op, nth=nth, err=err))
    if "write" in ops:
        for nth in (1, 3):
            plans.append(FailPlan.single(
                "write", nth=nth, kind="short", err=errno.ENOSPC
            ))
    for op in crash_ops:
        for nth in (1, 4):
            plans.append(FailPlan.single(op, nth=nth, kind="crash"))
    for extra in range(4):
        plans.append(FailPlan.seeded(seed * 1009 + extra))
    return plans


# ----------------------------------------------------------------------
# write-ahead journal
# ----------------------------------------------------------------------
#: journal records, each with the ``SweepJournal.append`` args that
#: write it (the arrival journal appends the entries themselves)
_Records = List[Tuple[Any, Tuple[Any, ...]]]


def _arrival_records(count: int) -> _Records:
    entries = [
        JournalEntry(
            seq=i + 1, job_id=1000 + i, app=f"app{i % 3}",
            submit=2.5 * i, request=(i % 7) + 1,
        )
        for i in range(count)
    ]
    return [(entry, ()) for entry in entries]


def _cell_records(count: int) -> _Records:
    records: _Records = []
    for i in range(count):
        key = f"cell-{i:02d}"
        payload = json.dumps({"cell": i, "mean": 1.5 * i}, sort_keys=True,
                             separators=(",", ":"))
        entry = CellEntry(key, payload_digest(payload), len(payload),
                          label=key)
        records.append((entry, (key, payload, key)))
    return records


def _append_arrivals(journal: Any, group: _Records) -> None:
    """One group commit: one write and one fsync for the whole group."""
    journal.append([entry for entry, _ in group])


def _append_cells(journal: Any, group: _Records) -> None:
    """The sweep journal commits one cell at a time."""
    for _, args in group:
        journal.append(*args)


#: journal class -> (file name, records of a run, how a group is appended)
_JOURNAL_KINDS: Dict[
    Any, Tuple[str, Callable[[int], _Records], Callable[[Any, _Records], None]]
] = {
    ArrivalJournal: ("arrivals.jsonl", _arrival_records, _append_arrivals),
    SweepJournal: ("sweep.journal", _cell_records, _append_cells),
}


class JournalProtocol:
    """Record journal: append N records in groups, each acked after its fsync.

    Both write-ahead journals are one
    :class:`~repro.storage.journal.RecordJournal` that differs only in
    its entry type, so the campaign drives the arrival journal for
    both; ``JournalProtocol(SweepJournal)`` drives the sweep journal
    through the same invariants and fault matrix.  The arrival journal
    appends each group as one batch, as the serve pump's group commit
    does; the sweep journal appends a group's records one by one.
    """

    name = "journal"
    #: the sizes of the appended groups (12 records), one ack per group
    groups = (1, 3, 8)

    def __init__(self, journal_type: Any = ArrivalJournal) -> None:
        self.journal_type = journal_type
        self.filename, make_records, self._append = _JOURNAL_KINDS[journal_type]
        records = make_records(sum(self.groups))
        self._lines = [entry.to_json() for entry, _ in records]
        self._groups: List[_Records] = []
        for size in self.groups:
            self._groups.append(records[:size])
            records = records[size:]

    def run(self, layer: StorageLayer, workdir: Path) -> List[str]:
        journal = self.journal_type(workdir / self.filename, storage=layer)
        for group in self._groups:
            self._append(journal, group)
            layer.ack("append", str(group[-1][0].key))
        journal.close()
        return list(self._lines)

    def check(self, state_dir: Path, acked: int,
              expect: List[str]) -> List[str]:
        recovered = _recovered(self.journal_type, state_dir / self.filename)
        records = sum(self.groups[:acked])
        return [f"{self.name}: {p}"
                for p in _check_prefix(recovered, expect, records)]

    def fault_plans(self, seed: int) -> List[FailPlan]:
        return _fault_plans(
            ops=("open", "write", "flush", "fsync", "dir_fsync"),
            crash_ops=("write", "fsync"), seed=seed,
        )

    def fault_run(self, plan: FailPlan, workdir: Path) -> List[str]:
        path = workdir / self.filename
        layer = StorageLayer(plan=plan)
        journal = self.journal_type(path, storage=layer)
        problems: List[str] = []
        acked = 0
        crashed = False
        broke = False
        for group in self._groups:
            try:
                self._append(journal, group)
                acked += len(group)
            except JournalWriteError:
                broke = True
                break
            except CrashPoint:
                crashed = True
                break
            except OSError as exc:
                problems.append(
                    f"raw OSError escaped append ({type(exc).__name__}); "
                    f"expected JournalWriteError"
                )
                break
        if broke:
            last = self._groups[-1]
            problems.extend(_check_journal_broken(
                self.name, journal.broken,
                lambda: self._append(journal, last),
            ))
        if not crashed:
            journal.close()
        problems.extend(
            f"{self.name}: {p}"
            for p in _check_prefix(
                _recovered(self.journal_type, path), self._lines, acked
            )
        )
        return problems


def _recovered(journal_type: Any, path: Path) -> List[str]:
    """The records a restart recovers from *path*, in journal order."""
    journal = journal_type(path, resume=True)
    return [entry.to_json() for entry in journal.entries.values()]


def _check_prefix(recovered: List[str], expect: List[str],
                  acked: int) -> List[str]:
    """The journal invariant: byte-identical prefix, no shorter than acked."""
    problems: List[str] = []
    if len(recovered) < acked:
        problems.append(
            f"lost acked append(s): {acked} acked, "
            f"{len(recovered)} recovered"
        )
    for i, line in enumerate(recovered):
        if i >= len(expect):
            problems.append(f"recovered record {i} beyond everything appended")
            break
        if line != expect[i]:
            problems.append(
                f"recovered record {i} diverges from the appended bytes"
            )
            break
    return problems


def _check_journal_broken(name: str, broken: Optional[BaseException],
                          retry: Callable[[], Any]) -> List[str]:
    """fsyncgate contract: a broken journal refuses every further append."""
    problems: List[str] = []
    if broken is None:
        problems.append("append raised but journal is not marked broken")
    try:
        retry()
        problems.append(
            "append succeeded after the journal broke (fsyncgate: the "
            "retried bytes may not be durable)"
        )
    except JournalWriteError:
        pass
    except BaseException as exc:  # noqa: BLE001 - diagnostic catch-all
        problems.append(
            f"retry after break raised {type(exc).__name__}, "
            f"expected JournalWriteError"
        )
    return [f"{name}: {p}" for p in problems]


# ----------------------------------------------------------------------
# checkpoint envelopes
# ----------------------------------------------------------------------
class CheckpointProtocol:
    """Envelope rewrites: v0, v1, v2 over the same path, acked each."""

    name = "checkpoint"
    versions = 3
    filename = "state.ckpt"

    def _payloads(self) -> List[bytes]:
        return [
            (f"payload-{idx}:" * (16 * (idx + 1))).encode("ascii")
            for idx in range(self.versions)
        ]

    def run(self, layer: StorageLayer, workdir: Path) -> List[bytes]:
        payloads = self._payloads()
        for idx, payload in enumerate(payloads):
            write_snapshot(
                workdir / self.filename,
                {"run": "torture", "idx": idx}, payload, storage=layer,
            )
            layer.ack("snapshot", str(idx))
        return payloads

    def check(self, state_dir: Path, acked: int,
              expect: List[bytes]) -> List[str]:
        target = state_dir / self.filename
        problems: List[str] = []
        try:
            meta, payload = read_snapshot(target)
        except CheckpointCorruptError:
            if target.exists():
                problems.append(
                    "envelope file exists but does not verify (torn or "
                    "blended snapshot visible to readers)"
                )
            elif acked > 0:
                problems.append(
                    f"{acked} snapshot(s) acked but no envelope survived"
                )
        except CheckpointError as exc:
            problems.append(f"unexpected {type(exc).__name__} from recovery")
        else:
            idx = meta.get("idx")
            if not isinstance(idx, int) or not 0 <= idx < len(expect):
                problems.append(f"recovered meta names unknown version {idx!r}")
            elif payload != expect[idx]:
                problems.append(
                    f"recovered payload is not the bytes of version {idx} "
                    f"(old/new blend)"
                )
            elif idx < acked - 1:
                problems.append(
                    f"rollback: version {idx} recovered after version "
                    f"{acked - 1} was acked durable"
                )
        return [f"{self.name}: {p}" for p in problems]

    def fault_plans(self, seed: int) -> List[FailPlan]:
        return _fault_plans(
            ops=("open", "write", "flush", "fsync", "replace", "dir_fsync"),
            crash_ops=("write", "fsync", "replace"), seed=seed + 2,
        )

    def fault_run(self, plan: FailPlan, workdir: Path) -> List[str]:
        target = workdir / self.filename
        payloads = self._payloads()
        layer = StorageLayer(plan=plan)
        problems: List[str] = []
        last_ok: Optional[int] = None
        for idx, payload in enumerate(payloads):
            try:
                write_snapshot(
                    target, {"run": "torture", "idx": idx}, payload,
                    storage=layer,
                )
                last_ok = idx
            except CheckpointWriteError:
                continue
            except CrashPoint:
                break
            except BaseException as exc:  # noqa: BLE001 - diagnostic
                problems.append(
                    f"untyped {type(exc).__name__} escaped write_snapshot; "
                    f"expected CheckpointWriteError"
                )
                break
        try:
            meta, payload = read_snapshot(target)
        except CheckpointCorruptError:
            if target.exists():
                problems.append("failed write left a torn envelope behind")
            elif last_ok is not None:
                problems.append(
                    f"version {last_ok} was written successfully but no "
                    f"envelope survived"
                )
        else:
            idx = meta.get("idx")
            if not isinstance(idx, int) or not 0 <= idx < len(payloads):
                problems.append(f"recovered meta names unknown version {idx!r}")
            elif payload != payloads[idx]:
                problems.append(f"recovered payload blends versions (at {idx})")
            elif last_ok is not None and idx < last_ok:
                problems.append(
                    f"rollback: version {idx} on disk after version "
                    f"{last_ok} succeeded"
                )
        return [f"{self.name}: {p}" for p in problems]


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
class CacheProtocol:
    """Cache stores: valid-or-quarantined, never wrong bytes, never raises."""

    name = "cache"
    records = 8

    def _pairs(self) -> List[Tuple[str, str]]:
        out = []
        for i in range(self.records):
            key = hashlib.sha256(f"torture-cell-{i}".encode()).hexdigest()
            payload = json.dumps(
                {"cell": i, "value": 1.5 * i, "series": list(range(i + 3))},
                sort_keys=True, separators=(",", ":"),
            )
            out.append((key, payload))
        return out

    def run(self, layer: StorageLayer, workdir: Path) -> Dict[str, str]:
        cache = ResultCache(workdir, storage=layer)
        expect = {}
        for key, payload in self._pairs():
            cache.put(key, payload)
            expect[key] = payload
        return expect

    def check(self, state_dir: Path, acked: int,
              expect: Dict[str, str]) -> List[str]:
        cache = ResultCache(state_dir)
        problems: List[str] = []
        for key in sorted(expect):
            try:
                got = cache.get(key)
            except BaseException as exc:  # noqa: BLE001 - diagnostic
                problems.append(
                    f"get raised {type(exc).__name__} on a crash-state entry"
                )
                continue
            if got is not None and got != expect[key]:
                problems.append(
                    "get returned bytes that were never stored under "
                    f"{key[:12]}…"
                )
        return [f"{self.name}: {p}" for p in problems]

    def fault_plans(self, seed: int) -> List[FailPlan]:
        return _fault_plans(
            ops=("open", "write", "flush", "replace"),
            crash_ops=("write", "replace"), seed=seed + 3,
        )

    def fault_run(self, plan: FailPlan, workdir: Path) -> List[str]:
        pairs = self._pairs()
        layer = StorageLayer(plan=plan)
        cache = ResultCache(workdir, storage=layer)
        problems: List[str] = []
        stored: Dict[str, str] = {}
        injected_error = False
        for key, payload in pairs:
            try:
                if cache.put(key, payload):
                    stored[key] = payload
            except CrashPoint:
                break
            except BaseException as exc:  # noqa: BLE001 - diagnostic
                problems.append(
                    f"put raised {type(exc).__name__}; stores must degrade, "
                    f"never abort the cell"
                )
                break
        for index in plan.fired:
            if plan.rules[index].kind in ("error", "short"):
                injected_error = True
        if injected_error and cache.store_errors == 0:
            problems.append(
                "an injected store error was swallowed without being "
                "counted in stats()"
            )
        fresh = ResultCache(workdir)
        for key, payload in pairs:
            got = fresh.get(key)
            if key in stored and got != payload:
                problems.append(
                    f"put reported success but get lost {key[:12]}…"
                )
            elif got is not None and got != payload:
                problems.append(
                    f"get returned bytes never stored under {key[:12]}…"
                )
        return [f"{self.name}: {p}" for p in problems]


# ----------------------------------------------------------------------
# status heartbeat
# ----------------------------------------------------------------------
class StatusProtocol:
    """Status file: present implies complete and previously written."""

    name = "status"
    beats = 10
    filename = "status.json"

    def _payloads(self) -> List[str]:
        return [
            json.dumps(
                {"v": 1, "phase": "running", "heartbeats": i,
                 "sim_time": 10.0 * i},
                sort_keys=True,
            ) + "\n"
            for i in range(self.beats)
        ]

    def run(self, layer: StorageLayer, workdir: Path) -> List[str]:
        payloads = self._payloads()
        for i, payload in enumerate(payloads):
            write_status_payload(workdir / self.filename, payload, layer)
            layer.ack("status", str(i))
        return payloads

    def check(self, state_dir: Path, acked: int,
              expect: List[str]) -> List[str]:
        target = state_dir / self.filename
        problems: List[str] = []
        if target.exists():
            status = read_status(target)
            if status is None:
                problems.append(
                    "status file exists but is torn/empty — readers see a "
                    "published file that never parses"
                )
            else:
                rendered = json.dumps(status, sort_keys=True) + "\n"
                if rendered not in expect:
                    problems.append(
                        "status file holds content that was never written"
                    )
        return [f"{self.name}: {p}" for p in problems]

    def fault_plans(self, seed: int) -> List[FailPlan]:
        return _fault_plans(
            ops=("open", "write", "flush", "fsync", "replace"),
            crash_ops=("write", "fsync", "replace"), seed=seed + 4,
        )

    def fault_run(self, plan: FailPlan, workdir: Path) -> List[str]:
        target = workdir / self.filename
        payloads = self._payloads()[:6]
        layer = StorageLayer(plan=plan)
        problems: List[str] = []
        for payload in payloads:
            try:
                write_status_payload(target, payload, layer)
            except CrashPoint:
                break
            except OSError:
                continue
            except BaseException as exc:  # noqa: BLE001 - diagnostic
                problems.append(
                    f"untyped {type(exc).__name__} escaped the status writer"
                )
                break
        if target.exists():
            status = read_status(target)
            if status is None:
                problems.append("failed/crashed write published a torn file")
            else:
                rendered = json.dumps(status, sort_keys=True) + "\n"
                if rendered not in payloads:
                    problems.append("status file holds never-written content")
        return [f"{self.name}: {p}" for p in problems]


# ----------------------------------------------------------------------
# the whole streaming service
# ----------------------------------------------------------------------
class _ServeLayer(StorageLayer):
    """The service's layer: keeps what it publishes and acks each save.

    ``ServeSession.save`` ends in :func:`write_snapshot`, which ends in
    this ``write_atomic``, so the snapshot write returning is the save
    returning.
    """

    def __init__(self, snapshot: Path, plan: Optional[FailPlan] = None,
                 trace: Optional[OpTrace] = None,
                 drop_fsync: bool = False) -> None:
        super().__init__(plan=plan, trace=trace, drop_fsync=drop_fsync)
        self.snapshot = snapshot
        #: file name -> the bytes of every write_atomic that returned
        self.published: Dict[str, List[bytes]] = {}

    def write_atomic(self, path: Any, *chunks: bytes,
                     sync_file: bool = True, sync_dir: bool = False) -> None:
        super().write_atomic(path, *chunks, sync_file=sync_file,
                             sync_dir=sync_dir)
        versions = self.published.setdefault(Path(path).name, [])
        versions.append(b"".join(chunks))
        if Path(path) == self.snapshot:
            self.ack("save", str(len(versions) - 1))


class _OfferAcks:
    """Simulator observer that acks each arrival as it is offered.

    An observer runs before the event's callback, so the ack precedes
    the offer: a crash state that counts it must already hold the
    arrival's journal record.  Arrivals are offered in sequence order,
    so ``offered`` is also the highest offered sequence number.
    """

    def __init__(self, layer: StorageLayer) -> None:
        self.layer = layer
        self.offered = 0

    def on_event(self, event: Any) -> None:
        if event.label.startswith("arrival:"):
            self.offered += 1
            self.layer.ack("offer", event.label)


class _ServeOracle(NamedTuple):
    """What the uninterrupted traced run left behind, to judge by."""

    #: stats digest at drain
    digest: str
    #: journal records, in sequence order
    lines: List[str]
    #: every snapshot envelope, in save order
    saves: List[bytes]
    #: every status file version
    statuses: List[bytes]
    #: the run's acks, in order
    marks: List[TraceMark]


class ServeProtocol:
    """The whole service: arrival journal, autosnapshots and status file.

    A bounded journalled stream runs through ``ServeService`` with all
    three writing through one traced layer.  Each offered arrival and
    each save that returned is acked.  Every crash state must recover:

    * the journal is a prefix of the run's and holds every offered
      arrival;
    * a snapshot file is a whole envelope some save wrote, no older
      than the last acked save, and absent only before the first ack;
    * ``ServeService.restore`` from it (or, with no snapshot, a fresh
      run that replay-verifies the whole journal) drains to the
      uninterrupted stats digest;
    * the status file, if present, is a version some heartbeat wrote.

    Restores are memoised on (snapshot, journal records): states that
    differ only in the status file or the ack count share a verdict.
    """

    name = "serve"
    jobs = 40
    n_cpus = 16
    seed = 7
    every_events = 400
    step_events = 32
    journal = "arrivals.jsonl"
    snapshot = "serve.ckpt"
    status = "status.json"

    def __init__(self) -> None:
        self._oracle: Optional[_ServeOracle] = None
        self._verdicts: Dict[Tuple[Optional[str], Tuple[str, ...]], List[str]] = {}

    def _session(self) -> ServeSession:
        source = SyntheticSource(
            TABLE1_MIXES["w2"], 1.0, n_cpus=self.n_cpus, seed=self.seed,
            max_jobs=self.jobs,
        )
        return build_serve_session(
            "PDPA", source,
            config=ExperimentConfig(n_cpus=self.n_cpus, seed=self.seed),
            serve_config=ServeConfig(step_events=self.step_events), load=1.0,
        )

    def _service(self, layer: _ServeLayer, workdir: Path) -> ServeService:
        return ServeService(
            self._session(),
            journal_path=workdir / self.journal,
            status_path=workdir / self.status,
            checkpoint=CheckpointPlan(workdir / self.snapshot,
                                      self.every_events),
            clock=ReportClock(now=FakeClock()),
            storage=layer,
        )

    def run(self, layer: StorageLayer, workdir: Path) -> _ServeOracle:
        served = _ServeLayer(workdir / self.snapshot, trace=layer.trace,
                             drop_fsync=layer.drop_fsync)
        service = self._service(served, workdir)
        service.session.sim.attach_observer(_OfferAcks(served))
        code = service.run(handle_signals=False)
        assert code == 0, f"the uninterrupted serve run exited {code}"
        assert service.journal is not None and layer.trace is not None
        self._oracle = _ServeOracle(
            digest=service.session.stats.digest(),
            lines=[e.to_json() for e in service.journal.entries.values()],
            saves=served.published.get(self.snapshot, []),
            statuses=served.published.get(self.status, []),
            marks=list(layer.trace.marks),
        )
        return self._oracle

    def check(self, state_dir: Path, acked: int,
              expect: _ServeOracle) -> List[str]:
        marks = expect.marks[:acked]
        saved = [int(m.data) for m in marks if m.label == "save"]
        problems = self._recover(
            state_dir, expect,
            offered=sum(1 for m in marks if m.label == "offer"),
            last_save=saved[-1] if saved else None,
        )
        status = state_dir / self.status
        if status.exists() and status.read_bytes() not in expect.statuses:
            problems.append(
                "status file is neither an old record nor a new one "
                "(torn, empty or never written)"
            )
        return [f"{self.name}: {p}" for p in problems]

    def _recover(self, state_dir: Path, expect: _ServeOracle, offered: int,
                 last_save: Optional[int]) -> List[str]:
        """Journal and snapshot invariants, then restore and drain."""
        lines = _recovered(ArrivalJournal, state_dir / self.journal)
        problems = _check_prefix(lines, expect.lines, offered)
        snapshot = state_dir / self.snapshot
        blob = snapshot.read_bytes() if snapshot.exists() else None
        if blob is None:
            if last_save is not None:
                problems.append(
                    f"save {last_save} was acked but no snapshot survived"
                )
        elif blob not in expect.saves:
            problems.append("snapshot file is not an envelope any save wrote")
        elif last_save is not None and expect.saves.index(blob) < last_save:
            problems.append(
                f"rollback: save {expect.saves.index(blob)} on disk after "
                f"save {last_save} was acked"
            )
        if problems:
            return problems
        key = (
            hashlib.sha256(blob).hexdigest() if blob is not None else None,
            tuple(lines),
        )
        if key not in self._verdicts:
            self._verdicts[key] = self._drain(state_dir, blob is not None,
                                              expect.digest)
        return list(self._verdicts[key])

    def _drain(self, state_dir: Path, restore: bool, want: str) -> List[str]:
        """Recover from *state_dir* and run to drain; what went wrong."""
        from repro.validate import validate_stream

        path = state_dir / self.journal
        try:
            if restore:
                service = ServeService.restore(state_dir / self.snapshot, path)
            else:
                journal = ArrivalJournal(path, resume=True)
                session = self._session()
                session.pump.set_replay(journal.tail_after(0))
                service = ServeService(session, journal=journal)
            code = service.run(handle_signals=False)
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            return [f"recovery raised {type(exc).__name__}: {exc}"]
        how = "restore" if restore else "fresh replay-verified run"
        problems = [f"{how}: {v.render()}" for v in validate_stream(service.session)]
        if code != 0:
            problems.append(f"{how} exited {code}")
        if service.session.stats.digest() != want:
            problems.append(f"{how} drained to a different stats digest")
        return problems

    def fault_plans(self, seed: int) -> List[FailPlan]:
        return _fault_plans(
            ops=("open", "write", "flush", "fsync", "replace", "dir_fsync"),
            crash_ops=("write", "fsync", "replace"), seed=seed + 5,
        )

    def fault_run(self, plan: FailPlan, workdir: Path) -> List[str]:
        expect = self._oracle
        assert expect is not None, "run() the protocol before its fault pass"
        layer = _ServeLayer(workdir / self.snapshot, plan=plan)
        service = self._service(layer, workdir)
        offers = _OfferAcks(layer)
        service.session.sim.attach_observer(offers)
        assert service.journal is not None
        try:
            code = service.run(handle_signals=False)
        except CrashPoint:
            if service.journal.broken is not None:
                # a broken journal drained the stream before the crash:
                # its snapshots are of that drain, not of the full run
                problems = self._after_fault(workdir, expect, offers.offered)
            else:
                problems = self._recover(workdir, expect, offers.offered, None)
            return [f"{self.name}: {p}" for p in problems]
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            return [f"{self.name}: untyped {type(exc).__name__} escaped the "
                    f"service run"]
        stats = service.session.stats
        problems = self._after_fault(workdir, expect, stats.submitted)
        if service.journal.broken is not None:
            if code != EXIT_STORAGE:
                problems.append(
                    f"journal broke but the service exited {code}, "
                    f"not {EXIT_STORAGE}"
                )
            if not service.session.complete:
                problems.append("journal broke and admitted work was abandoned")
        else:
            if code != 0:
                problems.append(f"service exited {code} with an intact journal")
            if stats.digest() != expect.digest:
                problems.append("a survived fault changed the stats digest")
            if _recovered(ArrivalJournal, workdir / self.journal) != expect.lines:
                problems.append("journal lost arrivals without breaking")
            errors = [i for i in plan.fired
                      if plan.rules[i].kind in ("error", "short")]
            if errors and service.storage_errors == 0:
                problems.append(
                    "an injected snapshot or status failure was not counted"
                )
        return [f"{self.name}: {p}" for p in problems]

    def _after_fault(self, workdir: Path, expect: _ServeOracle,
                     offered: int) -> List[str]:
        """After a fault: every offered arrival journalled, a whole snapshot."""
        recovered = _recovered(ArrivalJournal, workdir / self.journal)
        problems = _check_prefix(recovered, expect.lines, offered)
        snapshot = workdir / self.snapshot
        if snapshot.exists():
            try:
                read_snapshot(snapshot)
            except CheckpointError as exc:
                problems.append(
                    f"a failed write left a snapshot that does not verify "
                    f"({type(exc).__name__})"
                )
        return problems


_PROTOCOLS: Dict[str, Any] = {
    JournalProtocol.name: JournalProtocol,
    CheckpointProtocol.name: CheckpointProtocol,
    CacheProtocol.name: CacheProtocol,
    StatusProtocol.name: StatusProtocol,
    ServeProtocol.name: ServeProtocol,
}


# ----------------------------------------------------------------------
# the campaign driver
# ----------------------------------------------------------------------
def _preserve_failure(keep_dir: Path, protocol: str, label: str,
                      state_dir: Path, violations: List[str]) -> None:
    safe = label.replace("/", "_")
    dest = keep_dir / protocol / safe
    if dest.exists():
        return
    dest.parent.mkdir(parents=True, exist_ok=True)
    shutil.copytree(state_dir, dest)
    (dest / "VIOLATIONS.txt").write_text(
        "".join(f"{v}\n" for v in violations), encoding="utf-8"
    )


def run_protocol_torture(
    protocol: Any,
    seed: int,
    budget: int,
    base_dir: Path,
    mutate: Optional[str] = None,
    keep_failures: Optional[Path] = None,
) -> TortureReport:
    """Torture one protocol: crash-state enumeration plus the fault matrix.

    *protocol* is a name from :data:`PROTOCOL_NAMES` or a harness
    instance such as ``JournalProtocol(SweepJournal)``.
    *budget* caps the number of crash states checked (0 = unbounded).
    *mutate* (``"drop-fsync"``) runs the protocol on a layer that
    silently skips every fsync — the enumerator must then find
    violations, proving it can catch a real fsync regression.  The
    fault pass is skipped under mutation (it tests the un-mutated
    degraded-behavior contract).
    """
    harness = _PROTOCOLS[protocol]() if isinstance(protocol, str) else protocol
    protocol = harness.name
    report = TortureReport(protocol)
    proto_dir = base_dir / protocol
    workdir = proto_dir / "run"
    workdir.mkdir(parents=True, exist_ok=True)
    trace = OpTrace(workdir)
    layer = StorageLayer(trace=trace, drop_fsync=mutate == "drop-fsync")
    expect = harness.run(layer, workdir)

    state_dir = proto_dir / "state"
    for state in enumerate_crash_states(trace):
        if budget and report.crash_states >= budget:
            break
        report.crash_states += 1
        if state_dir.exists():
            shutil.rmtree(state_dir)
        materialise(state, state_dir)
        acked = trace.acked_at(state.cut)
        found = harness.check(state_dir, acked, expect)
        if found:
            labelled = [f"{v} [state {state.label}]" for v in found]
            report.violations.extend(labelled)
            if keep_failures is not None:
                _preserve_failure(
                    keep_failures, protocol, state.label, state_dir, labelled
                )

    if mutate is None:
        for index, plan in enumerate(harness.fault_plans(seed)):
            fault_dir = proto_dir / "fault"
            if fault_dir.exists():
                shutil.rmtree(fault_dir)
            fault_dir.mkdir(parents=True)
            report.fault_runs += 1
            found = harness.fault_run(plan, fault_dir)
            if found:
                label = f"fault{index}:{plan.describe()}"
                labelled = [f"{v} [{label}]" for v in found]
                report.violations.extend(labelled)
                if keep_failures is not None:
                    _preserve_failure(
                        keep_failures, protocol, label, fault_dir, labelled
                    )
    return report


def run_torture(
    protocols: Sequence[str],
    seed: int,
    budget: int,
    base_dir: Path,
    mutate: Optional[str] = None,
    keep_failures: Optional[Path] = None,
) -> List[TortureReport]:
    """Run the torture campaign for *protocols* (in canonical order)."""
    order = [name for name in PROTOCOL_NAMES if name in protocols]
    unknown = sorted(set(protocols) - set(PROTOCOL_NAMES))
    if unknown:
        raise ValueError(f"unknown protocol(s): {', '.join(unknown)}")
    return [
        run_protocol_torture(
            name, seed=seed, budget=budget, base_dir=base_dir,
            mutate=mutate, keep_failures=keep_failures,
        )
        for name in order
    ]
