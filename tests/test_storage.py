"""The fault-injectable storage layer (:mod:`repro.storage`).

Four aspects under test:

* **FailPlan** — deterministic fault schedules: nth-occurrence
  counting, path globs, persistence, seeded plans;
* **layer primitives** — tracing, deterministic temp names, short
  writes, fsyncgate page-drop emulation (failed fsync truncates to
  the last synced size), crash points that survive ``except
  Exception`` cleanup, and the atomic write protocol;
* **wired protocols degraded behaviors** — the record journal breaks
  permanently on the first IO failure, the status writer fsyncs
  before renaming, the cache degrades to "not cached" with an honest
  counter, the checkpoint writer fails typed with the previous
  envelope intact;
* **the record journal** — resuming a torn or ragged journal rewrites
  it so later appends stay recoverable, a line that parses but is no
  record counts as a tear, the on-disk bytes match golden digests,
  and the hypothesis fixed-point property holds over every torn
  prefix.  Journal tests run over both entry types: the service's
  arrivals and the sweep's cells.
"""

from __future__ import annotations

import errno
import hashlib
import json
from typing import Any, Callable, Hashable, List, NamedTuple, Type

import pytest
from hypothesis import given, strategies as st

from repro.checkpoint.errors import CheckpointCorruptError, CheckpointWriteError
from repro.checkpoint.format import read_snapshot, write_snapshot
from repro.fuzz.profiles import tier_settings
from repro.parallel.cache import ResultCache
from repro.parallel.journal import SweepJournal
from repro.serve.journal import ArrivalJournal, JournalEntry
from repro.serve.service import read_status, write_status_payload
from repro.storage.layer import (
    CrashPoint,
    JournalWriteError,
    OpTrace,
    StorageError,
    StorageLayer,
)
from repro.storage.plan import FailPlan, FailRule


def entry(seq: int, app: str = "w2") -> JournalEntry:
    return JournalEntry(seq=seq, job_id=100 + seq, app=app,
                        submit=1.5 * seq, request=4)


class Kind(NamedTuple):
    """One journal flavour: its class, how to append record *n*, its key."""

    name: str
    journal: Type[Any]
    add: Callable[[Any, int, str], None]
    key: Callable[[int], Hashable]

    def keys(self, *numbers: int) -> List[Hashable]:
        return [self.key(n) for n in numbers]


KINDS = (
    Kind("arrivals", ArrivalJournal,
         lambda journal, n, tag="": journal.append([entry(n, app="w2" + tag)]),
         lambda n: n),
    Kind("cells", SweepJournal,
         lambda journal, n, tag="": journal.append(
             f"k{n}", f"payload-{n}{tag}", label=f"c{n}"),
         lambda n: f"k{n}"),
)


@pytest.fixture(params=KINDS, ids=[k.name for k in KINDS])
def kind(request) -> Kind:
    return request.param


class TestFailPlan:
    def test_fires_on_nth_occurrence_only(self):
        plan = FailPlan.single("write", nth=3, err=errno.ENOSPC)
        assert plan.consult("write", "a") is None
        assert plan.consult("write", "a") is None
        rule = plan.consult("write", "a")
        assert rule is not None and rule.err == errno.ENOSPC
        assert plan.consult("write", "a") is None  # not persistent

    def test_persistent_keeps_firing(self):
        plan = FailPlan([FailRule("fsync", nth=2, persistent=True)])
        assert plan.consult("fsync", "x") is None
        assert plan.consult("fsync", "x") is not None
        assert plan.consult("fsync", "x") is not None

    def test_path_glob_matches_basename(self):
        plan = FailPlan.single("write", path_glob="*.journal")
        assert plan.consult("write", "/tmp/run/sweep.journal") is not None
        plan.reset()
        assert plan.consult("write", "/tmp/run/status.json") is None

    def test_other_ops_do_not_advance_counter(self):
        plan = FailPlan.single("fsync", nth=1)
        assert plan.consult("write", "a") is None
        assert plan.consult("fsync", "a") is not None

    def test_seeded_plans_deterministic(self):
        a, b = FailPlan.seeded(99), FailPlan.seeded(99)
        assert a.describe() == b.describe()
        assert FailPlan.seeded(100).describe() != a.describe()

    def test_reset_restarts_counting(self):
        plan = FailPlan.single("write", nth=2)
        plan.consult("write", "a")
        assert plan.consult("write", "a") is not None
        plan.reset()
        assert plan.consult("write", "a") is None
        assert plan.consult("write", "a") is not None


class TestStorageLayer:
    def test_trace_records_op_sequence(self, tmp_path):
        trace = OpTrace(tmp_path)
        layer = StorageLayer(trace=trace)
        handle = layer.open_append(tmp_path / "f.log")
        layer.write(handle, b"hello")
        layer.flush(handle)
        layer.fsync(handle)
        handle.close()
        assert [op.op for op in trace.ops] == [
            "open", "dir_fsync", "write", "flush", "fsync"
        ]
        assert (tmp_path / "f.log").read_bytes() == b"hello"

    def test_injected_write_error_is_storage_error(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single("write", err=errno.ENOSPC))
        handle = layer.open_append(tmp_path / "f.log")
        with pytest.raises(StorageError) as info:
            layer.write(handle, b"data")
        assert info.value.errno == errno.ENOSPC
        assert isinstance(info.value, OSError)
        assert layer.faults_injected == 1

    def test_short_write_leaves_partial_bytes(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single("write", kind="short"))
        handle = layer.open_append(tmp_path / "f.log")
        with pytest.raises(StorageError):
            layer.write(handle, b"0123456789")
        handle.close()
        assert (tmp_path / "f.log").read_bytes() == b"01234"

    def test_fsyncgate_truncates_to_synced_size(self, tmp_path):
        # A failed fsync may drop dirty pages while marking them clean;
        # the layer emulates the worst case by truncating to the last
        # size an fsync succeeded at.
        layer = StorageLayer(plan=FailPlan.single("fsync", nth=2))
        handle = layer.open_append(tmp_path / "f.log")
        layer.write(handle, b"first|")
        layer.fsync(handle)
        layer.write(handle, b"second|")
        with pytest.raises(StorageError):
            layer.fsync(handle)
        handle.close()
        assert (tmp_path / "f.log").read_bytes() == b"first|"

    def test_crash_point_is_not_an_exception(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single("write", kind="crash"))
        handle = layer.open_append(tmp_path / "f.log")
        # a protocol's `except Exception` cleanup must not swallow a
        # simulated power cut
        with pytest.raises(CrashPoint):
            try:
                layer.write(handle, b"data")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("CrashPoint was caught by `except Exception`")

    def test_crash_happens_after_the_op(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single("write", kind="crash"))
        handle = layer.open_append(tmp_path / "f.log")
        with pytest.raises(CrashPoint):
            layer.write(handle, b"landed")
        assert (tmp_path / "f.log").read_bytes() == b"landed"

    def test_write_atomic_is_all_or_nothing(self, tmp_path):
        target = tmp_path / "out.json"
        layer = StorageLayer()
        layer.write_atomic(target, b"one", b"two")
        assert target.read_bytes() == b"onetwo"
        failing = StorageLayer(plan=FailPlan.single("write"))
        with pytest.raises(StorageError):
            failing.write_atomic(target, b"NEW")
        assert target.read_bytes() == b"onetwo"  # old content intact
        # and the failed attempt's temp file was cleaned up
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_write_atomic_crash_keeps_temp_not_target(self, tmp_path):
        target = tmp_path / "out.json"
        StorageLayer().write_atomic(target, b"v1")
        layer = StorageLayer(plan=FailPlan.single("fsync", kind="crash"))
        with pytest.raises(CrashPoint):
            layer.write_atomic(target, b"v2")
        assert target.read_bytes() == b"v1"

    def test_temp_names_are_deterministic(self, tmp_path):
        layer = StorageLayer()
        a = layer.open_tmp(tmp_path, suffix=".x")
        b = layer.open_tmp(tmp_path, suffix=".x")
        assert a.path.name == ".tmp-1.x"
        assert b.path.name == ".tmp-2.x"

    def test_trace_rejects_path_escape(self, tmp_path):
        trace = OpTrace(tmp_path / "root")
        with pytest.raises(ValueError):
            trace.rel(tmp_path / "elsewhere" / "f")


class TestJournalFsyncgate:
    """After a failed append, the journal breaks permanently."""

    # a failed write never lands; a failed flush breaks the journal
    # but the record already reached the kernel (recovering it is
    # legal — recovery may exceed the acked count, never trail it);
    # a failed fsync truncates to the last synced size (fsyncgate)
    @pytest.mark.parametrize("nth_op,recovered_seqs", [
        ("write", [1, 2]),
        ("flush", [1, 2, 3]),
        ("fsync", [1, 2]),
    ])
    def test_journal_breaks_permanently(self, tmp_path, kind, nth_op,
                                        recovered_seqs):
        layer = StorageLayer(plan=FailPlan.single(nth_op, nth=3))
        journal = kind.journal(tmp_path / "j.jsonl", storage=layer)
        kind.add(journal, 1)
        kind.add(journal, 2)
        with pytest.raises(JournalWriteError):
            kind.add(journal, 3)
        assert journal.broken is not None
        # the plan only fires once; the refusal is the journal's own
        with pytest.raises(JournalWriteError):
            kind.add(journal, 4)
        assert list(journal.entries) == kind.keys(1, 2)
        resumed = kind.journal(tmp_path / "j.jsonl", resume=True)
        assert list(resumed.entries) == kind.keys(*recovered_seqs)

    def test_fsyncgate_failed_append_leaves_no_torn_record(self, tmp_path):
        # the truncate-to-synced-size emulation means the failed
        # record's bytes are gone, not half-present
        layer = StorageLayer(plan=FailPlan.single("fsync", nth=2))
        journal = ArrivalJournal(tmp_path / "j.jsonl", storage=layer)
        journal.append([entry(1)])
        size_before = (tmp_path / "j.jsonl").stat().st_size
        with pytest.raises(JournalWriteError):
            journal.append([entry(2)])
        assert (tmp_path / "j.jsonl").stat().st_size == size_before


class TestStatusWriter:
    """Satellite 2: fsync-before-rename, old-or-new-never-torn."""

    def test_payload_lands_and_parses(self, tmp_path):
        target = tmp_path / "status.json"
        payload = json.dumps({"v": 1, "phase": "running"}, sort_keys=True)
        write_status_payload(target, payload + "\n")
        assert read_status(target) == {"v": 1, "phase": "running"}

    def test_fsync_precedes_rename(self, tmp_path):
        # the regression that makes a crash leave a zero-length status
        # file on ext4: rename published before the data was durable
        trace = OpTrace(tmp_path)
        layer = StorageLayer(trace=trace)
        write_status_payload(tmp_path / "status.json", '{"v": 1}\n', layer)
        ops = [op.op for op in trace.ops]
        assert "fsync" in ops and "replace" in ops
        assert ops.index("fsync") < ops.index("replace")

    def test_failed_write_keeps_old_status(self, tmp_path):
        target = tmp_path / "status.json"
        write_status_payload(target, '{"v": 1, "phase": "old"}\n')
        layer = StorageLayer(plan=FailPlan.single("write", err=errno.ENOSPC))
        with pytest.raises(OSError):
            write_status_payload(target, '{"v": 1, "phase": "new"}\n', layer)
        assert read_status(target) == {"v": 1, "phase": "old"}


class TestCacheDegradation:
    """Satellite 3: store errors skip caching, never abort the cell."""

    def test_enospc_store_is_skipped_and_counted(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single(
            "write", err=errno.ENOSPC, persistent=True
        ))
        cache = ResultCache(tmp_path, storage=layer)
        assert cache.put("a" * 64, "payload") is False
        assert cache.put("b" * 64, "payload") is False
        assert cache.get("a" * 64) is None
        assert cache.store_errors == 2
        assert cache.stats()["store_errors"] == 2

    def test_successful_put_returns_true(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.put("c" * 64, "payload") is True
        assert cache.get("c" * 64) == "payload"
        assert cache.stats()["store_errors"] == 0

    def test_store_error_logged_once(self, tmp_path, caplog):
        layer = StorageLayer(plan=FailPlan.single(
            "write", err=errno.ENOSPC, persistent=True
        ))
        cache = ResultCache(tmp_path, storage=layer)
        with caplog.at_level("WARNING", logger="repro.parallel.cache"):
            cache.put("d" * 64, "p1")
            cache.put("e" * 64, "p2")
        assert len([r for r in caplog.records
                    if "store failed" in r.message]) == 1


class TestCheckpointWriter:
    def test_failed_write_is_typed_and_leaves_old_snapshot(self, tmp_path):
        target = tmp_path / "state.ckpt"
        write_snapshot(target, {"idx": 0}, b"old-payload")
        layer = StorageLayer(plan=FailPlan.single("fsync"))
        with pytest.raises(CheckpointWriteError):
            write_snapshot(target, {"idx": 1}, b"new-payload", storage=layer)
        meta, payload = read_snapshot(target)
        assert meta["idx"] == 0 and payload == b"old-payload"

    def test_first_write_failure_leaves_nothing(self, tmp_path):
        target = tmp_path / "state.ckpt"
        layer = StorageLayer(plan=FailPlan.single("write"))
        with pytest.raises(CheckpointWriteError):
            write_snapshot(target, {"idx": 0}, b"payload", storage=layer)
        with pytest.raises(CheckpointCorruptError):
            read_snapshot(target)
        assert not target.exists()


def _journal_bytes(kind: Kind, path, numbers) -> bytes:
    journal = kind.journal(path)
    for n in numbers:
        kind.add(journal, n)
    journal.close()
    return path.read_bytes()


class TestTornTailCompaction:
    def test_append_after_torn_resume_stays_recoverable(self, tmp_path,
                                                        kind):
        raw = _journal_bytes(kind, tmp_path / "full.jsonl", range(1, 7))
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(raw[:-9])  # tear the last record
        journal = kind.journal(torn, resume=True)
        assert journal.torn_tail
        assert list(journal.entries) == kind.keys(1, 2, 3, 4, 5)
        kind.add(journal, 6)
        journal.close()
        # without compaction-on-resume, record 6 would hide behind the
        # unparseable line and recovery would stop at 5
        recovered = kind.journal(torn, resume=True)
        assert not recovered.torn_tail
        assert list(recovered.entries) == kind.keys(1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize("bad", ["123", "[1]", "nulled"])
    def test_wrong_shape_record_is_a_torn_tail(self, tmp_path, kind, bad):
        # valid JSON that is no record stops the load like a torn line
        path = tmp_path / "j.jsonl"
        raw = _journal_bytes(kind, path, (1, 2))
        last = raw.splitlines()[-1]
        if bad == "nulled":
            fields = dict.fromkeys(json.loads(last))
            bad = json.dumps({**fields, "v": 1})
        path.write_bytes(raw + bad.encode() + b"\n" + last + b"\n")
        journal = kind.journal(path, resume=True)
        assert journal.torn_tail
        assert journal.duplicates == 0  # nothing behind the bad line
        assert list(journal.entries) == kind.keys(1, 2)
        kind.add(journal, 3)
        journal.close()
        recovered = kind.journal(path, resume=True)
        assert list(recovered.entries) == kind.keys(1, 2, 3)


#: What each scenario leaves on disk: the keys of the records the file
#: holds, in file order, and the SHA-256 of its bytes.  The digests are
#: the bytes the arrival and sweep journals wrote before they shared
#: one implementation; compaction must keep first-seen key order.
GOLDEN = {
    ("arrivals", "fresh"): (
        [1, 2, 3, 4],
        "18723f1b34c5bfac29b7a824ed55ae9ff8e47db1ac0327b1604558cdd122f104"),
    ("arrivals", "torn"): (
        [1, 2, 3, 5],
        "6e2b6b5b27ce411427ca326fef089d9e55be220e79b483fa37a6ddd5359c38dc"),
    ("arrivals", "ragged"): (
        [1, 2, 3, 4, 5],
        "b222b43e67ca479e43063ed25f62546a0700921c62cfbaab2718d916a5ef4ae5"),
    ("arrivals", "duplicates"): (
        [1, 2, 3, 5],
        "ccb108f992077c1a74b9386e6429c3d1f329b7ba4d02ef99b4482c41d9b49ab2"),
    ("cells", "fresh"): (
        ["k1", "k2", "k3", "k4"],
        "7e79788d17a946ca02b39a2feb9c1419b33ccf494dd49c52d959ed925d4ce579"),
    ("cells", "torn"): (
        ["k1", "k2", "k3", "k5"],
        "af219881100644c8076de16c1602f11d5e5a0a709568690c95f859469351a995"),
    ("cells", "ragged"): (
        ["k1", "k2", "k3", "k4", "k5"],
        "4f50c8baf0db8bd4d233bb84051d0a66171b6f9253f85bb427d2733c3838157b"),
    ("cells", "duplicates"): (
        ["k1", "k2", "k3", "k5"],
        "9d593fc4c29d4f8e6834c542690a4adb758a87e346d1595c7adc304e8a3b11c9"),
}


def _golden_scenario(kind: Kind, scenario: str, path) -> bytes:
    """Fresh appends, or a resume after a torn tail, a ragged tail, or
    a journal holding a duplicate key, then one more append."""
    if scenario == "fresh":
        return _journal_bytes(kind, path, (1, 2, 3, 4))
    if scenario == "duplicates":
        journal = kind.journal(path)
        for n, tag in ((1, ""), (2, ""), (3, ""), (2, "-again"), (4, "")):
            kind.add(journal, n, tag)
        journal.close()
        path.write_bytes(path.read_bytes()[:-9])
    else:
        raw = _journal_bytes(kind, path, (1, 2, 3, 4))
        path.write_bytes(raw[:-9] if scenario == "torn" else raw[:-1])
    journal = kind.journal(path, resume=True)
    kind.add(journal, 5)
    journal.close()
    return path.read_bytes()


@pytest.mark.parametrize("scenario", ["fresh", "torn", "ragged", "duplicates"])
def test_journal_bytes_match_golden(tmp_path, kind, scenario):
    keys, digest = GOLDEN[kind.name, scenario]
    raw = _golden_scenario(kind, scenario, tmp_path / "j.jsonl")
    assert list(kind.journal(tmp_path / "j.jsonl", resume=True).entries) == keys
    assert hashlib.sha256(raw).hexdigest() == digest


def _reference_journal_bytes(tmp_path) -> bytes:
    journal = ArrivalJournal(tmp_path / "ref.jsonl")
    for seq in range(1, 9):
        journal.append([entry(seq)])
    journal.close()
    return (tmp_path / "ref.jsonl").read_bytes()


@tier_settings("standard")
@given(cut=st.integers(min_value=0, max_value=400))
def test_torn_prefix_recovery_is_a_fixed_point(cut, tmp_path_factory):
    """Satellite 4: recovery of a recovered journal changes nothing.

    For *every* byte-prefix of a real arrival journal: loading
    recovers exactly the intact record prefix, a second load recovers
    the same entries, and an append after recovery survives the next
    load — replay state reaches a fixed point in one step.
    """
    tmp_path = tmp_path_factory.mktemp("fp")
    raw = _reference_journal_bytes(tmp_path)
    cut = min(cut, len(raw))
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(raw[:cut])

    # a record is recoverable once its JSON bytes are all present —
    # the trailing newline is separator, not content
    expected = []
    start = 0
    for line in raw.split(b"\n"):
        if not line:
            continue
        if start + len(line) <= cut:
            expected.append(JournalEntry.from_json(line.decode()).seq)
        start += len(line) + 1

    first = ArrivalJournal(torn, resume=True)
    assert sorted(first.entries) == expected
    second = ArrivalJournal(torn, resume=True)
    assert second.entries.keys() == first.entries.keys()
    assert not second.torn_tail  # compaction happened at most once
    next_seq = max(expected, default=0) + 1
    second.append([entry(next_seq)])
    second.close()
    third = ArrivalJournal(torn, resume=True)
    assert sorted(third.entries) == expected + [next_seq]
