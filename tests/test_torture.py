"""The crash-state enumerator and protocol torture harnesses.

Three layers under test:

* **the crash model** — which op effects survive a cut: writes only
  up to their last fsync, creations/renames only up to their parent
  dir's fsync, in-order writeback, torn final writes, and
  deduplication keyed on (content, acked count);
* **the campaign** — every protocol runs clean through its full
  enumeration plus fault matrix, deterministically per seed;
* **the self-test** — a layer that silently drops every fsync must
  be *caught* by the enumerator (otherwise a real missing-fsync
  regression would sail through), and :func:`validate_torture`
  enforces the coverage floor so a shrunken enumeration cannot claim
  a clean bill.

The full campaign runs in the CI ``torture-smoke`` job
(``repro torture``); these tests keep budgets small.
"""

from __future__ import annotations

import pytest

from repro.parallel.journal import SweepJournal
from repro.serve.journal import ArrivalJournal
from repro.storage.layer import OpTrace, StorageLayer
from repro.storage.protocols import (
    PROTOCOL_NAMES,
    JournalProtocol,
    run_protocol_torture,
    run_torture,
)
from repro.storage.torture import (
    build_state,
    durable_indices,
    enumerate_crash_states,
    materialise,
)
from repro.validate import validate_torture


#: the journal protocol over each write-ahead journal, by case name
JOURNALS = {"serve-journal": ArrivalJournal, "sweep-journal": SweepJournal}

#: every protocol, with the journal protocol once per journal
CASES = [*JOURNALS, *(name for name in PROTOCOL_NAMES if name != "journal")]


def _protocol(case: str):
    """*case* as :func:`run_protocol_torture` takes it."""
    if case in JOURNALS:
        return JournalProtocol(JOURNALS[case])
    return case


def _trace(tmp_path, script) -> OpTrace:
    trace = OpTrace(tmp_path)
    layer = StorageLayer(trace=trace)
    script(layer, tmp_path)
    return trace


class TestCrashModel:
    def test_unsynced_write_is_volatile(self, tmp_path):
        def script(layer, root):
            handle = layer.open_append(root / "f")
            layer.write(handle, b"data")
            handle.close()
        ops = _trace(tmp_path, script).ops
        durable = durable_indices(ops)
        write_idx = next(j for j, op in enumerate(ops) if op.op == "write")
        assert write_idx not in durable

    def test_fsync_makes_prior_writes_durable(self, tmp_path):
        def script(layer, root):
            handle = layer.open_append(root / "f")
            layer.write(handle, b"one")
            layer.write(handle, b"two")
            layer.fsync(handle)
            layer.write(handle, b"three")  # after the fsync: volatile
            handle.close()
        ops = _trace(tmp_path, script).ops
        durable = durable_indices(ops)
        writes = [j for j, op in enumerate(ops) if op.op == "write"]
        assert writes[0] in durable and writes[1] in durable
        assert writes[2] not in durable

    def test_rename_volatile_until_dir_fsync(self, tmp_path):
        # distinct parent dirs: a dir fsync covers exactly its own
        # directory's renames
        def script(layer, root):
            layer.write_atomic(root / "one" / "a.json", b"A", sync_dir=False)
            layer.write_atomic(root / "two" / "b.json", b"B", sync_dir=True)
        ops = _trace(tmp_path, script).ops
        durable = durable_indices(ops)
        replaces = [j for j, op in enumerate(ops) if op.op == "replace"]
        assert replaces[0] not in durable  # its parent was never fsync'd
        assert replaces[1] in durable

    def test_dropped_creation_drops_dependent_writes(self, tmp_path):
        def script(layer, root):
            handle = layer.open_append(root / "f")
            layer.write(handle, b"data")
            layer.fsync(handle)  # data synced, creation still volatile?
            handle.close()
        ops = _trace(tmp_path, script).ops
        # exclude the create: its write must not materialise either
        include = {j for j, op in enumerate(ops) if op.op != "open"}
        files = build_state(ops, include)
        assert files == {}

    def test_torn_write_truncates_bytes(self, tmp_path):
        def script(layer, root):
            handle = layer.open_append(root / "f")
            layer.write(handle, b"0123456789")
            handle.close()
        ops = _trace(tmp_path, script).ops
        write_idx = next(j for j, op in enumerate(ops) if op.op == "write")
        files = build_state(ops, set(range(len(ops))), {write_idx: 4})
        assert files["f"] == b"0123"

    def test_replace_moves_content(self, tmp_path):
        def script(layer, root):
            layer.write_atomic(root / "out.json", b"payload", sync_dir=True)
        ops = _trace(tmp_path, script).ops
        files = build_state(ops, set(range(len(ops))))
        assert files == {"out.json": b"payload"}  # temp consumed

    def test_enumeration_deterministic_and_deduped(self, tmp_path):
        def script(layer, root):
            handle = layer.open_append(root / "f")
            for chunk in (b"aa", b"bb", b"cc"):
                layer.write(handle, chunk)
                layer.fsync(handle)
                layer.ack("chunk")
            handle.close()
        trace = _trace(tmp_path, script)
        states_a = list(enumerate_crash_states(trace))
        states_b = list(enumerate_crash_states(trace))
        assert [(s.label, s.digest()) for s in states_a] == [
            (s.label, s.digest()) for s in states_b
        ]
        # distinct by (acked, content): no two states at the same ack
        # count share a digest
        keyed = [(trace.acked_at(s.cut), s.digest()) for s in states_a]
        assert len(keyed) == len(set(keyed))

    def test_materialise_roundtrip(self, tmp_path):
        def script(layer, root):
            layer.write_atomic(root / "sub" / "x.json", b"deep",
                               sync_dir=True)
        trace = _trace(tmp_path, script)
        final = list(enumerate_crash_states(trace))[-1]
        target = tmp_path / "state"
        materialise(final, target)
        assert (target / "sub" / "x.json").read_bytes() == b"deep"


class TestCampaign:
    @pytest.mark.parametrize("protocol", CASES)
    def test_protocol_runs_clean(self, tmp_path, protocol):
        report = run_protocol_torture(
            _protocol(protocol), seed=11, budget=40, base_dir=tmp_path
        )
        assert report.violations == []
        assert report.crash_states > 0
        assert report.fault_runs > 0

    def test_campaign_deterministic_per_seed(self, tmp_path):
        a = run_protocol_torture(
            "checkpoint", seed=5, budget=30, base_dir=tmp_path / "a"
        )
        b = run_protocol_torture(
            "checkpoint", seed=5, budget=30, base_dir=tmp_path / "b"
        )
        assert (a.crash_states, a.fault_runs, a.violations) == (
            b.crash_states, b.fault_runs, b.violations
        )

    def test_unknown_protocol_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_torture(["no-such-protocol"], seed=0, budget=10,
                        base_dir=tmp_path)

    def test_keep_failures_preserves_state(self, tmp_path):
        keep = tmp_path / "failures"
        report = run_protocol_torture(
            "status", seed=0, budget=60, base_dir=tmp_path / "scratch",
            mutate="drop-fsync", keep_failures=keep,
        )
        assert report.violations
        preserved = list(keep.rglob("VIOLATIONS.txt"))
        assert preserved, "violating states must be preserved on disk"
        assert "torn" in preserved[0].read_text()


class TestMutationSelfTest:
    """Dropping fsyncs must be *caught* — the enumerator's own audit."""

    @pytest.mark.parametrize(
        "protocol", [*JOURNALS, "checkpoint", "status"]
    )
    def test_drop_fsync_caught(self, tmp_path, protocol):
        report = run_protocol_torture(
            _protocol(protocol), seed=0, budget=120, base_dir=tmp_path,
            mutate="drop-fsync",
        )
        assert report.violations, (
            f"{protocol}: a protocol silently skipping every fsync was "
            f"not caught — the enumerator cannot detect missing fsyncs"
        )

    def test_cache_is_exempt_by_design(self, tmp_path):
        # the cache never fsyncs (documented trade: a torn record is
        # caught by its integrity header and quarantined), so there is
        # no fsync to drop and the mutant is indistinguishable
        report = run_protocol_torture(
            "cache", seed=0, budget=60, base_dir=tmp_path,
            mutate="drop-fsync",
        )
        assert report.violations == []


@pytest.fixture(scope="module")
def clean_reports(tmp_path_factory):
    """One full campaign, shared by the validator tests."""
    base = tmp_path_factory.mktemp("torture-clean")
    return run_torture(PROTOCOL_NAMES, seed=1, budget=40, base_dir=base)


class TestValidateTorture:
    def test_clean_campaign_validates(self, clean_reports):
        assert validate_torture(clean_reports, budget=40) == []
        assert sum(r.states for r in clean_reports) >= 200

    def test_violations_are_reported(self, tmp_path):
        reports = [run_protocol_torture(
            "status", seed=0, budget=60, base_dir=tmp_path,
            mutate="drop-fsync",
        )]
        problems = validate_torture(reports, budget=60)
        assert problems
        assert all(p.code == "torture-invariant" for p in problems)

    def test_coverage_floor_enforced(self, clean_reports):
        shrunk = []
        for report in clean_reports:
            copy = type(report)(report.protocol)
            copy.crash_states = 5
            copy.fault_runs = 5
            shrunk.append(copy)
        problems = validate_torture(shrunk, budget=0)
        assert [p.code for p in problems] == ["torture-coverage"]

    def test_small_budgets_waive_the_floor(self, clean_reports):
        shrunk = []
        for report in clean_reports:
            copy = type(report)(report.protocol)
            copy.crash_states = 5
            copy.fault_runs = 5
            shrunk.append(copy)
        assert validate_torture(shrunk, budget=10) == []
