"""Tests for the parallel sweep executor, cache and determinism guard.

The load-bearing guarantee of :mod:`repro.parallel` is that *where* a
cell executes can never change *what* it computes: a pool of worker
processes must produce byte-for-byte the records the serial path
produces, and a cache hit must return byte-for-byte what a fresh run
would.  These tests pin that guarantee down, including under fault
injection.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.experiments.common import (
    ExperimentConfig,
    run_workload,
    run_workload_cells,
    workload_cell_spec,
)
from repro.faults.scenarios import build_scenario
from repro.parallel import (
    PoisonCellError,
    ResultCache,
    SupervisionPolicy,
    SweepCell,
    SweepJournal,
    SweepRunner,
    UnserialisableRecord,
    UnserialisableValue,
    canonical_dumps,
    cell_key,
    code_version,
    execute_cell,
    payload_digest,
)
from repro.validate import validate_sweep

#: fast retry budget for failure-path tests (no real backoff waiting)
FAST = SupervisionPolicy(retries=2, backoff_base=0.001, backoff_cap=0.002)

#: Small machine + short window: each cell takes well under a second.
CONFIG = ExperimentConfig(n_cpus=32, duration=120.0, seed=7)


def _echo_cells(n):
    return [
        SweepCell(key=f"echo{i}", fn="repro.parallel.cells:echo_cell",
                  params={"i": i, "x": i * 0.1})
        for i in range(n)
    ]


class TestCellKey:
    def test_key_depends_on_params(self):
        a = cell_key("m:f", {"x": 1}, code="c")
        b = cell_key("m:f", {"x": 2}, code="c")
        assert a != b

    def test_key_depends_on_code_version(self):
        assert cell_key("m:f", {}, code="c1") != cell_key("m:f", {}, code="c2")

    def test_key_order_insensitive(self):
        a = cell_key("m:f", {"x": 1, "y": 2}, code="c")
        b = cell_key("m:f", {"y": 2, "x": 1}, code="c")
        assert a == b

    def test_dataclass_params_canonicalise(self):
        a = cell_key("m:f", {"config": CONFIG}, code="c")
        b = cell_key("m:f", {"config": ExperimentConfig(n_cpus=32, duration=120.0, seed=7)}, code="c")
        c = cell_key("m:f", {"config": CONFIG.with_seed(8)}, code="c")
        assert a == b
        assert a != c

    def test_code_version_is_stable_within_process(self):
        assert code_version() == code_version()


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, '{"x":1}')
        assert cache.get("ab" * 32) == '{"x":1}'
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" * 32) is None

    def test_runner_hits_cache_on_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        cells = _echo_cells(4)
        cold = runner.run_serialized(cells)
        assert runner.last_stats.executed == 4
        warm = runner.run_serialized(cells)
        assert runner.last_stats.cache_hits == 4
        assert runner.last_stats.executed == 0
        assert cold == warm

    def test_no_cache_recomputes(self, tmp_path):
        runner = SweepRunner()  # cache disabled
        cells = _echo_cells(2)
        runner.run_serialized(cells)
        runner.run_serialized(cells)
        assert runner.last_stats.cache_hits == 0
        assert runner.last_stats.executed == 2

    def test_cache_payload_matches_fresh_execution(self, tmp_path):
        cell = _echo_cells(1)[0]
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run_serialized([cell])
        assert cache.get(cell_key(cell.fn, cell.params)) == execute_cell(
            cell.fn, cell.params
        )


class TestSweepRunner:
    def test_results_in_submission_order(self):
        cells = _echo_cells(8)
        for runner in (SweepRunner(), SweepRunner(jobs=4)):
            records = runner.run(cells)
            assert [r["i"] for r in records] == list(range(8))

    def test_parallel_matches_serial_bytes(self):
        cells = _echo_cells(6)
        assert SweepRunner().run_serialized(cells) == SweepRunner(
            jobs=3
        ).run_serialized(cells)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_bad_cell_fn_rejected(self):
        with pytest.raises(ValueError):
            execute_cell("no-colon", {})
        with pytest.raises(ValueError):
            execute_cell("repro.parallel.cells:not_a_cell", {})

    def test_empty_sweep(self):
        assert SweepRunner(jobs=4).run([]) == []

    def test_repeated_label_rejected_before_anything_runs(self, tmp_path):
        # Two cells differing only in a field the default label omits:
        # one fails, and a shared label would pin its failure on both.
        config = ExperimentConfig(n_cpus=16, duration=30.0)
        cells = [
            workload_cell_spec("PDPA", "w2", 1.0,
                               dataclasses.replace(config, noise_sigma=sigma))
            for sigma in (-1.0, 0.0)
        ]
        runner = SweepRunner(cache=ResultCache(tmp_path),
                             supervision=SupervisionPolicy(retries=0))
        with pytest.raises(ValueError, match="PDPA/w2/load=1/seed=0/mpl=4"):
            runner.run(cells)
        assert runner.last_stats.cells == 0
        assert list(tmp_path.iterdir()) == []

    def test_worker_exception_propagates(self):
        # The worker's ValueError is retried, then quarantined; the
        # experiment surfaces it as a poison cell naming the cause.
        cells = [SweepCell(key="bad", fn="repro.parallel.cells:workload_cell",
                           params={"policy": "NoSuchPolicy", "workload": "w1",
                                   "load": 1.0, "config": CONFIG})]
        runner = SweepRunner(jobs=2)
        with pytest.raises(PoisonCellError) as exc:
            run_workload_cells(cells, runner)
        assert "bad" in str(exc.value) and "ValueError" in str(exc.value)
        assert runner.last_stats.quarantined == 1


def _guard_cells():
    """w2/w3 at two load points plus a cpukill8 fault cell (traced)."""
    cells = []
    for workload in ("w2", "w3"):
        for load in (0.8, 1.0):
            cells.append(SweepCell(
                key=f"{workload}@{load}",
                fn="repro.parallel.cells:traced_workload_cell",
                params={"policy": "PDPA", "workload": workload,
                        "load": load, "config": CONFIG},
            ))
    faulted = CONFIG.with_faults(build_scenario("cpukill8", CONFIG.n_cpus))
    cells.append(SweepCell(
        key="w2@1.0+cpukill8",
        fn="repro.parallel.cells:traced_workload_cell",
        params={"policy": "PDPA", "workload": "w2", "load": 1.0,
                "config": faulted},
    ))
    return cells


class TestDeterminismGuard:
    """SweepRunner(jobs=4) must be byte-identical to the serial path."""

    def test_parallel_byte_identical_to_serial(self):
        cells = _guard_cells()
        serial = SweepRunner().run_serialized(cells)
        parallel = SweepRunner(jobs=4).run_serialized(cells)
        assert serial == parallel
        # The digests cover the full trace, not just the result record.
        for payload in serial:
            assert json.loads(payload)["trace_digest"]

    def test_spawn_context_byte_identical(self):
        # Workers started from a cold interpreter (no inherited state)
        # must still reproduce the same bytes as in-process execution.
        cells = _guard_cells()[:2]
        serial = SweepRunner().run_serialized(cells)
        spawned = SweepRunner(
            jobs=2, mp_context=multiprocessing.get_context("spawn")
        ).run_serialized(cells)
        assert serial == spawned

    def test_cell_record_matches_direct_run(self):
        # The cell transport (canonical JSON) must not disturb values.
        out = run_workload("PDPA", "w2", 0.8, CONFIG)
        cells = [workload_cell_spec("PDPA", "w2", 0.8, CONFIG)]
        (result,) = run_workload_cells(cells)
        assert result == out.result

    def test_cached_rerun_byte_identical(self, tmp_path):
        cells = _guard_cells()
        fresh = SweepRunner().run_serialized(cells)
        cache = ResultCache(tmp_path)
        SweepRunner(jobs=4, cache=cache).run_serialized(cells)
        warm_runner = SweepRunner(cache=cache)
        warm = warm_runner.run_serialized(cells)
        assert warm_runner.last_stats.cache_hits == len(cells)
        assert warm == fresh


class TestCanonicalJson:
    def test_floats_roundtrip_exactly(self):
        values = [0.1, 1 / 3, 1e-17, 123456.789012345]
        payload = canonical_dumps({"v": values})
        assert json.loads(payload)["v"] == values

    def test_sorted_keys_minimal_separators(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_strict_mode_rejects_repr_fallback(self):
        # Lenient mode (hashing) keeps working ...
        assert "__repr__" in canonical_dumps({"x": object()})
        # ... but strict mode (payloads) names the offending path.
        with pytest.raises(UnserialisableValue) as exc:
            canonical_dumps({"a": [1, {"bad": object()}]}, strict=True)
        assert exc.value.path == "$.a[1].bad"

    def test_execute_cell_refuses_unserialisable_record(self):
        with pytest.raises(UnserialisableRecord) as exc:
            execute_cell("tests.chaos_cells:unserialisable_cell", {})
        assert "$.handle" in str(exc.value)


class TestSweepStats:
    def test_executed_counts_completions_not_submissions(self):
        # Regression: executed used to be set to len(pending) up front,
        # so a sweep that died mid-way claimed full execution.
        cells = _echo_cells(3)
        cells[1] = SweepCell(key="boom", fn="tests.chaos_cells:crash_cell",
                             params={"i": 1})
        runner = SweepRunner(supervision=FAST, strict=True)  # poison aborts
        with pytest.raises(PoisonCellError):
            runner.run_serialized(cells)
        assert runner.last_stats.executed == 1  # only cell 0 completed

    def test_new_counters_default_to_zero(self):
        runner = SweepRunner()
        runner.run_serialized(_echo_cells(2))
        stats = runner.last_stats
        assert (stats.retried, stats.quarantined, stats.resumed,
                stats.degraded) == (0, 0, 0, 0)
        assert stats.failures == []

    def test_total_stats_accumulates_across_runs(self):
        runner = SweepRunner()
        runner.run_serialized(_echo_cells(2))
        runner.run_serialized(_echo_cells(3))
        assert runner.total_stats.cells == 5
        assert runner.total_stats.executed == 5

    def test_summary_line_mentions_quarantine(self):
        cells = [SweepCell(key="boom", fn="tests.chaos_cells:crash_cell")]
        runner = SweepRunner(supervision=FAST)
        runner.run(cells)
        line = runner.last_stats.summary_line()
        assert "1 quarantined" in line and "2 retries" in line


class TestSupervisionPolicy:
    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(timeout=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(retries=-1)

    def test_backoff_grows_and_caps(self):
        policy = SupervisionPolicy(backoff_base=0.1, backoff_cap=0.4)
        delays = [policy.backoff("k", a) for a in (1, 3, 5)]
        # Jitter is in [0.5, 1.0), so two attempts apart the raw 4x
        # growth always dominates; the cap always bounds.
        assert delays[0] < delays[1]
        assert all(0.05 <= d <= 0.4 for d in delays)

    def test_backoff_jitter_deterministic_per_key(self):
        policy = SupervisionPolicy()
        assert policy.backoff("a", 1) == policy.backoff("a", 1)
        assert policy.backoff("a", 1) != policy.backoff("b", 1)


class TestSupervisedRetries:
    """Crash/quarantine semantics, identical on serial and pool paths."""

    def _crash_sweep(self, jobs):
        cells = _echo_cells(3)
        cells[1] = SweepCell(key="boom", fn="tests.chaos_cells:crash_cell",
                             params={"i": 1})
        runner = SweepRunner(jobs=jobs, supervision=FAST)
        return runner, runner.run(cells), cells

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poison_cell_quarantined_siblings_survive(self, jobs):
        runner, records, cells = self._crash_sweep(jobs)
        assert records[0]["i"] == 0 and records[2]["i"] == 2
        assert records[1] is None
        stats = runner.last_stats
        assert stats.quarantined == 1
        assert stats.retried == FAST.retries
        assert stats.executed == 2
        (failure,) = stats.failures
        assert failure.key == "boom" and failure.kind == "crash"
        assert failure.attempts == FAST.max_attempts

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_mode_raises_poison(self, jobs):
        cells = [SweepCell(key="boom", fn="tests.chaos_cells:crash_cell")]
        runner = SweepRunner(jobs=jobs, supervision=FAST, strict=True)
        with pytest.raises(PoisonCellError):
            runner.run(cells)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_default_runner_retries_then_quarantines(self, jobs):
        # No supervision argument: the default policy still retries.
        cells = [SweepCell(key="boom", fn="tests.chaos_cells:crash_cell"),
                 *_echo_cells(1)]
        runner = SweepRunner(jobs=jobs)
        records = runner.run(cells)
        assert records[0] is None and records[1]["i"] == 0
        stats = runner.last_stats
        assert stats.retried == SupervisionPolicy().retries
        assert stats.quarantined == 1
        (failure,) = stats.failures
        assert failure.kind == "crash"
        assert failure.attempts == SupervisionPolicy().max_attempts

    def test_flaky_cell_recovers_and_payload_is_clean(self, tmp_path):
        cells = [SweepCell(
            key="flaky", fn="tests.chaos_cells:flaky_cell",
            params={"i": 7, "counter_dir": str(tmp_path / "count"),
                    "fail_times": 2},
        )]
        runner = SweepRunner(jobs=2, supervision=FAST)
        (record,) = runner.run(cells)
        assert record == {"i": 7, "ok": True}
        assert runner.last_stats.retried == 2
        assert runner.last_stats.quarantined == 0

    def test_quarantined_cell_fails_experiments_loudly(self):
        cells = [SweepCell(key="boom", fn="tests.chaos_cells:crash_cell")]
        runner = SweepRunner(supervision=FAST)
        with pytest.raises(PoisonCellError) as exc:
            run_workload_cells(cells, runner)
        assert "boom" in str(exc.value)

    def test_supervised_sweep_byte_identical_to_unsupervised(self):
        cells = _echo_cells(6)
        plain = SweepRunner().run_serialized(cells)
        supervised = SweepRunner(jobs=3, supervision=FAST).run_serialized(cells)
        assert plain == supervised


class TestCacheIntegrity:
    def _seed(self, tmp_path, n=3):
        cache = ResultCache(tmp_path)
        cells = _echo_cells(n)
        payloads = SweepRunner(cache=cache).run_serialized(cells)
        return cache, cells, payloads

    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        cache, cells, fresh = self._seed(tmp_path)
        path = cache.path_for(cell_key(cells[1].fn, cells[1].params))
        blob = path.read_text()
        path.write_text(blob[:-4] + "junk")  # flip payload bytes
        runner = SweepRunner(cache=cache)
        again = runner.run_serialized(cells)
        assert again == fresh  # recomputed byte-identically
        assert runner.last_stats.cache_hits == 2
        assert runner.last_stats.executed == 1
        assert cache.corrupt_detected == 1
        assert not path.with_suffix(".rec").exists() or path.exists()
        assert cache.stats()["quarantined"] == 1

    def test_spliced_entry_from_other_cell_rejected(self, tmp_path):
        # An internally-consistent record written under the wrong key
        # (e.g. a botched rsync of a cache) must not be served.
        cache, cells, fresh = self._seed(tmp_path)
        src = cache.path_for(cell_key(cells[0].fn, cells[0].params))
        dst_key = cell_key(cells[1].fn, cells[1].params)
        cache.path_for(dst_key).write_text(src.read_text())
        assert cache.get(dst_key) is None
        assert cache.corrupt_detected == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache, cells, fresh = self._seed(tmp_path, n=1)
        path = cache.path_for(cell_key(cells[0].fn, cells[0].params))
        path.write_text(path.read_text()[:15])
        assert cache.get(cell_key(cells[0].fn, cells[0].params)) is None
        assert cache.corrupt_detected == 1

    def test_io_error_logged_once_and_counted(self, tmp_path, monkeypatch, caplog):
        import pathlib

        cache, cells, _ = self._seed(tmp_path, n=1)
        key = cell_key(cells[0].fn, cells[0].params)

        def deny(self, *a, **k):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(pathlib.Path, "read_text", deny)
        with caplog.at_level("WARNING", logger="repro.parallel.cache"):
            assert cache.get(key) is None
            assert cache.get(key) is None
        assert cache.io_errors == 2
        assert sum(
            "cache read failed" in r.message for r in caplog.records
        ) == 1  # logged once, not per miss

    def test_stats_and_prune(self, tmp_path):
        cache, cells, _ = self._seed(tmp_path)
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        # Corrupt one entry, detect it, then prune the quarantine.
        path = cache.path_for(cell_key(cells[0].fn, cells[0].params))
        path.write_text("garbage")
        assert cache.get(cell_key(cells[0].fn, cells[0].params)) is None
        assert cache.stats()["quarantined"] == 1
        assert cache.prune() == 1
        assert cache.stats()["quarantined"] == 0
        assert len(cache) == 2

    def test_legacy_json_entries_pruned(self, tmp_path):
        cache = ResultCache(tmp_path)
        legacy = cache.root / "ab" / "abcd.json"
        legacy.parent.mkdir(parents=True, exist_ok=True)
        legacy.write_text('{"old":1}')
        assert cache.prune() == 1
        assert not legacy.exists()


class TestSweepJournal:
    def _run_journalled(self, tmp_path, cells):
        cache = ResultCache(tmp_path / "cache")
        with SweepJournal(tmp_path / "journal.jsonl") as journal:
            runner = SweepRunner(cache=cache, journal=journal)
            payloads = runner.run_serialized(cells)
        return cache, runner, payloads

    def test_every_completion_journalled(self, tmp_path):
        cells = _echo_cells(4)
        cache, runner, payloads = self._run_journalled(tmp_path, cells)
        journal = SweepJournal(tmp_path / "journal.jsonl", resume=True)
        assert len(journal) == 4
        for cell, payload in zip(cells, payloads):
            entry = journal.get(cell_key(cell.fn, cell.params))
            assert entry is not None and entry.matches(payload)

    def test_resume_replays_without_execution(self, tmp_path):
        cells = _echo_cells(4)
        cache, _, fresh = self._run_journalled(tmp_path, cells)
        journal = SweepJournal(tmp_path / "journal.jsonl", resume=True)
        runner = SweepRunner(cache=cache, journal=journal)
        again = runner.run_serialized(cells)
        assert again == fresh
        assert runner.last_stats.resumed == 4
        assert runner.last_stats.executed == 0

    def test_torn_tail_tolerated(self, tmp_path):
        cells = _echo_cells(4)
        cache, _, fresh = self._run_journalled(tmp_path, cells)
        path = tmp_path / "journal.jsonl"
        path.write_bytes(path.read_bytes()[:-20])  # tear the last record
        journal = SweepJournal(path, resume=True)
        assert journal.torn_tail
        assert len(journal) == 3
        runner = SweepRunner(cache=cache, journal=journal)
        again = runner.run_serialized(cells)
        assert again == fresh
        assert runner.last_stats.resumed == 3

    def test_resume_rejects_rotted_cache_payload(self, tmp_path):
        cells = _echo_cells(2)
        cache, _, fresh = self._run_journalled(tmp_path, cells)
        # Corrupt the cache *behind* the journal's back.
        victim = cache.path_for(cell_key(cells[0].fn, cells[0].params))
        victim.write_text("rotten")
        journal = SweepJournal(tmp_path / "journal.jsonl", resume=True)
        runner = SweepRunner(cache=cache, journal=journal)
        again = runner.run_serialized(cells)
        assert again == fresh  # recomputed, not served rotten
        assert runner.last_stats.resumed == 1
        assert runner.last_stats.executed == 1

    def test_resume_without_cache_rejected(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl", resume=True)
        with pytest.raises(ValueError):
            SweepRunner(journal=journal)

    def test_fresh_journal_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"v":1,"key":"k","sha256":"0"*64,"bytes":1,"label":""}\n')
        journal = SweepJournal(path, resume=False)
        assert len(journal) == 0
        assert not path.exists()


class TestJournalStorageDegradation:
    """A broken journal degrades the sweep honestly, never wrongly."""

    def _broken_journal_run(self, tmp_path, nth):
        from repro.storage.layer import StorageLayer
        from repro.storage.plan import FailPlan

        cells = _echo_cells(5)
        cache = ResultCache(tmp_path / "cache")
        storage = StorageLayer(plan=FailPlan.single("fsync", nth=nth))
        journal = SweepJournal(tmp_path / "j.jsonl", storage=storage)
        runner = SweepRunner(cache=cache, journal=journal)
        payloads = runner.run_serialized(cells)
        return cells, runner, journal, payloads

    def test_results_correct_despite_broken_journal(self, tmp_path):
        cells, runner, journal, payloads = self._broken_journal_run(
            tmp_path, nth=3
        )
        assert payloads == SweepRunner().run_serialized(cells)
        assert journal.broken is not None

    def test_degradation_counted_in_stats(self, tmp_path):
        _, runner, _, _ = self._broken_journal_run(tmp_path, nth=3)
        # 2 journalled before the break; the other 3 degraded
        assert runner.last_stats.storage_degraded == 3
        assert "unjournaled (storage)" in runner.last_stats.summary_line()

    def test_degraded_sweep_validates_clean(self, tmp_path):
        cells, runner, _, payloads = self._broken_journal_run(
            tmp_path, nth=3
        )
        assert validate_sweep(runner, cells, payloads) == []

    def test_dishonest_degradation_is_a_violation(self, tmp_path):
        cells, runner, _, payloads = self._broken_journal_run(
            tmp_path, nth=3
        )
        runner.last_stats.storage_degraded = 0  # lie about the break
        problems = validate_sweep(runner, cells, payloads)
        assert any("storage degradation" in p for p in problems)

    def test_journalled_prefix_still_resumable(self, tmp_path):
        cells, _, _, fresh = self._broken_journal_run(tmp_path, nth=3)
        cache = ResultCache(tmp_path / "cache")
        journal = SweepJournal(tmp_path / "j.jsonl", resume=True)
        assert len(journal) == 2
        runner = SweepRunner(cache=cache, journal=journal)
        again = runner.run_serialized(cells)
        assert again == fresh
        assert runner.last_stats.resumed == 2


class TestValidateSweep:
    def test_clean_sweep_validates(self, tmp_path):
        cells = _echo_cells(3)
        cache = ResultCache(tmp_path / "cache")
        with SweepJournal(tmp_path / "j.jsonl") as journal:
            runner = SweepRunner(cache=cache, journal=journal,
                                 supervision=FAST)
            payloads = runner.run_serialized(cells)
            assert validate_sweep(runner, cells, payloads) == []

    def test_quarantine_accounted_not_lost(self):
        cells = _echo_cells(2) + [
            SweepCell(key="boom", fn="tests.chaos_cells:crash_cell")
        ]
        runner = SweepRunner(supervision=FAST)
        payloads = runner.run_serialized(cells)
        assert validate_sweep(runner, cells, payloads) == []

    def test_detects_lost_cell_and_unbalanced_stats(self):
        cells = _echo_cells(2)
        runner = SweepRunner()
        payloads = list(runner.run_serialized(cells))
        payloads[1] = None  # simulate a harness bug losing a record
        problems = validate_sweep(runner, cells, payloads)
        assert any("lost" in p for p in problems)

    def test_detects_dishonest_journal_digest(self, tmp_path):
        cells = _echo_cells(1)
        cache = ResultCache(tmp_path / "cache")
        with SweepJournal(tmp_path / "j.jsonl") as journal:
            runner = SweepRunner(cache=cache, journal=journal)
            payloads = runner.run_serialized(cells)
            key = cell_key(cells[0].fn, cells[0].params)
            journal.entries[key].digest = payload_digest("tampered")
            problems = validate_sweep(runner, cells, payloads)
        assert any("digest" in p for p in problems)


class TestGracefulDegradation:
    class _BrokenContext:
        """An mp context whose every attribute access explodes."""

        def __getattr__(self, name):
            raise OSError("no multiprocessing primitives available")

    @pytest.mark.parametrize("explicit_policy", [False, True])
    def test_unusable_mp_context_degrades_to_serial(self, explicit_policy):
        cells = _echo_cells(4)
        runner = SweepRunner(
            jobs=4,
            mp_context=self._BrokenContext(),
            **({"supervision": FAST} if explicit_policy else {}),
        )
        with pytest.warns(RuntimeWarning):
            payloads = runner.run_serialized(cells)
        assert payloads == SweepRunner().run_serialized(cells)
        assert runner.last_stats.degraded == 4
        assert runner.last_stats.executed == 4


class TestJournalDuplicates:
    def _write(self, path, records):
        with SweepJournal(path) as journal:
            for key, payload in records:
                journal.append(key, payload)

    def test_duplicate_key_last_write_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [("a", "one"), ("b", "x"), ("a", "two")])
        journal = SweepJournal(path, resume=True)
        assert len(journal) == 2
        assert journal.duplicates == 1
        assert not journal.torn_tail
        entry = journal.get("a")
        assert entry is not None and entry.matches("two")
        assert not entry.matches("one")

    def test_duplicates_compose_with_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [("a", "one"), ("a", "two"), ("b", "x")])
        path.write_bytes(path.read_bytes()[:-5])  # tear the "b" record
        journal = SweepJournal(path, resume=True)
        assert journal.torn_tail
        assert journal.duplicates == 1
        assert len(journal) == 1
        assert journal.get("a").matches("two")
        assert journal.get("b") is None

    def test_tear_inside_the_duplicate_keeps_first_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write(path, [("a", "one"), ("b", "x"), ("a", "two")])
        path.write_bytes(path.read_bytes()[:-5])  # tear the second "a"
        journal = SweepJournal(path, resume=True)
        assert journal.torn_tail
        assert journal.duplicates == 0
        assert len(journal) == 2
        assert journal.get("a").matches("one")

    def test_fresh_journal_has_no_duplicates(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        assert journal.duplicates == 0

    def test_resume_serves_last_duplicate_payload(self, tmp_path):
        cells = _echo_cells(2)
        cache = ResultCache(tmp_path / "cache")
        with SweepJournal(tmp_path / "j.jsonl") as journal:
            runner = SweepRunner(cache=cache, journal=journal)
            fresh = runner.run_serialized(cells)
            # Simulate a retried cell journalled twice.
            journal.append(cell_key(cells[0].fn, cells[0].params), fresh[0])
        journal = SweepJournal(tmp_path / "j.jsonl", resume=True)
        assert journal.duplicates == 1
        runner = SweepRunner(cache=cache, journal=journal)
        assert runner.run_serialized(cells) == fresh
        assert runner.last_stats.resumed == 2
