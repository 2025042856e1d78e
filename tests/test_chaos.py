"""Chaos harness: prove the sweep supervisor survives real violence.

Where :mod:`tests.test_parallel` exercises the supervision machinery
with tame in-process failures, this suite attacks the harness the way
production does — SIGKILL'd workers, hung cells, a SIGKILL'd *parent*,
rotted cache bytes, torn journals — and asserts the two properties the
robustness layer promises:

1. **graceful degradation**: the sweep completes, quarantining at most
   the poison cell, and every surviving record is byte-identical to a
   clean ``jobs=1`` run;
2. **restartability**: after the parent dies mid-sweep, ``--resume``
   replays journalled cells and executes only the unfinished ones,
   producing byte-identical output.

The whole module is marked ``chaos``: it is excluded from the tier-1
run (``-m "not chaos"`` via addopts) and executed as a separate CI job
with a hard timeout.  Set ``CHAOS_ARTIFACT_DIR`` to persist journals
and caches for post-mortem (CI uploads them on failure).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.parallel.cache import ResultCache, cell_key
from repro.parallel.journal import SweepJournal
from repro.parallel.runner import SweepCell, SweepRunner
from repro.parallel.supervisor import SupervisionPolicy
from repro.validate import validate_sweep

pytestmark = pytest.mark.chaos

#: generous per-cell timeout for well-behaved cells; tight for sleepers
POLICY = SupervisionPolicy(timeout=30.0, retries=2,
                           backoff_base=0.01, backoff_cap=0.05)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def artifact_dir(tmp_path, request):
    """Working dir for journals/caches; persisted when CI asks for it.

    With ``CHAOS_ARTIFACT_DIR`` set, every test works under
    ``$CHAOS_ARTIFACT_DIR/<test-name>`` so a failing run leaves its
    journal behind for the CI artifact upload.
    """
    root = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not root:
        return tmp_path
    path = Path(root) / request.node.name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo(i):
    return SweepCell(key=f"g{i}", fn="repro.parallel.cells:echo_cell",
                     params={"i": i, "x": i * 0.5})


class TestWorkerKilledMidSweep:
    def test_sigkill_worker_quarantined_survivors_byte_identical(self, artifact_dir):
        cells = [_echo(i) for i in range(4)]
        cells.insert(2, SweepCell(key="killer",
                                  fn="tests.chaos_cells:sigkill_cell",
                                  params={"i": 99}))
        clean = SweepRunner().run_serialized([c for c in cells
                                             if c.key != "killer"])
        runner = SweepRunner(jobs=3, supervision=POLICY)
        payloads = runner.run_serialized(cells)

        # At most the poison cell quarantined; exactly the killer.
        stats = runner.last_stats
        assert stats.quarantined == 1
        (failure,) = stats.failures
        assert failure.key == "killer" and failure.kind == "worker-lost"
        assert failure.attempts == POLICY.max_attempts

        # Survivors byte-identical to the clean serial run.
        survivors = [p for i, p in enumerate(payloads) if cells[i].key != "killer"]
        assert survivors == clean
        assert payloads[2] is None
        assert validate_sweep(runner, cells, payloads) == []

    def test_pool_rebuilt_repeatedly_under_multiple_breaks(self, artifact_dir):
        # Two separate killers: each must be isolated and quarantined
        # independently; every innocent cell must still complete.
        cells = [_echo(i) for i in range(6)]
        cells.insert(1, SweepCell(key="killer-a",
                                  fn="tests.chaos_cells:sigkill_cell",
                                  params={"i": 1}))
        cells.insert(5, SweepCell(key="killer-b",
                                  fn="tests.chaos_cells:sigkill_cell",
                                  params={"i": 2}))
        runner = SweepRunner(jobs=2, supervision=POLICY)
        payloads = runner.run_serialized(cells)
        stats = runner.last_stats
        assert stats.quarantined == 2
        assert {f.key for f in stats.failures} == {"killer-a", "killer-b"}
        assert sum(p is not None for p in payloads) == 6
        assert validate_sweep(runner, cells, payloads) == []


class TestHungCell:
    def test_sleeping_cell_hits_timeout_and_is_quarantined(self, artifact_dir):
        policy = SupervisionPolicy(timeout=0.5, retries=1,
                                   backoff_base=0.01, backoff_cap=0.05)
        cells = [_echo(0),
                 SweepCell(key="sleeper", fn="tests.chaos_cells:sleep_cell",
                           params={"i": 1, "seconds": 60.0}),
                 _echo(2)]
        started = time.monotonic()
        runner = SweepRunner(jobs=2, supervision=policy)
        payloads = runner.run_serialized(cells)
        elapsed = time.monotonic() - started

        assert payloads[1] is None
        (failure,) = runner.last_stats.failures
        assert failure.kind == "timeout"
        assert payloads[0] is not None and payloads[2] is not None
        # Two attempts at 0.5 s each plus overhead — nowhere near the
        # 60 s the cell wanted to hold a worker hostage for.
        assert elapsed < 20.0
        assert validate_sweep(runner, cells, payloads) == []


class TestCorruptedCacheMidSweep:
    def test_corrupt_entry_recomputed_byte_identical(self, artifact_dir):
        cache = ResultCache(artifact_dir / "cache")
        cells = [_echo(i) for i in range(5)]
        clean = SweepRunner().run_serialized(cells)
        SweepRunner(cache=cache).run_serialized(cells)

        # An adversary flips bits in two entries and truncates a third.
        victims = [cell_key(c.fn, c.params) for c in cells[:3]]
        blob = cache.path_for(victims[0]).read_text()
        cache.path_for(victims[0]).write_text(blob[:-6] + "AAAAAA")
        cache.path_for(victims[1]).write_text(blob)  # wrong cell's bytes
        cache.path_for(victims[2]).write_text("")

        runner = SweepRunner(jobs=2, cache=cache, supervision=POLICY)
        payloads = runner.run_serialized(cells)
        assert payloads == clean
        assert runner.last_stats.quarantined == 0
        assert cache.corrupt_detected == 3  # incl. the spliced entry
        assert validate_sweep(runner, cells, payloads) == []


class TestResumeAfterParentKill:
    DRIVER = textwrap.dedent("""
        import sys
        from repro.parallel.cache import ResultCache
        from repro.parallel.journal import SweepJournal
        from repro.parallel.runner import SweepCell, SweepRunner

        workdir = sys.argv[1]
        cells = [SweepCell(key=f"s{i}", fn="tests.chaos_cells:slow_echo_cell",
                           params={"i": i, "delay": 0.4})
                 for i in range(6)]
        cache = ResultCache(workdir + "/cache")
        journal = SweepJournal(workdir + "/journal.jsonl")
        print("DRIVER-READY", flush=True)
        SweepRunner(cache=cache, journal=journal).run_serialized(cells)
        print("DRIVER-DONE", flush=True)
    """)

    def _cells(self):
        return [SweepCell(key=f"s{i}", fn="tests.chaos_cells:slow_echo_cell",
                          params={"i": i, "delay": 0.4})
                for i in range(6)]

    def test_resume_runs_only_unfinished_cells_byte_identical(self, artifact_dir):
        cells = self._cells()
        clean = SweepRunner().run_serialized(cells)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", self.DRIVER, str(artifact_dir)],
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, text=True,
        )
        journal_path = artifact_dir / "journal.jsonl"
        try:
            # Wait until at least two cells are durably journalled,
            # then SIGKILL the parent mid-sweep.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                probe = SweepJournal(journal_path, resume=True)
                if len(probe) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("driver never journalled two cells")
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        completed = len(SweepJournal(journal_path, resume=True))
        assert 2 <= completed < 6  # killed mid-sweep, progress survived

        cache = ResultCache(artifact_dir / "cache")
        journal = SweepJournal(journal_path, resume=True)
        runner = SweepRunner(cache=cache, journal=journal)
        payloads = runner.run_serialized(cells)
        journal.close()

        assert payloads == clean  # byte-identical to the clean run
        stats = runner.last_stats
        assert stats.resumed == completed
        # Only unfinished cells re-ran (the cell killed mid-execution
        # may have reached the cache without reaching the journal).
        assert stats.resumed + stats.cache_hits + stats.executed == 6
        assert stats.executed <= 6 - completed
        assert stats.executed >= 1
        assert validate_sweep(runner, cells, payloads) == []

    def test_second_resume_is_pure_replay(self, artifact_dir):
        cells = self._cells()
        cache = ResultCache(artifact_dir / "cache")
        with SweepJournal(artifact_dir / "journal.jsonl") as journal:
            first = SweepRunner(cache=cache, journal=journal).run_serialized(cells)
        with SweepJournal(artifact_dir / "journal.jsonl", resume=True) as journal:
            runner = SweepRunner(cache=cache, journal=journal)
            second = runner.run_serialized(cells)
        assert second == first
        assert runner.last_stats.resumed == 6
        assert runner.last_stats.executed == 0


class TestTornJournal:
    def test_truncated_mid_record_resume_completes(self, artifact_dir):
        cells = [_echo(i) for i in range(4)]
        clean = SweepRunner().run_serialized(cells)
        cache = ResultCache(artifact_dir / "cache")
        path = artifact_dir / "journal.jsonl"
        with SweepJournal(path) as journal:
            SweepRunner(cache=cache, journal=journal).run_serialized(cells)

        # Tear mid-record, as a crash between write() and fsync would.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])

        journal = SweepJournal(path, resume=True)
        assert journal.torn_tail
        assert len(journal) == 3
        runner = SweepRunner(cache=cache, journal=journal)
        payloads = runner.run_serialized(cells)
        journal.close()
        assert payloads == clean
        assert runner.last_stats.resumed == 3
        # The torn cell is still in the cache, so nothing re-executes.
        assert runner.last_stats.cache_hits == 1
        assert validate_sweep(runner, cells, payloads) == []


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class TestKillMidRunThenRestore:
    """SIGKILL a checkpointing run; ``--restore`` must finish it.

    The property under test is the tentpole contract end to end, at
    the CLI boundary: stdout of the restored run is **byte-identical**
    to the uninterrupted run's.  Snapshots live in the artifact dir so
    a failing CI run uploads them for post-mortem.
    """

    RUN = ["--seed", "3", "run", "PDPA", "w1", "--load", "1.0"]

    def _cli(self, args, **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "repro"] + args,
            env=_cli_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=300, **kwargs,
        )

    def test_sigkilled_run_restored_byte_identical(self, artifact_dir):
        from repro.checkpoint.errors import CheckpointError
        from repro.checkpoint.format import read_meta

        baseline = self._cli(self.RUN)
        assert baseline.returncode == 0, baseline.stderr

        ckpt_dir = artifact_dir / "snapshots"
        snapshot = ckpt_dir / "PDPA-w1-load1-seed3.ckpt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro",
             "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "100"]
            + self.RUN,
            env=_cli_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for the first complete snapshot, then strike.  The
            # atomic write contract means any snapshot we can see is a
            # whole one, even though the victim is mid-autosave cycle.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if snapshot.exists():
                    try:
                        meta = read_meta(snapshot)
                        break
                    except CheckpointError:
                        pass  # racing the very first os.replace
                time.sleep(0.02)
            else:
                pytest.fail("run never produced a snapshot")
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        assert proc.returncode == -signal.SIGKILL  # died mid-run
        assert meta["label"] == "auto"
        assert meta["pending_events"] > 0  # a genuine mid-run cut

        restored = self._cli(self.RUN + ["--restore", str(snapshot)])
        assert restored.returncode == 0, restored.stderr
        assert restored.stdout == baseline.stdout

    def test_restore_refuses_a_foreign_snapshot(self, artifact_dir):
        ckpt_dir = artifact_dir / "snapshots"
        run = self._cli(
            ["--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "100"]
            + self.RUN
        )
        assert run.returncode == 0, run.stderr
        snapshot = ckpt_dir / "PDPA-w1-load1-seed3.ckpt"
        assert snapshot.exists()
        mismatched = self._cli(
            ["--seed", "3", "run", "Equip", "w1", "--load", "1.0",
             "--restore", str(snapshot)]
        )
        assert mismatched.returncode != 0
        assert "policy mismatch" in mismatched.stderr


class TestSigkilledWorkloadCellRecomputes:
    def test_retry_recomputes_byte_identical(self, artifact_dir):
        from repro.experiments.common import ExperimentConfig, run_workload
        from repro.canonical import canonical_dumps

        config = ExperimentConfig(n_cpus=32, duration=120.0, seed=7)
        baseline = canonical_dumps(
            run_workload("PDPA", "w1", 1.0, config).result.to_dict()
        )
        victim = SweepCell(
            key="victim",
            fn="tests.chaos_cells:killed_workload_cell",
            params={"policy": "PDPA", "workload": "w1", "load": 1.0,
                    "config": config,
                    "state_dir": str(artifact_dir / "state")},
        )
        cells = [_echo(0), victim, _echo(2)]
        runner = SweepRunner(jobs=2, supervision=POLICY)
        payloads = runner.run_serialized(cells)

        stats = runner.last_stats
        assert stats.quarantined == 0, [f.describe() for f in stats.failures]
        assert stats.retried >= 1  # the SIGKILL cost at least one attempt
        # Two attempts on disk: the killed one and the recomputing one.
        attempts = list((artifact_dir / "state").glob("attempt-*"))
        assert len(attempts) == 2
        # The retry's record is byte-identical to an uninterrupted
        # serial run: the killed attempt leaves nothing behind.
        assert payloads[1] == baseline
        assert payloads[0] is not None and payloads[2] is not None
        assert validate_sweep(runner, cells, payloads) == []
