"""Process-level chaos for the streaming service (CLI boundary).

These tests SIGKILL real ``repro serve`` subprocesses mid-stream, tear
journal tails, wedge the arrival source behind a FIFO that never
delivers, and SIGTERM a run that would otherwise stream forever.  The
properties under test are the tentpole contracts end to end:

* a SIGKILL'd run restored from its snapshot + journal finishes with a
  **byte-identical** stats digest to the uninterrupted run;
* a torn journal tail (crash mid-``write``) is tolerated on resume;
* the no-progress watchdog turns a silent hang into
  :data:`EXIT_WEDGED` with a ``wedged`` status record;
* SIGTERM closes the arrival tap and drains to exit 0.

Excluded from tier-1 (``-m "not chaos"`` via addopts); run as a
separate CI job.  Snapshots and journals land in the artifact dir so a
failing CI run uploads them for post-mortem.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.checkpoint.format import read_meta

pytestmark = pytest.mark.chaos

REPO_ROOT = Path(__file__).resolve().parent.parent

#: enough stream to leave a wide kill window, small enough to finish fast
STREAM_JOBS = 5000
KILL_AFTER_LINES = 1500


@pytest.fixture
def artifact_dir(tmp_path):
    override = os.environ.get("CHAOS_ARTIFACT_DIR")
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro"] + args,
        env=_cli_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300, **kwargs,
    )


def _digest(stdout: str) -> str:
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("stats digest "):
            return line.split()[-1]
    raise AssertionError(f"no stats digest in output:\n{stdout}")


def _wait_until(ready, proc, what: str, timeout: float = 120.0) -> None:
    """Poll until ``ready()`` holds while *proc* still runs (the kill window)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if ready():
            return
        if proc.poll() is not None:
            raise AssertionError(
                f"serve exited (rc={proc.returncode}) before {what}: "
                f"{proc.stderr.read() if proc.stderr else ''}"
            )
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


def _journal_line(journal: Path, seq: int):
    """The journal's lines and the index of the complete one for *seq*.

    The index is ``None`` while no complete line carries *seq*; a torn
    last line (no newline yet) is never parsed.
    """
    lines = journal.read_bytes().split(b"\n") if journal.exists() else [b""]
    for index, line in enumerate(lines[:-1]):
        if json.loads(line)["seq"] == seq:
            return lines, index
    return lines, None


def _serve_args(workdir: Path, checkpoint: bool = True):
    args = ["--seed", "7", "--cpus", "16"]
    if checkpoint:
        args += ["--checkpoint-dir", str(workdir / "ck"),
                 "--checkpoint-every", "200"]
    args += [
        "serve", "PDPA", "--workload", "w2", "--load", "1.0",
        "--max-jobs", str(STREAM_JOBS),
        "--journal", str(workdir / "arrivals.jsonl"),
    ]
    return args


def _kill_midstream(workdir: Path) -> Path:
    """Start a journalled serve run and SIGKILL it mid-stream.

    Once the journal holds ``KILL_AFTER_LINES`` lines, the latest
    autosave is copied, and the kill waits until the journal holds the
    entry right after that copy's draw cursor.  A restore from the
    copy therefore always has a journal tail to verify, wherever the
    next autosave would have landed.  Returns the copy.
    """
    journal = workdir / "arrivals.jsonl"
    autosave = workdir / "ck" / "serve-PDPA.ckpt"
    snapshot = workdir / "copied.ckpt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + _serve_args(workdir),
        env=_cli_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _wait_until(lambda: journal.exists()
                    and journal.read_bytes().count(b"\n") >= KILL_AFTER_LINES,
                    proc, f"the journal reached {KILL_AFTER_LINES} lines")
        _wait_until(autosave.exists, proc, "an autosave")
        # each autosave replaces the file atomically: the copy is whole
        shutil.copyfile(autosave, snapshot)
        cursor = read_meta(snapshot)["drawn"]
        _wait_until(lambda: _journal_line(journal, cursor + 1)[1] is not None,
                    proc, f"a journal entry past the cursor {cursor}")
    finally:
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    return snapshot


class TestSigkillThenRestore:
    def test_restore_finishes_byte_identical(self, artifact_dir):
        workdir = artifact_dir / "sigkill"
        workdir.mkdir(parents=True, exist_ok=True)

        baseline = _cli(_serve_args(workdir / "baseline", checkpoint=False))
        assert baseline.returncode == 0, baseline.stderr
        want = _digest(baseline.stdout)

        snapshot = _kill_midstream(workdir)
        restored = _cli([
            "--seed", "7", "--cpus", "16",
            "serve", "PDPA", "--workload", "w2", "--load", "1.0",
            "--max-jobs", str(STREAM_JOBS),
            "--journal", str(workdir / "arrivals.jsonl"),
            "--restore", str(snapshot),
        ])
        assert restored.returncode == 0, restored.stderr
        assert _digest(restored.stdout) == want
        # the journal tail past the snapshot was verified, not assumed
        verified = [l for l in restored.stdout.splitlines()
                    if "replay-verified=" in l]
        assert verified and not verified[0].strip().endswith(
            "replay-verified=0"
        ), restored.stdout

    def test_torn_journal_tail_tolerated(self, artifact_dir):
        workdir = artifact_dir / "torn"
        workdir.mkdir(parents=True, exist_ok=True)
        snapshot = _kill_midstream(workdir)
        journal = workdir / "arrivals.jsonl"
        with open(journal, "ab") as handle:
            handle.write(b'{"v":1,"seq":99999,"jo')  # crash mid-write
        restored = _cli([
            "--seed", "7", "--cpus", "16",
            "serve", "PDPA", "--workload", "w2", "--load", "1.0",
            "--max-jobs", str(STREAM_JOBS),
            "--journal", str(journal),
            "--restore", str(snapshot),
        ])
        assert restored.returncode == 0, restored.stderr

    def test_tampered_journal_refused(self, artifact_dir):
        workdir = artifact_dir / "tamper"
        workdir.mkdir(parents=True, exist_ok=True)
        snapshot = _kill_midstream(workdir)
        journal = workdir / "arrivals.jsonl"

        # tamper with the first entry the restore verifies
        lines, index = _journal_line(journal, read_meta(snapshot)["drawn"] + 1)
        entry = json.loads(lines[index])
        entry["request"] += 1
        lines[index] = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode()
        journal.write_bytes(b"\n".join(lines))

        restored = _cli([
            "--seed", "7", "--cpus", "16",
            "serve", "PDPA", "--workload", "w2", "--load", "1.0",
            "--max-jobs", str(STREAM_JOBS),
            "--journal", str(journal),
            "--restore", str(snapshot),
        ])
        assert restored.returncode != 0
        assert "replay mismatch" in restored.stderr


class TestWatchdog:
    def test_wedged_source_exits_3(self, artifact_dir):
        workdir = artifact_dir / "wedged"
        workdir.mkdir(parents=True, exist_ok=True)
        fifo = workdir / "arrivals.swf"
        os.mkfifo(fifo)
        status = workdir / "status.json"
        # hold the write end open but never write: draw() blocks forever
        holder = os.open(fifo, os.O_RDWR)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "--seed", "7", "--cpus", "16",
                 "serve", "PDPA", "--swf", str(fifo),
                 "--watchdog", "1",
                 "--status-file", str(status)],
                env=_cli_env(), cwd=str(REPO_ROOT),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            proc.wait(timeout=60)
        finally:
            os.close(holder)
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 3, (proc.stdout.read(), proc.stderr.read())
        record = json.loads(status.read_text())
        assert record["phase"] == "wedged"


class TestSigtermDrain:
    def test_sigterm_closes_the_tap_and_drains(self, artifact_dir):
        workdir = artifact_dir / "sigterm"
        workdir.mkdir(parents=True, exist_ok=True)
        status = workdir / "status.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--seed", "7", "--cpus", "16",
             "serve", "PDPA", "--workload", "w2", "--load", "1.0",
             "--max-jobs", "0",  # stream forever
             "--status-file", str(status)],
            env=_cli_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not status.exists():
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.02)
            assert status.exists(), "no status heartbeat before the deadline"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        out, err = proc.stdout.read(), proc.stderr.read()
        assert proc.returncode == 0, (out, err)
        assert "drained" in out
        record = json.loads(status.read_text())
        assert record["phase"] == "drained"
