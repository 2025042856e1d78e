"""Tests for the command-line interface."""

import argparse
import json
import subprocess

import pytest

from repro import cli
from repro.cli import _changed_python_files, build_parser, main
from repro.qs.swf import parse_swf


#: argv cases whose flag gives 0 a meaning (no retries, an unbounded
#: budget), so only a negative value is a usage error
ZERO_ALLOWED = [
    ["--retries", "-1", "mpl", "--workload", "w2"],
    ["torture", "--budget", "-1"],
    ["serve", "PDPA", "--max-jobs", "-1"],
    ["serve", "PDPA", "--ingress-limit", "-2"],
    ["replay", "snap.ckpt", "--until", "nan"],
    ["replay", "snap.ckpt", "--until", "-1"],
]

#: argv cases whose value is in range but infinite
NON_FINITE = [
    ["run", "PDPA", "w1", "--load", "inf"],
    ["serve", "PDPA", "--load", "inf"],
    ["serve", "PDPA", "--watchdog", "inf"],
    ["replay", "snap.ckpt", "--until", "inf"],
    ["--timeout", "inf", "mpl", "--workload", "w2"],
]

#: argv cases whose flag needs more than a positive value
RAISED_FLOOR = {
    ("view", "--width", "9"): ">= 10",
}


def _subcommands():
    """Every subcommand build_parser() registers."""
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return sorted(subparsers.choices)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["--seed", "7", "run", "PDPA", "w3", "--load", "0.8", "--mpl", "3"]
        )
        assert args.seed == 7
        assert args.policy == "PDPA"
        assert args.workload == "w3"
        assert args.load == 0.8
        assert args.mpl == 3

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "FCFS", "w1"])

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PDPA", "w9"])

    @pytest.mark.parametrize("argv", [
        ["--cpus", "0", "run", "PDPA", "w1"],
        ["--cpus", "-4", "serve", "PDPA"],
        ["--jobs", "0", "mpl", "--workload", "w2"],
        ["run", "PDPA", "w1", "--load", "0"],
        ["run", "PDPA", "w1", "--load", "nan"],
        ["compare", "w1", "--loads", "0.6", "0"],
        ["mpl", "--load", "-1"],
        ["ablations", "--load", "0"],
        ["swf", "w1", "--load", "0"],
        ["serve", "PDPA", "--load", "0"],
        ["run", "PDPA", "w1", "--mpl", "0"],
        ["--checkpoint-every", "0", "run", "PDPA", "w1"],
        ["--timeout", "-1", "mpl", "--workload", "w2"],
        ["fuzz", "--budget", "0"],
        ["fuzz", "--budget", "-2"],
        ["fuzz", "--steps", "0"],
        ["serve", "PDPA", "--watchdog", "nan"],
        ["serve", "PDPA", "--watchdog", "0"],
        ["serve", "PDPA", "--step-events", "0"],
        *ZERO_ALLOWED,
        *NON_FINITE,
        *map(list, RAISED_FLOOR),
    ], ids=" ".join)
    def test_non_positive_numbers_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        bound = RAISED_FLOOR.get(tuple(argv))
        if bound is None:
            bound = (
                "non-negative" if argv in ZERO_ALLOWED
                else "finite" if argv in NON_FINITE
                else "positive"
            )
        assert f"must be {bound}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], *([name] for name in _subcommands())],
                             ids=lambda argv: " ".join(argv) or "top-level")
    def test_help_exits_cleanly(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_rejected_fuzz_budget_writes_no_counterexample(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--budget", "0", "--corpus-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_non_numeric_keeps_the_type_name(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--cpus", "many", "run", "PDPA", "w1"])
        assert "invalid int value: 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--checkpoint-dir", "ck", "mpl", "--workload", "w2"],
        ["--checkpoint-every", "50", "mpl", "--workload", "w2"],
        ["--checkpoint-dir", "ck", "replay", "snap.ckpt"],
        ["--checkpoint-dir", "ck", "--checkpoint-every", "50",
         "replay", "snap.ckpt", "--until", "10"],
    ], ids=" ".join)
    def test_checkpoint_flags_refused_outside_run_and_serve(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # only `run` and `serve` snapshot; the refusal comes before any work
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="only `run` and `serve`"):
            main(argv)
        assert capsys.readouterr().out == ""
        assert sorted(tmp_path.iterdir()) == []


class TestCommands:
    def test_speedups(self, capsys):
        assert main(["speedups"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        for app in ("swim", "bt.A", "hydro2d", "apsi"):
            assert app in out

    def test_run(self, capsys):
        assert main(["run", "PDPA", "w3", "--load", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "PDPA on w3" in out
        assert "apsi" in out
        assert "makespan" in out

    def test_run_with_small_machine(self, capsys):
        assert main(["--cpus", "32", "run", "Equip", "w2", "--load", "0.6"]) == 0
        assert "Equip on w2" in capsys.readouterr().out

    def test_mpl(self, capsys):
        assert main(["mpl", "--workload", "w3", "--load", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out
        assert "multiprogramming level" in out

    def test_swf_output_is_parseable(self, capsys):
        assert main(["swf", "w1", "--load", "0.6"]) == 0
        out = capsys.readouterr().out
        records = parse_swf(out)
        assert records
        assert all(r.requested_procs == 30 for r in records)

    def test_seed_changes_swf(self, capsys):
        main(["--seed", "1", "swf", "w1"])
        first = capsys.readouterr().out
        main(["--seed", "2", "swf", "w1"])
        second = capsys.readouterr().out
        assert first != second

    def test_run_with_prv_export(self, tmp_path, capsys):
        prv_file = tmp_path / "trace.prv"
        assert main(["run", "PDPA", "w3", "--load", "0.6",
                     "--prv", str(prv_file)]) == 0
        assert prv_file.exists()
        from repro.metrics.prv import parse_prv
        prv = parse_prv(prv_file.read_text())
        assert prv.n_cpus == 60
        assert prv.states
        assert "Paraver trace written" in capsys.readouterr().out

    def test_ablations_command(self, capsys):
        assert main(["ablations", "--workload", "w3", "--load", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "Coordination ablation" in out
        assert "PDPA (fixed mpl)" in out
        assert "noise" in out.lower()

    def test_compare_small(self, capsys):
        assert main([
            "compare", "w3", "--loads", "0.6",
            "--policies", "Equip", "PDPA", "--seeds", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "apsi" in out and "response" in out

    def test_view_command(self, capsys):
        assert main(["view", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "execution view under IRIX" in out
        assert "execution view under PDPA" in out

    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "migrations" in out
        assert "IRIX" in out and "Equip" in out

    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out and "Table 4" in out

    def test_sanitize_observes_serve(self, capsys):
        argv = ["--seed", "7", "--cpus", "16", "serve", "PDPA", "--workload", "w2",
                "--load", "1.0", "--max-jobs", "60"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(["--sanitize"] + argv) == 0
        sanitized = capsys.readouterr()
        # stdout byte-identical; the report goes to stderr
        assert sanitized.out == plain.out
        assert "[sanitize] 1 run(s), " in sanitized.err
        assert "[sanitize]" not in plain.err

    def test_sanitize_notes_a_command_that_simulates_nothing(self, tmp_path, capsys):
        target = tmp_path / "fine.py"
        target.write_text("VALUES = sorted({1, 2, 3})\n")
        assert main(["--sanitize", "lint", str(target)]) == 0
        assert "[sanitize] note: `lint` simulates nothing" in capsys.readouterr().err


class TestTortureCommand:
    def test_single_protocol_clean(self, tmp_path, capsys):
        assert main([
            "torture", "--protocol", "checkpoint", "--budget", "20",
            "--dir", str(tmp_path / "scratch"),
        ]) == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out and "torture: clean" in out

    def test_mutation_self_test_caught(self, tmp_path, capsys):
        assert main([
            "torture", "--protocol", "status", "--budget", "40",
            "--mutate", "drop-fsync", "--dir", str(tmp_path / "scratch"),
        ]) == 0
        assert "mutant drop-fsync caught" in capsys.readouterr().out

    def test_output_has_no_scratch_paths(self, tmp_path, capsys):
        scratch = tmp_path / "scratch"
        assert main([
            "torture", "--protocol", "cache", "--budget", "15",
            "--dir", str(scratch),
        ]) == 0
        # deterministic stdout: same seed must print identical bytes
        # regardless of where the scratch directory lives
        assert str(scratch) not in capsys.readouterr().out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["torture", "--protocol", "nonsense"])


class TestChangedFiles:
    """`repro lint --changed` against real git states."""

    @pytest.fixture()
    def repo(self, tmp_path):
        def git(*cmd):
            subprocess.run(
                ["git", *cmd], cwd=tmp_path, check=True, capture_output=True
            )

        git("init", "-q")
        git("config", "user.email", "t@example.com")
        git("config", "user.name", "t")
        (tmp_path / "keep.py").write_text("A = 1\n")
        (tmp_path / "gone.py").write_text("B = 2\n")
        (tmp_path / "old name.py").write_text("C = 3\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "inner.py").write_text("D = 4\n")
        git("add", "-A")
        git("commit", "-qm", "seed")
        return tmp_path

    def _changed_in(self, repo_dir, monkeypatch, subdir=None):
        monkeypatch.chdir(repo_dir if subdir is None else repo_dir / subdir)
        return _changed_python_files()

    def test_clean_tree_reports_nothing(self, repo, monkeypatch):
        assert self._changed_in(repo, monkeypatch) == []

    def test_clean_tree_json_is_an_empty_array(self, repo, monkeypatch, capsys):
        monkeypatch.chdir(repo)
        assert main(["lint", "--changed", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_deleted_files_are_skipped(self, repo, monkeypatch):
        (repo / "gone.py").unlink()
        assert self._changed_in(repo, monkeypatch) == []

    def test_rename_reports_the_new_path(self, repo, monkeypatch):
        # a staged pure rename produces an R record with two paths;
        # before the -z/--name-status parser this crashed the command
        subprocess.run(
            ["git", "mv", "old name.py", "new name.py"],
            cwd=repo, check=True, capture_output=True,
        )
        assert self._changed_in(repo, monkeypatch) == ["new name.py"]

    def test_modified_untracked_and_non_python(self, repo, monkeypatch):
        (repo / "keep.py").write_text("A = 2\n")
        (repo / "fresh.py").write_text("E = 5\n")
        (repo / "notes.txt").write_text("not python\n")
        assert self._changed_in(repo, monkeypatch) == ["fresh.py", "keep.py"]

    def test_runs_from_a_subdirectory(self, repo, monkeypatch):
        (repo / "sub" / "inner.py").write_text("D = 5\n")
        changed = self._changed_in(repo, monkeypatch, subdir="sub")
        assert changed == ["inner.py"]

    def test_changed_narrows_the_given_paths(self, tmp_path, monkeypatch, capsys):
        # A changed test file with a hazard is outside the default
        # src/repro, which is all CI lints; naming tests/ lints it.
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "mod.py").write_text("A = 1\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "import time\nstamp = time.time()\n"
        )
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            cli, "_changed_python_files",
            lambda: ["src/repro/mod.py", "tests/test_mod.py"],
        )
        assert main(["lint", "--changed"]) == 0
        assert "clean" in capsys.readouterr().out
        assert main(["lint", "--changed", "tests"]) == 1
        out = capsys.readouterr().out
        assert "test_mod.py:2" in out
        assert "mod.py:1" not in out
        assert main(["lint", "--changed", "docs"]) == 0
        assert "no changed Python files" in capsys.readouterr().out
