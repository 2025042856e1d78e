"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
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
    ["--checkpoint-interval", "inf", "run", "PDPA", "w1"],
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
        ["--checkpoint-interval", "-1", "run", "PDPA", "w1"],
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
