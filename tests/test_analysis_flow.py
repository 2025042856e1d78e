"""Tests for the flow tier: taint, session-state picklability, CLI.

The interprocedural layer is exercised against
``tests/analysis_fixtures/flow/``: each fixture plants violations for
one DET2xx/CONC303 rule and marks every expected finding line with
``# EXPECT: <ID>`` — including the syntactic DET1xx findings the same
line triggers, so the EXPECT sets double as a record of how the two
tiers relate.  ``pair_det105.py`` is the acceptance fixture: the
syntactic DET105 fires, its flow counterpart DET205 provably does not.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, render_json
from repro.analysis.flow import FLOW_RULE_IDS, FLOW_RULES
from repro.analysis.flow.analyzer import analyze_paths, deep_lint
from repro.analysis.flow.boundary import SESSION_ROOTS
from repro.analysis.flow.project import module_name_for
from repro.analysis.linter import parse_suppressions
from repro.cli import _changed_python_files, main

FLOW_FIXTURES = Path(__file__).parent / "analysis_fixtures" / "flow"
REPO_ROOT = Path(__file__).parent.parent

#: The fixture directory counts as simulation code so the sim-gated
#: rules (DET203 for the flow tier, DET105 syntactically) fire there.
FLOW_CONFIG = AnalysisConfig(sim_paths=("analysis_fixtures/flow/",))

#: The session root the CONC303 fixture declares in place of the
#: simulator's own.
FIXTURE_SESSION_ROOTS = ("lp_session.SessionRoot",)

_EXPECT = re.compile(r"#\s*EXPECT:\s*([A-Z]{3,4}\d{3})")


def expected_findings(path: Path):
    """``{(line, rule)}`` parsed from the fixture's EXPECT markers."""
    expected = set()
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        for rule in _EXPECT.findall(line):
            expected.add((line_no, rule))
    return expected


@pytest.fixture(scope="module")
def fixture_findings():
    """One combined syntactic+flow pass over the whole fixture tree."""
    return deep_lint(
        [str(FLOW_FIXTURES)], config=FLOW_CONFIG,
        session_roots=FIXTURE_SESSION_ROOTS,
    )


@pytest.fixture(scope="module")
def src_report():
    """One flow pass over the real source tree (shared, ~4s)."""
    return analyze_paths([str(REPO_ROOT / "src" / "repro")])


def _fixture_files():
    return sorted(
        str(p.relative_to(FLOW_FIXTURES)) for p in FLOW_FIXTURES.rglob("*.py")
    )


class TestFixtureRules:
    """Every seeded violation is found; nothing else fires."""

    @pytest.mark.parametrize("name", _fixture_files())
    def test_fixture_matches_expect_markers(self, name, fixture_findings):
        path = FLOW_FIXTURES / name
        expected = expected_findings(path)
        posix = path.as_posix()
        found = {
            (f.line, f.rule) for f in fixture_findings
            if posix.endswith(f.path)
        }
        assert found == expected

    def test_every_flow_rule_has_a_fixture(self):
        covered = set()
        for path in sorted(FLOW_FIXTURES.rglob("*.py")):
            covered.update(rule for _, rule in expected_findings(path))
        assert FLOW_RULE_IDS <= covered

    def test_flow_findings_carry_severity_and_hint(self, fixture_findings):
        flow = [f for f in fixture_findings if f.rule in FLOW_RULE_IDS]
        assert flow
        for finding in flow:
            assert finding.severity == "error"
            assert finding.hint

    def test_session_fixture_is_clean_under_the_default_roots(self):
        # the fixture's classes are unreachable from SimulationSession
        report = analyze_paths(
            [str(FLOW_FIXTURES / "boundary")], config=FLOW_CONFIG
        )
        assert not any(f.rule == "CONC303" for f in report.findings)

    def test_json_report_stable_across_hash_seeds(self):
        outputs = set()
        for seed in ("3", "99"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(REPO_ROOT / "src"))
            outputs.add(subprocess.run(
                [sys.executable, "-c", (
                    "from repro.analysis import AnalysisConfig, render_json\n"
                    "from repro.analysis.flow.analyzer import deep_lint\n"
                    "import sys\n"
                    "fs = deep_lint([sys.argv[1]],"
                    " config=AnalysisConfig(sim_paths=('analysis_fixtures/flow/',)),"
                    " session_roots=('lp_session.SessionRoot',))\n"
                    "sys.stdout.write(render_json(fs))\n"
                ), str(FLOW_FIXTURES)],
                capture_output=True, text=True, check=True, env=env,
                cwd=str(REPO_ROOT),
            ).stdout)
        assert len(outputs) == 1


class TestPrecisionUpgrade:
    """The acceptance pair: DET105 fires, its DET205 upgrade does not."""

    def test_sorted_escape_has_no_flow_finding(self, fixture_findings):
        pair = [f for f in fixture_findings if f.path.endswith("pair_det105.py")]
        assert {f.rule for f in pair} == {"DET105"}

    def test_unsorted_escape_has_both(self, fixture_findings):
        escape = [
            f for f in fixture_findings if f.path.endswith("det205_set_escape.py")
        ]
        assert {f.rule for f in escape} == {"DET105", "DET205"}
        # and both tiers agree on the line
        assert len({f.line for f in escape}) == 1


class TestSelfClean:
    """src/repro passes its own deep lint."""

    def test_source_tree_has_no_flow_findings(self, src_report):
        assert src_report.findings == []

    def test_suppressed_findings_are_the_audited_event_sends(self, src_report):
        # the qs/queuing.py event sends were the only audited flow
        # suppressions; with no LP cut left for them to cross they need
        # none, so nothing is suppressed and no flow-rule pragma is left
        assert src_report.suppressed == []
        pragmas = [
            (path.name, rule)
            for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
            for pragma in parse_suppressions(
                path.read_text(encoding="utf-8"), str(path)
            )[0].values()
            for rule in pragma.rule_ids
            if rule in FLOW_RULE_IDS
        ]
        assert pragmas == []

    def test_session_roots_are_reachable(self, src_report):
        # the CONC303 scan is only meaningful if the root actually
        # resolves to a project class with typed attributes
        assert SESSION_ROOTS == ("repro.checkpoint.session.SimulationSession",)
        assert SESSION_ROOTS[0] in src_report.project.classes


class TestProjectModel:
    def test_module_name_walks_packages(self):
        assert module_name_for(
            REPO_ROOT / "src" / "repro" / "sim" / "engine.py"
        ) == "repro.sim.engine"
        # fixture files live outside any package: bare stem
        assert module_name_for(FLOW_FIXTURES / "boundary" / "lp_session.py") == (
            "lp_session"
        )

    def test_rule_catalog_is_complete(self):
        assert {r.id for r in FLOW_RULES} == FLOW_RULE_IDS
        for rule in FLOW_RULES:
            assert rule.hint and rule.title and rule.severity == "error"


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


class TestCli:
    def test_deep_lint_cli_is_clean(self, capsys):
        # the fixture tree is excluded by the repo config, so the deep
        # CLI run over it must come back clean
        code = main(["lint", "--deep", str(FLOW_FIXTURES)])
        assert code == 0
        assert "clean" in capsys.readouterr().out
