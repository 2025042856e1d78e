"""Tests for the stateful protocol fuzzer (:mod:`repro.fuzz`).

Three contracts are pinned here:

1. **detection** — the oracle actually flags seeded corruption, and a
   seeded protocol mutation is found, shrunk, and reproduced from the
   captured stimulus (the fuzzer is a working bug-finder, not a
   tautology);
2. **determinism** — the same seed explores the same rule sequences
   and reaches the same verdict, campaign and CLI alike;
3. **differential agreement** — all policies replay a shared stimulus
   without disagreeing on conservation properties.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.fuzz.corpus import replay_stimulus
from repro.fuzz.differential import differential_check, random_stimulus
from repro.fuzz.oracle import LiveOracle
from repro.fuzz.runner import run_campaign
from repro.fuzz.stimulus import OP_KINDS, Stimulus, apply_op
from repro.fuzz.targets import FUZZ_POLICIES, FuzzTarget
from repro.machine.machine import CpuHealth
from repro.qs.queuing import NanosQS


def _dropped_kill(self, job, reason):
    """The seeded protocol mutation: the QS forgets killed jobs.

    A module-level function (not a lambda) so mutated sessions stay
    picklable — the fuzzer's checkpoint rule must keep working while
    the mutation is live.
    """


#: a scripted stimulus touching every op kind that is meaningful on
#: every policy
SCRIPTED_OPS = [
    {"kind": "submit", "app": "fz-linear", "request": 8},
    {"kind": "step", "n": 3},
    {"kind": "submit", "app": "fz-amdahl", "request": 6},
    {"kind": "advance", "dt": 1.0},
    {"kind": "cpu_fail", "cpu": 3, "transient": True},
    {"kind": "force", "victim": 0, "procs": 2},
    {"kind": "checkpoint"},
    {"kind": "crash", "victim": 1},
    {"kind": "cpu_repair", "cpu": 3},
    {"kind": "submit", "app": "fz-rigid", "request": 4},
    {"kind": "drain"},
]


class TestLiveOracleClean:
    @pytest.mark.parametrize("policy", FUZZ_POLICIES)
    def test_scripted_stimulus_runs_clean(self, policy):
        stimulus = Stimulus(policy=policy, seed=0, ops=list(SCRIPTED_OPS))
        result = replay_stimulus(stimulus)
        assert result.clean, (result.violations, result.crash)
        assert result.ops_applied == len(SCRIPTED_OPS)

    def test_replay_is_deterministic(self):
        stimulus = Stimulus(policy="PDPA", seed=0, ops=list(SCRIPTED_OPS))
        first = replay_stimulus(stimulus)
        second = replay_stimulus(stimulus)
        assert first.fingerprint == second.fingerprint

    def test_stimulus_json_round_trip(self):
        stimulus = Stimulus(policy="Equip", seed=7, ops=list(SCRIPTED_OPS))
        assert Stimulus.from_json(stimulus.to_json()) == stimulus
        assert all(op["kind"] in OP_KINDS for op in stimulus.ops)


class TestLiveOracleDetects:
    """Seeded corruption: the oracle must complain, loudly and precisely."""

    def test_corrupted_machine_books_flagged(self):
        with FuzzTarget("Equip") as target:
            oracle = LiveOracle()
            apply_op(target, {"kind": "submit", "app": "fz-linear", "request": 4})
            # submit + startup: iteration ends may be absorbed, so a
            # third event could already be the teardown
            apply_op(target, {"kind": "step", "n": 2})
            assert target.running_jobs(), "job should be mid-flight"
            assert oracle.check(target) == []
            machine = target.rm.machine
            owned = machine.partition_of(target.running_jobs()[0].job_id)[0]
            machine._owner[owned] = None  # steal a CPU behind the books' back
            violations = oracle.check(target)
            codes = {v.code for v in violations}
            assert codes & {"cpu-books", "cpu-conservation"}, violations

    def test_owned_offline_cpu_flagged(self):
        with FuzzTarget("Equip") as target:
            oracle = LiveOracle()
            apply_op(target, {"kind": "submit", "app": "fz-linear", "request": 4})
            apply_op(target, {"kind": "step", "n": 2})
            assert target.running_jobs(), "job should be mid-flight"
            assert oracle.check(target) == []
            machine = target.rm.machine
            job_id = target.running_jobs()[0].job_id
            owned = machine.partition_of(job_id)[0]
            # fail a CPU behind the books' back, leaving its owner on it
            machine._health[owned] = CpuHealth.OFFLINE
            violations = oracle.check(target)
            expected = f"offline CPU {owned} still owned by job {job_id}"
            assert any(
                v.code == "fault-offline" and expected in v for v in violations
            ), violations

    def test_unaccounted_killed_job_flagged(self, monkeypatch):
        # Protocol mutation: the QS drops its kill hook, so a crashed
        # job lands in no bucket (not queued, running, completed, or
        # failed).  Job conservation must notice immediately.
        monkeypatch.setattr(NanosQS, "_job_killed", _dropped_kill)
        with FuzzTarget("Equip") as target:
            oracle = LiveOracle()
            apply_op(target, {"kind": "submit", "app": "fz-linear", "request": 4})
            # submit + startup: iteration ends may be absorbed, so a
            # third event could already be the teardown
            apply_op(target, {"kind": "step", "n": 2})
            assert target.running_jobs(), "job should be mid-flight"
            apply_op(target, {"kind": "crash", "victim": 0})
            violations = oracle.check(target)
            assert any(v.code == "job-conservation" for v in violations), violations


class TestSeededMutationCampaign:
    """The fuzzer finds a seeded bug, shrinks it, and reproduces it."""

    BUDGET = 25
    STEPS = 30

    def _mutate(self, monkeypatch):
        monkeypatch.setattr(NanosQS, "_job_killed", _dropped_kill)

    def test_found_shrunk_and_reproduced(self, monkeypatch):
        self._mutate(monkeypatch)
        result = run_campaign("Equip", seed=0, budget=self.BUDGET, steps=self.STEPS)
        assert not result.ok, "seeded mutation escaped the campaign"
        failure = result.failure
        assert failure is not None
        # Shrinking worked: the minimal counterexample is tiny.
        assert 0 < len(failure.stimulus.ops) <= 6, failure.stimulus.ops
        # The captured stimulus reproduces the finding from scratch.
        replay = replay_stimulus(failure.stimulus)
        assert not replay.clean
        # ...and through the checkpoint boundary at every step.
        replay_ckpt = replay_stimulus(failure.stimulus, via_checkpoint=True)
        assert not replay_ckpt.clean

    def test_same_seed_same_verdict(self, monkeypatch):
        self._mutate(monkeypatch)
        first = run_campaign("Equip", seed=0, budget=self.BUDGET, steps=self.STEPS)
        second = run_campaign("Equip", seed=0, budget=self.BUDGET, steps=self.STEPS)
        assert not first.ok and not second.ok
        assert first.failure.stimulus == second.failure.stimulus
        # Codes, not messages: checkpoint violations embed the (fresh)
        # snapshot tmpdir, which is environment, not verdict.
        assert [(v.code, v.layer) for v in first.failure.violations] == [
            (v.code, v.layer) for v in second.failure.violations
        ]
        assert first.failure.crash == second.failure.crash


class TestDifferential:
    def test_policies_agree_on_conservation(self):
        stimulus = random_stimulus(0)
        result = differential_check(stimulus.ops, seed=0)
        assert result.clean, result.describe()

    def test_random_stimulus_is_deterministic(self):
        assert random_stimulus(42) == random_stimulus(42)
        assert random_stimulus(42) != random_stimulus(43)


class TestFuzzCLI:
    ARGS = [
        "fuzz", "--budget", "3", "--steps", "12",
        "--policies", "Equip", "--no-differential",
    ]

    def _run(self, tmp_path, capsys, seed="1"):
        rc = main(["--seed", seed] + self.ARGS
                  + ["--corpus-dir", str(tmp_path / "corpus")])
        return rc, capsys.readouterr().out

    def test_same_seed_same_output(self, tmp_path, capsys):
        rc1, out1 = self._run(tmp_path, capsys)
        rc2, out2 = self._run(tmp_path, capsys)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert "Equip" in out1 and "fuzz: clean" in out1

    def test_rejects_unknown_policy(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--seed", "1", "fuzz", "--policies", "NotAPolicy"])
