"""Checkpoint/restore: byte-identical resume, typed failure taxonomy.

The contract under test (see ``docs/robustness.md``): restoring a
snapshot either yields a session whose continued execution produces a
final report **byte-identical** to the uninterrupted run's, or raises
one of the typed :mod:`repro.checkpoint.errors` — never a
silently-wrong run.
"""

from __future__ import annotations

import enum
import io
import os
import pickle
from pathlib import Path

import pytest

from repro.checkpoint import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointPlan,
    CheckpointVersionError,
    SimulationSession,
    config_digest,
    read_meta,
    read_snapshot,
    write_snapshot,
)
from repro.checkpoint.session import PICKLE_PROTOCOL
from repro.experiments.common import (
    ExperimentConfig,
    build_session,
    run_workload,
)
from repro.faults.scenarios import build_scenario
from repro.parallel.cache import canonical_dumps
from repro.qs.workload import TABLE1_MIXES, generate_workload
from repro.serve.session import ServeConfig, build_serve_session
from repro.serve.source import SyntheticSource
from repro.sim.rng import RandomStreams
from repro.validate import validate_checkpoint

CONFIG = ExperimentConfig(n_cpus=12, duration=30.0, seed=7)


def _session(policy="PDPA", config=CONFIG, load=1.0, workload="w1"):
    jobs = generate_workload(
        TABLE1_MIXES[workload], load,
        n_cpus=config.n_cpus, duration=config.duration,
        streams=RandomStreams(config.seed).spawn("workload"),
    )
    return build_session(policy, jobs, config, load=load, workload=workload)


def _result_bytes(session):
    return canonical_dumps(session.finish().result.to_dict())


def _baseline(policy="PDPA", config=CONFIG):
    session = _session(policy, config)
    session.run()
    return _result_bytes(session)


class TestRoundTripByteIdentity:
    @pytest.mark.parametrize("policy", ["IRIX", "Equip", "Equal_eff", "PDPA"])
    def test_mid_run_cut_restores_byte_identical(self, policy, tmp_path):
        baseline = _baseline(policy)
        session = _session(policy)
        session.run(until=15.0)
        path = tmp_path / "cut.ckpt"
        session.save(path, label="mid")
        restored = SimulationSession.restore(path, expected_config=CONFIG)
        restored.run()
        assert _result_bytes(restored) == baseline

    @pytest.mark.parametrize("cut", [0.0, 5.0, 12.0, 25.0])
    def test_every_cut_point_restores_byte_identical(self, cut, tmp_path):
        baseline = _baseline()
        session = _session()
        session.run(until=cut)
        path = tmp_path / "cut.ckpt"
        session.save(path)
        restored = SimulationSession.restore(
            path, expected_config=CONFIG, expected_policy="PDPA",
            expected_workload="w1", expected_load=1.0,
        )
        restored.run()
        assert _result_bytes(restored) == baseline

    def test_chained_save_restore_save_restore(self, tmp_path):
        baseline = _baseline()
        session = _session()
        session.run(until=8.0)
        session.save(tmp_path / "a.ckpt")
        second = SimulationSession.restore(tmp_path / "a.ckpt")
        second.run(until=20.0)
        second.save(tmp_path / "b.ckpt")
        third = SimulationSession.restore(tmp_path / "b.ckpt")
        third.run()
        assert _result_bytes(third) == baseline

    def test_restore_with_faults_installed(self, tmp_path):
        config = CONFIG.with_faults(build_scenario("cpukill8", CONFIG.n_cpus))
        base = _session(config=config)
        base.run()
        baseline = _result_bytes(base)
        session = _session(config=config)
        session.run(until=15.0)
        session.save(tmp_path / "faulty.ckpt")
        restored = SimulationSession.restore(
            tmp_path / "faulty.ckpt", expected_config=config
        )
        restored.run()
        assert _result_bytes(restored) == baseline

    def test_snapshot_restores_twice_independently(self, tmp_path):
        session = _session()
        session.run(until=12.0)
        session.save(tmp_path / "cut.ckpt")
        first = SimulationSession.restore(tmp_path / "cut.ckpt")
        second = SimulationSession.restore(tmp_path / "cut.ckpt")
        first.run()
        second.run()
        assert _result_bytes(first) == _result_bytes(second)

    def test_run_workload_restore_entry_point(self, tmp_path):
        baseline = run_workload("PDPA", "w1", 1.0, CONFIG)
        session = _session()
        session.run(until=10.0)
        session.save(tmp_path / "cut.ckpt")
        out = run_workload("PDPA", "w1", 1.0, CONFIG,
                           restore=tmp_path / "cut.ckpt")
        assert (canonical_dumps(out.result.to_dict())
                == canonical_dumps(baseline.result.to_dict()))


class TestAutosnapshot:
    def test_event_cadence_fires_and_restores(self, tmp_path):
        plan = CheckpointPlan(path=tmp_path / "auto.ckpt", every_events=25)
        baseline = run_workload("Equip", "w1", 1.0, CONFIG, checkpoint=plan)
        meta = read_meta(plan.path)
        assert meta["label"] == "auto"
        assert 0 < meta["events_fired"]
        restored = SimulationSession.restore(plan.path, expected_config=CONFIG)
        restored.run()
        assert (_result_bytes(restored)
                == canonical_dumps(baseline.result.to_dict()))

    def test_sim_time_cadence_fires(self, tmp_path):
        plan = CheckpointPlan(path=tmp_path / "auto.ckpt",
                              every_sim_seconds=10.0)
        run_workload("PDPA", "w1", 1.0, CONFIG, checkpoint=plan)
        assert read_meta(plan.path)["sim_time"] > 0

    def test_plan_requires_a_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="every_events"):
            CheckpointPlan(path=tmp_path / "x.ckpt")
        with pytest.raises(ValueError, match=">= 1"):
            CheckpointPlan(path=tmp_path / "x.ckpt", every_events=0)
        with pytest.raises(ValueError, match="positive"):
            CheckpointPlan(path=tmp_path / "x.ckpt", every_sim_seconds=-1.0)

    def test_hook_not_part_of_pickled_state(self, tmp_path):
        session = _session()
        fired = []
        session.sim.set_checkpoint_hook(lambda: fired.append(1),
                                        every_events=1)
        clone = pickle.loads(pickle.dumps(session))
        assert clone.sim._ckpt_hook is None
        session.sim.clear_checkpoint_hook()


class _RecordingPickler(pickle.Pickler):
    """Pickles like ``save()`` and keeps every object it visits."""

    def __init__(self) -> None:
        super().__init__(io.BytesIO(), protocol=PICKLE_PROTOCOL)
        self.seen = []

    def reducer_override(self, obj):
        self.seen.append(obj)
        return NotImplemented


def _pickled_objects(session):
    """Every object *session*'s pickle visits."""
    pickler = _RecordingPickler()
    pickler.dump(session)
    return pickler.seen


def _classes_with_dict(session):
    """``repro`` classes whose instances in *session*'s pickle have a ``__dict__``."""
    return sorted({
        f"{type(obj).__module__}.{type(obj).__qualname__}"
        for obj in _pickled_objects(session)
        if type(obj).__module__.startswith("repro.")
        and not isinstance(obj, enum.Enum)
        and hasattr(obj, "__dict__")
    })


#: closed runs long enough that every policy and fault scenario is
#: mid-run at t=100, with bursts, reports and fault records on record
LAYOUT_CONFIG = ExperimentConfig(n_cpus=16, duration=60.0, seed=5)
LAYOUT_SESSIONS = ["serve"] + [
    f"{policy}/{scenario}"
    for policy in ("IRIX", "Equip", "Equal_eff", "PDPA")
    for scenario in ("none", "cpukill8", "flaky-reports", "brownout")
]


def _layout_session(name):
    if name == "serve":
        source = SyntheticSource(
            TABLE1_MIXES["w2"], load=1.0, n_cpus=16, seed=0, max_jobs=30
        )
        session = build_serve_session(
            "PDPA", source, config=ExperimentConfig(n_cpus=16, seed=0),
            serve_config=ServeConfig(),
        )
        session.pump.prime()
        while session.source.drawn < 15 and session.sim.step(1):
            pass
        return session
    policy, scenario = name.split("/")
    config = LAYOUT_CONFIG
    if scenario != "none":
        config = config.with_faults(build_scenario(scenario, config.n_cpus))
    session = _session(policy, config)
    session.run(until=100.0)
    return session


class TestSnapshotLayout:
    """Nothing a snapshot pickles keeps an instance ``__dict__``.

    Pickling reads an object's ``__dict__``, which on CPython 3.11+
    turns its inline attribute values into a real dict for good, and
    later attribute access on it misses its fast path; unpickling
    writes through the same dict.  So every ``repro`` class reachable
    from a session declares ``__slots__`` (or is a ``NamedTuple``),
    live and restored alike; enum members are exempt.
    """

    @pytest.mark.parametrize("name", LAYOUT_SESSIONS)
    def test_no_pickled_object_has_an_instance_dict(self, name, tmp_path):
        session = _layout_session(name)
        assert not session.complete
        path = tmp_path / "layout.ckpt"
        session.save(path)
        assert _classes_with_dict(session) == []
        restored = type(session).restore(path)
        assert _classes_with_dict(restored) == []

    @pytest.mark.parametrize("name", ["serve", "PDPA/cpukill8"])
    def test_no_pickled_object_is_an_itertools_instance(self, name, tmp_path):
        # Python 3.14 drops pickling from itertools (3.12 and 3.13 warn).
        session = _layout_session(name)
        path = tmp_path / "layout.ckpt"
        session.save(path)
        for graph in (session, type(session).restore(path)):
            assert [
                type(obj).__name__ for obj in _pickled_objects(graph)
                if type(obj).__module__ == "itertools"
            ] == []


class TestEnvelope:
    def test_write_is_atomic_no_temp_residue(self, tmp_path):
        write_snapshot(tmp_path / "s.ckpt", {"kind": "test"}, b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.ckpt"]
        meta, payload = read_snapshot(tmp_path / "s.ckpt")
        assert meta["kind"] == "test" and payload == b"payload"

    def test_overwrite_replaces_previous_snapshot(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_snapshot(path, {"n": 1}, b"one")
        write_snapshot(path, {"n": 2}, b"two")
        meta, payload = read_snapshot(path)
        assert meta["n"] == 2 and payload == b"two"

    def test_missing_file_is_corrupt(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="no such file"):
            read_snapshot(tmp_path / "absent.ckpt")

    def test_truncated_payload_is_corrupt(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_snapshot(path, {"kind": "test"}, b"x" * 100)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(CheckpointCorruptError, match="header promises"):
            read_snapshot(path)

    def test_flipped_bit_is_corrupt(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_snapshot(path, {"kind": "test"}, b"x" * 100)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_snapshot(path)

    def test_bad_magic_is_corrupt(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"not-a-checkpoint meta=1 payload=1 sha256=00\nXY")
        with pytest.raises(CheckpointCorruptError, match="bad header"):
            read_snapshot(path)

    def test_missing_header_line_is_corrupt(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(CheckpointCorruptError, match="missing header"):
            read_snapshot(path)

    def test_unknown_revision_is_version_error(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_snapshot(path, {"kind": "test"}, b"payload")
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"repro-ckpt-v1 ", b"repro-ckpt-v9 ", 1))
        with pytest.raises(CheckpointVersionError) as err:
            read_snapshot(path)
        assert err.value.kind == "version" and err.value.found == 9

    def test_garbage_payload_is_corrupt_on_restore(self, tmp_path):
        path = tmp_path / "s.ckpt"
        # A valid envelope whose payload is not a pickled session.
        write_snapshot(path, {
            "kind": "simulation-session",
            "code_version": _current_code_version(),
            "config_digest": config_digest(CONFIG),
            "policy": "PDPA", "workload": "w1", "load": 1.0, "seed": 7,
        }, b"this is not a pickle")
        with pytest.raises(CheckpointCorruptError, match="unpickle"):
            SimulationSession.restore(path, expected_config=CONFIG)


def _current_code_version():
    from repro.parallel.cache import code_version

    return code_version()


def _rewrite_meta(path, **overrides):
    """Re-envelope a snapshot with tampered meta (checksum stays valid)."""
    meta, payload = read_snapshot(path)
    meta.update(overrides)
    write_snapshot(path, meta, payload)


class TestRestoreRefusals:
    @pytest.fixture
    def snapshot(self, tmp_path):
        session = _session()
        session.run(until=10.0)
        path = tmp_path / "cut.ckpt"
        session.save(path)
        return path

    def test_wrong_code_version_refused(self, snapshot):
        _rewrite_meta(snapshot, code_version="0" * 64)
        with pytest.raises(CheckpointMismatchError) as err:
            SimulationSession.restore(snapshot)
        assert err.value.kind == "mismatch"
        assert err.value.field == "code_version"

    def test_wrong_config_refused(self, snapshot):
        other = ExperimentConfig(n_cpus=12, duration=30.0, seed=8)
        with pytest.raises(CheckpointMismatchError) as err:
            SimulationSession.restore(snapshot, expected_config=other)
        assert err.value.field == "config"

    def test_wrong_policy_workload_load_refused(self, snapshot):
        for kwargs, field in (
            ({"expected_policy": "IRIX"}, "policy"),
            ({"expected_workload": "w2"}, "workload"),
            ({"expected_load": 0.6}, "load"),
        ):
            with pytest.raises(CheckpointMismatchError) as err:
                SimulationSession.restore(snapshot, **kwargs)
            assert err.value.field == field

    def test_wrong_kind_refused(self, snapshot):
        _rewrite_meta(snapshot, kind="something-else")
        with pytest.raises(CheckpointMismatchError) as err:
            SimulationSession.restore(snapshot)
        assert err.value.field == "kind"

    def test_embedded_config_must_agree_with_envelope(self, snapshot):
        other = ExperimentConfig(n_cpus=12, duration=30.0, seed=8)
        _rewrite_meta(snapshot, config_digest=config_digest(other))
        with pytest.raises(CheckpointCorruptError, match="disagrees"):
            SimulationSession.restore(snapshot, expected_config=other)


class TestValidateCheckpoint:
    def test_clean_snapshot_validates(self, tmp_path):
        session = _session()
        session.run(until=12.0)
        session.save(tmp_path / "cut.ckpt")
        assert validate_checkpoint(tmp_path / "cut.ckpt",
                                   expected_config=CONFIG) == []

    def test_corrupt_snapshot_reported_not_raised(self, tmp_path):
        (tmp_path / "bad.ckpt").write_bytes(b"garbage")
        problems = validate_checkpoint(tmp_path / "bad.ckpt")
        assert len(problems) == 1 and "corrupt" in problems[0]

    def test_lying_meta_reported(self, tmp_path):
        session = _session()
        session.run(until=12.0)
        path = tmp_path / "cut.ckpt"
        session.save(path)
        _rewrite_meta(path, sim_time=999.0, events_fired=12345)
        problems = validate_checkpoint(path)
        assert any("sim_time" in p for p in problems)
        assert any("events_fired" in p for p in problems)


class TestReplayCli:
    def test_replay_until_then_to_completion(self, tmp_path, capsys):
        from repro.cli import main

        session = _session()
        session.run(until=8.0)
        snap = tmp_path / "cut.ckpt"
        session.save(snap)
        saved = tmp_path / "later.ckpt"
        assert main(["replay", str(snap), "--until", "20",
                     "--save", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "replayed to t=20s" in out
        assert "run incomplete" in out
        assert saved.exists()
        assert main(["replay", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "run complete" in out

    def test_replay_refuses_corrupt_snapshot(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"junk")
        with pytest.raises(SystemExit, match="corrupt"):
            main(["replay", str(bad)])

    def test_run_restore_stdout_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        args = ["--seed", "7", "--cpus", "12", "run", "PDPA", "w1",
                "--load", "1.0"]
        assert main(args) == 0
        baseline = capsys.readouterr().out

        config = ExperimentConfig(seed=7, n_cpus=12).with_mpl(4)
        jobs = generate_workload(
            TABLE1_MIXES["w1"], 1.0, n_cpus=12, duration=config.duration,
            streams=RandomStreams(7).spawn("workload"),
        )
        session = build_session("PDPA", jobs, config, load=1.0, workload="w1")
        session.run(until=50.0)
        snap = tmp_path / "cut.ckpt"
        session.save(snap)

        assert main(args + ["--restore", str(snap)]) == 0
        assert capsys.readouterr().out == baseline

    def test_run_restore_refuses_mismatch(self, tmp_path):
        from repro.cli import main

        session = _session()
        session.run(until=10.0)
        snap = tmp_path / "cut.ckpt"
        session.save(snap)
        with pytest.raises(SystemExit, match="mismatch"):
            main(["--seed", "7", "--cpus", "12", "run", "Equip", "w1",
                  "--load", "1.0", "--restore", str(snap)])

    def test_run_checkpoint_dir_autosnapshots(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["--seed", "7", "--cpus", "12",
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--checkpoint-every", "25",
                     "run", "PDPA", "w1", "--load", "1.0"]) == 0
        capsys.readouterr()
        snapshots = list((tmp_path / "ck").glob("*.ckpt"))
        assert len(snapshots) == 1
        assert snapshots[0].name == "PDPA-w1-load1-seed7.ckpt"

    def test_cadence_flags_require_checkpoint_dir(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main(["--checkpoint-every", "10", "run", "PDPA", "w1"])
