"""The crash-safe streaming service (:mod:`repro.serve`).

Four layers under test, bottom-up:

* **sources** — deterministic open-system arrival generation (same
  seed, same stream; SWF streaming is covered in ``test_swf``);
* **journal** — fsync'd write-ahead arrivals: resume, torn tails,
  duplicate seqs resolved last-wins;
* **ingress + pump** — bounded admission with deterministic shedding,
  the single-event arrival chain, block-policy backpressure (including
  the lost-arrival regression), and the fuzzer-found requeue-over-bound
  case that shaped the ``stream-bounded-queue`` invariant;
* **session + service** — byte-identical crash recovery (digest
  equality), replay verification (:class:`StreamDivergenceError`),
  pruning that never changes a digest, the run loop's exit protocol
  and status heartbeat.

Process-level violence (SIGKILL, SIGTERM, a wedged watchdog) lives in
``test_serve_chaos.py`` — excluded from tier-1 like the other chaos
suites.
"""

from __future__ import annotations

import pickle

import pytest

from repro.apps.catalog import APP_CATALOG
from repro.experiments.common import ExperimentConfig
from repro.qs.job import Job, JobState
from repro.qs.streaming import ADMITTED, BLOCKED, SHED, IngressConfig, StreamingQS
from repro.qs.workload import TABLE1_MIXES
from repro.serve.journal import ArrivalJournal, JournalEntry
from repro.serve.service import (
    EXIT_DEADLOCK,
    ServeService,
    read_status,
)
from repro.serve.session import (
    DRAW_AHEAD,
    ServeConfig,
    ServeSession,
    StreamDivergenceError,
    build_serve_session,
)
from repro.serve.source import SyntheticSource
from repro.validate import validate_stream


def make_source(seed: int = 0, max_jobs: int = 30, n_cpus: int = 16,
                load: float = 1.0) -> SyntheticSource:
    return SyntheticSource(
        TABLE1_MIXES["w2"], load=load, n_cpus=n_cpus, seed=seed,
        max_jobs=max_jobs,
    )


def make_session(policy: str = "Equip", seed: int = 0, max_jobs: int = 30,
                 n_cpus: int = 16, ingress: IngressConfig = IngressConfig(),
                 load: float = 1.0) -> ServeSession:
    config = ExperimentConfig(n_cpus=n_cpus, seed=seed)
    return build_serve_session(
        policy, make_source(seed=seed, max_jobs=max_jobs, n_cpus=n_cpus,
                            load=load),
        config=config, serve_config=ServeConfig(ingress=ingress),
    )


def drain(session: ServeSession, max_events: int = 500_000) -> None:
    session.pump.prime()
    fired = session.sim.run(max_events=max_events)
    assert session.complete, f"did not drain after {fired} events"


def cut_after_offers(session: ServeSession, offered: int) -> None:
    """Advance event by event until *offered* arrivals were offered.

    A cut placed by offers stays mid-stream however many iteration ends
    a fired event absorbs, and however far ahead the pump draws.
    """
    session.pump.prime()
    while session.stats.submitted < offered and session.sim.step(1):
        pass


class TestSyntheticSource:
    def test_same_seed_same_stream(self):
        a, b = make_source(seed=7), make_source(seed=7)
        jobs_a = [a.draw() for _ in range(30)]
        jobs_b = [b.draw() for _ in range(30)]
        for ja, jb in zip(jobs_a, jobs_b):
            assert (ja.job_id, ja.spec.name, ja.submit_time, ja.request) == (
                jb.job_id, jb.spec.name, jb.submit_time, jb.request
            )

    def test_different_seed_different_stream(self):
        a, b = make_source(seed=1), make_source(seed=2)
        stream_a = [(j.spec.name, j.submit_time) for j in
                    (a.draw() for _ in range(10))]
        stream_b = [(j.spec.name, j.submit_time) for j in
                    (b.draw() for _ in range(10))]
        assert stream_a != stream_b

    def test_max_jobs_exhausts(self):
        source = make_source(max_jobs=3)
        assert [source.draw() is not None for _ in range(3)] == [True] * 3
        assert source.draw() is None
        assert source.drawn == 3

    def test_ids_count_up_from_one(self):
        source = make_source(max_jobs=5)
        assert [j.job_id for j in (source.draw() for _ in range(5))] == [
            1, 2, 3, 4, 5
        ]

    def test_arrivals_are_monotone(self):
        source = make_source(max_jobs=50)
        times = [source.draw().submit_time for _ in range(50)]
        assert times == sorted(times)

    def test_pickle_resumes_the_stream(self):
        source = make_source(max_jobs=20)
        for _ in range(8):
            source.draw()
        clone = pickle.loads(pickle.dumps(source))
        rest = [source.draw().submit_time for _ in range(12)]
        rest_clone = [clone.draw().submit_time for _ in range(12)]
        assert rest == rest_clone

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_source(load=0.0)
        with pytest.raises(ValueError):
            make_source(n_cpus=0)


class TestJournal:
    def entry(self, seq: int, request: int = 4) -> JournalEntry:
        return JournalEntry(seq=seq, job_id=seq, app="bt.A",
                            submit=float(seq) * 1.5, request=request)

    def test_append_then_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ArrivalJournal(path) as journal:
            for seq in (1, 2, 3):
                journal.append([self.entry(seq)])
        resumed = ArrivalJournal(path, resume=True)
        assert len(resumed) == 3
        assert resumed.max_seq == 3
        assert not resumed.torn_tail
        got = resumed.entries[2]
        assert (got.job_id, got.app, got.submit, got.request) == (2, "bt.A", 3.0, 4)

    def test_fresh_journal_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ArrivalJournal(path) as journal:
            journal.append([self.entry(1)])
        fresh = ArrivalJournal(path, resume=False)
        assert len(fresh) == 0
        assert not path.exists()

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ArrivalJournal(path) as journal:
            for seq in (1, 2):
                journal.append([self.entry(seq)])
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"seq":3,"jo')  # crash mid-write
        resumed = ArrivalJournal(path, resume=True)
        assert resumed.torn_tail
        assert sorted(resumed.entries) == [1, 2]

    def test_duplicate_seq_last_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ArrivalJournal(path) as journal:
            journal.append([self.entry(1, request=4)])
            journal.append([self.entry(1, request=9)])
        resumed = ArrivalJournal(path, resume=True)
        assert resumed.duplicates == 1
        assert resumed.entries[1].request == 9

    def test_tail_after(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ArrivalJournal(path) as journal:
            for seq in (1, 2, 3, 4):
                journal.append([self.entry(seq)])
        resumed = ArrivalJournal(path, resume=True)
        assert [e.seq for e in resumed.tail_after(2)] == [3, 4]
        assert resumed.tail_after(4) == []

    def test_matches_job_is_exact(self, linear_app):
        entry = JournalEntry(seq=1, job_id=1, app="linear",
                             submit=2.5, request=8)
        job = Job(job_id=1, spec=linear_app, submit_time=2.5, request=8)
        assert entry.matches_job(job)
        off = Job(job_id=1, spec=linear_app,
                  submit_time=2.5 + 1e-12, request=8)
        assert not entry.matches_job(off)


class TestIngressConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IngressConfig(max_queue=-1)
        with pytest.raises(ValueError):
            IngressConfig(policy="throttle")
        with pytest.raises(ValueError):
            IngressConfig(overload_factor=0.0)


class TestServeConfig:
    @pytest.mark.parametrize("bad", [
        dict(step_events=0),
        dict(heartbeat_seconds=-1.0),
        dict(watchdog_seconds=0.0),
        dict(watchdog_seconds=-5.0),
        dict(watchdog_seconds=float("nan")),  # NaN > 0 and NaN <= 0 are both False
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            ServeConfig(**bad)


class TestAdmissionControl:
    def _job(self, session, job_id, request=4):
        return Job(job_id=job_id, spec=APP_CATALOG["bt.A"],
                   submit_time=session.sim.now, request=request)

    def test_reject_sheds_the_newcomer(self):
        session = make_session(
            max_jobs=0, n_cpus=4,
            ingress=IngressConfig(max_queue=2, policy="reject"),
        )
        qs = session.qs
        # requests bigger than the machine keep every job queued
        for job_id in (1, 2):
            assert qs.offer(self._job(session, job_id)) == ADMITTED
        # the machine is idle, so the first job started; fill the gap
        queued = [j.job_id for j in qs.queue]
        while len(qs.queue) < 2:
            job_id = qs._last_job_id + 1
            assert qs.offer(self._job(session, job_id)) == ADMITTED
        head = [j.job_id for j in qs.queue]
        overflow = self._job(session, qs._last_job_id + 1)
        assert qs.offer(overflow) == SHED
        assert [j.job_id for j in qs.queue] == head  # queue unchanged
        stats = qs.stats
        assert stats.shed_rejected == 1 and stats.shed_dropped == 0
        assert stats.submitted == stats.admitted + stats.shed_rejected
        assert validate_stream(session) == []

    def test_drop_oldest_evicts_the_head(self):
        session = make_session(
            max_jobs=0, n_cpus=4,
            ingress=IngressConfig(max_queue=2, policy="drop-oldest"),
        )
        qs = session.qs
        while len(qs.queue) < 2:
            assert qs.offer(self._job(session, qs._last_job_id + 1)) == ADMITTED
        head_id = qs.queue[0].job_id
        newcomer = self._job(session, qs._last_job_id + 1)
        assert qs.offer(newcomer) == ADMITTED
        assert newcomer in qs.queue
        assert all(j.job_id != head_id for j in qs.queue)
        assert qs.stats.shed_dropped == 1
        assert validate_stream(session) == []

    def test_block_takes_no_ownership(self):
        session = make_session(
            max_jobs=0, n_cpus=4,
            ingress=IngressConfig(max_queue=1, policy="block"),
        )
        qs = session.qs
        while len(qs.queue) < 1:
            assert qs.offer(self._job(session, qs._last_job_id + 1)) == ADMITTED
        submitted_before = qs.stats.submitted
        blocked = self._job(session, qs._last_job_id + 1)
        assert qs.offer(blocked) == BLOCKED
        # a blocked offer is not a submission: the caller re-offers later
        assert qs.stats.submitted == submitted_before
        assert blocked not in qs.jobs
        assert validate_stream(session) == []

    def test_job_ids_must_increase(self):
        session = make_session(max_jobs=0, n_cpus=4)
        qs = session.qs
        assert qs.offer(self._job(session, 5)) == ADMITTED
        with pytest.raises(ValueError):
            qs.offer(self._job(session, 5))

    def test_overload_counts_rising_edges(self):
        session = make_session(
            max_jobs=0, n_cpus=4,
            ingress=IngressConfig(max_queue=2, policy="reject"),
        )
        qs = session.qs
        while len(qs.queue) < 2:
            qs.offer(self._job(session, qs._last_job_id + 1))
        assert qs.overloaded
        qs.offer(self._job(session, qs._last_job_id + 1))  # shed
        qs.offer(self._job(session, qs._last_job_id + 1))  # shed again
        # one rising edge, not one count per shed
        assert qs.stats.overload_events == 1


class TestPumpDiscipline:
    def test_single_pending_arrival(self):
        session = make_session(max_jobs=10)
        session.pump.prime()
        # exactly one event labelled arrival:* pending at any time
        def arrival_count():
            return sum(
                1 for label in session.sim.live_labels()
                if label.startswith("arrival:")
            )
        assert arrival_count() == 1
        while session.sim.step(1):
            assert arrival_count() <= 1
        assert session.complete

    def test_block_policy_loses_no_arrivals(self):
        """Regression: backpressure + resume must deliver every draw.

        With a tiny bounded queue under ``block``, arrivals pause while
        the queue is full and resume on capacity; at drain, every drawn
        job must be accounted admitted (block never sheds).
        """
        session = make_session(
            max_jobs=25, n_cpus=4, load=4.0,
            ingress=IngressConfig(max_queue=1, policy="block"),
        )
        drain(session)
        stats = session.stats
        assert session.source.drawn == 25
        assert stats.admitted == 25
        assert stats.shed == 0
        assert stats.completed == 25
        assert validate_stream(session) == []

    def test_prime_is_idempotent(self):
        session = make_session(max_jobs=5)
        session.pump.prime()
        before = session.sim.pending_events
        session.pump.prime()
        assert session.sim.pending_events == before


class TestRequeueOverBoundRegression:
    """The streaming fuzzer's first real find, pinned.

    A crash-requeue re-enters the queue without passing admission
    control (admitted work is never shed on retry), so the backlog may
    legitimately exceed the ingress bound — by at most the number of
    retry re-entries.  The invariant must allow that and nothing more.
    """

    def _session_with_full_queue(self):
        session = make_session(
            max_jobs=0, n_cpus=4,
            ingress=IngressConfig(max_queue=2, policy="reject"),
        )
        qs = session.qs
        spec = APP_CATALOG["bt.A"]
        job_id = 0
        # first admitted job starts immediately; keep offering until the
        # queue is full behind it
        while len(qs.queue) < 2:
            job_id += 1
            qs.offer(Job(job_id=job_id, spec=spec,
                         submit_time=session.sim.now, request=4))
        return session

    def test_crash_requeue_may_exceed_the_bound(self):
        session = self._session_with_full_queue()
        qs = session.qs
        running = [j for j in qs.jobs if j.state == JobState.RUNNING]
        assert running, "one job should be running ahead of the full queue"
        qs.rm.kill_job(running[0], reason="test: injected crash")
        # the freed capacity promotes the queue head; the open system
        # keeps offering, refilling the bound before the retry lands
        spec = APP_CATALOG["bt.A"]
        while len(qs.queue) < 2:
            assert qs.offer(Job(job_id=qs._last_job_id + 1, spec=spec,
                                submit_time=session.sim.now,
                                request=4)) == ADMITTED
        # the kill scheduled a backoff requeue; run it down
        assert qs.backoff_pending
        while qs.backoff_pending:
            session.sim.step(1)
        assert len(qs.queue) == 3  # bound 2 + 1 retry re-entry
        assert qs.peak_queue == 3
        assert qs.stats.requeues == 1
        # ...and the validator knows this is legitimate
        assert validate_stream(session) == []

    def test_exceeding_bound_plus_retries_is_flagged(self):
        session = self._session_with_full_queue()
        qs = session.qs
        qs.peak_queue = qs.ingress.max_queue + qs.stats.requeues + 1
        codes = {v.code for v in validate_stream(session)}
        assert "stream-bounded-queue" in codes


class TestValidateStreamDetects:
    def test_clean_drained_session_validates(self):
        session = make_session(max_jobs=20)
        drain(session)
        assert validate_stream(session) == []

    def test_submission_imbalance_flagged(self):
        session = make_session(max_jobs=5)
        drain(session)
        session.stats.submitted += 1
        codes = {v.code for v in validate_stream(session)}
        assert "stream-conservation" in codes

    def test_admission_imbalance_flagged(self):
        session = make_session(max_jobs=5)
        drain(session)
        session.stats.completed -= 1
        codes = {v.code for v in validate_stream(session)}
        assert "stream-conservation" in codes

    def test_requeue_floor_flagged(self):
        session = make_session(max_jobs=5)
        drain(session)
        session.stats.failed += 1  # failed jobs imply requeues
        codes = {v.code for v in validate_stream(session)}
        assert "stream-conservation" in codes

    def test_unconsumed_replay_flagged(self):
        session = make_session(max_jobs=5)
        drain(session)
        session.pump.set_replay([
            JournalEntry(seq=99, job_id=99, app="bt.A", submit=1.0, request=4)
        ])
        codes = {v.code for v in validate_stream(session)}
        assert "stream-recovery" in codes

    def test_held_arrival_under_reject_flagged(self):
        session = make_session(
            max_jobs=0, ingress=IngressConfig(max_queue=1, policy="reject")
        )
        spec = APP_CATALOG["bt.A"]
        session.pump.blocked_job = Job(
            job_id=77, spec=spec, submit_time=0.0, request=4
        )
        codes = {v.code for v in validate_stream(session)}
        assert "stream-bounded-queue" in codes


class TestSessionRecovery:
    def test_prune_never_changes_the_digest(self):
        session = make_session(max_jobs=20)
        session.pump.prime()
        session.sim.step(500)
        before = session.stats.digest()
        terminal = session.qs.pruned_completed + session.qs.pruned_failed
        pruned = session.prune()
        assert session.stats.digest() == before
        assert session.qs.pruned_completed + session.qs.pruned_failed == (
            terminal + pruned
        )
        # the session's job list is the queue's (pruned) list
        assert session.jobs is session.qs.jobs

    def test_restore_continues_byte_identical(self, tmp_path):
        reference = make_session(max_jobs=40, seed=3)
        drain(reference)
        want = reference.stats.digest()

        crashed = make_session(max_jobs=40, seed=3)
        cut_after_offers(crashed, 15)
        assert not crashed.complete, "cut must land mid-stream"
        snapshot = tmp_path / "serve.ckpt"
        crashed.save(snapshot)

        restored = ServeSession.restore(snapshot)
        drain(restored)
        assert restored.stats.digest() == want
        assert validate_stream(restored) == []

    def test_snapshot_mid_buffer_restores_byte_identical(self, tmp_path):
        reference = make_session(max_jobs=40, seed=3)
        drain(reference)

        crashed = make_session(max_jobs=40, seed=3)
        cut_after_offers(crashed, 5)
        ahead = [job.job_id for job in crashed.pump.ahead]
        assert 0 < len(ahead) < DRAW_AHEAD, "cut must land mid-buffer"
        snapshot = tmp_path / "serve.ckpt"
        crashed.save(snapshot)

        restored = ServeSession.restore(snapshot)
        assert [job.job_id for job in restored.pump.ahead] == ahead
        assert restored.source.drawn == crashed.source.drawn == DRAW_AHEAD
        drain(restored)
        assert restored.stats.digest() == reference.stats.digest()
        assert validate_stream(restored) == []

    def test_replay_verification_consumes_the_tail(self, tmp_path):
        # run a journalled service, snapshot mid-stream, keep drawing
        session = make_session(max_jobs=30, seed=1)
        journal = ArrivalJournal(tmp_path / "j.jsonl")
        session.pump.on_draw = lambda group: journal.append(
            [JournalEntry.from_job(seq, job) for seq, job in group]
        )
        cut_after_offers(session, 12)
        snapshot = tmp_path / "serve.ckpt"
        session.save(snapshot)
        cursor = session.source.drawn
        while session.sim.step(100):
            pass
        journal.close()
        assert session.source.drawn > cursor, "tail must be non-empty"

        resumed = ArrivalJournal(tmp_path / "j.jsonl", resume=True)
        tail = resumed.tail_after(cursor)
        restored = ServeSession.restore(snapshot)
        restored.pump.set_replay(tail)
        drain(restored)
        assert restored.pump.replay == []
        assert restored.pump.replay_verified == len(tail)
        assert restored.stats.digest() == session.stats.digest()

    def test_divergent_replay_refused(self, tmp_path):
        session = make_session(max_jobs=30, seed=1)
        cut_after_offers(session, 12)
        snapshot = tmp_path / "serve.ckpt"
        session.save(snapshot)
        cursor = session.source.drawn
        bogus = JournalEntry(
            seq=cursor + 1, job_id=cursor + 1, app="bt.A",
            submit=0.125, request=63,
        )
        restored = ServeSession.restore(snapshot)
        restored.pump.set_replay([bogus])
        with pytest.raises(StreamDivergenceError) as excinfo:
            drain(restored)
        assert f"seq {cursor + 1}" in str(excinfo.value)

    def test_restore_refuses_wrong_policy(self, tmp_path):
        from repro.checkpoint.errors import CheckpointError

        session = make_session(policy="Equip", max_jobs=10)
        session.pump.prime()
        session.sim.step(50)
        snapshot = tmp_path / "serve.ckpt"
        session.save(snapshot)
        with pytest.raises(CheckpointError):
            ServeSession.restore(snapshot, expected_policy="PDPA")

    def test_meta_carries_serve_identity(self, tmp_path):
        from repro.checkpoint.format import read_meta

        session = make_session(max_jobs=10)
        session.pump.prime()
        session.sim.step(50)
        snapshot = tmp_path / "serve.ckpt"
        session.save(snapshot)
        meta = read_meta(snapshot)
        assert meta["kind"] == "serve-session"
        assert meta["drawn"] == session.source.drawn
        assert meta["stats_digest"] == session.stats.digest()
        assert meta["serve_digest"] == session.serve_digest()


class TestServeService:
    def test_runs_to_drain(self, tmp_path):
        session = make_session(max_jobs=25)
        status = tmp_path / "status.json"
        service = ServeService(
            session, journal_path=tmp_path / "j.jsonl", status_path=status
        )
        assert service.run(handle_signals=False) == 0
        final = read_status(status)
        assert final is not None
        assert final["phase"] == "drained"
        assert final["completed"] + final["failed"] == final["admitted"]
        assert final["stats_digest"] == session.stats.digest()
        # every draw was journalled before it was offered
        journal = ArrivalJournal(tmp_path / "j.jsonl", resume=True)
        assert len(journal) == session.source.drawn

    def test_every_offer_was_journalled_first(self, tmp_path, monkeypatch):
        from repro.storage.layer import OpTrace, StorageLayer

        session = make_session(max_jobs=40)
        trace = OpTrace(tmp_path)
        service = ServeService(
            session, journal_path=tmp_path / "j.jsonl",
            storage=StorageLayer(trace=trace),
        )
        offered = []
        offer = StreamingQS.offer

        def journalled_offer(qs, job):
            # entries are indexed only after their group's fsync
            assert job.job_id in service.journal.entries, (
                f"arrival {job.job_id} offered before it was journalled"
            )
            offered.append(job.job_id)
            return offer(qs, job)

        monkeypatch.setattr(StreamingQS, "offer", journalled_offer)
        assert service.run(handle_signals=False) == 0
        assert offered == list(range(1, 41))
        # one fsync per drawn group: 16 + 16 + 8
        fsyncs = [op for op in trace.ops
                  if op.op == "fsync" and op.path == "j.jsonl"]
        assert len(fsyncs) == 3

    def test_deadlock_is_diagnosed(self, tmp_path, monkeypatch):
        session = make_session(max_jobs=3)
        # a queue that can never start anything: the degenerate config
        # the exit protocol exists to catch
        monkeypatch.setattr(StreamingQS, "try_start", lambda self: None)
        status = tmp_path / "status.json"
        service = ServeService(session, status_path=status)
        assert service.run(handle_signals=False) == EXIT_DEADLOCK
        assert read_status(status)["phase"] == "deadlock"
        assert session.qs.live_jobs > 0

    def test_drain_request_stops_drawing(self):
        session = make_session(max_jobs=0)  # endless synthetic stream
        service = ServeService(session)
        session.pump.prime()
        session.sim.step(50)
        drawn = session.source.drawn
        service.request_drain()
        assert service.run(handle_signals=False) == 0
        # a couple of in-flight draws may land, then the tap closes
        assert session.source.drawn <= drawn + 2
        assert session.complete

    def test_final_snapshot_written(self, tmp_path):
        from repro.checkpoint.format import read_meta
        from repro.checkpoint.session import CheckpointPlan

        session = make_session(max_jobs=10)
        plan = CheckpointPlan(path=tmp_path / "serve.ckpt", every_events=100)
        service = ServeService(session, checkpoint=plan)
        assert service.run(handle_signals=False) == 0
        meta = read_meta(plan.path)
        assert meta["label"] == "drained"

    def test_read_status_handles_garbage(self, tmp_path):
        assert read_status(tmp_path / "missing.json") is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"v": 1, "phase"')
        assert read_status(torn) is None
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"v": 999}')
        assert read_status(wrong) is None


class TestServeStorageFailures:
    """Storage faults hit the running service (the wired fail-points)."""

    def test_journal_break_drains_with_exit_storage(self, tmp_path):
        from repro.serve.service import EXIT_STORAGE
        from repro.storage.layer import StorageLayer
        from repro.storage.plan import FailPlan

        session = make_session(max_jobs=25)
        status = tmp_path / "status.json"
        # the 2nd group's fsync fails: fsyncgate, journal breaks
        storage = StorageLayer(plan=FailPlan.single(
            "fsync", nth=2, path_glob="j.jsonl"
        ))
        service = ServeService(
            session, journal_path=tmp_path / "j.jsonl",
            status_path=status, storage=storage,
        )
        assert service.run(handle_signals=False) == EXIT_STORAGE
        assert service.journal.broken is not None
        # admitted work was drained, not abandoned
        assert session.complete
        final = read_status(status)
        assert final["phase"] == "storage"
        assert final["journal_broken"] is True
        # journalled prefix on disk is intact and loads cleanly
        recovered = ArrivalJournal(tmp_path / "j.jsonl", resume=True)
        assert sorted(recovered.entries) == list(
            range(1, len(recovered.entries) + 1)
        )
        # the refused group was never offered; every earlier one was
        assert session.stats.submitted == len(recovered) == DRAW_AHEAD

    def test_restored_service_runs_on_the_given_storage(self, tmp_path):
        from repro.checkpoint.session import CheckpointPlan
        from repro.serve.service import EXIT_STORAGE
        from repro.storage.layer import OpTrace, StorageLayer
        from repro.storage.plan import FailPlan, FailRule

        # a journalled service, snapshotted mid-stream, then "killed"
        crashed = ServeService(
            make_session(max_jobs=60, seed=2), journal_path=tmp_path / "j.jsonl"
        )
        cut_after_offers(crashed.session, 20)
        snapshot = tmp_path / "serve.ckpt"
        crashed.session.save(snapshot)
        crashed.journal.close()

        # the recovery's first journal fsync fails: it drains, exits 5
        trace = OpTrace(tmp_path)
        storage = StorageLayer(
            plan=FailPlan([FailRule("fsync", path_glob="*.jsonl")]), trace=trace
        )
        plan = CheckpointPlan(path=tmp_path / "auto.ckpt", every_events=50)
        service = ServeService.restore(
            snapshot, tmp_path / "j.jsonl", status_path=tmp_path / "s.json",
            checkpoint=plan, storage=storage,
        )
        assert service.storage is storage and service.journal.storage is storage
        assert service.run(handle_signals=False) == EXIT_STORAGE
        assert service.journal.broken is not None
        assert service.session.complete
        assert read_status(tmp_path / "s.json")["phase"] == "storage"
        # every offered arrival is in the recovered journal
        offered = service.session.stats.submitted
        recovered = ArrivalJournal(tmp_path / "j.jsonl", resume=True)
        assert offered > 20
        assert all(seq in recovered.entries for seq in range(1, offered + 1))
        # status writes and snapshots went through the same layer
        written = {op.dst for op in trace.ops if op.op == "replace"}
        assert {"s.json", "auto.ckpt"} <= written

    def test_restore_drains_past_a_deeply_nested_journal_line(self, tmp_path):
        reference = make_session(max_jobs=40, seed=3)
        drain(reference)

        journal = tmp_path / "j.jsonl"
        crashed = ServeService(make_session(max_jobs=40, seed=3), journal_path=journal)
        cut_after_offers(crashed.session, 20)
        snapshot = tmp_path / "serve.ckpt"
        crashed.session.save(snapshot)
        crashed.journal.close()
        intact = journal.read_bytes()
        # a garbage tail too deep for the JSON scanner is a torn line
        journal.write_bytes(intact + b"[" * 100_000 + b"\n")

        service = ServeService.restore(snapshot, journal)
        assert service.journal.torn_tail
        assert journal.read_bytes() == intact
        assert service.run(handle_signals=False) == 0
        assert service.session.complete
        assert service.session.stats.digest() == reference.stats.digest()

    def test_status_write_failures_survived_and_counted(self, tmp_path):
        from repro.storage.layer import StorageLayer
        from repro.storage.plan import FailPlan
        from repro.storage.plan import FailRule

        session = make_session(max_jobs=15)
        status = tmp_path / "status.json"
        # every status write fails; the service must still drain clean
        storage = StorageLayer(plan=FailPlan([FailRule(
            "write", nth=1, persistent=True, path_glob="*.json.tmp"
        )]))
        service = ServeService(session, status_path=status, storage=storage)
        assert service.run(handle_signals=False) == 0
        assert session.complete
        assert service.storage_errors > 0
        assert read_status(status) is None  # never published garbage

    def test_storage_errors_in_status_payload(self, tmp_path):
        session = make_session(max_jobs=5)
        service = ServeService(session, status_path=tmp_path / "s.json")
        assert service.run(handle_signals=False) == 0
        final = read_status(tmp_path / "s.json")
        assert final["storage_errors"] == 0
        assert final["journal_broken"] is False
