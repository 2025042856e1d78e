"""Unit tests for the IRIX time-sharing model."""

import pickle
import struct

import pytest
from hypothesis import given, strategies as st

from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.speedup import AmdahlSpeedup
from repro.fuzz.profiles import tier_settings
from repro.metrics.paraver import burst_statistics
from repro.metrics.trace import FoldingTraceRecorder, SyntheticCpuLoad, TraceRecorder
from repro.qs.job import Job, JobState
from repro.rm.irix import IrixConfig, IrixResourceManager
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def make_rm(n_cpus=8, config=None, trace=True):
    sim = Simulator()
    recorder = TraceRecorder(n_cpus) if trace else None
    rm = IrixResourceManager(
        sim, n_cpus, RandomStreams(0), recorder, config or IrixConfig()
    )
    return sim, recorder, rm


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(mpl=0),
        dict(quantum=0.0),
        dict(placement_efficiency=0.0),
        dict(placement_efficiency=1.2),
        dict(overcommit_penalty=-1.0),
        dict(migration_rate_normal=-0.1),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            IrixConfig(**bad)


class TestEffectiveProcs:
    def test_undercommitted_pays_only_placement_tax(self):
        sim, trace, rm = make_rm(n_cpus=8)
        rm._threads = {1: 4}
        eff = rm.effective_procs(4)
        assert eff == pytest.approx(4 * rm.config.placement_efficiency)

    def test_overcommit_scales_down_share(self):
        sim, trace, rm = make_rm(n_cpus=8)
        rm._threads = {1: 8, 2: 8}  # 16 threads on 8 cpus, 2 apps
        eff = rm.effective_procs(8)
        cfg = rm.config
        expected = (8 * 0.5 * cfg.placement_efficiency
                    / (1 + cfg.overcommit_penalty)
                    / (1 + cfg.interference_per_job))
        assert eff == pytest.approx(expected)

    def test_interference_grows_with_corunning_jobs(self):
        sim, trace, rm = make_rm(n_cpus=60)
        rm._threads = {1: 10}
        alone = rm.effective_procs(10)
        rm._threads = {1: 10, 2: 10, 3: 10}  # still undercommitted
        crowded = rm.effective_procs(10)
        assert crowded < alone

    def test_share_proportional_to_threads(self):
        sim, trace, rm = make_rm(n_cpus=8)
        rm._threads = {1: 12, 2: 4}
        assert rm.effective_procs(12) == pytest.approx(3 * rm.effective_procs(4))

    def test_never_zero(self):
        sim, trace, rm = make_rm(n_cpus=8)
        rm._threads = {i: 30 for i in range(10)}
        assert rm.effective_procs(1) > 0

    def test_zero_threads(self):
        sim, trace, rm = make_rm()
        assert rm.effective_procs(0) == 0.0


class TestAdmission:
    def test_fixed_mpl_no_cpu_condition(self, linear_app):
        sim, trace, rm = make_rm(config=IrixConfig(mpl=2))
        assert rm.can_admit(queued_jobs=1)
        rm.start_job(Job(1, linear_app, submit_time=0.0, request=8))
        assert rm.can_admit(queued_jobs=1)
        rm.start_job(Job(2, linear_app, submit_time=0.0, request=8))
        assert not rm.can_admit(queued_jobs=1)

    def test_empty_queue_not_admitted(self):
        sim, trace, rm = make_rm()
        assert not rm.can_admit(queued_jobs=0)


class TestExecution:
    def test_job_completes_slower_than_dedicated(self, linear_app):
        # One job, request 4 on 8 cpus: placement tax only.
        sim, trace, rm = make_rm(n_cpus=8)
        job = Job(1, linear_app, submit_time=0.0, request=4)
        rm.start_job(job)
        end = sim.run()
        dedicated = linear_app.execution_time(4)
        assert job.state is JobState.DONE
        assert end > dedicated
        assert end < dedicated * 1.5

    def test_overcommitted_jobs_slow_each_other(self, linear_app):
        sim, trace, rm = make_rm(n_cpus=8)
        j1 = Job(1, linear_app, submit_time=0.0, request=8)
        j2 = Job(2, linear_app, submit_time=0.0, request=8)
        rm.start_job(j1)
        rm.start_job(j2)
        sim.run()
        solo_sim, _, solo_rm = make_rm(n_cpus=8)
        solo = Job(1, linear_app, submit_time=0.0, request=8)
        solo_rm.start_job(solo)
        solo_end = solo_sim.run()
        assert j1.execution_time > 1.5 * solo.execution_time

    def test_no_selfanalyzer_under_irix(self, linear_app):
        sim, trace, rm = make_rm()
        rm.start_job(Job(1, linear_app, submit_time=0.0, request=4))
        runtime = rm.runtimes[1]
        assert runtime.analyzer is None


class TestAccounting:
    def test_timeshare_segments_recorded(self, linear_app):
        sim, trace, rm = make_rm(n_cpus=4)
        job = Job(1, linear_app, submit_time=0.0, request=8)
        rm.start_job(job)
        sim.run()
        rm.finalize()
        assert trace.synthetic, "expected synthetic per-cpu accounting"
        stats = burst_statistics(trace)
        assert stats.avg_bursts_per_cpu > 0
        # Overcommitted: burst duration collapses to the quantum.
        assert stats.avg_burst_time == pytest.approx(rm.config.quantum, rel=0.01)

    def test_migrations_accumulate_when_overcommitted(self, linear_app):
        sim, trace, rm = make_rm(n_cpus=4)
        rm.start_job(Job(1, linear_app, submit_time=0.0, request=8))
        sim.run()
        rm.finalize()
        assert trace.migrations > 0

    def test_undercommitted_migrations_are_rare(self, linear_app):
        sim, trace, rm = make_rm(n_cpus=8)
        rm.start_job(Job(1, linear_app, submit_time=0.0, request=2))
        sim.run()
        rm.finalize()
        over_sim, over_trace, over_rm = make_rm(n_cpus=4)
        over_rm.start_job(Job(1, linear_app, submit_time=0.0, request=8))
        over_sim.run()
        over_rm.finalize()
        assert trace.migrations < over_trace.migrations

    def test_busy_time_consistent_with_cpu_count(self, linear_app):
        sim, trace, rm = make_rm(n_cpus=4)
        job = Job(1, linear_app, submit_time=0.0, request=8)
        rm.start_job(job)
        end = sim.run()
        rm.finalize()
        # All 4 cpus busy for the whole run.
        assert trace.busy_time() == pytest.approx(4 * end, rel=0.01)


def per_cpu_segment(trace, cpu, t0, t1, sharers, quantum):
    """Reference: the per-CPU accounting the batch replaced, one call
    and one fresh default load per CPU."""
    if t1 < t0:
        raise ValueError(f"segment ends before it starts: [{t0}, {t1}]")
    load = trace.synthetic.setdefault(cpu, SyntheticCpuLoad())
    duration = t1 - t0
    if sharers >= 1:
        if sharers == 1:
            load.bursts += 1.0
        else:
            load.bursts += duration / quantum
        load.busy_time += duration
    trace._horizon = max(trace._horizon, t1)


#: (threads, healthy CPUs, segment length) per segment, as IRIX splits them
segments = st.lists(
    st.tuples(st.integers(1, 300), st.integers(1, 140),
              st.floats(0.0, 50.0, allow_subnormal=False)),
    min_size=1, max_size=12,
)


class TestTimeshareBatch:
    @tier_settings("standard")
    @given(segments=segments, quantum=st.sampled_from([0.243, 0.1, 1.0 / 3.0]),
           recorder=st.sampled_from([TraceRecorder, FoldingTraceRecorder]))
    def test_batch_matches_the_per_cpu_loop(self, segments, quantum, recorder):
        batched, reference = recorder(140), recorder(140)
        now = 0.0
        for total, capacity, length in segments:
            t0, now = now, now + length
            # _account_segment's round-robin: overcommitted or not
            if total >= capacity:
                base, rem = divmod(total, capacity)
                sharers = [base + 1] * rem + [base] * (capacity - rem)
            else:
                sharers = [1] * total
            batched.record_timeshare_segments(t0, now, enumerate(sharers), quantum)
            for cpu, apps in enumerate(sharers):
                per_cpu_segment(reference, cpu, t0, now, apps, quantum)
            assert _loads(batched) == _loads(reference)
            assert bits(batched.horizon) == bits(reference.horizon)
        assert bits(batched.busy_time()) == bits(reference.busy_time())

    def test_a_cpu_no_application_used_gets_an_empty_load(self):
        trace = TraceRecorder(4)
        trace.record_timeshare_segments(0.0, 2.0, [(3, 0), (1, 2)], 0.5)
        assert list(trace.synthetic) == [3, 1]
        assert trace.synthetic[3] == SyntheticCpuLoad()
        assert trace.synthetic[1] == SyntheticCpuLoad(bursts=4.0, busy_time=2.0)


def _loads(trace):
    """Each CPU's load, in the dict's order, floats as their bits."""
    return [
        (cpu, bits(load.bursts), bits(load.busy_time))
        for cpu, load in trace.synthetic.items()
    ]


#: a short malleable code and a short rigid one, so runs finish jobs
MEMO_APPS = [
    ApplicationSpec(
        name="memo-amdahl", app_class=AppClass.HIGH,
        speedup_model=AmdahlSpeedup(0.1, name="memo-amdahl"),
        iterations=6, t_iter_seq=2.0, t_startup=0.2, t_teardown=0.2,
    ),
    ApplicationSpec(
        name="memo-rigid", app_class=AppClass.MEDIUM,
        speedup_model=AmdahlSpeedup(0.3, name="memo-rigid"),
        iterations=4, t_iter_seq=1.5, t_startup=0.1, t_teardown=0.1,
        default_request=6,
    ).as_rigid(),
]

memo_ops = st.lists(
    st.tuples(
        st.sampled_from(["start", "finish", "fail", "repair", "run"]),
        st.integers(0, 15),
    ),
    max_size=30,
)


class TestShareMemo:
    """The share an iteration runs at is memoised per segment; after
    any op it must equal the uncached ``effective_procs``."""

    @tier_settings("standard")
    @given(ops=memo_ops)
    def test_memoised_share_is_effective_procs(self, ops):
        sim, trace, rm = make_rm(n_cpus=12, config=IrixConfig(mpl=6))
        started = 0
        for op, arg in ops:
            if op == "start" and rm.running_count < rm.config.mpl:
                started += 1
                spec = MEMO_APPS[arg % len(MEMO_APPS)]
                rm.start_job(Job(started, spec, submit_time=sim.now, request=arg + 1))
            elif op == "finish" and rm.jobs:
                rm.kill_job(rm.jobs[sorted(rm.jobs)[arg % len(rm.jobs)]])
            elif op == "fail":
                rm.on_cpu_failed(arg % rm.n_cpus)
            elif op == "repair":
                rm.on_cpu_repaired(arg % rm.n_cpus)
            elif op == "run":
                sim.run(until=sim.now + arg / 4)  # iterations begin, jobs finish
            for threads, share in rm._shares.items():
                assert bits(share) == bits(rm.effective_procs(threads))
            for job_id, job in rm.jobs.items():
                threads = rm._threads[job_id]
                want = rm.effective_procs(threads)
                speedup = (job.spec.speedup_model.speedup(want) if job.spec.malleable
                           else job.spec.folded_speedup(job.request, want))
                assert bits(rm.iteration_plan(job, False).speedup) == bits(speedup)
                assert bits(rm._shares[threads]) == bits(want)

    def test_memo_is_not_pickled(self, linear_app):
        sim, trace, rm = make_rm()
        rm.start_job(Job(1, linear_app, submit_time=0.0, request=4))
        rm.iteration_plan(rm.jobs[1], False)
        assert rm._shares
        clone = pickle.loads(pickle.dumps(rm))
        assert clone._shares == {}
        assert bits(clone.iteration_plan(clone.jobs[1], False).speedup) == \
            bits(rm.iteration_plan(rm.jobs[1], False).speedup)
