"""Unit tests for the PDPA policy object and its MPL coordination."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.speedup import AmdahlSpeedup
from repro.core.mpl import MplPolicy
from repro.core.params import PDPAParams
from repro.core.pdpa import PDPA
from repro.core.states import AppState, PdpaJobState
from repro.experiments.ablations import FixedMplPDPA, NoRelativeSpeedupPDPA
from repro.fuzz.profiles import tier_settings
from repro.qs.job import Job
from repro.rm.base import JobView, SystemView
from repro.runtime.selfanalyzer import PerformanceReport


def report(job_id, procs, speedup, time=10.0):
    return PerformanceReport(job_id=job_id, time=time, iteration=5,
                             procs=procs, speedup=speedup, iter_time=1.0)


def system_view(app, entries, total=60):
    """entries: {job_id: (allocation, request)}"""
    jobs = {}
    for job_id, (alloc, request) in entries.items():
        job = Job(job_id, app, submit_time=0.0, request=request)
        jobs[job_id] = JobView(job=job, allocation=alloc)
    return SystemView(total, jobs)


class TestArrival:
    def test_initial_allocation_min_of_request_and_free(self, linear_app):
        policy = PDPA()
        # 4 jobs already running (at the base MPL): paper rule applies.
        system = system_view(linear_app, {i: (10, 30) for i in range(1, 5)})
        job = Job(9, linear_app, submit_time=0.0, request=30)
        decision = policy.on_job_arrival(job, system)
        assert decision == {9: 20}  # min(30, 60-40 free)
        assert policy.state_of(9).state is AppState.NO_REF

    def test_small_request_not_over_allocated(self, linear_app):
        policy = PDPA()
        system = system_view(linear_app, {})
        job = Job(1, linear_app, submit_time=0.0, request=2)
        assert policy.on_job_arrival(job, system) == {1: 2}

    def test_below_base_mpl_reclaims_fair_share(self, linear_app):
        policy = PDPA()
        # Two jobs hold the whole machine; admission below base_mpl=4.
        system = system_view(linear_app, {1: (30, 30), 2: (30, 30)})
        policy.job_states[1] = PdpaJobState(1, 30, 30, AppState.STABLE)
        policy.job_states[2] = PdpaJobState(2, 30, 30, AppState.STABLE)
        job = Job(3, linear_app, submit_time=0.0, request=30)
        decision = policy.on_job_arrival(job, system)
        assert decision[3] == 20          # fair share of 60/3
        assert decision[1] + decision[2] == 40
        assert min(decision[1], decision[2]) >= 1
        # The policy's own memory tracks the forced shrink.
        assert policy.state_of(1).allocation == decision[1]

    def test_reclaim_preserves_total(self, linear_app):
        policy = PDPA()
        system = system_view(linear_app, {1: (40, 40), 2: (20, 20)})
        policy.job_states[1] = PdpaJobState(1, 40, 40, AppState.STABLE)
        policy.job_states[2] = PdpaJobState(2, 20, 20, AppState.STABLE)
        job = Job(3, linear_app, submit_time=0.0, request=30)
        decision = policy.on_job_arrival(job, system)
        total = decision[3] + decision.get(1, 40) + decision.get(2, 20)
        assert total <= 60
        # The largest partition pays first.
        assert decision.get(1, 40) < 40


class TestReports:
    def test_report_drives_transition_and_resize(self, linear_app):
        policy = PDPA()
        system = system_view(linear_app, {1: (20, 30)})
        job = system.jobs[1].job
        policy.on_job_arrival(job, system_view(linear_app, {}))
        policy.job_states[1].allocation = 20
        decision = policy.on_report(job, report(1, 20, speedup=19.0), system)
        assert decision == {1: 24}
        assert policy.state_of(1).state is AppState.INC

    def test_stale_report_is_ignored(self, linear_app):
        policy = PDPA()
        system = system_view(linear_app, {1: (24, 30)})
        job = system.jobs[1].job
        policy.on_job_arrival(job, system_view(linear_app, {}))
        # Report measured on 20 CPUs while the job now holds 24.
        decision = policy.on_report(job, report(1, 20, speedup=19.0), system)
        assert decision == {}

    def test_no_change_returns_empty_decision(self, linear_app):
        policy = PDPA()
        system = system_view(linear_app, {1: (20, 30)})
        job = system.jobs[1].job
        policy.on_job_arrival(job, system_view(linear_app, {}))
        policy.job_states[1].allocation = 20
        # Efficiency 0.8: acceptable, STABLE, same allocation.
        decision = policy.on_report(job, report(1, 20, speedup=16.0), system)
        assert decision == {}
        assert policy.state_of(1).state is AppState.STABLE

    def test_unknown_job_raises(self, linear_app):
        policy = PDPA()
        system = system_view(linear_app, {1: (20, 30)})
        with pytest.raises(KeyError):
            policy.on_report(system.jobs[1].job, report(1, 20, 10.0), system)

    def test_stable_exit_counted(self, linear_app):
        policy = PDPA()
        system = system_view(linear_app, {1: (20, 30)})
        job = system.jobs[1].job
        policy.on_job_arrival(job, system_view(linear_app, {}))
        state = policy.job_states[1]
        state.allocation = 20
        state.state = AppState.STABLE
        policy.on_report(job, report(1, 20, speedup=5.0), system)
        assert state.state is AppState.DEC
        assert state.stable_exits == 1


#: the jobs' application: absorb_report reads only their allocations
LINEAR = ApplicationSpec(
    name="pdpa-linear", app_class=AppClass.HIGH,
    speedup_model=AmdahlSpeedup(0.0, name="pdpa-linear"),
    iterations=10, t_iter_seq=8.0, t_startup=0.0, t_teardown=0.0,
    default_request=16,
)

#: efficiencies on and around the default thresholds (target 0.7,
#: high 0.9, 5% hysteresis), so STABLE jobs both hold and move
efficiencies = st.one_of(
    st.sampled_from([0.6, 0.665, 0.7, 0.8, 0.9, 0.945, 1.0, 1.2]),
    st.floats(0.05, 2.0),
)

#: per job: request, automaton state, stable_eff, resource_limited,
#: stable_exits, and (prev_allocation, prev_speedup) or None
pdpa_jobs = st.lists(
    st.tuples(
        st.integers(1, 16),
        st.sampled_from(list(AppState)),
        st.one_of(st.none(), efficiencies),
        st.booleans(),
        st.integers(0, 5),
        st.one_of(st.none(), st.tuples(st.integers(1, 16), st.floats(0.1, 16.0))),
    ),
    min_size=1, max_size=5,
)


class TestAbsorbContract:
    @tier_settings("standard")
    @given(jobs=pdpa_jobs, free=st.integers(0, 8), eff=efficiencies, data=st.data())
    def test_absorb_report_contract(self, jobs, free, eff, data):
        """One pass proves and applies: False leaves the policy as it
        was, True leaves it as on_report would, and on_report then
        moves no allocation."""
        policy = PDPA()
        views = {}
        for jid, (request, app_state, stable_eff, limited, exits, prev) in \
                enumerate(jobs, start=1):
            allocation = data.draw(st.integers(1, request))
            views[jid] = JobView(
                job=Job(jid, LINEAR, submit_time=0.0, request=request),
                allocation=allocation,
            )
            policy.job_states[jid] = PdpaJobState(
                jid, request, allocation, app_state,
                prev_allocation=None if prev is None else prev[0],
                prev_speedup=None if prev is None else prev[1],
                stable_eff=stable_eff, resource_limited=limited, stable_exits=exits,
            )
        system = SystemView(sum(v.allocation for v in views.values()) + free, views)
        reporter = data.draw(st.sampled_from(sorted(views)))
        held = views[reporter].allocation
        # mostly fresh, sometimes measured on another allocation (stale)
        procs = data.draw(st.one_of(st.just(held), st.integers(1, 16)))
        speedup = procs * eff
        job = views[reporter].job
        before, reported = pickle.dumps(policy), copy.deepcopy(policy)
        absorbed = policy.absorb_report(job, procs, speedup, system)
        if not absorbed:
            assert pickle.dumps(policy) == before, "declined after changing state"
            return
        decision = reported.on_report(job, report(reporter, procs, speedup), system)
        assert decision == {}
        assert pickle.dumps(policy) == pickle.dumps(reported), "absorbed unlike on_report"


class TestCompletion:
    def test_completion_does_not_redistribute(self, linear_app):
        policy = PDPA()
        done = Job(1, linear_app, submit_time=0.0)
        system = system_view(linear_app, {2: (20, 30)})
        assert policy.on_job_completion(done, system) == {}

    def test_removed_job_state_is_dropped(self, linear_app):
        policy = PDPA()
        job = Job(1, linear_app, submit_time=0.0)
        policy.on_job_arrival(job, system_view(linear_app, {}))
        policy.on_job_removed(job)
        with pytest.raises(KeyError):
            policy.state_of(1)


class TestAdmission:
    def test_below_base_mpl_admits(self, linear_app):
        policy = PDPA()
        system = system_view(linear_app, {1: (30, 30), 2: (30, 30)})
        policy.job_states = {
            1: PdpaJobState(1, 30, 30, AppState.NO_REF),
            2: PdpaJobState(2, 30, 30, AppState.INC),
        }
        assert policy.wants_admission(system, queued_jobs=1)

    def test_beyond_base_requires_stability_and_free_cpus(self, linear_app):
        policy = PDPA()
        entries = {i: (10, 30) for i in range(1, 5)}
        system = system_view(linear_app, entries)
        policy.job_states = {
            i: PdpaJobState(i, 30, 10, AppState.STABLE) for i in range(1, 5)
        }
        assert policy.wants_admission(system, queued_jobs=1)
        # One job still searching blocks admission.
        policy.job_states[2].state = AppState.INC
        assert not policy.wants_admission(system, queued_jobs=1)
        # DEC does not block ("some applications show bad performance").
        policy.job_states[2].state = AppState.DEC
        assert policy.wants_admission(system, queued_jobs=1)

    def test_no_free_cpus_blocks_beyond_base(self, linear_app):
        policy = PDPA()
        entries = {i: (15, 30) for i in range(1, 5)}
        system = system_view(linear_app, entries)
        policy.job_states = {
            i: PdpaJobState(i, 30, 15, AppState.STABLE) for i in range(1, 5)
        }
        assert not policy.wants_admission(system, queued_jobs=1)

    def test_empty_queue_never_admits(self, linear_app):
        policy = PDPA()
        assert not policy.wants_admission(system_view(linear_app, {}), queued_jobs=0)

    def test_saturated_machine_never_admits(self, linear_app):
        # One job per CPU: the run-to-completion floor leaves no room,
        # even below the base multiprogramming level.
        policy = PDPA(PDPAParams(base_mpl=10))
        entries = {i: (1, 30) for i in range(1, 5)}
        system = system_view(linear_app, entries, total=4)
        policy.job_states = {
            i: PdpaJobState(i, 30, 1, AppState.STABLE) for i in range(1, 5)
        }
        assert not policy.wants_admission(system, queued_jobs=1)

    def test_full_stack_survives_cpu_count_jobs(self, flat_app):
        """End-to-end: more 1-CPU-worthy jobs than CPUs."""
        from repro.experiments.common import ExperimentConfig, run_jobs
        from repro.qs.job import Job

        config = ExperimentConfig(n_cpus=4, seed=0, duration=10.0)
        jobs = [Job(i, flat_app, submit_time=0.0, request=2)
                for i in range(1, 10)]
        out = run_jobs("PDPA", jobs, config)
        assert len(out.result.records) == 9


class TestMplPolicyExplain:
    def test_explanations_cover_the_cases(self):
        mpl = MplPolicy(PDPAParams())
        assert "no queued jobs" in mpl.explain({}, 10, 0)
        assert "below the default" in mpl.explain({}, 10, 1)
        states = {i: PdpaJobState(i, 30, 10, AppState.STABLE) for i in range(4)}
        assert "no free processors" in mpl.explain(states, 0, 1)
        states[1].state = AppState.INC
        assert "job 1 in INC" in mpl.explain(states, 5, 1)
        states[1].state = AppState.STABLE
        assert "settled" in mpl.explain(states, 5, 1)


class TestRuntimeParameterChange:
    def test_set_params_replaces_thresholds(self):
        policy = PDPA()
        new_params = PDPAParams(target_eff=0.5, high_eff=0.8)
        policy.set_params(new_params)
        assert policy.params.target_eff == 0.5
        assert policy.mpl_policy.params is new_params

    def test_states_summary(self, linear_app):
        policy = PDPA()
        policy.job_states = {
            1: PdpaJobState(1, 30, 10, AppState.STABLE),
            2: PdpaJobState(2, 30, 10, AppState.STABLE),
            3: PdpaJobState(3, 30, 10, AppState.DEC),
        }
        assert policy.states_summary() == {
            "NO_REF": 0, "INC": 0, "DEC": 1, "STABLE": 2,
        }


class _Renamed(PDPA):
    name = "PDPA(renamed)"
    __slots__ = ()


def _overriding(method):
    """A PDPA subclass whose *method* is a pass-through override."""

    def passthrough(self, *args):
        return getattr(PDPA, method)(self, *args)

    return type(f"Overrides_{method}", (PDPA,), {"__slots__": (), method: passthrough})


class TestSpanOptOut:
    """``PDPA.__init_subclass__``: a subclass that overrides how reports,
    admission or parameters are handled declines every report offered
    to ``absorb_report``, so each one takes the full path."""

    @pytest.mark.parametrize("policy_class, absorbs", [
        pytest.param(PDPA, True, id="PDPA"),
        pytest.param(_Renamed, True, id="name-only"),
        pytest.param(_overriding("on_report"), False, id="on_report"),
        pytest.param(_overriding("wants_admission"), False, id="wants_admission"),
        pytest.param(_overriding("set_params"), False, id="set_params"),
        pytest.param(FixedMplPDPA, False, id="FixedMplPDPA"),
        pytest.param(NoRelativeSpeedupPDPA, False, id="NoRelativeSpeedupPDPA"),
    ])
    def test_span_budget(self, policy_class, absorbs):
        """Unbounded spans (the no-op report is absorbed) or every
        report an event (it is declined, leaving the policy as it was)."""
        policy = policy_class()
        job = Job(1, LINEAR, submit_time=0.0, request=16)
        policy.job_states[1] = PdpaJobState(1, 16, 10, AppState.STABLE, stable_eff=0.8)
        system = SystemView(16, {1: JobView(job=job, allocation=10)})
        before = copy.deepcopy(policy.job_states)
        # efficiency 0.8 on the held 10 CPUs keeps the job STABLE there
        assert policy.absorb_report(job, 10, 8.0, system) is absorbs
        if not absorbs:
            assert policy.job_states == before
