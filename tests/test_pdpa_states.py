"""Unit and property tests for the §4.2 state automaton.

Each test encodes one rule from the paper's Fig. 2 / §4.2 text.
"""

import pytest
from hypothesis import given, strategies as st

from repro.fuzz.profiles import tier_settings

from repro.core.params import PDPAParams
from repro.core.states import AppState, PdpaJobState, evaluate_transition


def state(allocation=20, request=30, app_state=AppState.NO_REF,
          prev_allocation=None, prev_speedup=None, stable_exits=0,
          stable_eff=None, resource_limited=False):
    return PdpaJobState(
        job_id=1, request=request, allocation=allocation, state=app_state,
        prev_allocation=prev_allocation, prev_speedup=prev_speedup,
        stable_exits=stable_exits, stable_eff=stable_eff,
        resource_limited=resource_limited,
    )


PARAMS = PDPAParams()  # target 0.7, high 0.9, step 4


class TestNoRef:
    """§4.2.1: classification by the first efficiency measurement."""

    def test_very_good_goes_inc_with_step_more(self):
        t = evaluate_transition(state(20), speedup=19.0, procs=20,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.INC
        assert t.next_allocation == 24

    def test_growth_limited_by_free_cpus(self):
        t = evaluate_transition(state(20), speedup=19.0, procs=20,
                                params=PARAMS, free_cpus=2)
        assert t.next_state is AppState.INC
        assert t.next_allocation == 22

    def test_growth_limited_by_request(self):
        t = evaluate_transition(state(28, request=30), speedup=27.0, procs=28,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.INC
        assert t.next_allocation == 30

    def test_no_room_to_grow_settles(self):
        t = evaluate_transition(state(20), speedup=19.0, procs=20,
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 20

    def test_bad_goes_dec_with_step_fewer(self):
        t = evaluate_transition(state(20), speedup=10.0, procs=20,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.DEC
        assert t.next_allocation == 16

    def test_dec_never_below_one(self):
        t = evaluate_transition(state(3), speedup=0.5, procs=3,
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.DEC
        assert t.next_allocation == 1

    def test_bad_at_minimum_settles(self):
        t = evaluate_transition(state(1), speedup=0.5, procs=1,
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 1

    def test_acceptable_goes_stable(self):
        # efficiency 0.8: between target and high.
        t = evaluate_transition(state(20), speedup=16.0, procs=20,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 20

    def test_boundary_exactly_target_is_acceptable(self):
        t = evaluate_transition(state(20), speedup=14.0, procs=20,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE

    def test_boundary_exactly_high_is_acceptable(self):
        t = evaluate_transition(state(20), speedup=18.0, procs=20,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE


class TestInc:
    """§4.2.2: evaluating the probe made in the last quantum."""

    def inc_state(self, allocation=24, prev_allocation=20, prev_speedup=19.0):
        return state(allocation, app_state=AppState.INC,
                     prev_allocation=prev_allocation, prev_speedup=prev_speedup)

    def test_scaling_maintained_keeps_growing(self):
        # eff 23/24 = 0.958 > 0.9; 23 > 19; 23/19 = 1.21 > (24/20)*0.9 = 1.08
        t = evaluate_transition(self.inc_state(), speedup=23.0, procs=24,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.INC
        assert t.next_allocation == 28

    def test_relative_speedup_failure_stops_growth(self):
        # eff still high but the progression flattened:
        # 22.0/19.0 = 1.158 vs required (24/20)*0.9 = 1.08 -> passes;
        # use 20.6/19.0 = 1.084 -> fails.
        t = evaluate_transition(self.inc_state(), speedup=22.0, procs=24,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.INC  # 1.158 > 1.08
        t = evaluate_transition(self.inc_state(prev_speedup=20.5), speedup=22.0,
                                procs=24, params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 24  # kept: efficiency >= target

    def test_speedup_regression_stops_growth(self):
        t = evaluate_transition(self.inc_state(prev_speedup=23.0), speedup=22.0,
                                procs=24, params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE

    def test_efficiency_drop_stops_growth(self):
        # efficiency 20/24 = 0.83 < high_eff.
        t = evaluate_transition(self.inc_state(), speedup=20.0, procs=24,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 24

    def test_reverts_last_step_when_below_target(self):
        # "the application will lose the step additional processors
        # received in the last transition, only if the current
        # efficiency is less than target_eff."
        t = evaluate_transition(self.inc_state(), speedup=16.0, procs=24,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 20

    def test_still_scaling_but_no_free_cpus_settles(self):
        t = evaluate_transition(self.inc_state(), speedup=23.0, procs=24,
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 24


class TestDec:
    """§4.2.3: shrink until the target efficiency is reached."""

    def dec_state(self, allocation=16):
        return state(allocation, app_state=AppState.DEC,
                     prev_allocation=allocation + 4, prev_speedup=10.0)

    def test_still_bad_keeps_shrinking(self):
        t = evaluate_transition(self.dec_state(), speedup=8.0, procs=16,
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.DEC
        assert t.next_allocation == 12

    def test_recovered_settles_keeping_allocation(self):
        t = evaluate_transition(self.dec_state(), speedup=12.0, procs=16,
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 16

    def test_shrink_stops_at_one(self):
        t = evaluate_transition(self.dec_state(allocation=1), speedup=0.4,
                                procs=1, params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 1


class TestStable:
    """§4.2.4: sticky, hysteretic re-evaluation with ping-pong limit."""

    def stable_state(self, allocation=20, stable_exits=0):
        return state(allocation, app_state=AppState.STABLE,
                     prev_allocation=16, prev_speedup=15.0,
                     stable_exits=stable_exits)

    def test_small_drift_keeps_stable(self):
        # efficiency 0.68: below target but inside the 5% hysteresis.
        t = evaluate_transition(self.stable_state(), speedup=13.6, procs=20,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE

    def test_clear_drop_leaves_to_dec(self):
        t = evaluate_transition(self.stable_state(), speedup=10.0, procs=20,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.DEC
        assert t.next_allocation == 16

    def test_clear_improvement_leaves_to_inc(self):
        t = evaluate_transition(self.stable_state(), speedup=19.5, procs=20,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.INC
        assert t.next_allocation == 24

    def test_improvement_without_free_cpus_stays(self):
        t = evaluate_transition(self.stable_state(), speedup=19.5, procs=20,
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE

    def test_ping_pong_limit(self):
        exhausted = self.stable_state(stable_exits=PARAMS.max_stable_exits)
        t = evaluate_transition(exhausted, speedup=5.0, procs=20,
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 20

    def test_at_minimum_allocation_stays(self):
        t = evaluate_transition(self.stable_state(allocation=1), speedup=0.3,
                                procs=1, params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE
        assert t.next_allocation == 1

    def test_settled_reference_blocks_reprobing(self):
        # A superlinear app that settled with eff 1.07 must not
        # re-enter INC just because its efficiency is above high_eff:
        # §4.2.4 requires the performance to have *changed*.
        s = state(20, app_state=AppState.STABLE, stable_eff=1.07)
        t = evaluate_transition(s, speedup=21.6, procs=20,  # eff 1.08
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.STABLE

    def test_genuine_improvement_reopens_search(self):
        s = state(20, app_state=AppState.STABLE, stable_eff=0.95)
        t = evaluate_transition(s, speedup=22.0, procs=20,  # eff 1.10
                                params=PARAMS, free_cpus=10)
        assert t.next_state is AppState.INC

    def test_resource_limited_jobs_grow_when_cpus_appear(self):
        # Settled only because the machine was full: once free CPUs
        # appear, high efficiency alone justifies growing.
        s = state(8, request=30, app_state=AppState.STABLE,
                  stable_eff=1.25, resource_limited=True)
        t = evaluate_transition(s, speedup=10.0, procs=8,  # eff 1.25
                                params=PARAMS, free_cpus=20)
        assert t.next_state is AppState.INC
        assert t.next_allocation == 12

    def test_settled_reference_also_guards_dec(self):
        # Efficiency slightly under target but unchanged since
        # settling: stay put (the app settled there knowingly).
        s = state(20, app_state=AppState.STABLE, stable_eff=0.66)
        t = evaluate_transition(s, speedup=13.0, procs=20,  # eff 0.65
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE
        # A real degradation leaves to DEC.
        t = evaluate_transition(s, speedup=10.0, procs=20,  # eff 0.50
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.DEC


class TestTransitionFlags:
    def test_no_room_to_grow_is_resource_limited(self):
        s = state(20, request=30)
        t = evaluate_transition(s, speedup=19.0, procs=20,
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE
        assert t.resource_limited

    def test_at_request_is_not_resource_limited(self):
        s = state(30, request=30)
        t = evaluate_transition(s, speedup=29.0, procs=30,
                                params=PARAMS, free_cpus=0)
        assert t.next_state is AppState.STABLE
        assert not t.resource_limited

    def test_remember_tracks_stable_entry(self):
        s = state(20)
        s.remember(AppState.STABLE, 20, speedup=16.0)
        assert s.stable_eff == pytest.approx(0.8)
        s.remember(AppState.DEC, 16, speedup=10.0)
        assert s.stable_eff is None
        assert s.resource_limited is False

    def test_remember_keeps_resource_limited_flag(self):
        s = state(20)
        s.remember(AppState.STABLE, 20, speedup=19.0, resource_limited=True)
        assert s.resource_limited


class TestInputValidation:
    def test_rejects_bad_procs(self):
        with pytest.raises(ValueError):
            evaluate_transition(state(), speedup=1.0, procs=0,
                                params=PARAMS, free_cpus=0)

    def test_rejects_bad_speedup(self):
        with pytest.raises(ValueError):
            evaluate_transition(state(), speedup=0.0, procs=4,
                                params=PARAMS, free_cpus=0)


class TestTransitionInvariants:
    @tier_settings("determinism")
    @given(
        allocation=st.integers(1, 60),
        request=st.integers(1, 60),
        app_state=st.sampled_from(list(AppState)),
        speedup=st.floats(0.01, 80.0),
        free=st.integers(0, 60),
        prev_alloc=st.integers(1, 60),
        prev_speedup=st.floats(0.01, 80.0),
        exits=st.integers(0, 6),
    )
    def test_allocation_always_legal(self, allocation, request, app_state,
                                     speedup, free, prev_alloc, prev_speedup,
                                     exits):
        allocation = min(allocation, request)
        s = state(allocation, request=request, app_state=app_state,
                  prev_allocation=min(prev_alloc, request),
                  prev_speedup=prev_speedup, stable_exits=exits)
        t = evaluate_transition(s, speedup=speedup, procs=allocation,
                                params=PARAMS, free_cpus=free)
        # Run-to-completion floor and request ceiling.
        assert 1 <= t.next_allocation <= max(request, allocation)
        # Growth never exceeds the free processors.
        assert t.next_allocation - allocation <= free
        # Single-step moves only (except the INC revert).
        if t.next_allocation > allocation:
            assert t.next_allocation - allocation <= PARAMS.step

    @tier_settings("determinism")
    @given(
        speedup=st.floats(0.01, 80.0),
        allocation=st.integers(2, 60),
    )
    def test_no_ref_classification_is_total(self, speedup, allocation):
        t = evaluate_transition(state(allocation, request=60), speedup=speedup,
                                procs=allocation, params=PARAMS, free_cpus=8)
        assert t.next_state in (AppState.INC, AppState.DEC, AppState.STABLE)
        assert t.reason


class TestPdpaJobStateMemory:
    def test_remember_updates_history_on_change(self):
        s = state(20)
        s.remember(AppState.INC, 24, speedup=19.0)
        assert s.prev_allocation == 20
        assert s.prev_speedup == 19.0
        assert s.allocation == 24
        assert s.state is AppState.INC

    def test_remember_keeps_memory_when_allocation_unchanged(self):
        s = state(20)
        s.remember(AppState.STABLE, 20, speedup=16.0)
        assert s.prev_allocation is None  # "allocations different from
        assert s.prev_speedup is None     #  the current one"

    def test_is_settled(self):
        assert state(app_state=AppState.STABLE).is_settled
        assert state(app_state=AppState.DEC).is_settled
        assert not state(app_state=AppState.NO_REF).is_settled
        assert not state(app_state=AppState.INC).is_settled
