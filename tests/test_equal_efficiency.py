"""Unit tests for the Equal_efficiency policy."""

import copy
import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

from repro.fuzz.profiles import tier_settings

from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.speedup import AmdahlSpeedup
from repro.qs.job import Job
from repro.rm.base import JobView, SystemView
from repro.rm.equal_efficiency import (
    MAX_PREDICTED_EFFICIENCY,
    EqualEfficiency,
    fit_overhead,
    is_water_fill,
    predicted_efficiency,
    water_fill,
)
from repro.runtime.selfanalyzer import PerformanceReport


def report(job_id, procs, speedup, time=10.0):
    return PerformanceReport(job_id=job_id, time=time, iteration=5,
                             procs=procs, speedup=speedup, iter_time=1.0)


def view_of(app, allocations, requests=None, total=60):
    jobs = {}
    for job_id, alloc in allocations.items():
        request = (requests or {}).get(job_id, 30)
        job = Job(job_id, app, submit_time=0.0, request=request)
        jobs[job_id] = JobView(job=job, allocation=alloc)
    return SystemView(total, jobs)


class TestOverheadModel:
    def test_fit_perfect_efficiency_gives_zero(self):
        assert fit_overhead(10, 1.0) == pytest.approx(0.0)

    def test_fit_single_processor_gives_zero(self):
        assert fit_overhead(1, 0.4) == 0.0

    def test_fit_roundtrips_through_prediction(self):
        a = fit_overhead(10, 0.7)
        assert predicted_efficiency(a, 10) == pytest.approx(0.7)

    def test_fit_rejects_nonpositive_efficiency(self):
        with pytest.raises(ValueError):
            fit_overhead(10, 0.0)

    def test_prediction_decreases_for_positive_overhead(self):
        a = fit_overhead(10, 0.7)
        assert predicted_efficiency(a, 20) < 0.7
        assert predicted_efficiency(a, 5) > 0.7

    def test_superlinear_prediction_clamped(self):
        a = fit_overhead(10, 1.4)  # negative overhead
        assert predicted_efficiency(a, 60) <= MAX_PREDICTED_EFFICIENCY

    def test_prediction_validation(self):
        with pytest.raises(ValueError):
            predicted_efficiency(0.0, 0)


class TestWaterFill:
    def test_equal_jobs_get_equal_allocations(self):
        alloc = water_fill(60, {1: 30, 2: 30}, {1: 0.02, 2: 0.02})
        assert alloc[1] == alloc[2] == 30

    def test_better_efficiency_wins_processors(self):
        alloc = water_fill(20, {1: 30, 2: 30}, {1: 0.01, 2: 0.3})
        assert alloc[1] > alloc[2]
        assert alloc[1] + alloc[2] == 20

    def test_caps_at_request(self):
        alloc = water_fill(60, {1: 2, 2: 30}, {1: 0.0, 2: 0.0})
        assert alloc[1] == 2

    def test_everyone_starts_with_one(self):
        alloc = water_fill(3, {1: 30, 2: 30, 3: 30}, {})
        assert all(v == 1 for v in alloc.values())

    def test_too_many_jobs_raises(self):
        with pytest.raises(ValueError):
            water_fill(1, {1: 5, 2: 5}, {})

    @tier_settings("standard")
    @given(
        total=st.integers(4, 64),
        jobs=st.dictionaries(
            st.integers(1, 12),
            st.tuples(st.integers(1, 40), st.floats(-0.05, 0.5)),
            min_size=1, max_size=6,
        ),
    )
    def test_conservation_and_bounds(self, total, jobs):
        requests = {jid: req for jid, (req, _) in jobs.items()}
        overheads = {jid: a for jid, (_, a) in jobs.items()}
        if total < len(requests):
            return
        alloc = water_fill(total, requests, overheads)
        assert sum(alloc.values()) <= total
        for jid in requests:
            assert 1 <= alloc[jid] <= max(1, requests[jid])


class TestPolicy:
    def test_new_job_extrapolates_optimistically(self, linear_app):
        # Contended machine: 40 CPUs, two 30-CPU requests.
        policy = EqualEfficiency()
        system = view_of(linear_app, {1: 30}, total=40)
        # Job 1 measured poor efficiency; the newcomer has none yet.
        policy._overheads[1] = fit_overhead(30, 0.3)
        new_job = Job(2, linear_app, submit_time=0.0, request=30)
        decision = policy.on_job_arrival(new_job, system)
        assert decision[2] > decision[1]

    def test_report_refits_and_rebalances(self, linear_app, flat_app):
        policy = EqualEfficiency()
        good = Job(1, linear_app, submit_time=0.0, request=30)
        bad = Job(2, flat_app, submit_time=0.0, request=30)
        system = SystemView(40, {
            1: JobView(job=good, allocation=20),
            2: JobView(job=bad, allocation=20),
        })
        policy.on_job_arrival(good, view_of(linear_app, {}, total=40))
        policy.on_job_arrival(bad, view_of(linear_app, {1: 30}, total=40))
        decision = policy.on_report(bad, report(2, 20, speedup=1.5), system)
        # The poorly scaling job is cut back hard.
        assert decision[2] < decision[1]

    def test_noise_shuffles_allocations(self, linear_app):
        # The paper's critique: small efficiency changes reshuffle the
        # machine.  Two same-shape jobs with slightly different noisy
        # measurements end up with different allocations.
        policy = EqualEfficiency()
        j1 = Job(1, linear_app, submit_time=0.0, request=30)
        j2 = Job(2, linear_app, submit_time=0.0, request=30)
        system = SystemView(40, {
            1: JobView(job=j1, allocation=20),
            2: JobView(job=j2, allocation=20),
        })
        policy.on_report(j1, report(1, 20, speedup=20 * 0.82), system)
        decision = policy.on_report(j2, report(2, 20, speedup=20 * 0.78), system)
        assert decision[1] != decision[2]

    def test_completion_cleans_state(self, linear_app):
        policy = EqualEfficiency()
        job = Job(1, linear_app, submit_time=0.0)
        policy._overheads[1] = 0.5
        policy.on_job_removed(job)
        assert policy.overhead_of(1) == 0.0

    def test_mpl_validation(self):
        with pytest.raises(ValueError):
            EqualEfficiency(mpl=0)


# ----------------------------------------------------------------------
# the heap greedy and the no-op proof against the scan they replace
# ----------------------------------------------------------------------
def scan_grants(total_cpus, requests, overheads):
    """Reference: the scan ``water_fill`` the heap greedy replaced, as
    the job ids it grants a CPU to, in grant order.

    Every round scans all jobs in id order for the highest next-CPU
    efficiency (strictly greater wins, so ties go to the lower id).
    """
    if total_cpus < len(requests):
        raise ValueError(f"{len(requests)} jobs on {total_cpus} CPUs")
    allocation = {jid: 1 for jid in requests}
    grants = []
    order = sorted(requests)
    while len(grants) < total_cpus - len(requests):
        best_jid = None
        best_eff = 0.0
        for jid in order:
            current = allocation[jid]
            if current >= requests[jid]:
                continue
            eff = predicted_efficiency(overheads.get(jid, 0.0), current + 1)
            if eff > best_eff:
                best_eff = eff
                best_jid = jid
        if best_jid is None:
            break
        allocation[best_jid] += 1
        grants.append(best_jid)
    return grants


def granted(requests, grants):
    """The allocation after *grants*, in *requests*' key order."""
    allocation = {jid: 1 for jid in requests}
    for jid in grants:
        allocation[jid] += 1
    return allocation


#: exactly 0.0 (all-tie columns), negatives (superlinear fits, clamped
#: at MAX_PREDICTED_EFFICIENCY), tiny ones for which 1 + a(p-1) can
#: round to 1, ordinary ones, steep ones, and infinity, whose every
#: CPU past the first has efficiency exactly 0 (the greedy stops
#: before it); None leaves the job unfitted
overheads = st.one_of(
    st.just(0.0),
    st.floats(-1.0, 0.0),
    st.floats(0.0, 1e-15),
    st.floats(0.0, 2.0),
    st.sampled_from([1e3, 1e6, 1e12, 1e300]),
    st.just(math.inf),
    st.none(),
)

#: job id -> (request, overhead or None), in an arbitrary key order
job_tables = st.dictionaries(
    st.integers(1, 12), st.tuples(st.integers(1, 40), overheads),
    min_size=1, max_size=8,
)


def split(jobs):
    requests = {jid: request for jid, (request, _) in jobs.items()}
    fitted = {jid: a for jid, (_, a) in jobs.items() if a is not None}
    return requests, fitted


def candidate_allocation(draw, total, requests, fitted):
    """A greedy answer, or one perturbed into a near miss."""
    def greedy(cpus):
        return water_fill(cpus, requests, fitted) if cpus >= len(requests) \
            else {jid: 1 for jid in requests}

    allocation = greedy(total)
    jids = list(allocation)
    kind = draw(st.sampled_from(["greedy", "nudge", "move", "over-request", "other-total"]))
    if kind == "nudge":
        allocation[draw(st.sampled_from(jids))] += draw(st.sampled_from([-1, 1]))
    elif kind == "move":
        giver, taker = draw(st.sampled_from(jids)), draw(st.sampled_from(jids))
        allocation[giver] -= 1
        allocation[taker] += 1
    elif kind == "over-request":
        jid = draw(st.sampled_from(jids))
        allocation[jid] = requests[jid] + draw(st.integers(1, 3))
    elif kind == "other-total":
        allocation = greedy(total + draw(st.sampled_from([-3, -1, 1, 3])))
    return allocation


def one_step_from(allocation):
    """Every allocation one CPU away: each job nudged by one, and one
    CPU moved between each ordered pair of jobs."""
    for jid in allocation:
        for step in (-1, 1):
            yield {**allocation, jid: allocation[jid] + step}
    for giver in allocation:
        for taker in allocation:
            if giver != taker:
                yield {**allocation, giver: allocation[giver] - 1,
                       taker: allocation[taker] + 1}


def greedy_agrees(total, requests, fitted, allocation):
    """What the proof must answer: the greedy's verdict, False when a
    fit is superlinear (its column rises, so no ordering argument)."""
    if total < len(requests) or any(a < 0 for a in fitted.values()):
        return False
    return water_fill(total, requests, fitted) == allocation


#: the jobs' application: the proof reads only their requests
LINEAR = ApplicationSpec(
    name="ee-linear", app_class=AppClass.HIGH,
    speedup_model=AmdahlSpeedup(0.0, name="ee-linear"),
    iterations=10, t_iter_seq=8.0, t_startup=0.0, t_teardown=0.0,
    default_request=30,
)


def views_of(requests, allocation):
    """The view table the proof reads: each job holding its allocation."""
    return {
        jid: JobView(job=Job(jid, LINEAR, submit_time=0.0, request=request),
                     allocation=allocation[jid])
        for jid, request in requests.items()
    }


class TestHeapAndProof:
    @tier_settings("determinism")
    @given(total=st.integers(1, 64), jobs=job_tables)
    # two ordinary fits compete for every CPU: any shift of p moves a grant
    @example(total=16, jobs={1: (16, 0.1), 2: (16, 0.3)})
    def test_heap_matches_scan(self, total, jobs):
        """The heap grants in the scan's order: its answer matches at
        every machine size up to *total*, each a prefix of the next."""
        requests, fitted = split(jobs)
        if total < len(requests):
            with pytest.raises(ValueError):
                water_fill(total, requests, fitted)
            return
        grants = scan_grants(total, requests, fitted)
        for cpus in range(len(requests), total + 1):
            # key order is part of the output: _apply resizes in it
            assert list(water_fill(cpus, requests, fitted).items()) == \
                list(granted(requests, grants[:cpus - len(requests)]).items())

    @tier_settings("determinism")
    @given(total=st.integers(1, 64), jobs=job_tables, stale=overheads, data=st.data())
    def test_proof_matches_greedy(self, total, jobs, stale, data):
        """The proof reads the view table with the reporter's refit in
        place of its overhead in the table, which must not count."""
        requests, fitted = split(jobs)
        reporter = data.draw(st.sampled_from(sorted(requests)))
        refit = fitted.get(reporter, 0.0)
        table = {jid: a for jid, a in fitted.items() if jid != reporter}
        if stale is not None:
            table[reporter] = stale
        allocation = candidate_allocation(data.draw, total, requests, fitted)
        answer = greedy_agrees(total, requests, fitted, allocation)
        assert is_water_fill(total, views_of(requests, allocation), table, reporter, refit) == \
            answer
        if answer:
            # and every near miss around the greedy's answer
            for near in one_step_from(allocation):
                assert is_water_fill(total, views_of(requests, near), table, reporter, refit) \
                    == greedy_agrees(total, requests, fitted, near), near

    @tier_settings("standard")
    @given(
        total=st.integers(1, 64),
        jobs=job_tables,
        procs=st.integers(1, 40),
        eff=st.one_of(st.sampled_from([1.0, 1.25, 0.5]), st.floats(0.01, 2.0)),
        data=st.data(),
    )
    def test_report_is_noop_matches_on_report(self, total, jobs, procs, eff, data):
        """absorb_report proves and applies in one pass: False leaves
        the policy as it was, True leaves it as on_report would, and
        on_report then hands every job the CPUs it holds."""
        requests, fitted = split(jobs)
        reporter = data.draw(st.sampled_from(sorted(requests)))
        speedup = procs * eff
        refit = {**fitted, reporter: fit_overhead(procs, speedup / procs)}
        allocation = candidate_allocation(data.draw, total, requests, refit)
        jobs_by_id = {jid: Job(jid, LINEAR, submit_time=0.0, request=requests[jid])
                      for jid in requests}
        system = SystemView(total, {
            jid: JobView(job=jobs_by_id[jid], allocation=allocation[jid]) for jid in requests
        })
        policy = EqualEfficiency()
        policy._overheads.update(fitted)
        before, reported = pickle.dumps(policy), copy.deepcopy(policy)
        absorbed = policy.absorb_report(jobs_by_id[reporter], procs, speedup, system)
        assert absorbed == greedy_agrees(total, requests, refit, allocation)
        if not absorbed:
            assert pickle.dumps(policy) == before, "declined after changing state"
            return
        decision = reported.on_report(
            jobs_by_id[reporter], report(reporter, procs, speedup), system
        )
        assert decision == allocation
        assert pickle.dumps(policy) == pickle.dumps(reported), "absorbed unlike on_report"
        assert policy.overhead_of(reporter) == refit[reporter]

    def test_absorb_report_refits_like_on_report(self, linear_app):
        absorbed, reported = EqualEfficiency(), EqualEfficiency()
        job = Job(1, linear_app, submit_time=0.0, request=20)
        system = view_of(linear_app, {1: 20}, requests={1: 20}, total=40)
        sample = report(1, 20, speedup=20 * 0.83)
        assert absorbed.absorb_report(job, sample.procs, sample.speedup, system)
        assert reported.on_report(job, sample, system) == {1: 20}
        assert absorbed.overhead_of(1) == reported.overhead_of(1) == \
            fit_overhead(20, sample.efficiency)

    def test_all_tie_columns_grant_in_id_order(self):
        # a = 0 everywhere: every CPU ties at efficiency 1, so the
        # lower id fills up to its request before the next one grows
        requests = {3: 5, 1: 5, 2: 5}
        alloc = water_fill(10, requests, {})
        assert list(alloc.items()) == [(3, 1), (1, 5), (2, 4)]
        assert is_water_fill(10, views_of(requests, alloc), {}, 3, 0.0)
        assert not is_water_fill(10, views_of(requests, {3: 1, 1: 4, 2: 5}), {}, 3, 0.0)

    def test_allocation_beyond_the_machine_is_never_proved(self):
        # every job at its request and one CPU more than the machine
        # has: the columns and the frontier alone would pass it
        requests = {1: 3, 2: 1}
        assert water_fill(3, requests, {}) == {1: 2, 2: 1}
        assert not is_water_fill(3, views_of(requests, {1: 3, 2: 1}), {}, 1, 0.0)

    def test_superlinear_fit_is_never_proved(self):
        requests = {1: 5, 2: 5}
        alloc = water_fill(10, requests, {1: -0.05})
        assert not is_water_fill(10, views_of(requests, alloc), {1: 0.0}, 1, -0.05)

    def test_zero_efficiency_cpu_is_never_proved(self):
        # a = 1e308 overflows 1 + a(p-1) at p = 3: that CPU's efficiency
        # is 0, so the greedy stops with a CPU left over rather than
        # grant it: the allocation that holds it is not its answer, and
        # the one it stops at is
        requests, fitted = {1: 3, 2: 3}, {1: 1e308, 2: 1e308}
        assert water_fill(5, requests, fitted) == {1: 2, 2: 2}
        assert not is_water_fill(5, views_of(requests, {1: 3, 2: 2}), fitted, 1, 1e308)
        assert is_water_fill(5, views_of(requests, {1: 2, 2: 2}), fitted, 1, 1e308)
