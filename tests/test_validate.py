"""Tests for the run validator — including failure injection."""

from bisect import insort
from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.common import ExperimentConfig, run_workload
from repro.faults import build_scenario
from repro.fuzz.profiles import tier_settings
from repro.metrics.faults import offline_windows
from repro.metrics.stats import JobRecord
from repro.metrics.trace import Burst, FaultRecord, ReallocationRecord
from repro.qs.job import JobState
from repro.validate import TraceChecker, assert_valid, validate_run

CONFIG = ExperimentConfig(seed=3)


@pytest.fixture(scope="module")
def clean_run():
    return run_workload("PDPA", "w3", 0.6, CONFIG)


@pytest.fixture(scope="module")
def cpukill8_run():
    plan = build_scenario("cpukill8", CONFIG.n_cpus)
    return run_workload("PDPA", "w3", 0.6, CONFIG.with_faults(plan))


class TestCleanRuns:
    def test_pdpa_run_is_valid(self, clean_run):
        assert validate_run(clean_run) == []
        assert_valid(clean_run)

    @pytest.mark.parametrize("policy", ["Equip", "Equal_eff"])
    def test_other_policies_are_valid(self, policy):
        out = run_workload(policy, "w2", 0.8, CONFIG)
        assert validate_run(out) == []

    def test_untuned_run_is_valid(self):
        out = run_workload("PDPA", "w3", 0.6, CONFIG,
                           request_overrides={"apsi": 30})
        assert validate_run(out) == []


class TestFailureInjection:
    """Corrupt a clean run and check the validator notices."""

    def _fresh(self):
        return run_workload("PDPA", "w3", 0.6, CONFIG)

    def test_detects_time_disorder(self):
        out = self._fresh()
        victim = out.result.records[0]
        out.result.records[0] = JobRecord(
            job_id=victim.job_id, app_name=victim.app_name,
            app_class=victim.app_class, request=victim.request,
            submit_time=victim.submit_time,
            start_time=victim.end_time + 5.0,   # starts after it ends
            end_time=victim.end_time,
        )
        problems = validate_run(out)
        assert any("out of order" in p for p in problems)

    def test_detects_overlapping_bursts(self):
        out = self._fresh()
        first = out.trace.bursts[0]
        out.trace.bursts.append(Burst(
            cpu=first.cpu, job_id=999, app_name="ghost",
            start=first.start + first.duration / 4,
            end=first.end + 1.0,
        ))
        problems = validate_run(out)
        assert any("overlapping" in p for p in problems)

    def test_detects_capacity_violation(self):
        out = self._fresh()
        horizon = out.trace.horizon
        for fake_cpu in range(out.trace.n_cpus + 5):
            out.trace.bursts.append(Burst(
                cpu=1000 + fake_cpu, job_id=999, app_name="ghost",
                start=0.0, end=horizon,
            ))
        problems = validate_run(out)
        assert any("capacity exceeded" in p for p in problems)

    def test_detects_burst_outside_job_window(self):
        out = self._fresh()
        record = out.result.records[0]
        out.trace.bursts.append(Burst(
            cpu=0, job_id=record.job_id, app_name=record.app_name,
            start=record.end_time + 10.0, end=record.end_time + 20.0,
        ))
        problems = validate_run(out)
        assert any("outside its execution window" in p for p in problems)

    def test_detects_broken_reallocation_chain(self):
        out = self._fresh()
        some_job = out.trace.reallocations[0].job_id
        out.trace.reallocations.append(ReallocationRecord(
            time=out.trace.horizon, job_id=some_job, app_name="x",
            old_procs=999, new_procs=3,
        ))
        problems = validate_run(out)
        assert any("chain broken" in p for p in problems)

    def test_detects_zero_allocation(self):
        out = self._fresh()
        last = out.trace.reallocations[-1]
        out.trace.reallocations.append(ReallocationRecord(
            time=last.time + 1.0, job_id=last.job_id, app_name=last.app_name,
            old_procs=last.new_procs, new_procs=0,
        ))
        problems = validate_run(out)
        assert any("allocated 0 CPUs" in p for p in problems)

    def _fresh_cpukill8(self):
        plan = build_scenario("cpukill8", CONFIG.n_cpus)
        out = run_workload("PDPA", "w3", 0.6, CONFIG.with_faults(plan))
        assert validate_run(out) == []
        return out

    def test_detects_burst_on_offline_cpu(self):
        out = self._fresh_cpukill8()
        cpu, windows = sorted(offline_windows(out.trace).items())[0]
        t0, t1 = windows[0]
        out.trace.bursts.append(Burst(
            cpu=cpu, job_id=999, app_name="ghost",
            start=t0 + 1.0, end=min(t0 + 2.0, t1),
        ))
        problems = validate_run(out)
        assert any(p.code == "fault-offline-overlap" for p in problems)
        assert any("overlaps offline window" in p for p in problems)

    def test_detects_bursts_beyond_healthy_capacity(self):
        # Every CPU busy for one second while all eight cpukill8 CPUs
        # are down: never more bursts than CPUs, but more than the
        # healthy ones.
        out = self._fresh_cpukill8()
        down = offline_windows(out.trace)
        t = max(spans[0][0] for spans in down.values()) + 0.5
        busy = {b.cpu for b in out.trace.bursts if b.start < t + 1 and b.end > t}
        for cpu in range(out.trace.n_cpus):
            if cpu not in busy:
                out.trace.bursts.append(Burst(
                    cpu=cpu, job_id=999, app_name="ghost", start=t, end=t + 1,
                ))
        problems = validate_run(out)
        assert any(p.code == "fault-capacity" for p in problems)
        assert not any(p.code == "capacity" for p in problems)

    def test_detects_requeued_job_never_finishing(self):
        out = self._fresh_cpukill8()
        requeued = out.trace.faults_of_kind("job_requeue")[0].target
        job = next(j for j in out.jobs if j.job_id == requeued)
        job.state = JobState.QUEUED
        problems = validate_run(out)
        assert any(p.code == "fault-requeue-terminal" for p in problems)
        assert any(f"job {requeued}: requeued" in p for p in problems)

    def test_assert_valid_raises_with_details(self):
        out = self._fresh()
        victim = out.result.records[0]
        out.result.records[0] = JobRecord(
            job_id=victim.job_id, app_name=victim.app_name,
            app_class=victim.app_class, request=victim.request,
            submit_time=victim.start_time + 1.0,  # submitted after start
            start_time=victim.start_time,
            end_time=victim.end_time,
        )
        with pytest.raises(AssertionError, match="violation"):
            assert_valid(out)


def _injected(trace, case):
    """Copies of *trace*'s bursts, reallocations and faults, with *case*
    injected where the recorder would have appended it."""
    bursts = list(trace.bursts)
    reallocations = list(trace.reallocations)
    faults = list(trace.faults)
    start = reallocations[0]
    assert start.old_procs == 0
    if case == "overlap":
        first = bursts[0]
        ghost = Burst(
            cpu=first.cpu, job_id=999, app_name="ghost",
            start=first.start + first.duration / 4, end=first.end + 1.0,
        )
        insort(bursts, ghost, key=attrgetter("end"))
    elif case == "broken-chain":
        reallocations.insert(1, start._replace(old_procs=start.new_procs + 1))
    elif case == "kill-restart-same-instant":
        # start, kill and restart within one simulated instant: legal
        reallocations.insert(1, start)
        kill = FaultRecord(start.time, "job_kill", start.job_id, "crash")
        insort(faults, kill, key=attrgetter("time"))
    return bursts, reallocations, faults


def _prefix_counts(bursts, reallocations, faults):
    """``(time, n_bursts, n_reallocations, n_faults)`` after each record,
    in time order.  A burst is recorded when it ends; within one
    instant a kill comes before reallocations, as a restart is recorded
    after the kill it follows."""
    order = sorted(
        [(f.time, 2) for f in faults]
        + [(r.time, 1) for r in reallocations]
        + [(b.end, 0) for b in bursts],
        key=lambda entry: (entry[0], -entry[1]),
    )
    counts = [0, 0, 0]
    prefixes = []
    for time, which in order:
        counts[which] += 1
        prefixes.append((time, *counts))
    return prefixes


class TestTraceCheckerPrefixes:
    """Fed the time-ordered prefixes the live oracle sees between
    events, the trace checker finds exactly what one whole feed finds."""

    #: injected case -> violation codes one whole feed must report
    CASES = {
        "clean": set(),
        "overlap": {"burst-sanity"},
        "broken-chain": {"realloc-chain"},
        "kill-restart-same-instant": set(),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @tier_settings("quick")
    @given(cuts=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=12))
    def test_prefix_feeds_match_one_whole_feed(self, cpukill8_run, case, cuts):
        n_cpus = cpukill8_run.trace.n_cpus
        bursts, reallocations, faults = _injected(cpukill8_run.trace, case)
        whole = TraceChecker(n_cpus).feed(bursts, reallocations, faults)
        assert {v.code for v in whole} == self.CASES[case]

        prefixes = _prefix_counts(bursts, reallocations, faults)
        checker = TraceChecker(n_cpus)
        found = []
        for cut in sorted({int(f * len(prefixes)) for f in cuts}):
            now, n_bursts, n_reallocs, n_faults = prefixes[cut]
            found += checker.feed(
                bursts[:n_bursts], reallocations[:n_reallocs],
                faults[:n_faults], now,
            )
        found += checker.feed(bursts, reallocations, faults)
        assert sorted(v.render() for v in found) == sorted(v.render() for v in whole)
