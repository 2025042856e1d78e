"""Tests for the fault-injection subsystem (repro.faults).

Covers the plan/injector layers, graceful degradation in the machine,
resource managers and queuing system, the determinism guarantee, the
no-fault byte-identity guarantee, and the cpukill8 acceptance scenario
under PDPA, Equipartition and IRIX.
"""

import pytest

from repro.experiments.common import ExperimentConfig, run_workload
from repro.faults import (
    SCENARIOS,
    CpuFault,
    FaultInjector,
    FaultPlan,
    JobCrash,
    JobHang,
    NodeSlowdown,
    ReportLoss,
    build_scenario,
)
from repro.machine.machine import CpuHealth, Machine, MachineError
from repro.metrics.faults import fault_statistics, offline_windows
from repro.metrics.timeline import capacity_timeline
from repro.metrics.trace import TraceRecorder
from repro.qs.job import Job, JobState
from repro.qs.queuing import NanosQS, RetryConfig
from repro.rm.equipartition import Equipartition
from repro.rm.manager import SpaceSharedResourceManager
from repro.runtime.nthlib import RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.validate import assert_valid, validate_run

CONFIG = ExperimentConfig(n_cpus=32, duration=150.0, seed=7)


def run_with_plan(policy, plan, workload="w1", load=1.0, config=CONFIG):
    return run_workload(policy, workload, load, config.with_faults(plan))


def trace_fingerprint(out):
    t = out.trace
    return (
        tuple(t.bursts),
        tuple(t.reallocations),
        tuple(t.mpl_samples),
        tuple(t.faults),
        t.migrations,
        tuple(sorted((c, load.bursts, load.busy_time)
                     for c, load in t.synthetic.items())),
        tuple((r.job_id, r.start_time, r.end_time) for r in out.result.records),
    )


# ----------------------------------------------------------------------
# plan validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_empty_plan(self):
        assert FaultPlan().empty
        assert FaultPlan(report_loss=ReportLoss()).empty  # zero probabilities

    def test_nonempty_plan(self):
        assert not FaultPlan(events=(CpuFault(1.0, 0),)).empty
        assert not FaultPlan(report_loss=ReportLoss(drop_prob=0.1)).empty

    def test_events_coerced_to_tuple(self):
        plan = FaultPlan(events=[CpuFault(1.0, 0)])
        assert isinstance(plan.events, tuple)

    def test_retry_config_derived(self):
        plan = FaultPlan(max_retries=2, backoff_base=1.0, backoff_cap=8.0)
        retry = plan.retry_config()
        assert retry.max_retries == 2
        assert retry.delay(1) == 1.0
        assert retry.delay(5) == 8.0

    @pytest.mark.parametrize("bad", [
        lambda: CpuFault(-1.0, 0),
        lambda: CpuFault(0.0, -1),
        lambda: CpuFault(0.0, 0, repair_after=0.0),
        lambda: NodeSlowdown(0.0, 0, factor=0.0),
        lambda: NodeSlowdown(0.0, 0, factor=1.5),
        lambda: ReportLoss(drop_prob=0.7, corrupt_prob=0.6),
        lambda: ReportLoss(corrupt_low=0.0),
        lambda: FaultPlan(stale_after=0.0),
        lambda: FaultPlan(sweep_interval=-1.0),
        lambda: FaultPlan(max_retries=-1),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_scenarios_build_for_any_size(self):
        for name in SCENARIOS:
            for n_cpus in (4, 32, 60, 64):
                plan = build_scenario(name, n_cpus)
                assert not plan.empty

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scenario"):
            build_scenario("nope", 32)


# ----------------------------------------------------------------------
# machine-level health
# ----------------------------------------------------------------------
class TestMachineHealth:
    def test_fail_and_repair_cpu(self):
        machine = Machine(8)
        assert machine.healthy_cpus == 8
        owner = machine.fail_cpu(3, now=1.0)
        assert owner is None  # idle CPU
        assert machine.healthy_cpus == 7
        assert machine.cpu_health(3) is CpuHealth.OFFLINE
        assert 3 in machine.offline_cpus()
        assert machine.repair_cpu(3, now=2.0)
        assert machine.healthy_cpus == 8

    def test_fail_cpu_evicts_owner(self):
        trace = TraceRecorder(8)
        machine = Machine(8, trace=trace)
        machine.start_job(1, "app", 8, now=0.0)
        victim = next(iter(machine.partition_of(1)))
        owner = machine.fail_cpu(victim, now=1.0)
        assert owner == 1
        assert machine.allocation_of(1) == 7
        assert victim not in machine.partition_of(1)

    def test_repair_leaves_a_cpu_that_has_not_failed_alone(self):
        machine = Machine(8)
        machine.degrade_node(0, 0.5, now=1.0)
        assert not machine.repair_cpu(0, now=2.0)
        assert not machine.repair_cpu(7, now=2.0)
        assert machine.cpu_health(0) is CpuHealth.DEGRADED
        machine.fail_cpu(0, now=3.0)
        assert machine.repair_cpu(0, now=4.0)
        assert machine.cpu_health(0) is CpuHealth.DEGRADED  # its node is still slow
        machine.check_invariants()

    def test_offline_cpu_not_allocated(self):
        machine = Machine(4)
        machine.fail_cpu(0, now=0.0)
        machine.start_job(1, "app", 3, now=1.0)
        assert 0 not in machine.partition_of(1)
        with pytest.raises(MachineError):
            machine.start_job(2, "other", 1, now=1.0)

    def test_last_healthy_cpu_protected(self):
        machine = Machine(2)
        machine.fail_cpu(0, now=0.0)
        with pytest.raises(MachineError, match="last"):
            machine.fail_cpu(1, now=0.0)

    def test_node_degrade_and_restore(self):
        machine = Machine(8)
        machine.start_job(1, "app", 2, now=0.0)
        node = machine.topology.node_of(next(iter(machine.partition_of(1))))
        machine.degrade_node(node, 0.5, now=1.0)
        assert machine.partition_speed_factor(1) == 0.5
        machine.restore_node(node, now=2.0)
        assert machine.partition_speed_factor(1) == 1.0

    def test_release_error_names_job_and_cpus(self):
        machine = Machine(4)
        machine.start_job(1, "app", 2, now=0.0)
        with pytest.raises(MachineError) as err:
            machine.finish_job(99, now=1.0)
        assert "99" in str(err.value)
        assert "1" in str(err.value)  # jobs holding partitions

    def test_overcommit_error_names_offenders(self):
        machine = Machine(4)
        machine.start_job(1, "app", 3, now=0.0)
        with pytest.raises(MachineError) as err:
            machine.start_job(2, "other", 3, now=1.0)
        message = str(err.value)
        assert "job 2" in message and "3" in message


# ----------------------------------------------------------------------
# job retry state machine
# ----------------------------------------------------------------------
class TestJobRetry:
    def make_job(self, app):
        return Job(job_id=1, spec=app, submit_time=0.0)

    def test_requeue_cycle(self, linear_app):
        job = self.make_job(linear_app)
        job.mark_started(1.0)
        job.mark_requeued(5.0)
        assert job.state is JobState.QUEUED
        assert job.attempts == 1
        assert job.first_start_time == 1.0
        job.mark_started(8.0)
        assert job.start_time == 8.0
        assert job.first_start_time == 1.0  # unchanged

    def test_mark_failed_terminal(self, linear_app):
        job = self.make_job(linear_app)
        job.mark_started(1.0)
        job.mark_failed(4.0)
        assert job.state is JobState.FAILED
        assert job.attempts == 1
        with pytest.raises(RuntimeError):
            job.mark_failed(5.0)

    def test_retry_config_backoff_caps(self):
        retry = RetryConfig(max_retries=5, backoff_base=2.0, backoff_cap=10.0)
        assert [retry.delay(i) for i in (1, 2, 3, 4)] == [2.0, 4.0, 8.0, 10.0]
        with pytest.raises(ValueError):
            retry.delay(0)


# ----------------------------------------------------------------------
# end-to-end graceful degradation
# ----------------------------------------------------------------------
class TestGracefulDegradation:
    def test_cpu_failure_shrinks_capacity_and_completes(self):
        plan = FaultPlan(events=(CpuFault(30.0, 0), CpuFault(35.0, 5)))
        out = run_with_plan("PDPA", plan)
        assert out.result.records  # jobs completed
        stats = fault_statistics(out.trace)
        assert stats.cpu_failures == 2
        assert stats.availability < 1.0
        assert_valid(out)

    def test_transient_failure_repairs(self):
        plan = FaultPlan(events=(CpuFault(30.0, 2, repair_after=20.0),))
        out = run_with_plan("Equip", plan)
        stats = fault_statistics(out.trace)
        assert stats.cpu_repairs == 1
        assert 0.0 < stats.mttr <= 20.0 + 1e-9
        steps = capacity_timeline(out.trace)
        assert [c for _, c in steps] == [32, 31, 32]
        assert_valid(out)

    def test_late_repair_of_a_degraded_cpu_records_nothing(self):
        # the second fault finds CPU 0 OFFLINE and is ignored, so it
        # schedules no repair; the first repair brings the CPU back
        # DEGRADED (node 0 is slow), which only restore_node clears
        plan = FaultPlan(events=(
            NodeSlowdown(10.0, node=0, factor=0.5, restore_after=500.0),
            CpuFault(20.0, cpu=0, repair_after=30.0),
            CpuFault(25.0, cpu=0, repair_after=60.0),
        ))
        out = run_with_plan("Equip", plan, config=ExperimentConfig(n_cpus=16, seed=3))
        cpu_records = [
            (f.kind, f.time) for f in out.trace.faults if f.kind.startswith("cpu_")
        ]
        assert cpu_records == [("cpu_fail", 20.0), ("cpu_repair", 50.0)]
        stats = fault_statistics(out.trace)
        assert (stats.cpu_failures, stats.cpu_repairs) == (1, 1)
        assert_valid(out)

    @pytest.mark.parametrize("policy", ["IRIX", "Equip", "PDPA"])
    @pytest.mark.parametrize("repair_after,repairs", [(60.0, [80.0]), (None, [])],
                             ids=["transient", "permanent"])
    def test_second_fault_on_offline_cpu_schedules_no_repair(
            self, policy, repair_after, repairs):
        # The second fault is ignored (CPU 0 is already offline); its
        # 10 s repair must not end the first outage at t=35, nor bring
        # back a CPU whose first fault was permanent.
        plan = FaultPlan(events=(
            CpuFault(20.0, cpu=0, repair_after=repair_after),
            CpuFault(25.0, cpu=0, repair_after=10.0),
        ))
        out = run_with_plan(policy, plan, config=ExperimentConfig(n_cpus=16, seed=3))
        assert [f.time for f in out.trace.faults if f.kind == "cpu_repair"] == repairs
        stats = fault_statistics(out.trace)
        assert (stats.cpu_failures, stats.cpu_repairs) == (1, len(repairs))
        if repairs:
            assert stats.mttr == pytest.approx(60.0)
        assert_valid(out)

    def test_node_slowdown_slows_jobs(self):
        slow = FaultPlan(events=tuple(
            NodeSlowdown(5.0, node, 0.25, restore_after=400.0)
            for node in range(16)
        ))
        fast = run_with_plan("Equip", FaultPlan(events=(CpuFault(1e6, 0),)))
        slowed = run_with_plan("Equip", slow)
        assert slowed.result.makespan > fast.result.makespan
        assert_valid(slowed)

    def test_job_crash_requeues_and_finishes(self):
        plan = FaultPlan(events=(JobCrash(40.0),))
        out = run_with_plan("PDPA", plan)
        stats = fault_statistics(out.trace)
        assert stats.crashes == 1
        assert stats.kills == 1
        assert stats.requeues == 1
        assert stats.lost_work > 0
        assert all(job.state is JobState.DONE for job in out.jobs)
        assert_valid(out)

    def test_job_hang_killed_by_watchdog(self):
        plan = FaultPlan(events=(JobHang(40.0),),
                         sweep_interval=5.0, hang_timeout=20.0)
        out = run_with_plan("PDPA", plan)
        stats = fault_statistics(out.trace)
        assert stats.hangs == 1
        assert stats.kills >= 1
        kill = out.trace.faults_of_kind("job_kill")[0]
        assert "watchdog" in kill.detail
        assert_valid(out)

    def test_retry_budget_exhausts_to_failed(self):
        victim_crashes = tuple(
            JobCrash(20.0 + 10.0 * i) for i in range(12)
        )
        plan = FaultPlan(events=victim_crashes, max_retries=1,
                         backoff_base=1.0, backoff_cap=2.0)
        out = run_with_plan("Equip", plan)
        stats = fault_statistics(out.trace)
        assert out.result.failed == stats.failed_jobs > 0
        failed = [job for job in out.jobs if job.state is JobState.FAILED]
        assert len(failed) == out.result.failed
        assert_valid(out)

    def test_report_loss_degrades_gracefully(self):
        plan = build_scenario("flaky-reports", CONFIG.n_cpus)
        out = run_with_plan("PDPA", plan)
        stats = fault_statistics(out.trace)
        assert stats.reports_dropped > 0
        assert stats.reports_corrupted > 0
        assert_valid(out)

    def test_stale_reports_trigger_equal_share_fallback(self):
        plan = FaultPlan(
            report_loss=ReportLoss(drop_prob=1.0),
            stale_after=10.0, sweep_interval=5.0,
        )
        out = run_with_plan("PDPA", plan)
        stats = fault_statistics(out.trace)
        assert stats.fallbacks > 0
        assert_valid(out)

    def test_irix_capacity_shrink(self):
        plan = FaultPlan(events=(CpuFault(30.0, 1), CpuFault(31.0, 2)))
        out = run_with_plan("IRIX", plan)
        stats = fault_statistics(out.trace)
        assert stats.cpu_failures == 2
        assert stats.availability < 1.0
        assert out.rm.effective_cpus == CONFIG.n_cpus - 2
        assert_valid(out)

    def test_oblivious_policy_skips_staleness_fallback(self):
        plan = FaultPlan(
            report_loss=ReportLoss(drop_prob=1.0),
            stale_after=10.0, sweep_interval=5.0,
        )
        out = run_with_plan("Equip", plan)
        assert fault_statistics(out.trace).fallbacks == 0
        assert_valid(out)


# ----------------------------------------------------------------------
# acceptance scenario: 8 CPUs die mid-workload
# ----------------------------------------------------------------------
class TestCpuKill8Acceptance:
    @pytest.mark.parametrize("policy", ["PDPA", "Equip", "Equal_eff", "IRIX"])
    def test_completes_with_degraded_metrics(self, policy):
        config = ExperimentConfig(n_cpus=64, seed=3)
        plan = build_scenario("cpukill8", 64)
        out = run_workload(policy, "w1", 1.0, config.with_faults(plan))
        stats = fault_statistics(out.trace)
        assert stats.availability < 1.0
        assert stats.mttr > 0.0
        assert stats.requeues > 0
        assert out.result.records  # the workload completed
        assert not validate_run(out)


# ----------------------------------------------------------------------
# determinism and no-fault byte-identity
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("policy", ["PDPA", "Equip"])
    def test_same_seed_same_plan_identical_trace(self, policy):
        plan = build_scenario("cpukill8", CONFIG.n_cpus)
        first = run_with_plan(policy, plan)
        second = run_with_plan(policy, plan)
        assert trace_fingerprint(first) == trace_fingerprint(second)

    def test_different_seed_differs(self):
        plan = build_scenario("flaky-reports", CONFIG.n_cpus)
        a = run_with_plan("PDPA", plan)
        b = run_with_plan("PDPA", plan, config=CONFIG.with_seed(8))
        assert trace_fingerprint(a) != trace_fingerprint(b)

    @pytest.mark.parametrize("policy", ["PDPA", "Equip", "Equal_eff", "IRIX"])
    def test_no_fault_path_byte_identical(self, policy):
        base = run_workload(policy, "w1", 1.0, CONFIG)
        with_none = run_workload(policy, "w1", 1.0, CONFIG.with_faults(None))
        with_empty = run_workload(
            policy, "w1", 1.0, CONFIG.with_faults(FaultPlan())
        )
        assert trace_fingerprint(base) == trace_fingerprint(with_none)
        assert trace_fingerprint(base) == trace_fingerprint(with_empty)
        assert not base.trace.faults


# ----------------------------------------------------------------------
# the recovery sweep on a stream
# ----------------------------------------------------------------------
class TestStreamSweep:
    """A stream is all-done before its first arrival and between bursts,
    so the recovery sweep keeps running while its source may deliver."""

    def test_watchdog_outlives_a_late_first_arrival(self):
        from repro.faults.scenarios import build_scenario
        from repro.qs.workload import TABLE1_MIXES
        from repro.serve.service import ServeService
        from repro.serve.session import ServeConfig, build_serve_session
        from repro.serve.source import SyntheticSource

        # `repro --seed 7 --cpus 32 serve PDPA --workload w2 --load 1.0
        # --max-jobs 500 --faults cpukill8`: the first arrival comes
        # after the first sweep (t=10), and job 1 hangs at t=140
        config = ExperimentConfig(n_cpus=32, seed=7)
        config = config.with_faults(build_scenario("cpukill8", 32))
        source = SyntheticSource(TABLE1_MIXES["w2"], 1.0, n_cpus=32, seed=7, max_jobs=500)
        session = build_serve_session(
            "PDPA", source, config=config, serve_config=ServeConfig(), load=1.0
        )
        assert ServeService(session).run(handle_signals=False) == 0
        assert session.stats.completed == 500
        assert session.stats.requeues >= 1  # the watchdog killed the hung job

    def test_a_closed_queue_is_drained_once_all_done(self, linear_app):
        plan = FaultPlan(events=(CpuFault(1.0, 0),))
        sim, trace, rm, qs, jobs = TestInjectorUnits().make_stack(linear_app, plan)
        assert not qs.drained
        sim.run()
        assert qs.all_done and qs.drained
        assert sim.pending_events == 0  # the sweep chain ended with the run


# ----------------------------------------------------------------------
# injector unit behaviour
# ----------------------------------------------------------------------
class TestInjectorUnits:
    def make_stack(self, app, plan, n_cpus=8):
        sim = Simulator()
        trace = TraceRecorder(n_cpus)
        machine = Machine(n_cpus, trace=trace)
        rm = SpaceSharedResourceManager(
            sim, machine, Equipartition(mpl=4), RandomStreams(0), trace,
            RuntimeConfig(noise_sigma=0.0),
        )
        jobs = [Job(job_id=1, spec=app, submit_time=0.0, request=4)]
        qs = NanosQS(sim, rm, jobs, trace, retry=plan.retry_config())
        injector = FaultInjector(sim, plan, rm, qs, RandomStreams(0), trace)
        injector.install()
        qs.schedule_submissions()
        return sim, trace, rm, qs, jobs

    def test_install_twice_rejected(self, linear_app):
        plan = FaultPlan(events=(CpuFault(1.0, 0),))
        sim = Simulator()
        trace = TraceRecorder(4)
        machine = Machine(4, trace=trace)
        rm = SpaceSharedResourceManager(
            sim, machine, Equipartition(), RandomStreams(0), trace)
        qs = NanosQS(sim, rm, [], trace)
        injector = FaultInjector(sim, plan, rm, qs, RandomStreams(0), trace)
        injector.install()
        with pytest.raises(RuntimeError, match="twice"):
            injector.install()

    def test_empty_plan_schedules_nothing(self):
        sim = Simulator()
        trace = TraceRecorder(4)
        machine = Machine(4, trace=trace)
        rm = SpaceSharedResourceManager(
            sim, machine, Equipartition(), RandomStreams(0), trace)
        qs = NanosQS(sim, rm, [], trace)
        FaultInjector(sim, FaultPlan(), rm, qs, RandomStreams(0), trace).install()
        assert sim.pending_events == 0
        assert rm.report_filter is None

    def test_crash_with_no_victim_skipped(self, linear_app):
        plan = FaultPlan(events=(JobCrash(500.0),))  # after completion
        sim, trace, rm, qs, jobs = self.make_stack(linear_app, plan)
        sim.run()
        assert jobs[0].state is JobState.DONE
        crash = trace.faults_of_kind("job_crash")[0]
        assert crash.detail.startswith("skipped")

    def test_last_healthy_cpu_fault_skipped(self, linear_app):
        events = tuple(CpuFault(1.0 + i, i) for i in range(8))
        plan = FaultPlan(events=events)
        sim, trace, rm, qs, jobs = self.make_stack(linear_app, plan)
        sim.run()
        skipped = [f for f in trace.faults_of_kind("cpu_fail")
                   if f.detail.startswith("skipped")]
        assert skipped  # the last CPU refused to die
        assert rm.effective_cpus == 1
        assert jobs[0].state is JobState.DONE

    def test_offline_windows_censored_at_horizon(self):
        trace = TraceRecorder(4)
        from repro.metrics.trace import FaultRecord
        trace.record_fault(FaultRecord(10.0, "cpu_fail", 0))
        trace.record_fault(FaultRecord(30.0, "cpu_repair", 0))
        trace.record_fault(FaultRecord(40.0, "cpu_fail", 1))
        windows = offline_windows(trace, horizon=100.0)
        assert windows[0] == [(10.0, 30.0)]
        assert windows[1] == [(40.0, 100.0)]

    def test_corrupted_report_is_scaled(self):
        from repro.runtime.selfanalyzer import PerformanceReport
        report = PerformanceReport(
            job_id=1, time=0.0, iteration=5, procs=4,
            speedup=3.0, iter_time=1.0,
        )
        scaled = report._replace(speedup=report.speedup * 1.5)
        assert scaled.speedup == pytest.approx(4.5)
        assert scaled.efficiency == pytest.approx(4.5 / 4)
