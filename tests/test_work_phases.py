"""Tests for time-varying application behaviour (work phases)."""

import pytest

from repro.apps.application import AppClass, ApplicationSpec, IterativeApplication
from repro.apps.speedup import AmdahlSpeedup, TabulatedSpeedup
from repro.core.pdpa import PDPA
from repro.experiments.common import ExperimentConfig, run_jobs_with_policy
from repro.qs.job import Job
from tests.iteration_ends import record_iteration_ends


def phased_spec(phases, iterations=20, **overrides):
    defaults = dict(
        name="phased",
        app_class=AppClass.MEDIUM,
        speedup_model=AmdahlSpeedup(0.0),
        iterations=iterations,
        t_iter_seq=2.0,
        t_startup=0.0,
        t_teardown=0.0,
        default_request=8,
        work_phases=tuple(phases),
    )
    defaults.update(overrides)
    return ApplicationSpec(**defaults)


class TestSpec:
    def test_multiplier_before_first_phase_is_one(self):
        spec = phased_spec([(10, 2.0)])
        assert spec.work_multiplier_at(0) == 1.0
        assert spec.work_multiplier_at(9) == 1.0

    def test_multiplier_switches_at_phase_start(self):
        spec = phased_spec([(10, 2.0), (15, 0.5)])
        assert spec.work_multiplier_at(10) == 2.0
        assert spec.work_multiplier_at(14) == 2.0
        assert spec.work_multiplier_at(15) == 0.5

    def test_sequential_work_accounts_for_phases(self):
        spec = phased_spec([(10, 2.0)], iterations=20)
        # 10 iterations at 2s + 10 iterations at 4s.
        assert spec.sequential_work == pytest.approx(10 * 2.0 + 10 * 4.0)

    def test_execution_time_scales_with_phases(self):
        plain = phased_spec([], iterations=20)
        heavy = phased_spec([(0, 2.0)], iterations=20)
        assert heavy.execution_time(4) == pytest.approx(2 * plain.execution_time(4))

    @pytest.mark.parametrize("bad", [
        [(5, 2.0), (5, 3.0)],     # duplicate start
        [(9, 2.0), (4, 3.0)],     # unsorted
        [(5, 0.0)],               # non-positive multiplier
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            phased_spec(bad)


class TestIterationDurations:
    def test_durations_follow_the_phase(self):
        spec = phased_spec([(2, 3.0)], iterations=4)
        app = IterativeApplication(spec)
        durations = []
        for _ in range(4):
            d = app.iteration_duration(2)  # speedup 2
            durations.append(d)
            app.record_iteration()
        assert durations[0] == pytest.approx(1.0)
        assert durations[1] == pytest.approx(1.0)
        assert durations[2] == pytest.approx(3.0)
        assert durations[3] == pytest.approx(3.0)


class TestAnalyzerReset:
    """The §3.1 compiler-inserted baseline reset."""

    def _run(self, reset):
        from repro.machine.machine import Machine
        from repro.rm.equipartition import Equipartition
        from repro.rm.manager import SpaceSharedResourceManager
        from repro.runtime.nthlib import RuntimeConfig
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams

        spec = phased_spec([(10, 4.0)], iterations=20, default_request=8)
        sim = Simulator()
        machine = Machine(16)
        rm = SpaceSharedResourceManager(
            sim, machine, Equipartition(), RandomStreams(0),
            runtime_config=RuntimeConfig(
                noise_sigma=0.0, reset_analyzer_on_phase_change=reset
            ),
        )
        job = Job(1, spec, submit_time=0.0)
        with record_iteration_ends() as ends:
            rm.start_job(job)
            runtime = rm.runtimes[1]
            sim.run()
        # the last iteration is a measured one: its report is the
        # analyzer's estimate for its recorded duration
        job_id, iteration, procs, duration, _ = ends[sim][-1]
        assert (job_id, iteration) == (1, spec.iterations - 1)
        return procs, runtime.analyzer.estimate_speedup(procs, duration)

    def test_without_reset_speedups_go_stale(self):
        procs, speedup = self._run(reset=False)
        # After the 4x work increase, the stale baseline reads the
        # same allocation as a 4x lower speedup.
        assert speedup < 0.5 * procs  # true efficiency is 1.0

    def test_with_reset_speedups_recover(self):
        procs, speedup = self._run(reset=True)
        # Fresh baseline: the linear app measures ~perfect speedup again.
        assert speedup == pytest.approx(procs, rel=0.05)

    def test_reset_baseline_unit(self):
        from repro.runtime.selfanalyzer import SelfAnalyzer

        analyzer = SelfAnalyzer(1)
        analyzer.on_iteration(0.0, 0, 1, 10.0)
        assert not analyzer.in_baseline
        analyzer.reset_baseline()
        assert analyzer.in_baseline
        assert analyzer.t_base is None


class TestPdpaAdaptation:
    def test_stable_job_reacts_to_a_performance_drop(self):
        """§4.2.4: 'If the application performance changes, the next
        state and processor allocation could be modified.'

        The application scales well for its first half, then its
        parallel region degenerates (efficiency collapses at the same
        allocation).  PDPA must leave STABLE and shed processors.
        """
        # Phase 2 multiplies only the *parallel* work seen per
        # processor... we model the collapse by switching the measured
        # efficiency through the speedup curve: after iteration 30 the
        # iteration takes 4x longer, which the SelfAnalyzer reads as a
        # 4x lower speedup at the same processor count.
        spec = ApplicationSpec(
            name="collapsing",
            app_class=AppClass.MEDIUM,
            speedup_model=TabulatedSpeedup(
                [(1, 1.0), (8, 7.2), (16, 13.0), (24, 18.0)], name="good"
            ),
            iterations=80,
            t_iter_seq=2.0,
            t_startup=0.0,
            t_teardown=0.0,
            default_request=16,
            work_phases=((30, 4.0),),
        )
        config = ExperimentConfig(n_cpus=24, seed=1, noise_sigma=0.0)
        policy = PDPA(config.pdpa)
        out = run_jobs_with_policy(
            policy, [Job(1, spec, submit_time=0.0)], config
        )
        # The job completed, and PDPA shrank it after the phase change:
        # measured speedup dropped 4x (stale baseline), efficiency fell
        # below target, STABLE -> DEC.
        changes = [r for r in out.trace.reallocations if r.job_id == 1]
        assert changes[0].new_procs == 16
        assert changes[-1].new_procs < 16, (
            "PDPA should have shed processors after the working-set change"
        )

    def test_performance_improvement_reopens_growth(self):
        """The opposite direction: the region gets cheaper mid-run and
        measured speedups rise; a STABLE job may grow again."""
        spec = ApplicationSpec(
            name="improving",
            app_class=AppClass.MEDIUM,
            speedup_model=TabulatedSpeedup(
                [(1, 1.0), (8, 6.4), (16, 12.0), (24, 17.0)], name="ok"
            ),
            iterations=80,
            t_iter_seq=4.0,
            t_startup=0.0,
            t_teardown=0.0,
            default_request=24,
            work_phases=((30, 0.25),),
        )
        config = ExperimentConfig(n_cpus=24, seed=1, noise_sigma=0.0)
        policy = PDPA(config.pdpa)
        # A short rigid blocker squeezes the job's initial allocation
        # to 8 CPUs, leaving headroom to grow once it exits.
        blocker = ApplicationSpec(
            name="blocker", app_class=AppClass.HIGH,
            speedup_model=AmdahlSpeedup(0.0), iterations=10, t_iter_seq=16.0,
            t_startup=0.0, t_teardown=0.0, default_request=16, malleable=False,
        )
        jobs = [
            Job(1, blocker, submit_time=0.0),
            Job(2, spec, submit_time=1.0),
        ]
        out = run_jobs_with_policy(policy, jobs, config)
        changes = [r.new_procs for r in out.trace.reallocations if r.job_id == 2]
        # After the work drops 4x, measured speedup at the same procs
        # rises 4x; efficiency exceeds both high_eff and the settled
        # reference -> INC, growing past the squeezed start.
        assert max(changes) > changes[0]
