"""Tests for the ablation harnesses."""

import pytest

from repro.experiments.ablations import (
    FixedMplPDPA,
    render_noise_sweep,
    render_rows,
    run_batch_comparison,
    run_coordination_ablation,
    run_noise_sweep,
    run_relspeedup_ablation,
    run_step_sweep,
    run_target_sweep,
)
from repro.experiments.common import ExperimentConfig, build_session, workload_jobs
from repro.faults.scenarios import build_scenario
from repro.parallel.runner import SweepRunner
from repro.qs.backfill import BackfillQS
from repro.rm.batch import BatchFCFS
from repro.validate import validate_run

CONFIG = ExperimentConfig(seed=4)


class TestCoordination:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_coordination_ablation("w3", load=1.0, config=CONFIG)

    def test_three_configurations(self, rows):
        assert [r.label for r in rows] == ["PDPA (full)", "PDPA (fixed mpl)", "Equip"]

    def test_coordination_is_the_main_win(self, rows):
        full, fixed, equip = rows
        # Full PDPA's dynamic MPL beats both fixed-MPL configurations.
        assert full.mean_response < fixed.mean_response
        assert full.max_mpl > fixed.max_mpl
        assert fixed.max_mpl <= 4

    def test_render(self, rows):
        text = render_rows(rows, title="coordination")
        assert "coordination" in text
        assert "PDPA (fixed mpl)" in text


class TestRelativeSpeedup:
    def test_check_caps_superlinear_growth(self):
        allocs = run_relspeedup_ablation(config=CONFIG)
        # With the check, swim's INC search stops where its speedup
        # progression flattens (~20 CPUs on the calibrated curve);
        # without it, growth continues until efficiency itself drops
        # below high_eff (~28 CPUs).
        assert allocs["without"] >= allocs["with"] + 4
        assert 16 <= allocs["with"] <= 24


class TestBatchComparison:
    def test_tuned_workload_batch_is_competitive(self):
        from repro.experiments.ablations import run_batch_comparison

        rows = run_batch_comparison("w3", load=0.6, config=CONFIG)
        pdpa, backfill, plain = rows
        # With honest requests, exact-fit batch scheduling is within
        # the same league as PDPA (no 5x blowups either way).
        assert 0.2 < pdpa.mean_response / backfill.mean_response < 5.0

    def test_untuned_workload_pdpa_dominates(self):
        from repro.experiments.ablations import run_batch_comparison

        rows = run_batch_comparison(
            "w3", load=0.6, config=CONFIG, request_overrides={"apsi": 30}
        )
        pdpa, backfill, plain = rows
        assert pdpa.mean_response < 0.6 * backfill.mean_response
        assert pdpa.mean_response < 0.6 * plain.mean_response


class TestBatchWidth:
    """A batch job wider than the healthy machine runs on all of it."""

    def test_requests_wider_than_the_machine_complete(self):
        from repro.experiments.ablations import run_batch_comparison

        # every untuned w3 job asks for 30 CPUs of 16
        rows = run_batch_comparison("w3", 1.0, ExperimentConfig(n_cpus=16), {"apsi": 30})
        assert [row.label for row in rows] == ["PDPA", "Batch + EASY backfill", "Batch FCFS"]
        assert all(row.mean_response > 0 for row in rows)

    def test_rigid_job_folds_its_request_onto_the_machine(self, linear_app):
        from repro.experiments.common import build_session
        from repro.qs.job import Job
        from repro.rm.batch import BatchFCFS

        jobs = [Job(1, linear_app.as_rigid(), submit_time=0.0, request=12)]
        session = build_session(BatchFCFS(), jobs, ExperimentConfig(n_cpus=8), 1.0)
        session.run()
        out = session.finish()
        assert [(r.old_procs, r.new_procs) for r in out.trace.reallocations] == [(0, 8)]
        # 12 processes on 8 CPUs advance at S(12) * 8/12 = 8: 80 s of
        # sequential work take about 10 s
        assert jobs[0].end_time - jobs[0].start_time == pytest.approx(10.0, rel=0.05)


class TestBatchComparisonFaults:
    """The batch rows run on the shared stack, fault plan included."""

    FAULTED = ExperimentConfig(seed=0).with_faults(build_scenario("cpukill8", 60))

    def test_fault_plan_strikes_every_row(self):
        clean = run_batch_comparison("w3", load=0.6, config=ExperimentConfig(seed=0))
        faulted = run_batch_comparison("w3", load=0.6, config=self.FAULTED)
        assert [row.label for row in faulted] == [row.label for row in clean]
        for before, after in zip(clean, faulted):
            assert after.mean_response != before.mean_response, after.label

    def test_faulted_backfill_run_validates(self):
        session = build_session(
            BatchFCFS(), workload_jobs("w3", 0.6, self.FAULTED), self.FAULTED,
            0.6, qs_class=BackfillQS,
        )
        session.run()
        out = session.finish()
        assert any(record.kind == "cpu_fail" for record in out.trace.faults)
        assert validate_run(out) == []


class _Captured(Exception):
    pass


class _CapturingRunner(SweepRunner):
    """Records the cells a sweep submits instead of running them."""

    def run_serialized(self, cells):
        self.cells = list(cells)
        raise _Captured


@pytest.mark.parametrize("sweep, tag", [
    (run_noise_sweep, "/sigma=0.015"),
    (run_target_sweep, "/target_eff=0.7"),
    (run_step_sweep, "/step=4"),
])
def test_sweep_cells_are_labelled_by_their_value(sweep, tag):
    runner = _CapturingRunner()
    with pytest.raises(_Captured):
        sweep(config=CONFIG, runner=runner)
    labels = [cell.key for cell in runner.cells]
    assert len(set(labels)) == len(labels)
    assert any(label.endswith(tag) for label in labels)


class TestTargetSweep:
    def test_lower_target_means_larger_allocations(self):
        rows = run_target_sweep(targets=(0.5, 0.9), workload="w2",
                                load=0.8, config=CONFIG)
        assert len(rows) == 2
        by_target = {target: row for target, row in rows}
        # A stricter target packs more jobs (frees more processors).
        assert by_target[0.9].max_mpl >= by_target[0.5].max_mpl


class TestNoiseSweep:
    def test_equal_efficiency_degrades_faster(self):
        rows = run_noise_sweep(sigmas=(0.0, 0.05), workload="w2",
                               load=0.8, config=CONFIG)
        assert len(rows) == 2
        (s0, pdpa0, eq0), (s1, pdpa1, eq1) = rows
        assert s0 == 0.0 and s1 == 0.05
        # Noise inflates Equal_efficiency's reallocations much more
        # than PDPA's.
        assert (eq1 - eq0) > (pdpa1 - pdpa0)

    def test_render_labels_each_sigma_distinctly(self):
        rows = [(0.0, 38, 205), (0.015, 40, 310), (0.05, 44, 479), (0.1, 47, 620)]
        text = render_noise_sweep(rows, title="noise")
        labels = [line.split()[0] for line in text.splitlines()[-len(rows):]]
        assert labels == ["0", "0.015", "0.05", "0.1"]


class TestFixedMplPdpaAdmission:
    def test_acts_like_a_fixed_mpl_policy(self, linear_app):
        from repro.qs.job import Job
        from repro.rm.base import JobView, SystemView

        policy = FixedMplPDPA(mpl=2)
        jobs = {
            i: JobView(job=Job(i, linear_app, submit_time=0.0, request=8),
                       allocation=8)
            for i in (1, 2)
        }
        assert not policy.wants_admission(SystemView(60, jobs), queued_jobs=1)
        del jobs[2]
        assert policy.wants_admission(SystemView(60, jobs), queued_jobs=1)
