"""Tests for the ablation harnesses."""

import pytest

from repro.experiments.ablations import (
    FixedMplPDPA,
    render_noise_sweep,
    render_rows,
    run_coordination_ablation,
    run_noise_sweep,
    run_relspeedup_ablation,
    run_target_sweep,
)
from repro.experiments.common import ExperimentConfig

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
