"""Tests for the memory-locality (page migration) model."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.fuzz.profiles import tier_settings
from repro.machine.memory import LocalityConfig, LocalityModel, _JobLocality


class TestConfig:
    def test_defaults_valid(self):
        LocalityConfig()

    @pytest.mark.parametrize("bad", [
        dict(max_slowdown=1.0),
        dict(max_slowdown=-0.1),
        dict(migration_tau=0.0),
        dict(floor=1.5),
        dict(floor=-0.1),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            LocalityConfig(**bad)


class TestLifecycle:
    def test_new_job_is_fully_local(self):
        model = LocalityModel()
        model.on_job_start(1, now=0.0)
        assert model.locality(1, 0.0) == pytest.approx(1.0)
        assert model.speed_factor(1, 0.0) == pytest.approx(1.0)

    def test_double_start_raises(self):
        model = LocalityModel()
        model.on_job_start(1, now=0.0)
        with pytest.raises(ValueError):
            model.on_job_start(1, now=1.0)

    def test_untracked_job_runs_at_full_speed(self):
        model = LocalityModel()
        assert model.speed_factor(42, 10.0) == pytest.approx(1.0)

    def test_finish_is_idempotent(self):
        model = LocalityModel()
        model.on_job_start(1, now=0.0)
        model.on_job_finish(1)
        model.on_job_finish(1)
        assert model.tracked_jobs == 0

    def test_realloc_on_untracked_job_raises(self):
        with pytest.raises(KeyError):
            LocalityModel().on_reallocation(9, 0, 1, 0.0)

    @pytest.mark.parametrize("kept,size", [(-1, 2), (3, 2), (0, 0)])
    def test_realloc_rejects_impossible_counts(self, kept, size):
        model = LocalityModel()
        model.on_job_start(1, now=0.0)
        with pytest.raises(ValueError):
            model.on_reallocation(1, kept, size, 1.0)


class TestReallocationImpact:
    def test_keeping_all_cpus_keeps_locality(self):
        model = LocalityModel()
        model.on_job_start(1, now=0.0)
        model.on_reallocation(1, 4, 4, now=1.0)
        assert model.locality(1, 1.0) == pytest.approx(1.0)

    def test_shrink_keeps_locality_of_retained_cpus(self):
        # Shrinking retains all CPUs of the new (smaller) partition.
        model = LocalityModel()
        model.on_job_start(1, now=0.0)
        model.on_reallocation(1, 2, 2, now=1.0)
        assert model.locality(1, 1.0) == pytest.approx(1.0)

    def test_growth_dilutes_locality(self):
        model = LocalityModel()
        model.on_job_start(1, now=0.0)
        model.on_reallocation(1, 2, 4, now=1.0)
        assert model.locality(1, 1.0) == pytest.approx(0.5)

    def test_full_displacement_hits_the_floor(self):
        config = LocalityConfig(floor=0.2)
        model = LocalityModel(config)
        model.on_job_start(1, now=0.0)
        model.on_reallocation(1, 0, 2, now=1.0)
        assert model.locality(1, 1.0) == pytest.approx(0.2)

    def test_repeated_reallocations_compound(self):
        model = LocalityModel(LocalityConfig(migration_tau=1000.0, floor=0.0))
        model.on_job_start(1, now=0.0)
        model.on_reallocation(1, 1, 2, now=0.0)   # 0.5
        model.on_reallocation(1, 1, 2, now=0.0)   # 0.25
        assert model.locality(1, 0.0) == pytest.approx(0.25)


def reallocate_by_sets(model, job_id, old_cpus, new_cpus, now):
    """Reference: the set formula the count API replaced.

    Locality drops to ``len(old & new) / len(new)`` of its current
    value, floored.
    """
    old_set, new_set = set(old_cpus), set(new_cpus)
    retained = len(old_set & new_set) / len(new_set)
    current = model.locality(job_id, now)
    model._jobs[job_id] = _JobLocality(
        value=max(model.config.floor, current * retained), since=now
    )


@st.composite
def reallocation_shapes(draw):
    """A partition history on 16 CPUs: each step is a shape with the
    CPU sets it stands for and the counts the resource manager passes
    for it (a resize keeps ``min(old, new)``; a failed CPU leaves
    ``current`` kept, replaced or not)."""
    partition = set(draw(st.lists(st.integers(0, 15), min_size=1, max_size=8, unique=True)))
    steps = []
    now = 0.0
    for _ in range(draw(st.integers(1, 12))):
        now += draw(st.floats(0.0, 20.0))
        free = sorted(set(range(16)) - partition)
        shapes = ["shrink", "fail-short"] if len(partition) > 1 else []
        shapes += ["grow", "fail-and-replace"] if free else []
        if not shapes:
            break
        shape = draw(st.sampled_from(shapes))
        old = sorted(partition)
        if shape == "shrink":
            # contained: the new partition is a subset of the old
            new = set(draw(st.lists(st.sampled_from(old), min_size=1,
                                    max_size=len(old) - 1, unique=True)))
            kept, size = min(len(old), len(new)), len(new)
        elif shape == "grow":
            # contains: the old partition plus free CPUs
            new = partition | set(draw(st.lists(st.sampled_from(free), min_size=1, unique=True)))
            kept, size = min(len(old), len(new)), len(new)
        else:
            # one CPU fails; the pool replaces it, or the job runs short
            current = len(partition) - 1
            new = partition - {draw(st.sampled_from(old))}
            if shape == "fail-and-replace":
                new = new | {draw(st.sampled_from(free))}
                kept, size = current, current + 1
            else:
                kept, size = current, current
        steps.append((now, old, sorted(new), kept, size))
        partition = new
    return steps


class TestCountsMatchSets:
    @tier_settings("determinism")
    @given(
        steps=reallocation_shapes(),
        floor=st.sampled_from([0.0, 0.2, 0.9]),
        tau=st.sampled_from([0.5, 5.0, 1000.0]),
    )
    def test_counts_leave_the_model_as_the_set_formula(self, steps, floor, tau):
        config = LocalityConfig(migration_tau=tau, floor=floor)
        by_counts, by_sets = LocalityModel(config), LocalityModel(config)
        by_counts.on_job_start(1, now=0.0)
        by_sets.on_job_start(1, now=0.0)
        for now, old, new, kept, size in steps:
            assert kept == len(set(old) & set(new)) and size == len(new)
            by_counts.on_reallocation(1, kept, size, now)
            reallocate_by_sets(by_sets, 1, old, new, now)
            assert pickle.dumps(by_counts) == pickle.dumps(by_sets)
            assert by_counts.speed_factor(1, now + 1.0) == by_sets.speed_factor(1, now + 1.0)


class TestRecovery:
    def test_locality_recovers_exponentially(self):
        config = LocalityConfig(migration_tau=2.0, floor=0.0)
        model = LocalityModel(config)
        model.on_job_start(1, now=0.0)
        model.on_reallocation(1, 0, 1, now=0.0)  # locality -> 0
        import math
        assert model.locality(1, 2.0) == pytest.approx(1 - math.exp(-1.0))
        assert model.locality(1, 20.0) > 0.999

    def test_speed_factor_bounds(self):
        config = LocalityConfig(max_slowdown=0.3, floor=0.0)
        model = LocalityModel(config)
        model.on_job_start(1, now=0.0)
        model.on_reallocation(1, 0, 1, now=0.0)
        assert model.speed_factor(1, 0.0) == pytest.approx(0.7)
        assert 0.7 <= model.speed_factor(1, 5.0) <= 1.0


class TestEndToEnd:
    def test_unstable_policy_pays_the_locality_tax(self):
        """Equal_efficiency loses more to locality than PDPA."""
        from dataclasses import replace

        from repro.experiments.common import ExperimentConfig, run_workload

        base = ExperimentConfig(seed=0)
        off = replace(base, locality=None)
        strong = replace(
            base, locality=LocalityConfig(max_slowdown=0.4, migration_tau=10.0)
        )

        def slowdown(policy):
            with_model = run_workload(policy, "w2", 1.0, strong).result
            without = run_workload(policy, "w2", 1.0, off).result
            return (with_model.mean_response_time / without.mean_response_time)

        assert slowdown("Equal_eff") > slowdown("PDPA") - 0.02

    def test_disabled_model_changes_nothing(self):
        from dataclasses import replace

        from repro.experiments.common import ExperimentConfig, run_workload

        off = replace(ExperimentConfig(seed=1), locality=None)
        a = run_workload("PDPA", "w3", 0.6, off).result
        b = run_workload("PDPA", "w3", 0.6, off).result
        assert a.mean_response_time == b.mean_response_time
