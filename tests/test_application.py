"""Unit tests for the application model."""

import pytest

from repro.apps.application import AppClass, ApplicationSpec, IterativeApplication
from repro.apps.catalog import scaled_spec
from repro.apps.speedup import AmdahlSpeedup


def make_spec(**overrides):
    defaults = dict(
        name="t",
        app_class=AppClass.HIGH,
        speedup_model=AmdahlSpeedup(0.0),
        iterations=10,
        t_iter_seq=2.0,
        t_startup=1.0,
        t_teardown=0.5,
        default_request=8,
    )
    defaults.update(overrides)
    return ApplicationSpec(**defaults)


class TestApplicationSpec:
    def test_sequential_work(self):
        spec = make_spec()
        assert spec.sequential_work == pytest.approx(1.0 + 10 * 2.0 + 0.5)

    def test_execution_time_linear_app(self):
        spec = make_spec()
        # 10 iterations of 2s at speedup 4 plus the serial phases.
        assert spec.execution_time(4) == pytest.approx(1.0 + 10 * 0.5 + 0.5)

    def test_execution_time_one_proc_equals_sequential_work(self):
        spec = make_spec()
        assert spec.execution_time(1) == pytest.approx(spec.sequential_work)

    def test_cpu_demand_uses_default_request(self):
        spec = make_spec()
        assert spec.cpu_demand() == pytest.approx(8 * spec.execution_time(8))

    def test_cpu_demand_explicit_procs(self):
        spec = make_spec()
        assert spec.cpu_demand(2) == pytest.approx(2 * spec.execution_time(2))

    def test_with_request(self):
        spec = make_spec().with_request(30)
        assert spec.default_request == 30
        assert spec.name == "t"

    def test_execution_time_rejects_nonpositive_procs(self):
        with pytest.raises(ValueError):
            make_spec().execution_time(0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(iterations=0),
            dict(t_iter_seq=0.0),
            dict(t_startup=-1.0),
            dict(default_request=0),
            dict(measurement_overhead=-0.1),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            make_spec(**bad)


class TestIterativeApplication:
    def test_iteration_accounting(self):
        app = IterativeApplication(make_spec())
        assert app.remaining_iterations == 10
        app.record_iteration()
        assert app.completed_iterations == 1
        assert app.remaining_iterations == 9
        app.record_iteration()
        assert (app.completed_iterations, app.remaining_iterations) == (2, 8)
        assert not app.finished

    def test_cannot_record_past_the_end(self):
        app = IterativeApplication(make_spec(iterations=1))
        app.record_iteration()
        with pytest.raises(RuntimeError):
            app.record_iteration()

    def test_cannot_record_after_finish(self):
        app = IterativeApplication(make_spec())
        app.finished = True
        with pytest.raises(RuntimeError):
            app.record_iteration()

    def test_iteration_duration_basic(self):
        app = IterativeApplication(make_spec())
        assert app.iteration_duration(4) == pytest.approx(0.5)

    def test_iteration_duration_with_noise(self):
        app = IterativeApplication(make_spec())
        assert app.iteration_duration(4, noise_factor=1.1) == pytest.approx(0.55)

    def test_iteration_duration_with_measurement_overhead(self):
        app = IterativeApplication(make_spec(measurement_overhead=0.10))
        assert app.iteration_duration(4) == pytest.approx(0.5 * 1.10)

    def test_reallocation_penalty_applies_once(self):
        spec = make_spec(realloc_penalty=0.2, realloc_penalty_per_cpu=0.05)
        app = IterativeApplication(spec)
        undisturbed = app.iteration_duration(4, alloc_changed_by=0)
        disturbed = app.iteration_duration(4, alloc_changed_by=3)
        assert disturbed == pytest.approx(undisturbed + 0.2 + 3 * 0.05)

    def test_penalty_symmetric_in_direction(self):
        spec = make_spec(realloc_penalty=0.2, realloc_penalty_per_cpu=0.05)
        app = IterativeApplication(spec)
        assert app.iteration_duration(4, alloc_changed_by=-3) == pytest.approx(
            app.iteration_duration(4, alloc_changed_by=3)
        )

    def test_zero_procs_rejected(self):
        app = IterativeApplication(make_spec())
        with pytest.raises(ValueError):
            app.iteration_duration(0)


class TestScaledSpec:
    def test_scales_iterations(self):
        spec = make_spec(iterations=10)
        assert scaled_spec(spec, 2.0).iterations == 20
        assert scaled_spec(spec, 0.5).iterations == 5

    def test_never_below_one_iteration(self):
        spec = make_spec(iterations=10)
        assert scaled_spec(spec, 0.01).iterations == 1

    def test_preserves_other_fields(self):
        spec = make_spec()
        scaled = scaled_spec(spec, 3.0)
        assert scaled.t_iter_seq == spec.t_iter_seq
        assert scaled.default_request == spec.default_request
        assert scaled.speedup_model is spec.speedup_model

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            scaled_spec(make_spec(), 0.0)
