"""Edge-case tests for branches not covered by the main suites."""

import pytest

from repro.machine.machine import Machine, MachineError
from repro.machine.topology import NumaTopology
from repro.metrics.paraver import _app_symbols, execution_view
from repro.metrics.trace import Burst, TraceRecorder
from repro.qs.job import Job
from repro.rm.base import JobView, SchedulingPolicy, SystemView


class TestMachineEdges:
    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="topology covers"):
            Machine(8, topology=NumaTopology(16))

    def test_custom_topology_accepted(self):
        machine = Machine(8, topology=NumaTopology(8, cpus_per_node=4))
        machine.start_job(1, "a", 4, 0.0)
        assert machine.topology.spread(machine.partition_of(1)) == 1

    def test_partition_of_unknown_job_is_empty(self):
        assert Machine(4).partition_of(99) == []

    def test_resize_growth_beyond_free_rejected(self):
        machine = Machine(8)
        machine.start_job(1, "a", 4, 0.0)
        machine.start_job(2, "b", 4, 0.0)
        with pytest.raises(MachineError, match="growing"):
            machine.resize_job(1, 6, 1.0)

    def test_invalid_machine_size(self):
        with pytest.raises(ValueError):
            Machine(0)


class TestExecutionViewEdges:
    def test_app_symbol_fallback_on_duplicate_initials(self):
        trace = TraceRecorder(2)
        trace.record_burst(Burst(0, 1, "swim", 0.0, 5.0))
        trace.record_burst(Burst(1, 2, "sort", 0.0, 5.0))
        symbols = _app_symbols(trace)
        assert len(set(symbols.values())) == 2  # distinct despite 's'/'s'

    def test_explicit_horizon(self):
        trace = TraceRecorder(1)
        trace.record_burst(Burst(0, 1, "a", 0.0, 10.0))
        view = execution_view(trace, width=10, t_end=20.0)
        row = next(l for l in view.splitlines() if l.startswith("cpu"))
        cells = row.split("|")[1]
        # Second half of the horizon is idle.
        assert cells[:5].count("A") == 5
        assert set(cells[5:]) == {"."}

    def test_burst_beyond_horizon_ignored(self):
        trace = TraceRecorder(1)
        trace.record_burst(Burst(0, 1, "a", 50.0, 60.0))
        view = execution_view(trace, width=10, t_end=10.0)
        row = next(l for l in view.splitlines() if l.startswith("cpu"))
        assert "A" not in row


class TestPolicyContractEdges:
    class NoAllocationForNewcomer(SchedulingPolicy):
        name = "broken"

        def on_job_arrival(self, job, system):
            return {}  # forgets the arriving job

        def on_job_completion(self, job, system):
            return {}

    def test_validate_decision_requires_the_arriving_job(self, linear_app):
        policy = self.NoAllocationForNewcomer()
        job = Job(1, linear_app, submit_time=0.0)
        system = SystemView(16, {})
        with pytest.raises(ValueError, match="lacks the arriving job"):
            policy.validate_decision({}, system, arriving=job)

    def test_system_view_rejects_bad_total(self):
        with pytest.raises(ValueError):
            SystemView(0, {})

    def test_job_view_properties(self, linear_app):
        job = Job(1, linear_app, submit_time=0.0, request=12)
        view = JobView(job=job, allocation=6)
        assert view.job_id == 1
        assert view.request == 12
        assert view.efficiency is None


class TestComparisonEdges:
    def test_ratio_zero_division(self):
        from repro.experiments.workloads import ComparisonResult

        comparison = ComparisonResult("w1", (1.0,), ("A", "B"))
        comparison.data[("A", 1.0)] = {"x": {"response": 5.0, "execution": 5.0}}
        comparison.data[("B", 1.0)] = {"x": {"response": 0.0, "execution": 1.0}}
        with pytest.raises(ZeroDivisionError):
            comparison.ratio("x", "response", "A", "B", 1.0)

