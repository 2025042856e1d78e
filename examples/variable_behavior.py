#!/usr/bin/env python3
"""Applications that change behaviour mid-run (paper §3.1).

"When codes have an iterative parallel region with a variable working
set, this could result in incorrect speedup values [...].  However, if
calls to SelfAnalyzer are automatically inserted by the compiler, this
situation could be avoided by resetting data."

This example builds a solver whose working set quadruples a third of
the way through and shows three things:

1. without the reset, the SelfAnalyzer's stale baseline reads the
   phase change as a 4x *speedup collapse*;
2. PDPA still reacts correctly — its STABLE state watches for
   performance *changes*, so the job is shrunk toward the (apparently)
   new efficiency frontier;
3. with the compiler-inserted reset, measurements recover and the
   allocation is left alone.

Run:  python examples/variable_behavior.py
"""

from dataclasses import replace

from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.speedup import TabulatedSpeedup
from repro.experiments.common import ExperimentConfig, run_jobs
from repro.metrics.paraver import allocation_timeline
from repro.qs.job import Job

SOLVER = ApplicationSpec(
    name="adaptive-mesh",
    app_class=AppClass.MEDIUM,
    speedup_model=TabulatedSpeedup(
        [(1, 1.0), (8, 7.2), (16, 13.0), (24, 18.0)], name="mesh"
    ),
    iterations=90,
    t_iter_seq=2.0,
    default_request=16,
    # After iteration 30 the mesh refines: 4x more work per iteration.
    work_phases=((30, 4.0),),
)


def run(reset: bool):
    config = ExperimentConfig(n_cpus=24, seed=13, noise_sigma=0.0)
    config = replace(config)  # fresh instance per run
    from repro.runtime.nthlib import RuntimeConfig

    runtime = RuntimeConfig(noise_sigma=0.0,
                            reset_analyzer_on_phase_change=reset)
    # run_jobs builds its own runtime config; use the lower-level entry
    # point so we control the analyzer-reset flag.
    from repro.machine.machine import Machine
    from repro.metrics.trace import TraceRecorder
    from repro.core.pdpa import PDPA
    from repro.qs.queuing import NanosQS
    from repro.rm.manager import SpaceSharedResourceManager
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams

    sim = Simulator()
    trace = TraceRecorder(config.n_cpus)
    machine = Machine(config.n_cpus, trace=trace)
    rm = SpaceSharedResourceManager(
        sim, machine, PDPA(config.pdpa), RandomStreams(config.seed), trace, runtime
    )
    job = Job(1, SOLVER, submit_time=0.0)
    qs = NanosQS(sim, rm, [job], trace)
    qs.schedule_submissions()
    sim.run()
    return job, trace


def main() -> None:
    print(f"solver: 90 iterations, working set quadruples at iteration 30")
    print(f"request {SOLVER.default_request} CPUs on a 24-CPU machine\n")
    for reset in (False, True):
        job, trace = run(reset)
        path = " -> ".join(str(p) for _, p in allocation_timeline(trace, 1))
        label = "with    reset" if reset else "without reset"
        print(f"{label}: allocations {path}; execution {job.execution_time:.1f} s")
    print()
    print("Without the reset, the stale baseline makes the phase change look")
    print("like an efficiency collapse: PDPA (correctly, given what it can")
    print("see) shrinks the job.  With the compiler-inserted reset the")
    print("measurements recover and the allocation is kept — the behaviour")
    print("the paper recommends for variable-working-set codes.")


if __name__ == "__main__":
    main()
