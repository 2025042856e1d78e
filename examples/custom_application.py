#!/usr/bin/env python3
"""Bring your own application: custom speedup curves and workloads.

The catalog applications reproduce the paper's Fig. 3, but the library
is not limited to them: any malleable iterative application can be
described with an :class:`~repro.apps.application.ApplicationSpec` and any speedup
behaviour with a :class:`~repro.apps.speedup.SpeedupCurve`.

This example models a fictional in-house CFD code with an Amdahl-law
serial fraction, builds a custom workload mixing it with the catalog's
apsi, and watches PDPA discover each job's sweet spot at runtime.

Run:  python examples/custom_application.py
"""

from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.catalog import APSI
from repro.apps.speedup import AmdahlSpeedup
from repro.experiments.common import ExperimentConfig, run_jobs
from repro.metrics.paraver import allocation_timeline, mean_allocation
from repro.qs.job import Job
from repro.qs.workload import WorkloadMix, generate_workload
from repro.sim.rng import RandomStreams

# A CFD solver with 3% serial fraction: efficiency crosses the 0.7
# target near 15 processors (1/(1+0.03*(p-1)) = 0.7 at p ~ 15.3).
CFD = ApplicationSpec(
    name="cfd",
    app_class=AppClass.MEDIUM,
    speedup_model=AmdahlSpeedup(serial_fraction=0.03, name="cfd"),
    iterations=80,
    t_iter_seq=6.0,
    default_request=32,
    measurement_overhead=0.02,
)


def main() -> None:
    config = ExperimentConfig(seed=3)
    mix = WorkloadMix("cfd-mix", {"cfd": 0.7, "apsi": 0.3})
    jobs = generate_workload(
        mix,
        load=0.8,
        n_cpus=config.n_cpus,
        streams=RandomStreams(config.seed).spawn("workload"),
        catalog={"cfd": CFD, "apsi": APSI},
    )
    print(f"generated {len(jobs)} jobs "
          f"({sum(1 for j in jobs if j.app_name == 'cfd')} cfd, "
          f"{sum(1 for j in jobs if j.app_name == 'apsi')} apsi)")

    out = run_jobs("PDPA", jobs, config, load=0.8)
    result = out.result

    print()
    for app, summary in sorted(result.by_app().items()):
        allocs = [
            mean_allocation(out.trace, job.job_id)
            for job in jobs
            if job.app_name == app
        ]
        mean_alloc = sum(allocs) / len(allocs)
        print(f"{app:5s}: {summary.count:2d} jobs, mean allocation "
              f"{mean_alloc:5.1f} CPUs (requested "
              f"{jobs[0].spec.default_request if app == 'cfd' else 2}), "
              f"mean response {summary.mean_response_time:6.1f} s")

    # Show the runtime search converging for the first CFD job: PDPA
    # knows nothing about the 3% serial fraction, yet lands near the
    # analytic 0.7-efficiency point (~15 CPUs).
    first_cfd = next(j for j in jobs if j.app_name == "cfd")
    steps = allocation_timeline(out.trace, first_cfd.job_id)
    print()
    print(f"PDPA's allocation path for cfd job {first_cfd.job_id}: "
          + " -> ".join(str(p) for _, p in steps))
    analytic = CFD.speedup_model  # efficiency(p) = 1/(1+0.03(p-1))
    for p in (steps[-1][1],):
        print(f"efficiency at the final allocation of {p}: "
              f"{analytic.efficiency(p):.2f} (target 0.70)")


if __name__ == "__main__":
    main()
