#!/usr/bin/env python3
"""An untuned compute server: why a target efficiency matters.

The paper's motivating scenario: "users usually are nonexpert and the
operating system cannot only rely on the information they provide."
Here every user requests 30 processors for every job — including the
apsi jobs that cannot use more than 2.

Under Equipartition the requests are honoured proportionally and the
machine is clogged by jobs wasting processors.  PDPA measures each
application at runtime, shrinks the non-scalable jobs to the largest
allocation that sustains the 0.7 target efficiency, and uses the
reclaimed processors to raise the multiprogramming level.

This is the experiment behind the paper's Tables 3 and 4.

Run:  python examples/untuned_server.py
"""

from repro.experiments.common import ExperimentConfig, run_workload
from repro.experiments.tables import render_table3, render_table4, run_table3, run_table4
from repro.metrics.paraver import allocation_timeline


def main() -> None:
    config = ExperimentConfig(seed=7)

    print("Scenario 1 — half the load is apsi, submitted with request=30")
    table3 = run_table3(config)
    print(render_table3(table3))
    print()
    print(f"PDPA raised the multiprogramming level to {table3.pdpa.max_mpl} jobs;")
    print(f"Equipartition stayed at its fixed level of {table3.equip.max_mpl}.")

    # Show PDPA's search shrinking one apsi job from 30 CPUs down: the
    # table only keeps results, so rerun the PDPA cell for its trace.
    pdpa = run_workload("PDPA", "w3", 0.6, config, request_overrides={"apsi": 30})
    apsi_jobs = [j for j in pdpa.jobs if j.app_name == "apsi"]
    steps = allocation_timeline(pdpa.trace, apsi_jobs[0].job_id)
    path = " -> ".join(str(procs) for _, procs in steps)
    print(f"PDPA's allocation search for apsi job {apsi_jobs[0].job_id}: {path}")

    print()
    print("Scenario 2 — all four applications submitted with request=30")
    table4 = run_table4(config)
    print(render_table4(table4))
    print()
    print("Reading the % row: positive = PDPA better (the paper reports the")
    print("same convention; execution time is sometimes sacrificed, response")
    print("time improves across the board).")


if __name__ == "__main__":
    main()
