"""Fig. 6 — workload 2 (bt.A + hydro2d): response and execution times.

Paper shape: Equipartition and PDPA significantly improve IRIX and
Equal_efficiency, with a smooth response-time increase in load.  PDPA
allocates ~20 CPUs to bt and ~9-10 to hydro2d (vs ~15/15 under
Equipartition).
"""

from repro.experiments import workloads
from repro.metrics.paraver import mean_allocation


def test_fig6_workload2(config, seeds):
    comparison = workloads.run_comparison(
        "w2", loads=(0.6, 0.8, 1.0), seeds=seeds, config=config
    )
    print()
    print(workloads.render(comparison, title="[Fig. 6]"))

    # PDPA's differentiated allocation: more to bt than to hydro2d.
    out = comparison.raw[("PDPA", 1.0)][0]
    full_run = None
    # Re-derive allocations from one traced PDPA run.
    from repro.experiments.common import run_workload
    full_run = run_workload("PDPA", "w2", 1.0, config)
    allocs = {"bt.A": [], "hydro2d": []}
    for job in full_run.jobs:
        allocs[job.app_name].append(mean_allocation(full_run.trace, job.job_id))
    bt_mean = sum(allocs["bt.A"]) / len(allocs["bt.A"])
    hydro_mean = sum(allocs["hydro2d"]) / len(allocs["hydro2d"])
    print(f"\nPDPA mean allocations at 100% load: bt.A {bt_mean:.1f}, "
          f"hydro2d {hydro_mean:.1f} (paper: ~20 and ~9)")
    assert bt_mean > hydro_mean
    assert 6 <= hydro_mean <= 14

    # PDPA and Equip beat Equal_efficiency on hydro2d response.
    assert comparison.ratio("hydro2d", "response", "PDPA", "Equal_eff", 1.0) < 1.1
    # Smooth growth in load for PDPA: response at 100% is not
    # catastrophically above 60%.
    series = comparison.series("PDPA", "bt.A", "response")
    assert series[-1] < 4 * series[0]
