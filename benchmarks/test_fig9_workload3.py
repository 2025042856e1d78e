"""Fig. 9 — workload 3 (bt.A + apsi): response and execution times.

Paper shape: PDPA "significantly improves the remaining of evaluated
policies because both bt and apsi do not have to wait so many time
queued" — the coordinated multiprogramming level is the whole story
(it reached 34 jobs in the paper; the fixed-MPL policies sit at 4).
Execution-time cost for bt is bounded (~30%).
"""

from repro.experiments import workloads
from repro.metrics.paraver import max_mpl


def test_fig9_workload3(config, seeds):
    comparison = workloads.run_comparison(
        "w3", loads=(0.6, 0.8, 1.0), seeds=seeds, config=config
    )
    print()
    print(workloads.render(comparison, title="[Fig. 9]"))
    print()
    print(workloads.ascii_chart(comparison, "apsi"))
    print()
    print(workloads.ascii_chart(comparison, "bt.A"))

    for load in (0.8, 1.0):
        for other in ("IRIX", "Equip", "Equal_eff"):
            for app in ("bt.A", "apsi"):
                ratio = comparison.ratio(app, "response", other, "PDPA", load)
                assert ratio > 1.5, (
                    f"PDPA should clearly beat {other} on {app} at {load:.0%}"
                )

    # The mechanism: PDPA's multiprogramming level rises far above 4.
    mpls = [r.max_mpl for r in comparison.raw[("PDPA", 1.0)]]
    print(f"\nPDPA max multiprogramming level at 100% load: {max(mpls)} "
          f"(paper: up to 34; fixed-MPL policies: 4)")
    assert max(mpls) > 8
    for other in ("IRIX", "Equip", "Equal_eff"):
        assert all(r.max_mpl <= 4 for r in comparison.raw[(other, 1.0)])

    # Execution-time sacrifice for bt is bounded.
    ratio = comparison.ratio("bt.A", "execution", "PDPA", "Equip", 1.0)
    assert ratio < 2.0
