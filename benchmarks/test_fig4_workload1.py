"""Fig. 4 — workload 1 (swim + bt.A): response and execution times.

Paper shape: Equipartition and PDPA far ahead of IRIX and
Equal_efficiency; Equipartition slightly ahead of PDPA (~10% on bt,
up to ~30% on swim) because w1 is PDPA's worst case — scalable, tuned
applications with "nothing to improve".
"""

from repro.experiments import workloads


def test_fig4_workload1(config, seeds):
    comparison = workloads.run_comparison(
        "w1", loads=(0.6, 0.8, 1.0), seeds=seeds, config=config
    )
    print()
    print(workloads.render(comparison, title="[Fig. 4]"))
    print()
    print(workloads.ascii_chart(comparison, "bt.A"))

    full = 1.0
    # PDPA close behind Equipartition (its worst case, bounded loss).
    for app in ("swim", "bt.A"):
        ratio = comparison.ratio(app, "response", "PDPA", "Equip", full)
        assert ratio < 1.7, f"PDPA should stay close to Equip on {app}"
    # Both coordinated space-sharing policies beat Equal_efficiency.
    for policy in ("PDPA", "Equip"):
        for app in ("swim", "bt.A"):
            assert comparison.ratio(app, "response", policy, "Equal_eff", full) < 1.05
    # IRIX execution times trail the space-sharing policies.
    assert comparison.ratio("bt.A", "execution", "IRIX", "Equip", full) > 1.05
