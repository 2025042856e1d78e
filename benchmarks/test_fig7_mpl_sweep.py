"""Fig. 7 — workload 2 under multiprogramming levels 2, 3 and 4.

Paper: "PDPA is more robust than Equipartition to the multiprogramming
level decided by the system administrator: PDPA dynamically detects
the optimal value for any moment.  In fact, the ideal decision in a
system with PDPA is to set the multiprogramming level to a small value
and let PDPA dynamically adjust it."
"""

from repro.experiments import fig7_fig8


def test_fig7_mpl_sweep(config):
    sweep = fig7_fig8.run_mpl_sweep(
        workload="w2", loads=(0.8, 1.0), mpls=(2, 3, 4),
        policies=("Equip", "PDPA"), config=config,
    )
    print()
    print(fig7_fig8.render_fig7(sweep))

    for load in (0.8, 1.0):
        equip = [sweep.cell("Equip", ml, load).mean_response_time
                 for ml in (2, 3, 4)]
        pdpa = [sweep.cell("PDPA", ml, load).mean_response_time
                for ml in (2, 3, 4)]
        equip_spread = max(equip) / min(equip)
        pdpa_spread = max(pdpa) / min(pdpa)
        print(f"load {load:.0%}: response-time spread across ml "
              f"Equip {equip_spread:.2f}x, PDPA {pdpa_spread:.2f}x")
        # PDPA's outcome barely depends on the administrator's choice.
        assert pdpa_spread < equip_spread

    # With ml=2 PDPA grows the level dynamically; Equip cannot.
    assert sweep.cell("PDPA", 2, 1.0).max_mpl > 2
    assert sweep.cell("Equip", 2, 1.0).max_mpl <= 2
