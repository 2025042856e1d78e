"""Fig. 3 — speedup curves of the four applications.

Paper: swim is superlinear, bt.A scales well, hydro2d is medium,
apsi does not scale at all.
"""

from repro.experiments import fig3


def test_fig3_speedup_curves():
    table = fig3.speedup_table()
    print()
    print(fig3.render())

    # Shape assertions straight from the paper's description.
    swim, bt = table["swim"], table["bt.A"]
    hydro, apsi = table["hydro2d"], table["apsi"]
    procs = list(fig3.DEFAULT_PROCS)

    # swim superlinear in the 8-16 range.
    for p in (8, 12, 16):
        assert swim[procs.index(p)] > p
    # bt.A: good scalability, eff >= 0.7 at 30 CPUs.
    assert bt[procs.index(30)] >= 0.7 * 30
    # hydro2d: medium, saturates near 12x.
    assert 9 <= hydro[procs.index(30)] <= 13
    # apsi: no scaling.
    assert max(apsi) < 2.0
