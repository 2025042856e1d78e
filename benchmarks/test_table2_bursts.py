"""Table 2 — migrations and burst statistics (w1, load 100%).

Paper measurements: IRIX 159,865 migrations / 243 ms bursts / 2,882
bursts per CPU; PDPA 66 / 10,782 ms / 41; Equipartition 325 /
11,375 ms / 43.  The shape to reproduce: IRIX migrations orders of
magnitude above the space-sharing policies, bursts ~50x shorter.
"""

from repro.experiments import fig5_table2


def test_table2_bursts(config):
    result = fig5_table2.run(policies=("IRIX", "PDPA", "Equip"), load=1.0, config=config)
    print()
    print(fig5_table2.render_table2(result))

    stats = result.burst_stats()
    irix, pdpa, equip = stats["IRIX"], stats["PDPA"], stats["Equip"]

    # Migrations: IRIX >> Equip >= PDPA (paper: 159,865 vs 325 vs 66).
    assert irix.migrations > 100 * max(pdpa.migrations, 1)
    assert irix.migrations > 50 * max(equip.migrations, 1)
    assert pdpa.migrations <= equip.migrations

    # Burst duration: IRIX near the scheduling quantum; space sharing
    # tens of times longer ("approximately 50 times less" in the paper).
    assert irix.avg_burst_time < 0.5
    assert pdpa.avg_burst_time > 10 * irix.avg_burst_time
    assert equip.avg_burst_time > 10 * irix.avg_burst_time

    # Bursts per CPU: IRIX in the hundreds/thousands, space sharing in
    # the tens.
    assert irix.avg_bursts_per_cpu > 10 * pdpa.avg_bursts_per_cpu
