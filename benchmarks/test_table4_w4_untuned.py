"""Table 4 — w4 with every application requesting 30 CPUs, 60% load.

Paper: PDPA improved the total workload execution time by 282% and the
individual response times from 109% up to 2,830%, "by only sacrificing
a maximum of 30 percent in the execution time of some applications"
(the paper reports negative speedups where Equipartition won).
"""

from repro.experiments import tables


def test_table4_w4_untuned(config):
    result = tables.run_table4(config=config)
    print()
    print(tables.render_table4(result))

    apps = ("swim", "bt.A", "hydro2d", "apsi")

    # Response time: PDPA wins for every application class.
    for app in apps:
        assert result.speedup_percent(app, "response") > 0, app
    # The biggest win is on the small jobs (swim in the paper: 2,830%).
    assert result.speedup_percent("swim", "response") > 100

    # Execution time: losses bounded (paper: worst case -30%).
    for app in apps:
        assert result.speedup_percent(app, "execution") > -40, app

    # Total workload execution time: a clear PDPA win.
    assert result.total_speedup_percent() > 20
