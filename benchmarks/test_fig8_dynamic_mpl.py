"""Fig. 8 — the multiprogramming level decided by PDPA over time.

Paper: "PDPA adapts the multiprogramming level to the characteristics
of the running applications, in such a way that it changes during the
complete execution of the workload" (w2, load 100%; it reached up to
six applications).
"""

from repro.experiments import fig7_fig8


def test_fig8_dynamic_mpl(config):
    timeline = fig7_fig8.run_fig8(workload="w2", load=1.0, config=config)
    print()
    print(fig7_fig8.render_fig8(timeline))

    levels = [level for _, level in timeline]
    peak = max(levels)
    print(f"\npeak multiprogramming level: {peak} (paper: up to 6 on w2)")

    # The level changes throughout the execution...
    assert len(set(levels)) >= 3
    # ...and exceeds the default of 4 at some point.
    assert peak >= 5
    # Level changes happen across the whole run, not only at startup.
    t_end = timeline[-1][0]
    changes = [t for (t, a), (_, b) in zip(timeline, timeline[1:]) if a != b]
    assert any(t > 0.5 * t_end for t in changes)
