"""Table 3 — w3 with apsi requesting 30 processors (not tuned), 60% load.

Paper: Equip 949/102 s (bt resp/exec) and 890/107 s (apsi), total
1993 s at ML 4; PDPA 95/88 and 107/98, total 427 s at ML 29 — i.e.
PDPA wins response time roughly tenfold and the total workload time
~4.7x, at a small execution-time cost.  The shape: large response-time
and total-time wins driven by PDPA shrinking apsi to its frontier and
raising the multiprogramming level.
"""

from repro.experiments import tables


def test_table3_w3_untuned(config):
    result = tables.run_table3(config=config)
    print()
    print(tables.render_table3(result))

    # PDPA wins response time for both applications...
    assert result.speedup_percent("bt.A", "response") > 50
    assert result.speedup_percent("apsi", "response") > 50
    # ...and the total workload execution time.
    assert result.total_speedup_percent() > 30
    # Execution-time cost stays bounded (paper: +9..15% for PDPA there;
    # negative numbers mean PDPA paid execution time).
    assert result.speedup_percent("apsi", "execution") > -40
    # The multiprogramming-level column: PDPA far above the fixed 4.
    assert result.equip.max_mpl <= 4
    assert result.pdpa.max_mpl > 6
    print(f"\nML column: Equip {result.equip.max_mpl}, PDPA {result.pdpa.max_mpl} "
          f"(paper: 4 vs 29)")
