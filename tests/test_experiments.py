"""Tests for the experiment harnesses (small configurations)."""

import hashlib
import struct

import pytest

from repro.experiments import fig3, fig5_table2, fig7_fig8, tables, workloads
from repro.experiments.common import ExperimentConfig, average_results, run_workload
from repro.parallel import PoisonCellError, SupervisionPolicy, SweepRunner

CONFIG = ExperimentConfig(seed=2)

#: counts reaching every branch of the catalog's curves: zero, a
#: time-shared fraction, an interior non-integer, and points at and
#: past the last control point (60)
FIG3_BRANCH_PROCS = (0, 0.5, 1, 2.5, 13.7, 60, 64, 100)


def _table_digest(table):
    """SHA-256 over every value's little-endian double, apps by name."""
    h = hashlib.sha256()
    for name in sorted(table):
        for value in table[name]:
            h.update(struct.pack("<d", value))
    return h.hexdigest()


class TestFig3:
    @pytest.mark.parametrize("procs, digest", [
        (fig3.DEFAULT_PROCS,
         "bb79a0206010dc0e29bdb4dfbc12689002dd291413ec9536916b10ac5b6cff6d"),
        (FIG3_BRANCH_PROCS,
         "97df6be2a8281962ef7b41994babfe155fae13b85a19077ba62fcc33a9b93e34"),
    ], ids=["default", "branches"])
    def test_speedup_table_values_are_pinned(self, procs, digest):
        # Bit-exact: any change to a curve's arithmetic moves the digest.
        assert _table_digest(fig3.speedup_table(procs)) == digest

    def test_speedup_table_covers_catalog(self):
        table = fig3.speedup_table()
        assert set(table) == {"swim", "bt.A", "hydro2d", "apsi"}
        assert all(len(v) == len(fig3.DEFAULT_PROCS) for v in table.values())

    def test_sequential_point_is_one(self):
        table = fig3.speedup_table(procs=(1, 2))
        assert all(vals[0] == pytest.approx(1.0) for vals in table.values())

    def test_efficiency_table_consistent(self):
        procs = (1, 8, 30)
        speedups = fig3.speedup_table(procs)
        efficiencies = fig3.efficiency_table(procs)
        for app in speedups:
            for i, p in enumerate(procs):
                assert efficiencies[app][i] == pytest.approx(speedups[app][i] / p)

    def test_render_contains_chart_and_legend(self):
        text = fig3.render()
        assert "legend:" in text
        assert "procs" in text


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return workloads.run_comparison(
            "w3", loads=(0.6,), policies=("Equip", "PDPA"), seeds=(0,),
            config=CONFIG,
        )

    def test_structure(self, comparison):
        assert comparison.apps() == ["apsi", "bt.A"]
        assert set(comparison.data) == {("Equip", 0.6), ("PDPA", 0.6)}

    def test_series_shape(self, comparison):
        series = comparison.series("PDPA", "apsi", "response")
        assert len(series) == 1
        assert series[0] > 0

    def test_series_rejects_bad_metric(self, comparison):
        with pytest.raises(ValueError):
            comparison.series("PDPA", "apsi", "latency")

    def test_ratio(self, comparison):
        ratio = comparison.ratio("apsi", "response", "Equip", "PDPA", 0.6)
        assert ratio > 1.0  # PDPA wins on w3

    def test_render_mentions_policies_and_apps(self, comparison):
        text = workloads.render(comparison)
        assert "PDPA" in text and "Equip" in text
        assert "apsi" in text and "response" in text

    def test_render_single_seed_has_no_spread(self, comparison):
        text = workloads.render(comparison)
        assert "±" not in text

    def test_spread_zero_for_single_seed(self, comparison):
        assert comparison.spread("PDPA", "apsi", "response", 0.6) == 0.0

    def test_ascii_chart(self, comparison):
        chart = workloads.ascii_chart(comparison, "apsi")
        assert "legend:" in chart
        assert "E=Equip" in chart and "P=PDPA" in chart
        with pytest.raises(ValueError):
            workloads.ascii_chart(comparison, "apsi", height=2)

    def test_average_results(self):
        a = run_workload("PDPA", "w3", 0.6, CONFIG).result
        b = run_workload("PDPA", "w3", 0.6, CONFIG.with_seed(1)).result
        averaged = average_results([a, b])
        expected = (a.summary("apsi").mean_response_time
                    + b.summary("apsi").mean_response_time) / 2
        assert averaged["apsi"]["response"] == pytest.approx(expected)


class TestTables:
    def test_table1_matches_paper(self):
        text = tables.render_table1()
        assert "w1" in text and "50%" in text and "25%" in text

    def test_table3_shape(self):
        result = tables.run_table3(CONFIG)
        # PDPA's dynamic MPL exceeds Equipartition's fixed 4.
        assert result.pdpa.max_mpl > result.equip.max_mpl
        # PDPA wins response time on both applications.
        assert result.speedup_percent("bt.A", "response") > 0
        assert result.speedup_percent("apsi", "response") > 0
        text = tables.render_table3(result)
        assert "ML" in text and "Speedup" in text

    def test_table4_shape(self):
        result = tables.run_table4(CONFIG)
        assert result.total_speedup_percent() > 0
        text = tables.render_table4(result)
        assert "total exec" in text
        for app in ("swim", "bt.A", "hydro2d", "apsi"):
            assert app in text


class TestFig7Fig8:
    def test_mpl_sweep_grid(self):
        sweep = fig7_fig8.run_mpl_sweep(
            loads=(0.8,), mpls=(2, 4), policies=("Equip", "PDPA"),
            config=CONFIG,
        )
        assert len(sweep.results) == 4
        text = fig7_fig8.render_fig7(sweep)
        assert "ml" in text

    def test_pdpa_robust_to_low_mpl(self):
        sweep = fig7_fig8.run_mpl_sweep(
            loads=(1.0,), mpls=(2, 4), policies=("Equip", "PDPA"),
            config=CONFIG,
        )
        # Equipartition at ml=2 queues badly; PDPA barely changes.
        equip_gap = (sweep.cell("Equip", 2, 1.0).mean_response_time
                     / sweep.cell("Equip", 4, 1.0).mean_response_time)
        pdpa_gap = (sweep.cell("PDPA", 2, 1.0).mean_response_time
                    / sweep.cell("PDPA", 4, 1.0).mean_response_time)
        assert pdpa_gap < equip_gap

    def test_fig8_timeline_and_render(self):
        timeline = fig7_fig8.run_fig8("w3", 0.6, CONFIG)
        assert timeline
        peak = max(level for _, level in timeline)
        assert peak > 4  # PDPA exceeded the default level
        text = fig7_fig8.render_fig8(timeline, width=40)
        assert "Fig. 8" in text
        assert f"peak {peak}" in text

    def test_fig8_quarantined_cell_raises_poison(self):
        # A quarantined cell leaves no record; run_fig8 must say which
        # cell failed and why instead of indexing the hole.
        runner = SweepRunner(supervision=SupervisionPolicy(retries=0))
        with pytest.raises(PoisonCellError) as exc:
            fig7_fig8.run_fig8(
                workload="w9", config=ExperimentConfig(n_cpus=16, duration=30.0),
                runner=runner,
            )
        assert "fig8/w9/load=1/seed=0" in str(exc.value)
        assert "KeyError" in str(exc.value)

    def test_fig8_render_empty(self):
        assert "no samples" in fig7_fig8.render_fig8([])


class TestFig5Table2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5_table2.run(config=CONFIG)

    def test_burst_stats_per_policy(self, result):
        stats = result.burst_stats()
        assert set(stats) == {"IRIX", "PDPA", "Equip"}
        assert stats["IRIX"].migrations > stats["PDPA"].migrations

    def test_render_table2(self, result):
        text = fig5_table2.render_table2(result)
        assert "migrations" in text and "IRIX" in text

    def test_render_fig5_has_both_views(self, result):
        text = fig5_table2.render_fig5(result, width=40)
        assert "execution view under IRIX" in text
        assert "execution view under PDPA" in text
