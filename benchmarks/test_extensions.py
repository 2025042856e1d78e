"""Bench for the memory-locality substrate model.

Not a paper figure — it quantifies the page-migration locality model
behind the paper's stability argument.
"""

from dataclasses import replace

from repro.experiments.common import run_workload
from repro.machine.memory import LocalityConfig
from repro.metrics.stats import format_table


def test_extension_locality_tax(config):
    """Locality model: unstable policies pay, stable ones do not."""

    def run_grid():
        strong = replace(
            config, locality=LocalityConfig(max_slowdown=0.4, migration_tau=10.0)
        )
        off = replace(config, locality=None)
        grid = {}
        for policy in ("PDPA", "Equip", "Equal_eff"):
            with_model = run_workload(policy, "w2", 1.0, strong).result
            without = run_workload(policy, "w2", 1.0, off).result
            grid[policy] = (
                without.mean_response_time,
                with_model.mean_response_time,
                with_model.reallocations,
            )
        return grid

    grid = run_grid()
    print()
    rows = []
    for policy, (base, taxed, reallocs) in grid.items():
        rows.append([
            policy, round(base, 1), round(taxed, 1),
            f"{(taxed / base - 1) * 100:+.1f}%", reallocs,
        ])
    print(format_table(
        ["policy", "resp, no model (s)", "resp, strong model (s)",
         "locality tax", "reallocs"],
        rows,
        title="Extension — page-migration locality tax (w2, 100%)",
    ))
    pdpa_tax = grid["PDPA"][1] / grid["PDPA"][0]
    eq_tax = grid["Equal_eff"][1] / grid["Equal_eff"][0]
    assert eq_tax >= pdpa_tax - 0.03, (
        "the unstable policy should pay at least as much locality tax"
    )
