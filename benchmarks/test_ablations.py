"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures — these isolate PDPA's mechanisms:
coordination (dynamic MPL) vs the allocation search, the
RelativeSpeedup check, the target-efficiency knob, and noise
sensitivity vs Equal_efficiency.
"""

from repro.experiments import ablations
from repro.metrics.stats import format_table


def test_ablation_coordination(config):
    rows = ablations.run_coordination_ablation(workload="w3", load=1.0, config=config)
    print()
    print(ablations.render_rows(rows, "Ablation — coordination (w3, 100%)"))
    full, fixed, equip = rows
    # The dynamic MPL is the dominant term on w3.
    assert full.mean_response < fixed.mean_response
    # The allocation search alone still does not hurt vs Equip.
    assert fixed.mean_response < 1.5 * equip.mean_response


def test_ablation_relative_speedup(config):
    allocs = ablations.run_relspeedup_ablation(config=config)
    print()
    print(f"final swim allocation with RelativeSpeedup check:    {allocs['with']:.0f}")
    print(f"final swim allocation without RelativeSpeedup check: {allocs['without']:.0f}")
    print("(the check stops the superlinear code once its speedup "
          "progression flattens — the paper's explanation for swim "
          "receiving fewer processors than bt)")
    assert allocs["without"] >= allocs["with"] + 4


def test_ablation_batch_vs_coordination(config):
    """PDPA vs batch FCFS (with and without EASY backfilling).

    Run on the untuned w3 (apsi requesting 30): the traditional
    schedulers must trust the request, PDPA measures and shrinks.
    """
    results = ablations.run_batch_comparison(
        workload="w3", load=1.0, config=config, request_overrides={"apsi": 30}
    )
    print()
    print(ablations.render_rows(
        results, "Ablation — PDPA vs batch scheduling (w3 untuned, 100%)"
    ))
    pdpa, backfill, plain = results
    assert pdpa.mean_response < 0.5 * backfill.mean_response
    assert pdpa.mean_response < 0.5 * plain.mean_response
    # Backfilling never hurts the batch scheduler.
    assert backfill.mean_response <= plain.mean_response + 1e-6


def test_ablation_target_sweep(config):
    rows = ablations.run_target_sweep(
        targets=(0.5, 0.7, 0.9), workload="w2", load=1.0, config=config
    )
    print()
    print(format_table(
        ["target_eff", "mean resp (s)", "workload exec (s)", "max mpl"],
        [[t, round(r.mean_response, 1), round(r.total_execution, 1), r.max_mpl]
         for t, r in rows],
        title="Ablation — target efficiency sweep (w2, 100%)",
    ))
    by_target = dict(rows)
    # A stricter target frees processors and lifts the MPL.
    assert by_target[0.9].max_mpl >= by_target[0.5].max_mpl


def test_ablation_step_sweep(config):
    """Search granularity: transitions vs convergence speed."""
    rows = ablations.run_step_sweep(
        steps=(1, 2, 4, 8), workload="w3", load=1.0, config=config
    )
    print()
    print(format_table(
        ["step", "mean resp (s)", "reallocs", "max mpl", "apsi exec (s)"],
        [[step, round(r.mean_response, 1), r.reallocations, r.max_mpl,
          round(apsi, 1)] for step, r, apsi in rows],
        title="Ablation — PDPA search step (w3 untuned, 100%)",
    ))
    reallocs = [r.reallocations for _, r, _ in rows]
    # Coarser steps need fewer transitions...
    assert reallocs == sorted(reallocs, reverse=True)
    # ...and every configuration stays in the same performance league
    # (the thresholds, not the step, carry the policy).
    responses = [r.mean_response for _, r, _ in rows]
    assert max(responses) < 1.6 * min(responses)


def test_ablation_noise_sensitivity(config):
    rows = ablations.run_noise_sweep(
        sigmas=(0.0, 0.015, 0.05), workload="w2", load=1.0, config=config
    )
    print()
    print(ablations.render_noise_sweep(
        rows, "Ablation — measurement-noise sensitivity (w2, 100%)"
    ))
    # Equal_efficiency's reallocation count explodes with noise;
    # PDPA's stays of the same order.
    (_, pdpa_clean, eq_clean), *_, (_, pdpa_noisy, eq_noisy) = rows
    assert eq_noisy - eq_clean > pdpa_noisy - pdpa_clean
    assert pdpa_noisy < 3 * max(pdpa_clean, 10)
