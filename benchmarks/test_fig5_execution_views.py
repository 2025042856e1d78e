"""Fig. 5 — execution views for workload 1 under IRIX and PDPA.

Paper: "the look of the execution under the native IRIX scheduler is
chaotic.  The PDPA trace [...] is quite stable and we can clearly
differentiate the execution of the different applications on it."
"""

from repro.experiments import fig5_table2


def test_fig5_execution_views(config):
    result = fig5_table2.run(policies=("IRIX", "PDPA"), load=1.0, config=config)
    print()
    print(fig5_table2.render_fig5(result, width=90))

    irix_view = result.view("IRIX", width=90)
    pdpa_view = result.view("PDPA", width=90)

    def cpu_rows(view: str) -> str:
        return "\n".join(l for l in view.splitlines() if l.startswith("cpu"))

    # IRIX: time-shared chaos (every CPU shows the '#' marker).
    assert "#" in cpu_rows(irix_view)
    # PDPA: stable partitions — long runs of a single application
    # symbol on each CPU line, and the applications differentiable.
    assert "S" in cpu_rows(pdpa_view) and "B" in cpu_rows(pdpa_view)
    assert "#" not in cpu_rows(pdpa_view)

    def longest_run(view: str) -> int:
        best = 0
        for line in view.splitlines():
            if not line.startswith("cpu"):
                continue
            row = line.split("|")[1]
            run, prev = 0, ""
            for ch in row:
                run = run + 1 if ch == prev and ch not in ". " else 1
                prev = ch
                best = max(best, run)
        return best

    assert longest_run(pdpa_view) >= 10, "PDPA partitions should look stable"
