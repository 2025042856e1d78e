"""A deterministic call budget for the closed grid's iterations.

Absorbed iteration ends are 97-100% of a closed run's iteration ends,
and their constant cost sets the simulator's speed.  Each end reads
its job's plan and calls no RM, policy or machine method until that
job's inputs change, and every absorbed end is one pass through
``NthLibRuntime.absorb`` (``repro.runtime.nthlib``), which begins a
held plan's next iteration itself.  A partition change hands the trace
one batch of bursts, and an IRIX segment one batch of CPUs, so neither
costs a call per CPU.  Equal_eff's reports fire and reshuffle far more
often; they are the sweep grid's cost, and its budget pins them.  This test counts the calls a whole
closed grid makes per iteration, as cProfile counts them (Python
functions and builtins alike) but timing nothing, so a change that
puts calls back on the absorbed path fails here without wall-clock
noise.
"""

from __future__ import annotations

import sys
from typing import Any

import pytest

from repro.experiments.common import ExperimentConfig, run_workload

#: w1-w4 at load 1.0 on 60 CPUs, seed 7: 8,645 iterations per policy
CONFIG = ExperimentConfig(n_cpus=60, seed=7)
MIXES = ("w1", "w2", "w3", "w4")

#: upper bounds on calls per iteration, about 3% above those measured
#: on CPython 3.10 and 3.11: IRIX 13.55, Equip 19.73, PDPA 20.26 and
#: Equal_eff 72.23 (3.12 and 3.13 count up to 1.0% fewer)
BUDGET = {"IRIX": 14.0, "Equip": 20.3, "PDPA": 20.9, "Equal_eff": 74.4}


def calls_per_iteration(policy: str) -> float:
    """Calls the closed grid makes for *policy*, per iteration run."""
    calls = 0

    def count(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    iterations = 0
    for mix in MIXES:
        sys.setprofile(count)
        try:
            out = run_workload(policy, mix, 1.0, CONFIG)
        finally:
            sys.setprofile(None)
        iterations += sum(job.spec.iterations for job in out.jobs)
    return calls / iterations


@pytest.mark.parametrize("policy", sorted(BUDGET))
def test_calls_per_iteration_stay_in_budget(policy):
    assert calls_per_iteration(policy) <= BUDGET[policy]
