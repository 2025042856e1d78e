"""repro — Performance-Driven Processor Allocation (PDPA), reproduced.

A production-quality reproduction of *"Performance-Driven Processor
Allocation"* (Corbalan, Martorell, Labarta): a coordinated processor
scheduler for multiprogrammed shared-memory multiprocessors that
allocates, per application, the largest number of processors able to
sustain a target efficiency measured at runtime, and adjusts the
multiprogramming level in coordination with the queuing system.

The paper's hardware testbed (an SGI Origin 2000 running real OpenMP
codes) is replaced by a deterministic discrete-event simulation of the
whole NANOS environment; see DESIGN.md for the substitution rationale.

Quick start
-----------
>>> from repro import run_workload
>>> out = run_workload("PDPA", "w3", load=0.6)
>>> out.result.summary("apsi").mean_response_time > 0
True

Public surface
--------------
* :mod:`repro.core` — the PDPA policy (states, parameters, MPL policy).
* :mod:`repro.rm` — the resource manager and baseline policies.
* :mod:`repro.qs` — queuing system, workload generator, SWF traces.
* :mod:`repro.apps` — the calibrated application catalog (Fig. 3).
* :mod:`repro.machine` — the CC-NUMA machine model.
* :mod:`repro.runtime` — NthLib and the SelfAnalyzer.
* :mod:`repro.metrics` — Paraver-style analyses and result tables.
* :mod:`repro.experiments` — one harness per table/figure.
* :mod:`repro.faults` — fault injection and graceful degradation.
* :mod:`repro.analysis` — the determinism sanitizer (lint + races).

This module imports nothing: each name in ``__all__`` is loaded from
its defining module on first access (PEP 562), so ``import
repro.sim.engine`` does not pull in the rest of the package.
"""

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_PUBLIC = {
    "APP_CATALOG": "repro.apps.catalog",
    "SWIM": "repro.apps.catalog",
    "BT": "repro.apps.catalog",
    "HYDRO2D": "repro.apps.catalog",
    "APSI": "repro.apps.catalog",
    "get_app": "repro.apps.catalog",
    "PDPA": "repro.core.pdpa",
    "AppState": "repro.core.states",
    "PDPAParams": "repro.core.params",
    "Equipartition": "repro.rm.equipartition",
    "EqualEfficiency": "repro.rm.equal_efficiency",
    "IrixResourceManager": "repro.rm.irix",
    "Job": "repro.qs.job",
    "TABLE1_MIXES": "repro.qs.workload",
    "generate_workload": "repro.qs.workload",
    "ExperimentConfig": "repro.experiments.common",
    "RunOutput": "repro.experiments.common",
    "run_jobs": "repro.experiments.common",
    "run_workload": "repro.experiments.common",
    "WorkloadResult": "repro.metrics.stats",
    "FaultInjector": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "build_scenario": "repro.faults.scenarios",
    "RaceDetector": "repro.analysis.race",
    "lint_paths": "repro.analysis.linter",
}

__all__ = [*_PUBLIC, "__version__"]


def __getattr__(name: str) -> object:
    """Load a public name from its defining module on first access."""
    module = _PUBLIC.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
