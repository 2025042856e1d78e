"""Experiment harnesses: one module per table/figure of the paper.

Every harness builds on :mod:`repro.experiments.common`, which runs a
workload trace under one scheduling policy and collects the metrics
the paper reports.  The benchmark suite (``benchmarks/``) calls these
harnesses and prints the regenerated rows/series; EXPERIMENTS.md
records the comparison against the paper.
"""

from repro.experiments.common import (
    POLICY_NAMES,
    ExperimentConfig,
    RunOutput,
    average_results,
    make_space_policy,
    run_jobs,
    run_workload,
)

__all__ = [
    "POLICY_NAMES",
    "ExperimentConfig",
    "RunOutput",
    "average_results",
    "make_space_policy",
    "run_jobs",
    "run_workload",
]
