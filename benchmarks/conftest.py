"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper: it calls
the experiment harness once (these are simulations, not
microbenchmarks), prints the regenerated rows/series, and asserts the
*shape* of the paper's result.  Run with
``pytest benchmarks/ --ignore=benchmarks/test_soak_serve.py -s`` to see
the tables (the soak has its own nightly job).
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentConfig


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper: marks a benchmark that regenerates a paper artefact"
    )


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """The evaluation configuration: 60 CPUs, target 0.7 / high 0.9."""
    return ExperimentConfig(seed=0)


@pytest.fixture(scope="session")
def seeds():
    """Seeds averaged over in the figure benchmarks."""
    return (0, 1)
