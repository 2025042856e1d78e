"""Run the doctests embedded in module documentation."""

import doctest

import pytest

import repro.sim.engine
import repro.sim.rng

MODULES = [
    repro.sim.engine,
    repro.sim.rng,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(
        module, optionflags=doctest.ELLIPSIS, verbose=False
    )
    assert results.failed == 0, f"{results.failed} doctest failure(s)"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
