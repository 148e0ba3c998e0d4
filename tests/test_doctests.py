"""Run the executable examples embedded in module docstrings."""

import doctest

import pytest

import repro.simnet.kernel
import repro.util.stats
import repro.xmlmini


@pytest.mark.parametrize(
    "module",
    [
        repro.xmlmini,
        repro.simnet.kernel,
        repro.util.stats,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0
