"""Fixtures shared by the test modules."""

import functools

import pytest

from efsim.checks import run_suite


@pytest.fixture(scope="session")
def compressors_suite():
    """``run_suite("compressors", seed)``, run once per seed in a session:
    the acceptance, compressor and CLI tests all read seeds 0 and 1."""
    return functools.cache(lambda seed: run_suite("compressors", seed))
