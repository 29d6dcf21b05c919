"""Shared fixtures: one cached pipeline bundle per built-in geometry.

The bundles are session scoped (and backed by the module-level pipeline
cache), so the expensive stages — automorphism groups, hyperplane
classification, valuation geometries — run once for the whole suite.
The CLI's kept ``--in`` bundle is dropped before each test.
"""
import pytest

from hexval import cli
from hexval.constructions import build_fano, grid_3x3
from hexval.pipeline import Bundle, get_bundle


@pytest.fixture(autouse=True)
def fresh_in_file_bundle():
    # a test that patches a stage never meets a bundle that an earlier
    # test's --in call left in the CLI's memo
    cli._bundle_from_text.cache_clear()


@pytest.fixture(scope="session")
def h2():
    return get_bundle("h2")


@pytest.fixture(scope="session")
def h2dual():
    return get_bundle("h2dual")


@pytest.fixture(scope="session")
def h21():
    return get_bundle("h21")


@pytest.fixture(scope="session")
def grid3():
    return Bundle(grid_3x3(), "grid3")


@pytest.fixture(scope="session")
def fano():
    return Bundle(build_fano(), "fano")
