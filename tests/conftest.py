import pytest

from severfit import mc


@pytest.fixture(autouse=True)
def _no_pool_across_tests():
    """Shut the Monte Carlo process pool down after each test: its workers are
    forked under one test's monkeypatches, and must not run another's tasks."""
    yield
    mc._drop_pool()
