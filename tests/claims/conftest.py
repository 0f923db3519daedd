"""Fixtures shared by the paper-claim suite."""

import pytest

from repro.experiments.runner import shutdown_pool


@pytest.fixture(scope="module", autouse=True)
def _fresh_pool_per_module():
    """Drop the shared pool a module's sweeps built, as ``two_cpus`` does,
    so later tests (the service's worker-kill suite) build their own."""
    yield
    shutdown_pool()
