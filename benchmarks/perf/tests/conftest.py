"""Keep the figure regenerators' session fixtures out of this directory."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_dir():
    """Shadows ``benchmarks/conftest.py``'s fixture of the same name,
    which empties ``benchmarks/results/`` (tracked files) at session
    start: nothing here regenerates a figure."""
    yield
