"""Shared benchmark helpers.

Every figure/table benchmark writes its rendered output to
``benchmarks/results/<name>.txt`` (so the regenerated paper artifacts
survive pytest's output capture) and also prints it.  ``REPRO_SCALE`` and
``REPRO_WARMUP`` rescale the simulations (see DESIGN.md §2 on windows);
``REPRO_JOBS`` shards the figure grids across worker processes and
completed points replay from ``benchmarks/results/cache/`` (DESIGN.md §6).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.settings import Settings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_configure(config):
    RESULTS_DIR.mkdir(exist_ok=True)


@pytest.fixture
def save_result():
    """Write rendered figure/table text to the results directory."""

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture(scope="session")
def scale() -> float:
    return Settings.from_env().scale


@pytest.fixture(scope="session")
def warmup() -> int:
    return Settings.from_env().warmup
