"""Shared fixtures for the paper artefacts (``benchmarks/bench_*.py``).

Each of the 14 files regenerates one of the paper's figures or
quantitative claims; README.md's "Paper artefacts" table lists the file,
the experiment id, the claim it checks and the section / equation.  The
reproduced tables are printed to stdout and written to the git-ignored
``benchmarks/results/``.  Performance is measured by ``benchmarks/e2e/``
(``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory the reproduced tables are written to."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Return a callable that prints a ResultTable and persists it to disk."""

    def _record(name: str, table) -> None:
        text = table.render()
        print("\n" + text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record
