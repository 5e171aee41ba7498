"""Benchmark configuration.

Every benchmark regenerates one table or figure of the paper (DESIGN.md §4
maps them).  Graph scale is controlled by ``REPRO_BENCH_SCALE`` (default
0.25); each bench prints its table to the terminal and writes a CSV next
to this file under ``results/``.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale(default: float = 0.25) -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", default))


@pytest.fixture
def emit(capsys):
    """Print a Table past pytest's output capturing and persist it as CSV."""

    def _emit(table, csv_name: str):
        RESULTS_DIR.mkdir(exist_ok=True)
        table.to_csv(RESULTS_DIR / csv_name)
        with capsys.disabled():
            print()
            print(table.render())

    return _emit
