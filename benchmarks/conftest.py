"""Shared helpers for the benchmark harness.

Each experiment benchmark runs its experiment once (timed by
pytest-benchmark) and prints the result tables with capture disabled, so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records both
the timings and the tables the experiments produce (the "rows the paper
reports" — one per experiment in
:mod:`repro.experiments.registry`).

Smoke mode
----------

Setting ``BENCH_SMOKE=1`` in the environment shrinks every benchmark
workload (the bench modules read the flag at import; see
:data:`repro`-side constants such as ``bench_throughput.UPDATE_BATCH``)
so the whole benchmark suite runs in seconds.  All benchmarks also carry
the ``bench`` marker, so a tier-1-style run can exercise them with::

    BENCH_SMOKE=1 pytest benchmarks/ -m bench -q

and an ordinary ``pytest -m "not bench"`` can exclude them wholesale.
"""

from __future__ import annotations

import os

import pytest

#: True when the environment requests shrunken benchmark workloads.
BENCH_SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "bench: benchmark workload (shrunk when BENCH_SMOKE=1)"
    )


def pytest_collection_modifyitems(items):
    """Stamp every benchmark test with the ``bench`` marker."""
    for item in items:
        if "benchmarks" in str(item.fspath):
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def show_tables(capsys):
    """Print experiment tables directly to the terminal (bypass capture)."""

    def show(tables):
        with capsys.disabled():
            print()
            for table in tables:
                print(table.render())

    return show


def run_experiment_once(benchmark, module, scale="smoke"):
    """Time one full experiment run; return its tables."""
    return benchmark.pedantic(lambda: module.run(scale=scale), rounds=1, iterations=1)
