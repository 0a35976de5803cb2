"""Benchmark + table regeneration for experiment E7.

Paper claim: comparison-based: order-robust guarantee.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E7 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e07_orderings as experiment

from conftest import run_experiment_once


def test_e07_orderings(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
