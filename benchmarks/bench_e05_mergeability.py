"""Benchmark + table regeneration for experiment E5.

Paper claim: Theorem 3: guarantees under arbitrary merge trees.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E5 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e05_mergeability as experiment

from conftest import run_experiment_once


def test_e05_mergeability(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
