"""Benchmark + table regeneration for experiment E4.

Paper claim: Theorem 14: failure probability < 3 delta.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E4 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e04_failure_probability as experiment

from conftest import run_experiment_once


def test_e04_failure_probability(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
