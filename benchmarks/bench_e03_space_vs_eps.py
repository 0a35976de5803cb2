"""Benchmark + table regeneration for experiment E3.

Paper claim: Theorem 1: linear 1/eps dependence.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E3 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e03_space_vs_eps as experiment

from conftest import run_experiment_once


def test_e03_space_vs_eps(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
