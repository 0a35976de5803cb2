"""Benchmark + table regeneration for experiment E2.

Paper claim: Theorem 1: space grows ~log^1.5(eps n).
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E2 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e02_space_vs_n as experiment

from conftest import run_experiment_once


def test_e02_space_vs_n(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
