"""Benchmark + table regeneration for experiment E11.

Paper claim: Corollary 1: all-quantiles guarantee.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E11 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e11_all_quantiles as experiment

from conftest import run_experiment_once


def test_e11_all_quantiles(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
