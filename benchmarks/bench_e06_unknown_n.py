"""Benchmark + table regeneration for experiment E6.

Paper claim: Section 5: unknown stream length.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E6 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e06_unknown_n as experiment

from conftest import run_experiment_once


def test_e06_unknown_n(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
