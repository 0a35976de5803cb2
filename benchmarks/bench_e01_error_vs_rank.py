"""Benchmark + table regeneration for experiment E1.

Paper claim: Theorem 1 / Section 1: relative error flat in rank for REQ.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E1 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e01_error_vs_rank as experiment

from conftest import run_experiment_once


def test_e01_error_vs_rank(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
