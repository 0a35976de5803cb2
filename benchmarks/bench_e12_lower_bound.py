"""Benchmark + table regeneration for experiment E12.

Paper claim: Theorem 15 / Appendix A: subset-encoding lower bound.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E12 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e12_lower_bound as experiment

from conftest import run_experiment_once


def test_e12_lower_bound(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
