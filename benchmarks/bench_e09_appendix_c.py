"""Benchmark + table regeneration for experiment E9.

Paper claim: Theorem 2 / Appendix C: tiny-delta regime + deterministic limit.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E9 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e09_appendix_c as experiment

from conftest import run_experiment_once


def test_e09_appendix_c(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
