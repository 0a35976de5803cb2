"""Benchmark + table regeneration for experiment E8.

Paper claim: Section 1 motivation: latency tail percentiles.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E8 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e08_latency_tail as experiment

from conftest import run_experiment_once


def test_e08_latency_tail(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
