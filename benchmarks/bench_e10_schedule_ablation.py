"""Benchmark + table regeneration for experiment E10.

Paper claim: Section 2.1: compaction schedule ablation.
Runs the experiment once under pytest-benchmark timing and prints its
result tables (experiment E10 in :mod:`repro.experiments.registry`).
"""

from repro.experiments import e10_schedule_ablation as experiment

from conftest import run_experiment_once


def test_e10_schedule_ablation(benchmark, show_tables):
    tables = run_experiment_once(benchmark, experiment)
    show_tables(tables)
    assert tables and all(len(table) > 0 for table in tables)
