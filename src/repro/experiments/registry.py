"""Registry of all experiments, keyed by their E1–E12 ids."""

from __future__ import annotations

from types import ModuleType
from typing import Dict, List

from repro.errors import InvalidParameterError
from repro.evaluation import Table
from repro.experiments import (
    e01_error_vs_rank,
    e02_space_vs_n,
    e03_space_vs_eps,
    e04_failure_probability,
    e05_mergeability,
    e06_unknown_n,
    e07_orderings,
    e08_latency_tail,
    e09_appendix_c,
    e10_schedule_ablation,
    e11_all_quantiles,
    e12_lower_bound,
)

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment", "experiment_ids"]

#: Experiment id -> module.  Order is the E1–E12 numbering.
EXPERIMENTS: Dict[str, ModuleType] = {
    module.META.experiment_id: module
    for module in (
        e01_error_vs_rank,
        e02_space_vs_n,
        e03_space_vs_eps,
        e04_failure_probability,
        e05_mergeability,
        e06_unknown_n,
        e07_orderings,
        e08_latency_tail,
        e09_appendix_c,
        e10_schedule_ablation,
        e11_all_quantiles,
        e12_lower_bound,
    )
}


def experiment_ids() -> List[str]:
    """All registered experiment ids, in E1–E12 order."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ModuleType:
    """Look up an experiment module by id (case-insensitive)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(experiment_id: str, scale: str = "default") -> List[Table]:
    """Run one experiment and return its result tables."""
    return get_experiment(experiment_id).run(scale=scale)
