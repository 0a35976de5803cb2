"""The experiment suite: one module per paper claim (indexed in
:mod:`repro.experiments.registry`).

Import the registry lazily-ish: the experiment modules are lightweight to
import (no work at import time), so we expose them directly.
"""

from repro.experiments import (  # noqa: F401  (re-exported for the registry)
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
from repro.experiments.common import ExperimentMeta, SCALES
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    get_experiment,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentMeta",
    "SCALES",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
]
