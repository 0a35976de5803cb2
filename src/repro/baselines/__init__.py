"""Baseline quantile summaries: every comparator class from the paper's §1.1.

All baselines implement the :class:`~repro.baselines.base.QuantileSketch`
interface so the evaluation harness and experiments can drive them
uniformly.  Each module's docstring states its role in the paper.
"""

from repro.baselines.base import QuantileSketch
from repro.baselines.ddsketch import DDSketch
from repro.baselines.exact import ExactQuantiles
from repro.baselines.gk import GKEntry, GKSketch
from repro.baselines.hierarchical import HierarchicalSamplingSketch
from repro.baselines.kll import KLLSketch
from repro.baselines.mrl import MRLSketch
from repro.baselines.qdigest import QDigest
from repro.baselines.sampling import ReservoirSampler
from repro.baselines.tdigest import TDigest

__all__ = [
    "DDSketch",
    "ExactQuantiles",
    "GKEntry",
    "GKSketch",
    "HierarchicalSamplingSketch",
    "KLLSketch",
    "MRLSketch",
    "QDigest",
    "QuantileSketch",
    "ReservoirSampler",
    "TDigest",
]
