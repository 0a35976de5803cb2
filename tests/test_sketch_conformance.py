"""Uniform conformance tests: every sketch honors the common contract.

One parametrized suite drives every quantile summary in the library
through the same behavioral checks — the properties the evaluation
harness relies on when treating sketches interchangeably.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.baselines import (
    DDSketch,
    ExactQuantiles,
    GKSketch,
    HierarchicalSamplingSketch,
    KLLSketch,
    MRLSketch,
    ReservoirSampler,
    TDigest,
)
from repro.core import CloseOutReqSketch, DeterministicReqSketch, ReqSketch

N = 5000

FACTORIES = {
    "req-auto": lambda: ReqSketch(16, seed=1),
    "req-fixed": lambda: ReqSketch(16, n_bound=2 * N, seed=1),
    "req-theory": lambda: ReqSketch(eps=0.2, delta=0.2, seed=1),
    "req-hra": lambda: ReqSketch(16, hra=True, seed=1),
    "req-closeout": lambda: CloseOutReqSketch(0.2, seed=1),
    "req-determ": lambda: DeterministicReqSketch(0.2, 2 * N),
    "kll": lambda: KLLSketch(k=100, seed=1),
    "gk": lambda: GKSketch(eps=0.02),
    "mrl": lambda: MRLSketch(buffer_size=64),
    "tdigest": lambda: TDigest(compression=50),
    "ddsketch": lambda: DDSketch(alpha=0.02),
    "reservoir": lambda: ReservoirSampler(1024, seed=1),
    "hier": lambda: HierarchicalSamplingSketch(eps=0.2, seed=1),
    "exact": ExactQuantiles,
}


@pytest.fixture(scope="module")
def built():
    """Each sketch type, fed the same positive stream once."""
    rng = random.Random(2024)
    data = [rng.lognormvariate(0.0, 1.0) for _ in range(N)]
    sketches = {}
    for name, factory in FACTORIES.items():
        sketch = factory()
        sketch.update_many(data)
        sketches[name] = sketch
    return data, sketches


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestConformance:
    def test_n_tracked(self, built, name):
        _, sketches = built
        assert sketches[name].n == N

    def test_space_positive_and_bounded(self, built, name):
        _, sketches = built
        sketch = sketches[name]
        assert 0 < sketch.num_retained <= N

    def test_rank_monotone(self, built, name):
        data, sketches = built
        sketch = sketches[name]
        probes = sorted(data)[:: max(1, N // 50)]
        ranks = [sketch.rank(p) for p in probes]
        if name == "hier":
            # The per-level estimator is exactly monotone within a level but
            # may step down by its eps-noise when the answering level
            # switches (inherent to the Zhang-class structure); check
            # monotonicity up to the guarantee slack.
            for left, right in zip(ranks, ranks[1:]):
                assert left <= right * 1.5 + 1
        else:
            assert ranks == sorted(ranks)

    def test_rank_within_range(self, built, name):
        data, sketches = built
        sketch = sketches[name]
        for probe in (min(data), max(data), sorted(data)[N // 2]):
            rank = sketch.rank(probe)
            assert 0 <= rank <= N

    def test_rank_of_below_min_is_zero(self, built, name):
        data, sketches = built
        assert sketches[name].rank(min(data) / 2) == 0

    def test_rank_of_max_is_n_ish(self, built, name):
        data, sketches = built
        sketch = sketches[name]
        # Exact for item-retaining sketches; approximation-bounded for the
        # interpolating/bucketing/sampling ones ('hier' at eps=0.2 carries
        # binomial noise ~eps at the top in LRA mode).
        threshold = 0.5 if name == "hier" else 0.9
        assert sketch.rank(max(data)) >= threshold * N

    def test_quantile_within_extremes(self, built, name):
        data, sketches = built
        sketch = sketches[name]
        lo, hi = min(data), max(data)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            value = sketch.quantile(q)
            assert lo <= value <= hi * 1.03  # ddsketch's value-relative slack

    def test_quantile_monotone(self, built, name):
        _, sketches = built
        sketch = sketches[name]
        values = [sketch.quantile(q) for q in (0.05, 0.25, 0.5, 0.75, 0.95)]
        assert values == sorted(values)

    def test_normalized_rank_in_unit_interval(self, built, name):
        data, sketches = built
        sketch = sketches[name]
        assert 0.0 <= sketch.normalized_rank(sorted(data)[N // 3]) <= 1.0

    def test_median_sane(self, built, name):
        """Every sketch's median lands within a wide band of the truth."""
        data, sketches = built
        sketch = sketches[name]
        true_median = sorted(data)[N // 2]
        estimate = sketch.quantile(0.5)
        assert abs(estimate - true_median) / true_median < 0.5


# ----------------------------------------------------------------------
# rank_bounds soundness on both REQ engines
# ----------------------------------------------------------------------


def _rank_bounds_probes(engine, hra):
    """``(true_rank, (lower, upper), estimate, eps, n)`` at ranks spaced
    geometrically over the low half of a lognormal stream."""
    import numpy as np

    from repro.fast import FastReqSketch

    if engine == "fast":
        sketch, n = FastReqSketch(32, hra=hra, seed=11), 200_000
    else:
        sketch, n = ReqSketch(16, hra=hra, seed=11), 50_000
    values = np.random.default_rng(7).lognormal(size=n)
    sketch.update_many(values)
    ordered = np.sort(values)
    eps = sketch.error_bound()
    probes = []
    for rank in np.unique(np.geomspace(1, n // 2, 200).astype(int)):
        item = float(ordered[rank - 1])
        true = int(np.searchsorted(ordered, item, "right"))
        probes.append((true, sketch.rank_bounds(item), sketch.rank(item), eps, n))
    return probes


@pytest.mark.parametrize("engine", ["reference", "fast"])
class TestRankBounds:
    def test_hra_low_ranks_fall_inside_the_bounds(self, engine):
        """An HRA sketch's error is relative to ``n - R``: an interval
        relative to ``R`` misses most low ranks."""
        outside = [
            (true, bounds)
            for true, bounds, _est, _eps, _n in _rank_bounds_probes(engine, hra=True)
            if not bounds[0] <= true <= bounds[1]
        ]
        assert outside == []

    def test_lra_bounds_unchanged(self, engine):
        for true, bounds, est, eps, n in _rank_bounds_probes(engine, hra=False):
            assert bounds == (
                max(0, math.floor(est / (1.0 + eps))),
                min(n, math.ceil(est / (1.0 - eps))),
            )
            assert bounds[0] <= true <= bounds[1]


def test_rank_interval_mirrors_under_hra():
    from repro.core import rank_interval

    assert rank_interval(900, 0.1, 1000) == (818, 1000)
    assert rank_interval(100, 0.1, 1000, hra=True) == (0, 182)
    assert rank_interval(900, 0.1, 1000, hra=True) == (888, 910)
