"""Cross-module integration tests: the library's end-to-end workflows."""

from __future__ import annotations

import bisect
import importlib
import pkgutil
import random

import pytest

from repro.baselines import ExactQuantiles
from repro.core import CloseOutReqSketch, ReqSketch, deserialize, serialize
from repro.evaluation import RankOracle, SketchSpec, build_via_tree, run_trial
from repro.streams import latency_stream, shuffled, uniform
from repro.theory import OfflineCoreset


class TestDistributedPipeline:
    """The Theorem 3 story: shard -> sketch -> serialize -> merge -> query."""

    def test_serialize_merge_pipeline(self):
        rng = random.Random(42)
        data = [rng.random() for _ in range(40_000)]
        shards = [data[i::8] for i in range(8)]

        blobs = []
        for index, shard in enumerate(shards):
            sketch = ReqSketch(eps=0.15, delta=0.15, seed=index)
            sketch.update_many(shard)
            blobs.append(serialize(sketch))

        root = deserialize(blobs[0])
        for blob in blobs[1:]:
            root.merge(deserialize(blob))

        assert root.n == len(data)
        ordered = sorted(data)
        for fraction in (0.001, 0.01, 0.1, 0.5):
            y = ordered[int(fraction * len(ordered))]
            true = bisect.bisect_right(ordered, y)
            assert abs(root.rank(y) - true) / max(true, 1) < 0.15

    def test_hra_latency_monitoring_flow(self):
        """The Section 1 use case, end to end with HRA sketches."""
        stream = latency_stream(60_000, seed=7)
        root = build_via_tree(
            lambda seed: ReqSketch(32, hra=True, seed=seed),
            stream,
            shape="balanced",
            parts=12,
            seed=3,
        )
        oracle = RankOracle(stream)
        n = oracle.n
        for percentile in (0.99, 0.999):
            true_value = oracle.quantile(percentile)
            true_rank = oracle.rank(true_value)
            est = root.rank(true_value)
            assert abs(est - true_rank) <= 0.1 * (n - true_rank + 1) + 2


class TestSketchVsOracleConsistency:
    def test_req_tracks_exact_on_mixed_workload(self):
        """Interleaved updates and queries agree with the exact oracle."""
        rng = random.Random(1)
        sketch = ReqSketch(32, seed=2)
        oracle = ExactQuantiles()
        for step in range(20):
            batch = [rng.lognormvariate(0, 1) for _ in range(1000)]
            sketch.update_many(batch)
            oracle.update_many(batch)
            y = oracle.quantile(0.25)
            true = oracle.rank(y)
            assert abs(sketch.rank(y) - true) / max(true, 1) < 0.1

    def test_closeout_matches_reqsketch_class(self):
        rng = random.Random(3)
        data = [rng.random() for _ in range(25_000)]
        ordered = sorted(data)
        closeout = CloseOutReqSketch(0.1, seed=4)
        inplace = ReqSketch(eps=0.1, delta=0.05, seed=5)
        closeout.update_many(data)
        inplace.update_many(data)
        for fraction in (0.01, 0.1, 0.5):
            y = ordered[int(fraction * len(ordered))]
            true = bisect.bisect_right(ordered, y)
            assert abs(closeout.rank(y) - true) / true < 0.1
            assert abs(inplace.rank(y) - true) / true < 0.1


class TestHarnessIntegration:
    def test_run_trial_with_every_core_sketch(self):
        stream = shuffled(uniform(8000, seed=11), seed=1)
        specs = [
            SketchSpec("auto", lambda seed: ReqSketch(16, seed=seed)),
            SketchSpec("fixed", lambda seed: ReqSketch(16, n_bound=8000, seed=seed)),
            SketchSpec("theory", lambda seed: ReqSketch(eps=0.2, delta=0.2, seed=seed)),
        ]
        for spec in specs:
            profile = run_trial(spec, stream, seed=1, fractions=(0.01, 0.5, 0.99))
            assert profile.max_relative < 0.3, spec.name

    def test_offline_coreset_as_reference_row(self):
        """The offline coreset slots into the same evaluation flow."""
        stream = uniform(10_000, seed=12)
        oracle = RankOracle(stream)
        coreset = OfflineCoreset(stream, 0.05)
        for fraction in (0.001, 0.01, 0.5, 0.99):
            y = oracle.quantile(fraction)
            true = oracle.rank(y)
            assert abs(coreset.rank(y) - true) <= 0.05 * true


class TestPublicApiSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports(self):
        import repro

        packages = [
            importlib.import_module(f"repro.{info.name}")
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        assert {"core", "fast", "windowed", "service"} <= {
            module.__name__.split(".")[1] for module in packages
        }
        for module in packages:
            for name in module.__all__:
                assert getattr(module, name) is not None, (module.__name__, name)
