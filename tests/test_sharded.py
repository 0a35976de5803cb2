"""Tests for the sharded aggregation plane (repro.shard)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FastReqSketch, ShardedReqSketch
from repro.errors import InvalidParameterError
from repro.shard import sharded as sharded_module


@pytest.fixture(scope="module")
def stream():
    return np.random.default_rng(1234).random(80_000)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ShardedReqSketch(0)
        with pytest.raises(InvalidParameterError):
            ShardedReqSketch(4, backend="threads")
        with pytest.raises(InvalidParameterError):
            ShardedReqSketch(4, k=7)

    def test_starts_empty(self):
        sharded = ShardedReqSketch(4, seed=1)
        assert sharded.is_empty
        assert sharded.n == 0
        assert len(sharded) == 0


class TestLocalBackend:
    def test_routing_conserves_weight(self, stream):
        sharded = ShardedReqSketch(8, k=32, seed=3)
        sharded.update_many(stream)
        assert sharded.n == stream.size
        union = sharded.collect()
        assert union.rank(float(stream.max())) == stream.size
        assert union.min_item == float(stream.min())
        assert union.max_item == float(stream.max())
        # Every shard got a share.
        assert all(shard.n > 0 for shard in sharded._shards)

    def test_union_accuracy_matches_single_sketch(self, stream):
        """Acceptance: the sharded union keeps the relative-error guarantee
        at the same eps as one sketch fed the full stream."""
        sharded = ShardedReqSketch(16, k=32, seed=5)
        sharded.update_many(stream)
        union = sharded.collect()
        single = FastReqSketch(32, seed=6)
        single.update_many(stream)
        assert union.error_bound() == single.error_bound()
        exact = np.sort(stream)
        for fraction in (0.001, 0.01, 0.1, 0.5):
            y = float(exact[int(fraction * exact.size)])
            true = int(np.searchsorted(exact, y, side="right"))
            assert abs(union.rank(y) - true) / true < 0.05

    def test_batch_nan_rejected(self):
        sharded = ShardedReqSketch(2, seed=9)
        with pytest.raises(InvalidParameterError):
            sharded.update_many([1.0, float("nan")])
        assert sharded.n == 0

    def test_collect_snapshot_is_independent(self, stream):
        """Mutating one collected union must not feed the shards or a later
        collect()."""
        sharded = ShardedReqSketch(4, seed=10)
        sharded.update_many(stream[:10_000])
        first = sharded.collect()
        p999_before = first.quantile(0.999)
        first.update_many(np.full(5_000, 1e9))
        assert sharded.n == 10_000
        second = sharded.collect()
        assert second.n == 10_000
        assert second.quantile(0.999) == p999_before
        assert second.max_item < 1e9

    def test_collect_does_not_mutate_shards(self, stream):
        sharded = ShardedReqSketch(4, seed=11)
        sharded.update_many(stream[:20_000])
        for shard in sharded._shards:
            shard.flush()
        sizes = [shard.num_retained for shard in sharded._shards]
        sharded.collect()
        assert [shard.num_retained for shard in sharded._shards] == sizes

    def test_single_shard_degenerates_gracefully(self, stream):
        sharded = ShardedReqSketch(1, k=32, seed=13)
        sharded.update_many(stream[:10_000])
        assert sharded.n == 10_000
        assert sharded.collect().rank(float(stream[:10_000].max())) == 10_000


class TestProcessBackend:
    def test_end_to_end(self, monkeypatch, stream):
        monkeypatch.setattr(sharded_module, "_FLUSH_ITEMS", 8_000)
        data = stream[:40_000]
        with ShardedReqSketch(2, k=32, seed=14, backend="process") as sharded:
            for chunk in np.array_split(data, 5):
                sharded.update_many(chunk)
            assert sharded.n == data.size
            assert len(sharded._futures) > 1  # several tasks already shipped
            union = sharded.collect()
            assert union.rank(2.0) == data.size
            exact = np.sort(data)
            y = float(exact[400])
            true = int(np.searchsorted(exact, y, side="right"))
            assert abs(union.rank(y) - true) / true < 0.06

    def test_collect_then_continue_ingesting(self, monkeypatch, stream):
        monkeypatch.setattr(sharded_module, "_FLUSH_ITEMS", 4_000)
        with ShardedReqSketch(2, k=16, seed=15, backend="process") as sharded:
            sharded.update_many(stream[:10_000])
            assert sharded.collect().n == 10_000
            sharded.update_many(stream[10_000:20_000])
            assert sharded.collect().n == 20_000

    def test_pending_batches_do_not_alias_caller_memory(self):
        """Mutating the caller's array after update_many must not change
        what the pool eventually sketches."""
        with ShardedReqSketch(1, k=16, seed=18, backend="process") as sharded:
            array = np.arange(1000.0)
            sharded.update_many(array)
            array[:] = 1e9  # caller reuses its buffer
            assert sharded.collect().max_item == 999.0

    def test_worker_death_recovers_from_retained_payload(self, stream):
        """A dead worker must not lose shipped data: the retained payload is
        resubmitted to a fresh pool on the next collect()."""
        sharded = ShardedReqSketch(2, k=16, seed=19, backend="process")
        try:
            sharded.update_many(stream[:10_000])
            for shard in range(sharded.num_shards):
                sharded._ship(shard)
            assert sharded._futures
            # Simulate every in-flight worker dying before delivering.
            from concurrent.futures import Future

            for task in sharded._futures:
                dead = Future()
                dead.set_exception(RuntimeError("worker died"))
                task[0] = dead
            union = sharded.collect()
            assert union.n == 10_000
            assert union.rank(2.0) == 10_000
        finally:
            sharded.close()

    def test_close_idempotent(self):
        sharded = ShardedReqSketch(2, seed=16, backend="process")
        sharded.update_many(np.arange(100.0))
        assert sharded.collect().rank(99.0) == 100
        sharded.close()
        sharded.close()
