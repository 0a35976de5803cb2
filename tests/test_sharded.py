"""Tests for the sharded aggregation plane (repro.shard)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FastReqSketch, ShardedReqSketch
from repro.errors import EmptySketchError, InvalidParameterError


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
            ShardedReqSketch(4, route="modulo")
        with pytest.raises(InvalidParameterError):
            ShardedReqSketch(4, k=7)
        with pytest.raises(InvalidParameterError):
            ShardedReqSketch(4, backend="process", flush_items=0)

    def test_starts_empty(self):
        sharded = ShardedReqSketch(4, seed=1)
        assert sharded.is_empty
        assert sharded.n == 0
        assert len(sharded) == 0

    def test_empty_queries_raise(self):
        sharded = ShardedReqSketch(2, seed=2)
        with pytest.raises(EmptySketchError):
            sharded.quantile(0.5)
        with pytest.raises(EmptySketchError):
            sharded.rank(0.5)


class TestLocalBackend:
    @pytest.mark.parametrize("route", ["round_robin", "hash"])
    def test_routing_conserves_weight(self, stream, route):
        sharded = ShardedReqSketch(8, k=32, seed=3, route=route)
        sharded.update_many(stream)
        assert sharded.n == stream.size
        assert sharded.rank(float(stream.max())) == stream.size
        assert sharded.min_item == float(stream.min())
        assert sharded.max_item == float(stream.max())
        # Every shard got a share (both policies balance uniform data).
        assert all(shard.n > 0 for shard in sharded._shards)

    def test_hash_route_is_value_sticky(self):
        """Identical values must land on the same shard under hash routing."""
        sharded = ShardedReqSketch(4, k=16, seed=4, route="hash")
        sharded.update_many(np.full(10_000, 3.25))
        populated = [shard for shard in sharded._shards if shard.n]
        assert len(populated) == 1
        assert populated[0].n == 10_000

    def test_union_accuracy_matches_single_sketch(self, stream):
        """Acceptance: the sharded union keeps the relative-error guarantee
        at the same eps as one sketch fed the full stream."""
        sharded = ShardedReqSketch(16, k=32, seed=5)
        sharded.update_many(stream)
        single = FastReqSketch(32, seed=6)
        single.update_many(stream)
        assert sharded.error_bound() == single.error_bound()
        exact = np.sort(stream)
        for fraction in (0.001, 0.01, 0.1, 0.5):
            y = float(exact[int(fraction * exact.size)])
            true = int(np.searchsorted(exact, y, side="right"))
            assert abs(sharded.rank(y) - true) / true < 0.05

    def test_scalar_updates_and_blocks(self):
        sharded = ShardedReqSketch(2, k=16, seed=7)
        for index in range(10_000):
            sharded.update(float(index))
        assert sharded.n == 10_000
        assert sharded.rank(9_999.0) == 10_000

    def test_scalar_nan_rejected(self):
        sharded = ShardedReqSketch(2, seed=8)
        with pytest.raises(InvalidParameterError):
            sharded.update(float("nan"))
        assert sharded.n == 0

    def test_batch_nan_rejected(self):
        sharded = ShardedReqSketch(2, seed=9)
        with pytest.raises(InvalidParameterError):
            sharded.update_many([1.0, float("nan")])
        assert sharded.n == 0

    def test_union_cached_until_new_data(self, stream):
        sharded = ShardedReqSketch(4, seed=10)
        sharded.update_many(stream[:10_000])
        first = sharded._collect()
        assert sharded._collect() is first  # query cache reused
        sharded.update(0.5)
        second = sharded._collect()
        assert second is not first
        assert second.n == 10_001
        assert sharded.collect().n == 10_001

    def test_collect_snapshot_is_independent(self, stream):
        """Mutating the collected snapshot must not poison later queries."""
        sharded = ShardedReqSketch(4, seed=10)
        sharded.update_many(stream[:10_000])
        p999_before = sharded.quantile(0.999)
        snapshot = sharded.collect()
        snapshot.update_many(np.full(5_000, 1e9))
        assert sharded.n == 10_000
        assert sharded.quantile(0.999) == p999_before
        assert sharded.max_item < 1e9

    def test_collect_does_not_mutate_shards(self, stream):
        sharded = ShardedReqSketch(4, seed=11)
        sharded.update_many(stream[:20_000])
        for shard in sharded._shards:
            shard.flush()
        sizes = [shard.num_retained for shard in sharded._shards]
        sharded.collect()
        assert [shard.num_retained for shard in sharded._shards] == sizes

    def test_queries_delegate_to_union(self, stream):
        sharded = ShardedReqSketch(4, k=32, seed=12)
        sharded.update_many(stream[:20_000])
        union = sharded.collect()
        queries = np.linspace(0.0, 1.0, 21)
        assert np.array_equal(sharded.ranks(queries), union.ranks(queries))
        assert np.array_equal(sharded.quantiles(queries), union.quantiles(queries))
        cdf = sharded.cdf([0.25, 0.5, 0.75])
        assert cdf[-1] == 1.0
        lower, upper = sharded.rank_bounds(0.5)
        assert lower <= sharded.rank(0.5) <= upper

    def test_single_shard_degenerates_gracefully(self, stream):
        sharded = ShardedReqSketch(1, k=32, seed=13)
        sharded.update_many(stream[:10_000])
        assert sharded.n == 10_000
        assert sharded.rank(float(stream[:10_000].max())) == 10_000

    def test_absorb_merges_existing_sketch(self, stream):
        """The hot-key promotion path: fold a built sketch into the plane."""
        single = FastReqSketch(32, seed=40)
        single.update_many(stream[:8000])
        sharded = ShardedReqSketch(4, k=32, seed=41)
        sharded.update_many(stream[8000:12_000])
        sharded.absorb(single)
        assert sharded.n == 12_000
        assert single.n == 8000  # the donor is never mutated
        assert sharded.rank(float(np.max(stream[:12_000]))) == 12_000
        # The union cache must see the absorbed data immediately.
        median = sharded.quantile(0.5)
        assert 0.4 < median < 0.6

    def test_absorb_rejects_mismatched_geometry(self, stream):
        donor = FastReqSketch(64, seed=42)
        donor.update_many(stream[:100])
        sharded = ShardedReqSketch(2, k=32, seed=43)
        from repro.errors import IncompatibleSketchesError

        with pytest.raises(IncompatibleSketchesError):
            sharded.absorb(donor)

    def test_absorb_rejected_on_process_backend(self, stream):
        donor = FastReqSketch(32, seed=44)
        donor.update_many(stream[:100])
        with ShardedReqSketch(2, k=32, seed=45, backend="process") as sharded:
            with pytest.raises(InvalidParameterError, match="local backend"):
                sharded.absorb(donor)


class TestProcessBackend:
    def test_end_to_end(self, stream):
        data = stream[:40_000]
        with ShardedReqSketch(
            2, k=32, seed=14, backend="process", flush_items=8_000
        ) as sharded:
            for chunk in np.array_split(data, 5):
                sharded.update_many(chunk)
            sharded.update(0.5)
            assert sharded.n == data.size + 1
            assert sharded.rank(2.0) == data.size + 1
            exact = np.sort(data)
            y = float(exact[400])
            true = int(np.searchsorted(exact, y, side="right"))
            assert abs(sharded.rank(y) - true) / true < 0.06

    def test_collect_then_continue_ingesting(self, stream):
        with ShardedReqSketch(
            2, k=16, seed=15, backend="process", flush_items=4_000
        ) as sharded:
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

    def test_num_retained_does_not_collect(self, stream):
        sharded = ShardedReqSketch(2, k=16, seed=20, backend="process")
        try:
            sharded.update_many(stream[:5_000])
            # Nothing shipped or decoded yet: the raw pending items are the cost.
            assert sharded.num_retained == 5_000
            assert sharded._union is None  # reading the metric did not collect
            sharded.collect()
            assert 0 < sharded.num_retained < 5_000  # now compacted partials
        finally:
            sharded.close()

    def test_close_idempotent(self):
        sharded = ShardedReqSketch(2, seed=16, backend="process")
        sharded.update_many(np.arange(100.0))
        assert sharded.rank(99.0) == 100
        sharded.close()
        sharded.close()


class TestMonitorIntegration:
    def test_horizon_uses_merge_many(self, monkeypatch, stream):
        """A window ring's horizon must go through the k-way path."""
        from repro.windowed import WindowRing

        calls = []
        original = FastReqSketch.merge_many

        def spy(self, sketches):
            sketches = list(sketches)
            calls.append(len(sketches))
            return original(self, sketches)

        monkeypatch.setattr(FastReqSketch, "merge_many", spy)
        ring = WindowRing(1.0, seed=17)
        ring.ingest(np.arange(5500) / 1000.0, stream[:5500])  # buckets 0..5
        merged = ring.horizon(0.0, 6.0)
        assert merged.n == 5500
        assert calls and calls[-1] == 6  # one source per bucket
