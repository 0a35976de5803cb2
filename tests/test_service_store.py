"""Tests for the multi-tenant keyed store (repro.service.store)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError, ServiceError
from repro.fast import FastReqSketch
from repro.service import SketchStore
from repro.service.store import spill_filename


@pytest.fixture()
def rng():
    return np.random.default_rng(414)


class TestLazyCreation:
    def test_first_update_creates_key(self, rng):
        store = SketchStore(k=32)
        assert "a" not in store
        n = store.update_many("a", rng.random(1000))
        assert n == 1000
        assert "a" in store
        assert len(store) == 1

    def test_get_without_create_raises(self):
        store = SketchStore()
        with pytest.raises(KeyError):
            store.get("missing")

    def test_get_create_true_makes_empty_sketch(self):
        store = SketchStore(k=16)
        sketch = store.get("fresh", create=True)
        assert sketch.is_empty
        assert sketch.k == 16

    def test_keys_are_independent(self, rng):
        store = SketchStore(k=32)
        store.update_many("lo", rng.random(2000))
        store.update_many("hi", rng.random(2000) + 10.0)
        assert store.get("lo").quantile(0.5) < 1.0
        assert store.get("hi").quantile(0.5) > 10.0

    def test_derived_seeds_are_deterministic_and_distinct(self):
        store_a = SketchStore(seed=7)
        store_b = SketchStore(seed=7)
        assert store_a.derive_seed("k1") == store_b.derive_seed("k1")
        assert store_a.derive_seed("k1") != store_a.derive_seed("k2")
        assert SketchStore(seed=None).derive_seed("k1") is None

    def test_deterministic_rebuild_from_same_batches(self, rng):
        """Same seed + same batch sequence => bit-identical sketches."""
        batches = [rng.random(700) for _ in range(5)]
        store_a = SketchStore(seed=3)
        store_b = SketchStore(seed=3)
        for batch in batches:
            store_a.update_many("k", batch)
            store_b.update_many("k", batch)
        assert store_a.get("k").to_bytes() == store_b.get("k").to_bytes()


class TestMerge:
    def test_merge_payload_unions_into_key(self, rng):
        store = SketchStore(k=32)
        store.update_many("k", rng.random(1000))
        donor = FastReqSketch(32, seed=9)
        donor.update_many(rng.random(2000))
        n = store.merge_payload("k", donor.to_bytes())
        assert n == 3000
        assert store.get("k").n == 3000

    def test_merge_creates_key(self, rng):
        store = SketchStore(k=32)
        donor = FastReqSketch(32, seed=9)
        donor.update_many(rng.random(500))
        assert store.merge_payload("new", donor.to_bytes()) == 500

    def test_corrupt_payload_rejected(self):
        store = SketchStore()
        with pytest.raises(ServiceError, match="decode"):
            store.merge_payload("k", b"not a sketch")


class TestMemoryAccounting:
    def test_retained_matches_sum(self, rng):
        store = SketchStore(k=32)
        for i in range(8):
            store.update_many(f"k{i}", rng.random(3000))
        expected = sum(store.get(f"k{i}").num_retained for i in range(8))
        assert store.retained_items == expected

    def test_accounting_tracks_merges(self, rng):
        store = SketchStore(k=32)
        store.update_many("k", rng.random(1000))
        donor = FastReqSketch(32, seed=1)
        donor.update_many(rng.random(4000))
        store.merge_sketch("k", donor)
        assert store.retained_items == store.get("k").num_retained

    def test_serialization_keeps_accounting_exact(self, rng, tmp_path):
        """A payload read leaves the counter alone; a checkpoint's flush
        moves it, and the counter follows."""

        def resident_sum(store):
            return sum(entry.sketch.num_retained for _key, entry in store.items())

        store = SketchStore(k=32, memory_budget=10**6, spill_dir=tmp_path)
        for i in range(20):
            store.update_many(f"k{i}", rng.random(3000))
        store.payload("k0")
        store.peek("k1").to_bytes()
        assert store.retained_items == resident_sum(store)
        store.memory_budget = store.retained_items - 1
        store.update_many("k2", rng.random(10))  # one rung-1 checkpoint
        assert store.flush_count == 1
        assert store.retained_items == resident_sum(store)

    def test_snapshot_all_keeps_accounting_exact(self, rng, tmp_path):
        from repro.service import QuantileService

        service = QuantileService(tmp_path, k=32)
        service.ingest_groups([(f"k{i}", rng.random(3000)) for i in range(50)])
        store = service.store
        assert store.retained_items == 150_000  # all staged
        service.snapshot_all()
        assert store.retained_items == sum(e.sketch.num_retained for _k, e in store.items())
        assert store.retained_items < 150_000
        service.close()


    @pytest.mark.parametrize("read", ["query", "query_points", "query_batch"])
    def test_reads_keep_accounting_exact(self, rng, read):
        """A read peeks at the staging block: the counter never moves."""
        from repro.service import QuantileService

        service = QuantileService(k=32)
        service.ingest_groups([(f"k{i}", rng.random(3000)) for i in range(50)])
        store = service.store
        assert store.retained_items == 150_000  # all staged
        for i in range(50):
            if read == "query":
                service.query(f"k{i}", [0.5])
            elif read == "query_points":
                service.query_points(f"k{i}", "quantiles", np.array([0.5]), {})
            else:
                service.query_batch(f"k{i}", "quantiles", np.array([[0.5], [0.9]]))
        resident = sum(e.sketch.num_retained for _k, e in store.items())
        assert store.retained_items == resident == 150_000
        assert all(e.sketch.num_staged == 3000 for _k, e in store.items())
        service.close()

    def test_failed_reads_keep_accounting_exact(self, rng):
        store = SketchStore(k=32)
        store.update_many("a", rng.random(3000))
        store.update_many("b", rng.random(3000))
        with pytest.raises(InvalidParameterError):
            store.query("a", "quantiles", [2.0])  # fails after the index build
        with pytest.raises(InvalidParameterError):
            store.query("b", "cdf", [float("nan")])  # fails before it
        assert store.get("b").num_staged == 3000
        assert store.retained_items == sum(e.sketch.num_retained for _k, e in store.items())


class TestDeltaAccounting:
    """``update_many`` adds a staged batch's size instead of recounting;
    every other write recounts.  Random batches cross the staging block's
    drain (8192 values) and take the large-batch path."""

    @staticmethod
    def _sizes(rng, count):
        small = rng.integers(1, 60, count)
        medium = rng.integers(60, 8192, count)
        large = rng.integers(8192, 20_000, count)
        pick = rng.choice(3, count, p=[0.6, 0.3, 0.1])
        return np.choose(pick, [small, medium, large])

    @staticmethod
    def _recounted_victim(store):
        """:meth:`SketchStore._next_flush` recomputed from the sketches."""
        best = None
        for key, entry in store.items():
            staged = entry.sketch.num_staged
            if staged >= 2 * store.k and staged >= store._flush_floor(entry.sketch):
                if best is None or (-staged, key) < best:
                    best = (-staged, key)
        return None if best is None else best[1]

    @pytest.mark.parametrize("budget", [None, 12_000])
    def test_accounting_and_victims_match_a_recount(self, tmp_path, budget):
        rng = np.random.default_rng(7)
        store = SketchStore(k=32, memory_budget=budget, spill_dir=tmp_path)
        keys = [f"k{i}" for i in range(10)]
        for step, size in enumerate(self._sizes(rng, 300)):
            key = keys[int(rng.integers(len(keys)))]
            batch = rng.random(int(size))
            if step % 37 == 0:
                batch[int(rng.integers(batch.size))] = np.nan
                with pytest.raises(InvalidParameterError):
                    store.update_many(key, batch)
            else:
                store.update_many(key, batch)
            if step % 23 == 0 and store.key_stats(key)["n"]:
                store.query(key, "quantiles", [0.5])  # a read leaves the block alone
            for _key, entry in store.items():
                assert entry.retained == entry.sketch.num_retained
            assert store.retained_items == sum(
                entry.sketch.num_retained for _key, entry in store.items()
            )
            if budget is not None:
                assert store._next_flush() == self._recounted_victim(store)
        if budget is not None:
            assert store.flush_count > 0 and store.spill_count > 0

    def test_a_write_that_fails_after_a_drain_is_recounted(self, monkeypatch):
        store = SketchStore(k=32)
        store.update_many("k", np.linspace(0.0, 1.0, 8000))
        original = FastReqSketch._ingest_run

        def ingest_then_fail(sketch, run):
            original(sketch, run)
            raise MemoryError("simulated failure after the drain")

        monkeypatch.setattr(FastReqSketch, "_ingest_run", ingest_then_fail)
        with pytest.raises(MemoryError):
            store.update_many("k", np.linspace(0.0, 1.0, 500))  # crosses 8192
        sketch = store.get("k")
        assert sketch.num_levels > 0
        assert store.retained_items == sketch.num_retained


class TestSpill:
    def test_budget_requires_spill_target(self):
        with pytest.raises(InvalidParameterError, match="spill"):
            SketchStore(memory_budget=100)

    def test_lru_eviction_and_transparent_reload(self, rng, tmp_path):
        store = SketchStore(k=32, memory_budget=2000, spill_dir=tmp_path)
        streams = {f"k{i}": rng.random(3000) for i in range(6)}
        expected = {}
        for key, stream in streams.items():
            store.update_many(key, stream)
            expected[key] = store.get(key).quantile(0.5)
        assert store.spilled_keys, "budget of 2000 items must force evictions"
        assert store.retained_items <= 2000 or len(store.resident_keys) == 1
        assert len(store) == 6
        # Reload each key (including spilled ones) and check identical answers.
        for key in streams:
            assert store.get(key).quantile(0.5) == expected[key]
        assert store.load_count > 0

    def test_spill_files_are_frq1_payloads(self, rng, tmp_path):
        store = SketchStore(k=32, spill_dir=tmp_path, memory_budget=10_000)
        store.update_many("alpha", rng.random(2000))
        store.spill("alpha")
        path = tmp_path / spill_filename("alpha")
        assert path.exists()
        clone = FastReqSketch.from_bytes(path.read_bytes())
        assert clone.n == 2000

    def test_eviction_prefers_lru_order(self, rng, tmp_path):
        store = SketchStore(k=32, memory_budget=1500, spill_dir=tmp_path)
        store.update_many("old", rng.random(2500))
        store.update_many("newer", rng.random(2500))
        assert "old" in store.spilled_keys
        assert "newer" in store.resident_keys

    def test_explicit_spill_unknown_key(self, tmp_path):
        store = SketchStore(spill_dir=tmp_path)
        with pytest.raises(KeyError):
            store.spill("ghost")

    def test_budget_enforced_on_read_path_reload(self, rng, tmp_path):
        """QUERY-driven reloads must evict too, not just writes."""
        store = SketchStore(k=32, memory_budget=4000, spill_dir=tmp_path)
        for i in range(6):
            store.update_many(f"k{i}", rng.random(3000))
        assert store.spilled_keys
        for key in store.keys():
            store.get(key)  # read path only: no writes from here on
            assert (
                store.retained_items <= 4000 or len(store.resident_keys) == 1
            ), f"budget violated after reloading {key}"

    def test_updates_continue_after_reload(self, rng, tmp_path):
        store = SketchStore(k=32, spill_dir=tmp_path)
        store.update_many("k", rng.random(1000))
        store.spill("k")
        store.update_many("k", rng.random(1000))
        assert store.get("k").n == 2000


class TestFlushBeforeSpill:
    """The budget's ladder: checkpoint the largest staging blocks in place,
    then spill LRU keys once no block is worth flushing."""

    @staticmethod
    def recording_store(budget, **options):
        saved, pinned, files = [], [], {}

        def save(key, payload):
            saved.append(key)
            files[key] = payload

        store = SketchStore(
            k=8,
            memory_budget=budget,
            spill_save=save,
            spill_load=files.get,
            on_pin=lambda key, sketch: pinned.append(key),
            **options,
        )
        return store, saved, pinned

    def test_largest_stage_goes_first_in_place(self, rng):
        store, saved, pinned = self.recording_store(950)
        for key, size in (("a", 300), ("b", 500), ("c", 100)):
            store.update_many(key, rng.random(size))
        order = store.resident_keys
        store.update_many("c", rng.random(100))  # 1000 > 950
        assert saved == pinned == ["b"]
        assert store.flush_count == 1 and store.spill_count == 0
        assert store.key_stats("b")["staged"] == 0
        assert store.key_stats("a")["staged"] == 300
        assert store.key_stats("c")["staged"] == 200
        assert store.resident_keys == order  # LRU slots unchanged
        assert store.retained_items <= 950

    def test_ties_break_by_key_order(self, rng):
        store, saved, _pinned = self.recording_store(650)
        store.update_many("b", rng.random(300))
        store.update_many("a", rng.random(300))
        store.update_many("z", rng.random(60))  # below the flush floor
        assert saved == ["a"]

    def test_no_spill_while_a_candidate_remains(self, rng):
        store, saved, _pinned = self.recording_store(6000)
        first_over = None
        for i in range(30):
            store.update_many(f"k{i:02d}", rng.random(200 + 10 * i))
            if first_over is None and store.flush_count:
                first_over = f"k{i:02d}"
        assert store.spill_count == 0
        assert store.flush_count > 1
        assert store.retained_items <= 6000
        # Blocks grow with the key index, so the key whose write crossed
        # the budget held the largest one, and the first keys kept theirs.
        assert saved[0] == first_over
        assert store.key_stats("k00")["staged"] == 200

    def test_lru_spill_follows_the_last_flush(self, rng):
        store, saved, _pinned = self.recording_store(400)
        evict = store._evict

        def checked_evict(key, entry):
            assert store._next_flush() is None, "spilled while a flush candidate remained"
            evict(key, entry)

        store._evict = checked_evict
        for i in range(6):
            store.update_many(f"k{i}", rng.random(500))
        assert store.flush_count > 0 and store.spill_count > 0
        assert store.retained_items <= 400
        spilled = store.spilled_keys
        # LRU order: the oldest keys are the ones gone.
        assert spilled == [f"k{i}" for i in range(len(spilled))]
        for key in store.resident_keys:
            sketch = store.peek(key)
            assert sketch.num_staged < SketchStore._flush_floor(sketch)

    def test_store_without_budget_tracks_nothing(self, rng, tmp_path):
        store = SketchStore(k=8, spill_dir=tmp_path)
        for i in range(20):
            store.update_many(f"k{i}", rng.random(500))
        assert store._staged == {} and store._flush_heap == []
        assert store.stats()["flush_count"] == 0

    def test_failed_save_leaves_the_write_applied(self, rng):
        def failing_save(key, payload):
            raise OSError(28, "No space left on device")

        store = SketchStore(
            k=8, memory_budget=500, spill_save=failing_save, spill_load=lambda key: None
        )
        store.update_many("a", rng.random(400))
        assert store.update_many("b", rng.random(400)) == 400
        assert store.save_fail_count == 1
        assert store.stats()["save_fail_count"] == 1
        assert store.resident_keys == ["a", "b"]
        with pytest.raises(OSError):
            store.spill("a")  # an explicit spill still raises


class TestStats:
    def test_store_stats(self, rng, tmp_path):
        store = SketchStore(k=32, memory_budget=1500, spill_dir=tmp_path)
        for i in range(4):
            store.update_many(f"k{i}", rng.random(1500))
        stats = store.stats()
        assert stats["keys"] == 4
        assert stats["resident"] + stats["spilled"] == 4
        assert stats["spill_count"] >= stats["spilled"]

    def test_key_stats_resident_and_spilled(self, rng, tmp_path):
        store = SketchStore(k=32, spill_dir=tmp_path)
        store.update_many("k", rng.random(2000))
        # Flush staging first: the resident retained count includes staged
        # scalars, while a spill payload is always post-flush.
        store.get("k").flush()
        resident = store.key_stats("k")
        assert resident["resident"] is True
        assert resident["n"] == 2000
        assert resident["staged"] == 0
        retained = resident["retained"]
        store.spill("k")
        spilled = store.key_stats("k")
        assert spilled["resident"] is False
        assert spilled["n"] == 2000
        assert spilled["retained"] == retained
        # key_stats must not reload the key.
        assert "k" in store.spilled_keys

    def test_key_stats_unknown(self):
        store = SketchStore()
        with pytest.raises(KeyError):
            store.key_stats("ghost")


class TestValidation:
    def test_bad_k_fails_fast(self):
        with pytest.raises(InvalidParameterError):
            SketchStore(k=7)

    def test_nan_rejected(self):
        store = SketchStore()
        with pytest.raises(InvalidParameterError):
            store.update_many("k", [1.0, float("nan")])
        assert "k" in store  # the entry exists but holds nothing
        assert store.get("k").n == 0
