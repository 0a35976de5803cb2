"""Tests for the numpy-accelerated engine, cross-validated against the
reference implementation."""

from __future__ import annotations

import bisect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ReqSketch
from repro.errors import (
    EmptySketchError,
    IncompatibleSketchesError,
    InvalidParameterError,
)
from repro.fast import FastReqSketch


@pytest.fixture(scope="module")
def big_stream():
    return np.random.default_rng(515).random(200_000)


class TestConstruction:
    def test_rejects_odd_k(self):
        with pytest.raises(InvalidParameterError):
            FastReqSketch(7)

    def test_empty_queries_raise(self):
        sketch = FastReqSketch(16)
        with pytest.raises(EmptySketchError):
            sketch.rank(0.5)
        with pytest.raises(EmptySketchError):
            sketch.quantile(0.5)

    def test_nan_rejected_scalar_and_batch(self):
        sketch = FastReqSketch(16)
        with pytest.raises(InvalidParameterError):
            sketch.update(float("nan"))
        with pytest.raises(InvalidParameterError):
            sketch.update_many(np.array([1.0, float("nan")]))


class TestCorrectness:
    def test_weight_conservation(self, big_stream):
        sketch = FastReqSketch(32, seed=1)
        sketch.update_many(big_stream)
        assert sketch.rank(float(big_stream.max())) == big_stream.size

    def test_n_and_extremes(self, big_stream):
        sketch = FastReqSketch(32, seed=2)
        sketch.update_many(big_stream)
        assert sketch.n == big_stream.size
        assert sketch.min_item == float(big_stream.min())
        assert sketch.max_item == float(big_stream.max())
        assert sketch.quantile(0.0) == sketch.min_item
        assert sketch.quantile(1.0) == sketch.max_item

    def test_low_rank_accuracy(self, big_stream):
        sketch = FastReqSketch(32, seed=3)
        sketch.update_many(big_stream)
        exact = np.sort(big_stream)
        for fraction in (0.0005, 0.001, 0.01, 0.1, 0.5):
            y = float(exact[int(fraction * exact.size)])
            true = int(np.searchsorted(exact, y, side="right"))
            assert abs(sketch.rank(y) - true) / true < 0.05

    def test_hra_tail_accuracy(self, big_stream):
        sketch = FastReqSketch(32, hra=True, seed=4)
        sketch.update_many(big_stream)
        exact = np.sort(big_stream)
        n = exact.size
        for back in (2, 20, 200):
            y = float(exact[n - back])
            true = int(np.searchsorted(exact, y, side="right"))
            assert abs(sketch.rank(y) - true) <= 0.05 * (n - true + 1) + 1

    def test_matches_reference_error_class(self, big_stream):
        """Fast and reference engines agree within their shared eps class."""
        fast = FastReqSketch(32, seed=5)
        fast.update_many(big_stream)
        ref = ReqSketch(32, seed=5)
        ref.update_many(big_stream.tolist())
        exact = np.sort(big_stream)
        for fraction in (0.001, 0.01, 0.5):
            y = float(exact[int(fraction * exact.size)])
            true = int(np.searchsorted(exact, y, side="right"))
            fast_err = abs(fast.rank(y) - true) / true
            ref_err = abs(ref.rank(y) - true) / true
            assert fast_err < max(5 * ref_err, 0.02)

    def test_space_comparable_to_reference(self, big_stream):
        fast = FastReqSketch(32, seed=6)
        fast.update_many(big_stream)
        ref = ReqSketch(32, seed=6)
        ref.update_many(big_stream.tolist())
        assert fast.num_retained < 3 * ref.num_retained


class TestScalarPath:
    def test_scalar_updates_buffered(self):
        sketch = FastReqSketch(16, seed=7)
        for value in (3.0, 1.0, 2.0):
            sketch.update(value)
        assert sketch.n == 3
        assert sketch.rank(2.0) == 2  # queries see staged values

    def test_mixed_scalar_and_batch(self):
        sketch = FastReqSketch(16, seed=8)
        sketch.update(5.0)
        sketch.update_many(np.arange(100, dtype=float))
        sketch.update(105.0)
        assert sketch.n == 102
        assert sketch.rank(105.0) == 102

    def test_flush_idempotent(self):
        sketch = FastReqSketch(16, seed=9)
        sketch.update(1.0)
        sketch.flush()
        sketch.flush()
        assert sketch.n == 1
        assert sketch.rank(1.0) == 1

    def test_many_scalars_cross_block_boundary(self):
        sketch = FastReqSketch(16, seed=10)
        for i in range(10_000):
            sketch.update(float(i))
        assert sketch.n == 10_000
        assert sketch.rank(9999.0) == 10_000


class TestVectorQueries:
    def test_ranks_match_scalar(self, big_stream):
        sketch = FastReqSketch(32, seed=11)
        sketch.update_many(big_stream)
        queries = np.array([0.1, 0.5, 0.9])
        batch = sketch.ranks(queries)
        assert list(batch) == [sketch.rank(float(q)) for q in queries]

    def test_ranks_monotone(self, big_stream):
        sketch = FastReqSketch(32, seed=12)
        sketch.update_many(big_stream)
        ranks = sketch.ranks(np.linspace(0, 1, 50))
        assert (np.diff(ranks) >= 0).all()

    def test_quantiles_monotone(self, big_stream):
        sketch = FastReqSketch(32, seed=13)
        sketch.update_many(big_stream)
        values = sketch.quantiles(np.linspace(0, 1, 21))
        assert (np.diff(values) >= 0).all()

    def test_quantile_fraction_validated(self, big_stream):
        sketch = FastReqSketch(32, seed=14)
        sketch.update_many(big_stream[:100])
        with pytest.raises(InvalidParameterError):
            sketch.quantiles([1.5])

    def test_cdf(self, big_stream):
        sketch = FastReqSketch(32, seed=15)
        sketch.update_many(big_stream)
        cdf = sketch.cdf([0.25, 0.5, 0.75])
        assert cdf[-1] == 1.0
        assert (np.diff(cdf) >= 0).all()
        assert abs(cdf[1] - 0.5) < 0.02

    def test_cdf_validation(self, big_stream):
        sketch = FastReqSketch(32, seed=16)
        sketch.update_many(big_stream[:100])
        with pytest.raises(InvalidParameterError):
            sketch.cdf([2.0, 1.0])
        with pytest.raises(InvalidParameterError):
            sketch.cdf([])

    @pytest.mark.parametrize(
        "query",
        [
            lambda s: s.quantiles([math.nan, 0.5]),
            lambda s: s.quantiles([0.5, math.nan]),
            lambda s: s.cdf([1.0, math.nan]),
            lambda s: s.cdf([math.nan, 1.0]),
        ],
        ids=["quantiles-lead", "quantiles-trail", "cdf-trail", "cdf-lead"],
    )
    def test_nan_arguments_rejected_like_reference(self, query):
        """NaN fractions / split points raise in both engines (the fast
        engine used to cast NaN to a rank and answer with garbage)."""
        data = np.arange(1000, dtype=np.float64)
        reference = ReqSketch(32, seed=1)
        for value in data:
            reference.update(float(value))
        fast = FastReqSketch(32, seed=1)
        fast.update_many(data)
        with pytest.raises(InvalidParameterError):
            query(reference)
        with np.errstate(all="raise"):  # no cast warning on the way out
            for _ in range(2):  # and never memoized: raises every time
                with pytest.raises(InvalidParameterError):
                    query(fast)

    def test_single_nan_split_point_rejected(self):
        sketch = FastReqSketch(32, seed=2)
        sketch.update_many(np.arange(100, dtype=np.float64))
        with pytest.raises(InvalidParameterError, match="NaN"):
            sketch.cdf([math.nan])


class TestMerge:
    def test_merge_basics(self, big_stream):
        a = FastReqSketch(32, seed=17)
        b = FastReqSketch(32, seed=18)
        half = big_stream.size // 2
        a.update_many(big_stream[:half])
        b.update_many(big_stream[half:])
        a.merge(b)
        assert a.n == big_stream.size
        assert a.rank(float(big_stream.max())) == big_stream.size
        assert b.n == big_stream.size - half  # other unchanged

    def test_merge_mismatch(self):
        with pytest.raises(IncompatibleSketchesError):
            FastReqSketch(16).merge(FastReqSketch(32))
        with pytest.raises(IncompatibleSketchesError):
            FastReqSketch(16).merge(object())

    def test_merge_accuracy(self, big_stream):
        parts = np.array_split(big_stream, 8)
        root = FastReqSketch(32, seed=19)
        root.update_many(parts[0])
        for index, part in enumerate(parts[1:]):
            shard = FastReqSketch(32, seed=20 + index)
            shard.update_many(part)
            root.merge(shard)
        exact = np.sort(big_stream)
        y = float(exact[2000])
        true = int(np.searchsorted(exact, y, side="right"))
        assert abs(root.rank(y) - true) / true < 0.05

    def test_merge_with_pending_scalars(self):
        a = FastReqSketch(16, seed=21)
        b = FastReqSketch(16, seed=22)
        a.update(1.0)
        b.update(2.0)
        a.merge(b)
        assert a.n == 2
        assert a.rank(2.0) == 2


class TestSmallBatchStaging:
    def test_small_batch_is_staged_not_flushed(self):
        """Batches below the staging block must not churn the levels."""
        sketch = FastReqSketch(16, seed=30)
        sketch.update_many([3.0, 1.0, 2.0])
        assert sketch.n == 3
        assert sketch.num_levels == 0  # still staged
        assert sketch._stage.count == 3
        assert sketch.num_retained == 3
        assert sketch.rank(2.0) == 2  # queries peek at the stage
        assert sketch.num_levels == 0 and sketch.num_staged == 3
        sketch.flush()
        assert sketch.num_levels >= 1

    def test_repeated_small_batches_cross_block(self):
        sketch = FastReqSketch(16, seed=31)
        rng = np.random.default_rng(31)
        total = 0
        for _ in range(40):
            batch = rng.random(500)
            sketch.update_many(batch)
            total += batch.size
        assert sketch.n == total
        assert sketch.rank(1.0) == total  # weight conserved across flushes

    def test_small_batch_nan_rejected_before_staging(self):
        sketch = FastReqSketch(16, seed=32)
        sketch.update_many([1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            sketch.update_many([3.0, float("nan")])
        assert sketch.n == 2  # nothing from the bad batch was staged
        assert sketch._stage.count == 2

    def test_large_batch_nan_rejected_before_ingest(self):
        sketch = FastReqSketch(16, seed=33)
        bad = np.arange(float(2 * sketch._stage.capacity))
        bad[17] = float("nan")
        with pytest.raises(InvalidParameterError):
            sketch.update_many(bad)
        assert sketch.n == 0

    def test_min_max_reflect_staged_items(self):
        sketch = FastReqSketch(16, seed=34)
        sketch.update(5.0)
        sketch.update(-2.0)
        assert sketch.min_item == -2.0
        assert sketch.max_item == 5.0


class TestIncrementalCoreset:
    """The version-stamped coreset cache must be invisible to queries."""

    @staticmethod
    def _scratch_answers(sketch, queries, fractions):
        """Force a full rebuild (drop the cache) and re-answer."""
        sketch._index = None
        sketch._index_key = None
        rebuilds = sketch.query_index_rebuilds
        answers = sketch.ranks(queries), sketch.quantiles(fractions)
        assert sketch.query_index_rebuilds == rebuilds + 1
        return answers

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_interleaved_updates_queries_merges_byte_identical(self, seed):
        rng = np.random.default_rng(seed)
        sketch = FastReqSketch(8, seed=seed)
        queries = np.linspace(-0.1, 1.1, 57)
        fractions = np.linspace(0.0, 1.0, 33)
        for step in range(25):
            op = int(rng.integers(0, 4))
            if op == 0:
                sketch.update_many(rng.random(int(rng.integers(1, 3000))))
            elif op == 1:
                for value in rng.random(int(rng.integers(1, 8))):
                    sketch.update(float(value))
            elif op == 2:
                other = FastReqSketch(8, seed=1000 + step)
                other.update_many(rng.random(int(rng.integers(1, 2000))))
                sketch.merge(other)
            else:
                sketch.flush()
            if sketch.n == 0:
                continue
            ranks_cached = sketch.ranks(queries)
            quantiles_cached = sketch.quantiles(fractions)
            ranks_scratch, quantiles_scratch = self._scratch_answers(
                sketch, queries, fractions
            )
            assert ranks_cached.tobytes() == ranks_scratch.tobytes()
            assert quantiles_cached.tobytes() == quantiles_scratch.tobytes()

    def test_clean_cache_is_reused(self, big_stream):
        sketch = FastReqSketch(32, seed=40)
        sketch.update_many(big_stream)
        first = sketch.query_index()
        second = sketch.query_index()
        assert first is second  # no rebuild without intervening updates
        assert sketch.query_index_hits >= 1
        assert second.version == sketch.query_index_version

    def test_update_invalidates_cache(self, big_stream):
        sketch = FastReqSketch(32, seed=41)
        sketch.update_many(big_stream[:100_000])
        before = sketch.rank(0.5)
        cached = sketch.query_index()
        rebuilds = sketch.query_index_rebuilds
        sketch.update_many(big_stream[100_000:])
        fresh = sketch.query_index()
        assert fresh is not cached
        assert fresh.version > cached.version
        assert sketch.query_index_rebuilds == rebuilds + 1
        assert sketch.rank(float(big_stream.max())) == big_stream.size
        assert sketch.rank(0.5) >= before


class TestPythonFallbackStage:
    @pytest.fixture
    def fallback_sketch(self, monkeypatch):
        from repro.fast import engine as engine_mod

        monkeypatch.setattr(engine_mod, "_NativeStageBuffer", None)
        return engine_mod.FastReqSketch(16, seed=50)

    def test_fallback_matches_semantics(self, fallback_sketch):
        sketch = fallback_sketch
        assert type(sketch._stage).__name__ == "_PyStageBuffer"
        for i in range(10_000):
            sketch.update(float(i % 101))
        sketch.update_many(np.arange(100.0))
        assert sketch.n == 10_100
        assert sketch.rank(200.0) == 10_100
        with pytest.raises(InvalidParameterError):
            sketch.update(float("nan"))
        assert sketch.n == 10_100

    def test_fallback_extend_crosses_block_boundary(self, fallback_sketch):
        sketch = fallback_sketch
        block = sketch._stage.capacity
        sketch.update_many(np.random.default_rng(5).random(block - 1))
        sketch.update_many(np.asarray([0.5, 0.25]))  # wraps over the block edge
        assert sketch.n == block + 1
        assert sketch.rank(2.0) == block + 1


def _stage_types():
    from repro.fast import engine as engine_mod

    native = engine_mod._NativeStageBuffer
    return [
        pytest.param(native, id="native", marks=pytest.mark.skipif(
            native is None, reason="C staging buffer not built")),
        pytest.param(engine_mod._PyStageBuffer, id="python"),
    ]


class TestStageNanCheck:
    """``StageBuffer.extend`` (and its Python mirror) rejects a NaN before
    staging anything, which is the small-batch path's only NaN check."""

    @pytest.fixture(params=_stage_types())
    def stage_type(self, request, monkeypatch):
        from repro.fast import engine as engine_mod

        monkeypatch.setattr(engine_mod, "_NativeStageBuffer", request.param)
        return request.param

    @staticmethod
    def _bad_batches(size):
        batches = []
        for position in (0, size // 2, size - 1):
            batch = np.linspace(1.0, 2.0, size)
            batch[position] = np.nan
            batches.append(batch)
        strided = np.linspace(1.0, 2.0, 2 * size)
        strided[2 * (size // 3)] = np.nan
        batches.append(strided[::2])  # a non-contiguous view
        return batches

    @pytest.mark.parametrize("prefix", [5, "edge"])
    def test_nan_anywhere_leaves_the_sketch_unchanged(self, stage_type, prefix):
        sketch = FastReqSketch(16, seed=35)
        assert type(sketch._stage) is stage_type
        capacity = sketch._stage.capacity
        # "edge": the bad batch would cross the block edge and drain it.
        count = capacity - 3 if prefix == "edge" else prefix
        good = np.random.default_rng(35).random(count)
        sketch.update_many(good)
        reference = FastReqSketch(16, seed=35)
        reference.update_many(good)
        staged = sketch._stage.peek()
        for batch in self._bad_batches(10):
            with pytest.raises(InvalidParameterError, match="NaN"):
                sketch.update_many(batch)
            assert sketch.n == count
            assert sketch.num_staged == count
            assert sketch.num_levels == 0
            assert sketch._stage.peek() == staged
        assert sketch.to_bytes() == reference.to_bytes()

    def test_extend_rejects_nan_before_copying(self, stage_type):
        drains = []
        stage = stage_type(4, InvalidParameterError)
        stage.set_flush(lambda: drains.append(stage.drain()))
        stage.extend(np.asarray([1.0, 2.0, 3.0]))
        with pytest.raises(InvalidParameterError):
            stage.extend(np.asarray([4.0, 5.0, np.nan]))
        assert stage.count == 3
        assert drains == []
        stage.extend(np.asarray([4.0, 5.0]))
        assert drains == [np.asarray([1.0, 2.0, 3.0, 4.0]).tobytes()]
        assert stage.peek() == np.asarray([5.0]).tobytes()


class TestErrorBounds:
    def test_rank_bounds_bracket_estimate(self, big_stream):
        sketch = FastReqSketch(32, seed=60)
        sketch.update_many(big_stream)
        y = float(np.quantile(big_stream, 0.1))
        lower, upper = sketch.rank_bounds(y)
        assert 0 <= lower <= sketch.rank(y) <= upper <= sketch.n
        assert 0.0 < sketch.error_bound() < 1.0


class TestPropertyBased:
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=500,
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_weight_conservation_property(self, stream, seed):
        sketch = FastReqSketch(4, seed=seed)
        sketch.update_many(np.asarray(stream, dtype=np.float64))
        assert sketch.rank(float(max(stream))) == len(stream)

    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=400),
        st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_sorting(self, stream, seed):
        sketch = FastReqSketch(4, seed=seed)
        sketch.update_many(np.asarray(stream, dtype=np.float64))
        ordered = sorted(stream)
        y = float(ordered[len(ordered) // 2])
        true = bisect.bisect_right(ordered, y)
        assert abs(sketch.rank(y) - true) <= max(6, 0.5 * true)


def _coin_heavy_ops(sketch, seed):
    """Feed ``sketch`` a stream that compacts often: staged scalars, small
    and block-sized batches, a merge and interleaved reads."""
    rng = np.random.default_rng(seed)
    for round_ in range(6):
        for value in rng.random(300):
            sketch.update(float(value))
        sketch.update_many(rng.lognormal(0.0, 1.0, 2000))
        sketch.update_many(rng.random(9000))
        donor = FastReqSketch(sketch.k, hra=sketch.hra, seed=round_)
        donor.update_many(rng.random(5000))
        sketch.merge(donor)
        sketch.quantiles([0.01, 0.5, 0.99])


class TestLazyCoins:
    """The coin generator is built at the first compaction, from the seed
    given at construction or by the last :meth:`FastReqSketch.reseed`."""

    @pytest.mark.parametrize("hra", [False, True])
    @pytest.mark.parametrize("seed", [0, 12345, -7])
    def test_matches_an_eagerly_built_generator(self, seed, hra):
        lazy = FastReqSketch(8, hra=hra, seed=seed)
        eager = FastReqSketch(8, hra=hra, seed=seed)
        eager._rng = np.random.default_rng(seed & (2**64 - 1))
        _coin_heavy_ops(lazy, 1)
        _coin_heavy_ops(eager, 1)
        assert lazy.to_bytes() == eager.to_bytes()
        fractions = np.linspace(0.0, 1.0, 41)
        assert np.array_equal(lazy.quantiles(fractions), eager.quantiles(fractions))
        assert lazy.num_levels > 3  # the stream really spent coins

    def test_reseed_before_the_first_compaction(self):
        sketch = FastReqSketch(8, seed=1)
        sketch.update_many([3.0, 1.0, 2.0])  # staged only
        sketch.reseed(99)
        fresh = FastReqSketch(8, seed=99)
        fresh.update_many([3.0, 1.0, 2.0])
        _coin_heavy_ops(sketch, 2)
        _coin_heavy_ops(fresh, 2)
        assert sketch.to_bytes() == fresh.to_bytes()

    def test_reseed_after_the_first_compaction(self):
        sketch = FastReqSketch(8, seed=1)
        eager = FastReqSketch(8, seed=1)
        unpinned = FastReqSketch(8, seed=1)
        for target in (sketch, eager, unpinned):
            _coin_heavy_ops(target, 3)
        assert sketch._rng is not None
        sketch.reseed(99)
        eager._rng = np.random.default_rng(99)
        for target in (sketch, eager, unpinned):
            _coin_heavy_ops(target, 4)
        assert sketch.to_bytes() == eager.to_bytes()
        assert sketch.to_bytes() != unpinned.to_bytes()

    def test_staging_only_sketch_builds_no_generator(self):
        sketch = FastReqSketch(32, seed=5)
        sketch.update_many(np.random.default_rng(5).random(5000))
        sketch.update(0.5)
        assert sketch._rng is None  # staged only
        small = FastReqSketch(32, seed=5)
        small.update_many(np.random.default_rng(5).random(100))
        assert small.quantile(0.5) > 0.0  # a flush under level-0 capacity
        assert small._rng is None
        assert FastReqSketch.from_bytes(small.to_bytes())._rng is None
        sketch.update_many(np.random.default_rng(6).random(20000))
        assert sketch._rng is not None

    def test_from_bytes_and_pickle_round_trips(self):
        import pickle

        sketch = FastReqSketch(8, hra=True, seed=11)
        _coin_heavy_ops(sketch, 5)
        payload = sketch.to_bytes()
        for copy in (FastReqSketch.from_bytes(payload), pickle.loads(pickle.dumps(sketch))):
            assert copy.to_bytes() == payload
            assert copy._rng is None
        # A decoded copy re-pinned to a seed continues deterministically.
        first = FastReqSketch.from_bytes(payload)
        second = pickle.loads(pickle.dumps(sketch))
        first.reseed(21)
        second.reseed(21)
        _coin_heavy_ops(first, 6)
        _coin_heavy_ops(second, 6)
        assert first.to_bytes() == second.to_bytes()
        assert first.n == second.n > sketch.n

    def test_no_coin_state_assigned_outside_the_engine(self):
        """Only the engines set coin state; everything else calls
        ``reseed``.  Objects seeding their own generators (``self._rng``)
        are not coin pokes."""
        import re
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        owners = {root / "fast" / "engine.py", root / "core" / "req.py"}
        assignment = re.compile(r"\._rng\s*=(?!=)")
        pokes = []
        for path in sorted(root.rglob("*.py")):
            if path in owners:
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if assignment.search(line) and not re.search(r"\bself\._rng\s*=", line):
                    pokes.append(f"{path.relative_to(root)}:{number}: {line.strip()}")
        assert pokes == []


class TestReadsArePure:
    """A read never changes a sketch: not its levels, its staging block,
    nor its coin stream."""

    @staticmethod
    def _read_everything(sketch):
        sketch.quantiles([0.0, 0.5, 0.99, 1.0])
        sketch.ranks([0.25, 0.75])
        sketch.cdf([0.1, 0.9])
        sketch.rank_bounds(0.5)
        assert sketch.min_item <= sketch.max_item
        sketch.to_bytes()
        FastReqSketch(sketch.k, hra=sketch.hra, seed=99).merge_many([sketch])

    @pytest.mark.parametrize("hra", [False, True], ids=["lra", "hra"])
    def test_reads_between_writes_leave_the_bytes_unchanged(self, hra):
        rng = np.random.default_rng(23)
        read = FastReqSketch(8, hra=hra, seed=5)
        unread = FastReqSketch(8, hra=hra, seed=5)
        # 1 + 700 + 3000 + 5000 crosses the 8192-value drain; 9000 and
        # 30000 take the large-batch path; 8191 refills most of a block.
        for size in (1, 700, 3000, 5000, 9000, 20, 8191, 4000, 30_000, 60):
            batch = rng.random(size)
            read.update_many(batch)
            unread.update_many(batch)
            self._read_everything(read)
            assert read.num_staged == unread.num_staged
        assert read.to_bytes() == unread.to_bytes()
        batch = rng.random(20_000)
        read.update_many(batch)
        unread.update_many(batch)
        assert read.to_bytes() == unread.to_bytes()
