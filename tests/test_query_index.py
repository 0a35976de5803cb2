"""Cache-invalidation correctness of the version-stamped query index.

The main risk of the vectorized query plane is a stale cache: an index
(or memoized error bound) served after the coreset changed.  The property
tests here interleave every mutation the engine supports — ``update_many``
batches, staged scalars, ``merge``, wire round trips, spill-to-disk +
reload through :class:`~repro.service.SketchStore`, and full snapshot/WAL
recovery through :class:`~repro.service.QuantileService` — and after each
step require the cached index's answers to be **bit-identical** to a
freshly built coreset's (a new sketch decoded from the same ``FRQ1``
payload, which shares no cache state).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import eps_for_streaming_k
from repro.errors import InvalidParameterError
from repro.fast import FastReqSketch
from repro.fast import engine
from repro.service import QuantileService, SketchStore

QUERY_FRACTIONS = np.array([0.0, 0.001, 0.25, 0.5, 0.75, 0.99, 1.0])
QUERY_POINTS = np.array([-1.0, 0.1, 0.5, 0.9, 2.0])
CDF_POINTS = np.array([0.1, 0.5, 0.9])


def assert_index_matches_fresh(sketch) -> None:
    """The cached index must answer exactly like a cache-free rebuild."""
    if sketch.n == 0:
        return
    fresh = FastReqSketch.from_bytes(sketch.to_bytes())
    assert np.array_equal(sketch.quantiles(QUERY_FRACTIONS), fresh.quantiles(QUERY_FRACTIONS))
    assert np.array_equal(sketch.ranks(QUERY_POINTS), fresh.ranks(QUERY_POINTS))
    assert np.array_equal(
        sketch.ranks(QUERY_POINTS, inclusive=False),
        fresh.ranks(QUERY_POINTS, inclusive=False),
    )
    assert np.array_equal(sketch.cdf(CDF_POINTS), fresh.cdf(CDF_POINTS))


#: One mutation step: (op, payload seed / size).
steps = st.lists(
    st.tuples(
        st.sampled_from(["batch", "scalars", "merge", "roundtrip", "query"]),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1,
    max_size=12,
)


class TestIndexVsFreshCoreset:
    @given(steps, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_interleaved_mutations_stay_bit_identical(self, ops, hra):
        sketch = FastReqSketch(16, hra=hra, seed=7)
        for op, arg in ops:
            rng = np.random.default_rng(arg)
            if op == "batch":
                sketch.update_many(rng.random(int(rng.integers(1, 20_000))))
            elif op == "scalars":
                for value in rng.random(int(rng.integers(1, 50))):
                    sketch.update(value)
            elif op == "merge":
                donor = FastReqSketch(16, hra=hra, seed=arg)
                donor.update_many(rng.random(int(rng.integers(1, 5_000))))
                donor.quantile(0.5)  # donor owns a warm index of its own
                sketch.merge(donor)
            elif op == "roundtrip":
                if sketch.n:
                    sketch = FastReqSketch.from_bytes(sketch.to_bytes())
            else:  # query: warm the cache so later mutations must invalidate it
                if sketch.n:
                    sketch.quantiles(QUERY_FRACTIONS)
                    sketch.ranks(QUERY_POINTS)
            assert_index_matches_fresh(sketch)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_repeated_queries_hit_without_drift(self, seed):
        rng = np.random.default_rng(seed)
        sketch = FastReqSketch(32, seed=3)
        sketch.update_many(rng.random(30_000))
        first = sketch.quantiles(QUERY_FRACTIONS)
        rebuilds = sketch.query_index_rebuilds
        for _ in range(3):
            assert np.array_equal(sketch.quantiles(QUERY_FRACTIONS), first)
        assert sketch.query_index_rebuilds == rebuilds  # pure hits
        assert sketch.query_index_hits >= 3


class TestSpillReloadAndRecovery:
    def test_spill_reload_answers_bit_identical(self, tmp_path):
        store = SketchStore(k=32, seed=0, spill_dir=str(tmp_path / "spill"))
        rng = np.random.default_rng(11)
        store.update_many("k", rng.random(40_000))
        n, eps, values, retained = store.query("k", "quantiles", QUERY_FRACTIONS)
        ranks_before = store.query("k", "ranks", QUERY_POINTS)[2]
        store.spill("k")
        assert "k" in store.spilled_keys
        # The reload rebuilds the index once, then serves hits from it.
        n2, eps2, values2, retained2 = store.query("k", "quantiles", QUERY_FRACTIONS)
        assert (n, eps, retained) == (n2, eps2, retained2)
        assert np.array_equal(values, values2)
        assert np.array_equal(ranks_before, store.query("k", "ranks", QUERY_POINTS)[2])
        stats = store.query_index_stats()
        assert stats["rebuilds"] >= 2  # pre-spill build + post-reload build
        assert stats["hits"] >= 1
        assert stats["misses"] == stats["rebuilds"]

    def test_answer_hits_stay_monotonic_across_spill_reload(self, tmp_path):
        store = SketchStore(k=32, seed=0, spill_dir=str(tmp_path / "spill"))
        store.update_many("k", np.random.default_rng(12).random(20_000))
        for _ in range(3):
            store.query("k", "quantiles", QUERY_FRACTIONS)
        before = store.query_index_stats()
        assert before["answer_hits"] == 2
        store.spill("k")
        assert store.query_index_stats() == before  # folded, not lost
        store.query("k", "quantiles", QUERY_FRACTIONS)  # reload: a fresh build
        store.query("k", "quantiles", QUERY_FRACTIONS)
        after = store.query_index_stats()
        assert after["answer_hits"] == before["answer_hits"] + 1
        assert after["hits"] == before["hits"] + 1
        assert after["rebuilds"] == before["rebuilds"] + 1

    def test_snapshot_recovery_answers_bit_identical(self, tmp_path):
        rng = np.random.default_rng(23)
        service = QuantileService(tmp_path, k=32)
        service.ingest("k", rng.random(20_000))
        service.snapshot_all()
        service.ingest("k", rng.random(10_000) + 2.0)  # WAL-only tail
        expected_q = service.query("k", QUERY_FRACTIONS)
        expected_r = service.rank("k", QUERY_POINTS)
        expected_c = service.cdf("k", CDF_POINTS)
        service.close(snapshot=False)  # crash: recovery replays the WAL tail

        recovered = QuantileService(tmp_path, k=32)
        for expected, got in (
            (expected_q, recovered.query("k", QUERY_FRACTIONS)),
            (expected_r, recovered.rank("k", QUERY_POINTS)),
            (expected_c, recovered.cdf("k", CDF_POINTS)),
        ):
            assert expected[0] == got[0]  # n
            assert expected[1] == got[1]  # memoized error bound
            assert np.array_equal(expected[2], got[2])  # values, bit-exact
            assert expected[3] == got[3]  # num_retained footer source
        # Recovery replays through update_many: the index it serves must
        # also match a cache-free rebuild of its own state.
        assert_index_matches_fresh(recovered.store.get("k"))
        recovered.close()


class TestMemoizedErrorBound:
    def test_memo_matches_direct_computation(self):
        sketch = FastReqSketch(32, seed=1)
        rng = np.random.default_rng(5)
        for _ in range(4):
            sketch.update_many(rng.random(5_000))
            assert sketch.error_bound() == eps_for_streaming_k(32, max(2, sketch.n), 0.05)
            # Second call is the memo; must be the identical value.
            assert sketch.error_bound() == eps_for_streaming_k(32, max(2, sketch.n), 0.05)

    def test_memo_keyed_on_delta(self):
        sketch = FastReqSketch(32, seed=1)
        sketch.update_many(np.random.default_rng(6).random(10_000))
        loose = sketch.error_bound(delta=0.5)
        tight = sketch.error_bound(delta=0.01)
        assert loose == eps_for_streaming_k(32, sketch.n, 0.5)
        assert tight == eps_for_streaming_k(32, sketch.n, 0.01)
        assert loose < tight

    def test_memo_tracks_staged_scalars(self):
        sketch = FastReqSketch(32, seed=2)
        sketch.update_many(np.random.default_rng(8).random(4_096))
        assert sketch.error_bound() == eps_for_streaming_k(32, 4_096, 0.05)
        sketch.update(0.5)  # staged only: n changes without a level bump
        assert sketch.n == 4_097
        # The memo must not serve the stale n=4096 bound.
        assert sketch.error_bound() == eps_for_streaming_k(32, 4_097, 0.05)


@pytest.mark.parametrize("hra", [False, True])
def test_wire_answers_match_in_process(hra):
    """The service answers (vectorized path included) must equal the
    in-process engine's for the same key state — the acceptance check."""
    from repro.service import QuantileClient, ServerThread

    rng = np.random.default_rng(13)
    data = rng.random(30_000)
    service = QuantileService(None, k=32, hra=hra, seed=0)
    with ServerThread(service) as running:
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("k", data)
            sketch = service.store.get("k")
            expected_q = sketch.quantiles(QUERY_FRACTIONS)
            expected_r = np.asarray(sketch.ranks(QUERY_POINTS), dtype=np.float64)
            expected_c = sketch.cdf(CDF_POINTS)

            assert np.array_equal(client.query("k", QUERY_FRACTIONS).quantiles, expected_q)
            assert np.array_equal(client.rank("k", QUERY_POINTS).quantiles, expected_r)
            assert np.array_equal(client.cdf("k", CDF_POINTS).quantiles, expected_c)

            batch = client.query_stream("k", np.tile(QUERY_FRACTIONS, (64, 1)), window=2)
            assert batch.values.shape == (64, QUERY_FRACTIONS.size)
            assert all(np.array_equal(row, expected_q) for row in batch.values)

            mixed = client.query_many(
                [("k", QUERY_FRACTIONS), ("k", "ranks", QUERY_POINTS), ("k", "cdf", CDF_POINTS)]
            )
            assert np.array_equal(mixed[0].quantiles, expected_q)
            assert np.array_equal(mixed[1].quantiles, expected_r)
            assert np.array_equal(mixed[2].quantiles, expected_c)


#: Requests drawn by the answer-memo property test: (method, points,
#: kwargs).  Repeats of a small ``quantiles`` request are memo hits; q=0
#: and q=1 read the exact extremes, which live beside the index, not in
#: it.  ``ranks``/``cdf`` are never memoized but share the index.
MEMO_REQUESTS = [
    ("quantiles", np.array([0.0]), {}),
    ("quantiles", np.array([1.0]), {}),
    ("quantiles", np.array([0.0, 0.5, 1.0]), {}),
    ("quantiles", np.array([0.5, 0.9, 0.99, 0.999]), {}),
    ("ranks", QUERY_POINTS, {}),
    ("ranks", QUERY_POINTS, {"inclusive": False}),
    ("cdf", CDF_POINTS, {}),
    ("cdf", CDF_POINTS, {"inclusive": False}),
    # Over the size cap: answered, never retained.
    ("quantiles", np.linspace(0.0, 1.0, engine._MEMO_MAX_POINTS + 1), {}),
]

#: Invalid requests: each must raise on every attempt (never memoized).
MEMO_INVALID = [
    ("quantiles", np.array([np.nan, 0.5])),
    ("quantiles", np.array([0.5, 1.5])),
    ("cdf", np.array([0.5, np.nan])),
    ("cdf", np.array([0.9, 0.1])),
]

memo_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["update", "update_many", "merge", "merge_many", "flush", "roundtrip", "query", "invalid"]
        ),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1,
    max_size=16,
)


def _memo(sketch):
    """The current build's memoized ``quantiles`` answer, if any."""
    return None if sketch._index is None else sketch._index.memo


def assert_memo_well_formed(sketch) -> None:
    memo = _memo(sketch)
    if memo is not None:
        fractions = np.frombuffer(memo[0], dtype=np.float64)
        assert fractions.size <= engine._MEMO_MAX_POINTS
        assert ((fractions >= 0.0) & (fractions <= 1.0)).all()  # validated only
        assert memo[1].size == fractions.size


def assert_answers_match_fresh(sketch) -> None:
    """Every request, asked twice (the second small ``quantiles`` read is
    a memo hit), answers bit-identically to a clone; a caller scribbling
    on a returned array changes no later answer."""
    fresh = FastReqSketch.from_bytes(sketch.to_bytes())
    for method, points, kwargs in MEMO_REQUESTS:
        expected = getattr(fresh, method)(points, **kwargs).tobytes()
        for _ in range(2):
            answer = getattr(sketch, method)(points, **kwargs)
            assert answer.tobytes() == expected
            answer[...] = -7.0
        assert_memo_well_formed(sketch)


class TestAnswerMemo:
    @given(memo_steps, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_memoized_answers_match_a_fresh_clone(self, ops, hra):
        sketch = FastReqSketch(16, hra=hra, seed=5)
        sketch.update_many(np.random.default_rng(0).random(3_000))
        assert_answers_match_fresh(sketch)
        for op, arg in ops:
            rng = np.random.default_rng(arg)
            if op == "update":
                for value in rng.random(int(rng.integers(1, 40))):
                    sketch.update(value)
            elif op == "update_many":
                sketch.update_many(rng.random(int(rng.integers(1, 12_000))) * 2.0 - 0.5)
            elif op == "merge":
                donor = FastReqSketch(16, hra=hra, seed=arg)
                donor.update_many(rng.random(int(rng.integers(1, 4_000))) + 0.5)
                donor.quantiles(QUERY_FRACTIONS)  # the donor's own memo is warm
                sketch.merge(donor)
            elif op == "merge_many":
                donors = []
                for offset in range(int(rng.integers(1, 4))):
                    donor = FastReqSketch(16, hra=hra, seed=arg + offset)
                    donor.update_many(rng.random(int(rng.integers(1, 2_000))) - 0.25)
                    donors.append(donor)
                sketch.merge_many(donors)
            elif op == "flush":
                sketch.flush()
            elif op == "roundtrip":
                sketch = FastReqSketch.from_bytes(sketch.to_bytes())
            elif op == "invalid":
                method, points = MEMO_INVALID[arg % len(MEMO_INVALID)]
                memo = _memo(sketch)
                for _ in range(2):
                    with pytest.raises(InvalidParameterError):
                        getattr(sketch, method)(points)
                assert _memo(sketch) is memo  # a rejected request is never stored
            else:  # query: a repeat of a small quantiles request is a memo hit
                method, points, kwargs = MEMO_REQUESTS[arg % len(MEMO_REQUESTS)]
                getattr(sketch, method)(points, **kwargs)
                hits = sketch.query_index_answer_hits
                getattr(sketch, method)(points, **kwargs)
                memoized = method == "quantiles" and points.size <= engine._MEMO_MAX_POINTS
                assert sketch.query_index_answer_hits == hits + memoized
                if not memoized and method == "quantiles":
                    memo = _memo(sketch)
                    assert memo is None or memo[0] != points.tobytes()
            assert_answers_match_fresh(sketch)

    def test_memo_dies_with_its_build(self):
        sketch = FastReqSketch(32, seed=8)
        sketch.update_many(np.random.default_rng(4).random(10_000))
        fractions = np.array([0.5, 0.99])
        before = sketch.quantiles(fractions)
        assert sketch.quantiles(fractions).tobytes() == before.tobytes()
        assert sketch.query_index_answer_hits == 1
        sketch.update_many(np.full(10_000, 5.0))  # shifts every quantile up
        after = sketch.quantiles(fractions)
        assert after[1] == 5.0
        assert sketch.query_index_answer_hits == 1  # the new build started empty

    def test_memo_holds_one_answer(self):
        sketch = FastReqSketch(32, seed=10)
        sketch.update_many(np.random.default_rng(5).random(10_000))
        sketch.quantiles([0.5])
        sketch.quantiles([0.99])  # replaces the memoized answer
        sketch.quantiles([0.5])
        assert sketch.query_index_answer_hits == 0
        sketch.quantiles([0.5])
        assert sketch.query_index_answer_hits == 1

    def test_memo_serves_a_one_row_batch_in_its_shape(self):
        """The store answers a uniform batch as a ``(requests, count)``
        matrix: a one-row batch shares the flat request's memo entry."""
        sketch = FastReqSketch(32, seed=11)
        sketch.update_many(np.random.default_rng(6).random(10_000))
        flat = sketch.quantiles([0.5, 0.99])
        row = sketch.quantiles(np.array([[0.5, 0.99]]))
        assert sketch.query_index_answer_hits == 1
        assert row.shape == (1, 2) and row.tobytes() == flat.tobytes()
        row[0, 0] = -1.0  # a hit hands out a copy
        assert sketch.quantiles([0.5, 0.99]).tobytes() == flat.tobytes()

    def test_ranks_and_cdf_are_not_memoized(self):
        sketch = FastReqSketch(32, seed=9)
        sketch.update_many(np.arange(100, dtype=np.float64))
        for _ in range(2):
            sketch.ranks(QUERY_POINTS)
            sketch.cdf(CDF_POINTS)
        assert sketch.query_index_answer_hits == 0
        assert _memo(sketch) is None
