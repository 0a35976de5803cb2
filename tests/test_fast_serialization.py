"""Tests for the FRQ1 wire format and cross-engine (de)serialization."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro import FastReqSketch, ReqSketch
from repro.core import deserialize, serialize
from repro.errors import SerializationError
from repro.fast.wire import MAGIC_FAST


@pytest.fixture(scope="module")
def stream():
    return np.random.default_rng(616).random(50_000)


def build_fast(stream, *, hra=False, n_bound=None, seed=1):
    sketch = FastReqSketch(32, hra=hra, seed=seed, n_bound=n_bound)
    sketch.update_many(stream)
    return sketch


class TestRoundtrip:
    @pytest.mark.parametrize("hra", [False, True], ids=["lra", "hra"])
    def test_roundtrip_preserves_queries(self, stream, hra):
        sketch = build_fast(stream, hra=hra)
        clone = FastReqSketch.from_bytes(sketch.to_bytes())
        assert clone.n == sketch.n
        assert clone.k == sketch.k
        assert clone.hra is sketch.hra
        assert clone.num_retained == sketch.num_retained
        assert clone.min_item == sketch.min_item
        assert clone.max_item == sketch.max_item
        fractions = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(clone.quantiles(fractions), sketch.quantiles(fractions))
        queries = np.linspace(-0.1, 1.1, 57)
        assert np.array_equal(clone.ranks(queries), sketch.ranks(queries))

    def test_empty_sketch(self):
        clone = FastReqSketch.from_bytes(FastReqSketch(16).to_bytes())
        assert clone.is_empty
        assert clone.k == 16

    def test_single_item(self):
        sketch = FastReqSketch(16, seed=2)
        sketch.update(3.5)
        clone = FastReqSketch.from_bytes(sketch.to_bytes())
        assert clone.n == 1
        assert clone.min_item == clone.max_item == 3.5
        assert clone.rank(3.5) == 1

    def test_staged_scalars_included(self):
        """to_bytes peeks: staged-but-unflushed items must be in the payload."""
        sketch = FastReqSketch(16, seed=3)
        for value in (5.0, 1.0, 3.0):
            sketch.update(value)
        clone = FastReqSketch.from_bytes(sketch.to_bytes())
        assert clone.n == 3
        assert clone.rank(3.0) == 2

    def test_n_bound_preserved(self, stream):
        sketch = build_fast(stream[:10_000], n_bound=1_000_000)
        clone = FastReqSketch.from_bytes(sketch.to_bytes())
        assert clone.n_bound == 1_000_000
        assert clone._fixed_capacity == sketch._fixed_capacity

    def test_schedule_state_and_inserted_preserved(self, stream):
        sketch = build_fast(stream)
        clone = FastReqSketch.from_bytes(sketch.to_bytes())
        assert [level.schedule.state for level in clone._levels] == [
            level.schedule.state for level in sketch._levels
        ]
        assert [level.inserted for level in clone._levels] == [
            level.inserted for level in sketch._levels
        ]

    def test_clone_still_updatable(self, stream):
        sketch = build_fast(stream)
        clone = FastReqSketch.from_bytes(sketch.to_bytes())
        clone.update_many(np.arange(100.0))
        assert clone.n == sketch.n + 100
        assert clone.rank(1e9) == clone.n

    def test_merge_after_roundtrip(self, stream):
        """The distributed use case: decode wire payloads, union at the root."""
        half = stream.size // 2
        shards = [build_fast(stream[:half], seed=4), build_fast(stream[half:], seed=5)]
        decoded = [FastReqSketch.from_bytes(shard.to_bytes()) for shard in shards]
        union = FastReqSketch(32, seed=6)
        union.merge_many(decoded)
        assert union.n == stream.size
        assert union.rank(float(stream.max())) == stream.size

    def test_writable_buffer_is_snapshotted(self, stream):
        """Decoding from a bytearray must not leave views into memory the
        caller can mutate (e.g. a pooled recv_into buffer)."""
        sketch = build_fast(stream[:20_000])
        buffer = bytearray(sketch.to_bytes())
        clone = FastReqSketch.from_bytes(buffer)
        p90 = sketch.quantile(0.9)
        buffer[:] = b"\x00" * len(buffer)  # caller reuses its buffer
        assert clone.quantile(0.9) == p90

    def test_pickle_and_deepcopy(self, stream):
        import copy
        import pickle

        sketch = build_fast(stream[:20_000], hra=True)
        for clone in (pickle.loads(pickle.dumps(sketch)), copy.deepcopy(sketch)):
            assert clone.n == sketch.n
            assert clone.hra is True
            assert clone.rank(0.5) == sketch.rank(0.5)
            clone.update_many(np.arange(10.0))  # stays a live sketch
            assert clone.n == sketch.n + 10

    def test_decode_is_zero_copy(self, stream):
        sketch = build_fast(stream)
        blob = sketch.to_bytes()
        clone = FastReqSketch.from_bytes(blob)
        views = [level.items for level in clone._levels if level.items.size]
        assert views, "expected retained levels"
        assert all(view.base is not None for view in views)
        assert all(not view.flags.writeable for view in views)


class TestDecodeValidation:
    def test_bad_magic(self, stream):
        blob = bytearray(build_fast(stream[:1000]).to_bytes())
        blob[:4] = b"XXXX"
        with pytest.raises(SerializationError, match="magic"):
            FastReqSketch.from_bytes(bytes(blob))

    def test_unknown_version(self, stream):
        blob = bytearray(build_fast(stream[:1000]).to_bytes())
        blob[4] = 99
        with pytest.raises(SerializationError, match="version"):
            FastReqSketch.from_bytes(bytes(blob))

    def test_truncated(self, stream):
        blob = build_fast(stream[:1000]).to_bytes()
        with pytest.raises(SerializationError):
            FastReqSketch.from_bytes(blob[: len(blob) // 2])

    def test_truncated_header(self):
        with pytest.raises(SerializationError):
            FastReqSketch.from_bytes(MAGIC_FAST + b"\x01")

    def test_trailing_garbage(self, stream):
        blob = build_fast(stream[:1000]).to_bytes()
        with pytest.raises(SerializationError, match="trailing"):
            FastReqSketch.from_bytes(blob + b"\x00")

    def test_empty_bytes(self):
        with pytest.raises(SerializationError):
            FastReqSketch.from_bytes(b"")

    def test_nan_item_rejected(self):
        sketch = FastReqSketch(16, seed=7)
        sketch.update_many(np.arange(100.0))
        blob = bytearray(sketch.to_bytes())
        # Overwrite the last 8 payload bytes (an item) with a NaN.
        blob[-8:] = struct.pack("<d", float("nan"))
        with pytest.raises(SerializationError, match="NaN"):
            FastReqSketch.from_bytes(bytes(blob))

    def test_weight_conservation_checked(self, stream):
        blob = bytearray(build_fast(stream[:1000]).to_bytes())
        # Corrupt n in the header (offset 12, after magic+version+flags+pad+k).
        blob[12:20] = struct.pack("<Q", 999_999)
        with pytest.raises(SerializationError, match="weight"):
            FastReqSketch.from_bytes(bytes(blob))

    def test_odd_k_rejected(self, stream):
        blob = bytearray(build_fast(stream[:1000]).to_bytes())
        blob[8:12] = struct.pack("<I", 7)
        with pytest.raises(SerializationError):
            FastReqSketch.from_bytes(bytes(blob))


class TestCrossFormat:
    """serialize/deserialize dispatch across both engines and formats."""

    def test_serialize_dispatches_on_engine(self, stream):
        fast = build_fast(stream[:5000])
        assert serialize(fast)[:4] == MAGIC_FAST
        ref = ReqSketch(32, seed=8)
        ref.update_many(stream[:5000].tolist())
        assert serialize(ref)[:4] == b"REQ1"

    def test_deserialize_matches_payload_engine(self, stream):
        fast = build_fast(stream[:5000])
        assert isinstance(deserialize(serialize(fast)), FastReqSketch)
        ref = ReqSketch(32, seed=9)
        ref.update_many(stream[:5000].tolist())
        assert isinstance(deserialize(serialize(ref)), ReqSketch)

    def test_fast_payload_to_reference_engine(self, stream):
        fast = build_fast(stream[:20_000])
        ref = deserialize(serialize(fast), engine="reference")
        assert isinstance(ref, ReqSketch)
        assert ref.n == fast.n
        assert ref.num_retained == fast.num_retained
        assert ref.min_item == fast.min_item
        assert ref.max_item == fast.max_item
        for y in (0.1, 0.5, 0.9):
            assert ref.rank(y) == fast.rank(y)
        # The conversion must remain a live, updatable sketch.
        ref.update_many(range(100))
        assert ref.n == fast.n + 100

    def test_reference_payload_to_fast_engine(self, stream):
        ref = ReqSketch(32, seed=10)
        ref.update_many(stream[:20_000].tolist())
        fast = deserialize(serialize(ref), engine="fast")
        assert isinstance(fast, FastReqSketch)
        assert fast.n == ref.n
        for y in (0.1, 0.5, 0.9):
            assert fast.rank(y) == ref.rank(y)

    def test_fixed_scheme_survives_conversion(self, stream):
        ref = ReqSketch(16, n_bound=10_000, seed=11)
        ref.update_many(stream[:5000].tolist())
        fast = deserialize(serialize(ref), engine="fast")
        assert fast.n_bound == 10_000
        back = deserialize(serialize(fast), engine="reference")
        assert back.scheme == "fixed"
        assert back.n_bound == 10_000

    def test_theory_scheme_to_fast_rejected(self, stream):
        theory = ReqSketch(eps=0.2, delta=0.2, seed=12)
        theory.update_many(stream[:3000].tolist())
        with pytest.raises(SerializationError, match="theory"):
            deserialize(serialize(theory), engine="fast")

    def test_unknown_engine_rejected(self, stream):
        blob = serialize(build_fast(stream[:1000]))
        with pytest.raises(SerializationError, match="engine"):
            deserialize(blob, engine="turbo")

    def test_roundtrip_through_both_engines_preserves_error_class(self, stream):
        """fast -> reference -> fast keeps the rank estimates identical."""
        fast = build_fast(stream)
        ref = deserialize(serialize(fast), engine="reference")
        fast2 = deserialize(serialize(ref), engine="fast")
        queries = np.linspace(0.0, 1.0, 33)
        assert np.array_equal(fast2.ranks(queries), fast.ranks(queries))


class TestCrossEngineEdgeCases:
    """Serialization corners the service plane leans on."""

    def test_empty_fast_sketch_frq1_roundtrip(self):
        payload = FastReqSketch(32, hra=True).to_bytes()
        clone = FastReqSketch.from_bytes(payload)
        assert clone.is_empty
        assert clone.k == 32
        assert clone.hra is True
        # An empty payload must stay live: first data after decode works.
        clone.update_many([1.0, 2.0, 3.0])
        assert clone.n == 3
        assert clone.quantile(0.5) == 2.0

    def test_empty_fast_payload_to_reference_engine(self):
        ref = deserialize(FastReqSketch(16).to_bytes(), engine="reference")
        assert isinstance(ref, ReqSketch)
        assert ref.is_empty
        assert ref.k == 16
        ref.update_many([5.0])
        assert ref.n == 1

    @pytest.mark.parametrize("hra", [False, True], ids=["hra_false", "hra_true"])
    def test_hra_flag_roundtrip_both_engines(self, stream, hra):
        fast = build_fast(stream[:8000], hra=hra)
        clone = FastReqSketch.from_bytes(fast.to_bytes())
        assert clone.hra is hra
        ref = deserialize(fast.to_bytes(), engine="reference")
        assert ref.hra is hra
        back = deserialize(serialize(ref), engine="fast")
        assert back.hra is hra
        queries = np.linspace(0.0, 1.0, 21)
        assert np.array_equal(back.ranks(queries), fast.ranks(queries))

    def test_reference_fast_reference_chain_preserves_state(self, stream):
        """reference -> fast -> reference keeps n, extremes, and ranks."""
        ref = ReqSketch(32, seed=21)
        ref.update_many(stream[:15_000].tolist())
        fast = deserialize(serialize(ref), engine="fast")
        back = deserialize(serialize(fast), engine="reference")
        assert isinstance(back, ReqSketch)
        assert back.n == ref.n
        assert back.min_item == ref.min_item
        assert back.max_item == ref.max_item
        assert back.num_retained == ref.num_retained
        for y in (0.001, 0.1, 0.5, 0.9, 0.999):
            assert back.rank(y) == ref.rank(y)

    def test_single_item_survives_the_chain(self):
        ref = ReqSketch(16, seed=22)
        ref.update(42.0)
        fast = deserialize(serialize(ref), engine="fast")
        back = deserialize(serialize(fast), engine="reference")
        assert back.n == 1
        assert back.min_item == back.max_item == 42.0
        assert back.rank(42.0) == 1

    def test_staged_scalars_cross_engines(self, stream):
        """Fast-engine staged-but-unflushed items must survive conversion."""
        fast = FastReqSketch(32, seed=23)
        fast.update_many(stream[:5000])
        for value in (0.5, -3.0, 7.0):  # staged, below the block size
            fast.update(value)
        ref = deserialize(serialize(fast), engine="reference")
        assert ref.n == 5003
        assert ref.min_item == -3.0
        assert ref.max_item == 7.0
