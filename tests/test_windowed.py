"""The windowed quantile plane: rings, store, durations, FRW1, recovery.

The acceptance property lives here: ``WINDOW_QUERY`` answers must be
**bit-identical** to the weighted union of the same retained buckets
(an independent sort + cumsum over decoded copies, :func:`_union_oracle`)
— under out-of-order ingest, bucket expiry, snapshots, and full
snapshot+WAL-tail restarts.  Everything is driven with caller-supplied
timestamps, so every schedule is deterministic and replayable.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import eps_for_streaming_k
from repro.errors import EmptySketchError, InvalidParameterError, ServiceError
from repro.fast import FastReqSketch
from repro.service import QuantileService
from repro.service.persistence import WAL_WINDOW_INGEST
from repro.windowed import (
    WindowRing,
    WindowStore,
    format_duration,
    mix_seed,
    parse_duration,
)
from repro.windowed.wire import hash_resolution, pack_ring, pack_rings, unpack_ring, unpack_rings

KEY = "lat"
FRACTIONS = np.array([0.0, 0.1, 0.5, 0.9, 0.99, 1.0])


def _values(count, seed=0):
    return np.random.default_rng(seed).standard_normal(count)


class _UnionOracle:
    """The paper's estimator over several sketches, computed from scratch.

    Each source is decoded from its own ``FRQ1`` bytes (staged values ride
    as level-0 items), every level's items weigh ``2**height``, and one
    stable argsort plus a cumsum give ``rank(y) = sum of weights <= y``.
    Shares no code with the engine's index builder.
    """

    def __init__(self, sources):
        items, weights = [], []
        self.minimum, self.maximum = math.inf, -math.inf
        self.n = 0
        for sketch in sources:
            copy = FastReqSketch.from_bytes(sketch.to_bytes())
            levels, low, high = copy._peek_levels()
            for height, (level_items, _, _) in enumerate(levels):
                items.append(level_items)
                weights.append(np.full(level_items.size, 2**height, dtype=np.int64))
            self.minimum = min(self.minimum, low)
            self.maximum = max(self.maximum, high)
            self.n += copy.n
        merged = np.concatenate(items) if items else np.empty(0)
        order = np.argsort(merged, kind="stable")
        self.items = merged[order]
        weights = np.concatenate(weights) if weights else np.empty(0, np.int64)
        self.cumweights = np.cumsum(weights[order])
        assert (self.cumweights[-1] if self.n else 0) == self.n

    def ranks(self, points, inclusive=True):
        side = "right" if inclusive else "left"
        positions = np.searchsorted(self.items, np.asarray(points, float), side=side)
        return np.concatenate(([0], self.cumweights))[positions]

    def quantiles(self, fractions):
        out = []
        for q in np.asarray(fractions, float):
            if q <= 0.0:
                out.append(self.minimum)
            elif q >= 1.0:
                out.append(self.maximum)
            else:
                target = max(1, math.ceil(q * self.n))
                position = int(np.searchsorted(self.cumweights, target, side="left"))
                out.append(self.items[min(position, self.items.size - 1)])
        return np.asarray(out, dtype=np.float64)

    def cdf(self, points):
        return np.concatenate((self.ranks(points) / self.n, [1.0]))


def _sources(ring, start, end):
    """The ring's buckets overlapping ``[start, end)``, in index order."""
    lo = ring.bucket_index(start)
    return [
        sketch
        for index, sketch in ring.buckets()
        if index >= lo and index * ring.bucket_seconds < end
    ]


def _bucket_marks(ring):
    """What a read must not change: per bucket ``n``, staged count, level
    versions and coin-stream state."""
    return [
        (
            index,
            int(sketch.n),
            sketch.num_staged,
            [level.version for level in sketch._levels],
            None if sketch._rng is None else sketch._rng.bit_generator.state,
        )
        for index, sketch in ring.buckets()
    ]


# ----------------------------------------------------------------------
# Durations
# ----------------------------------------------------------------------


class TestDurations:
    @pytest.mark.parametrize(
        "text,seconds",
        [
            ("30s", 30.0),
            ("5m", 300.0),
            ("1h", 3600.0),
            ("1h30m", 5400.0),
            ("2d", 172800.0),
            ("500ms", 0.5),
            ("90", 90.0),
            ("1.5m", 90.0),
            (90, 90.0),
            (0.25, 0.25),
        ],
    )
    def test_parse(self, text, seconds):
        assert parse_duration(text) == seconds

    @pytest.mark.parametrize("bad", ["", "abc", "5x", "-3s", "0", "0s", 0, -1])
    def test_parse_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_duration(bad)

    @pytest.mark.parametrize(
        "seconds,text",
        [(300.0, "5m"), (3600.0, "1h"), (86400.0, "1d"), (45.0, "45s"), (0.5, "0.5s")],
    )
    def test_format(self, seconds, text):
        assert format_duration(seconds) == text

    def test_format_parse_roundtrip(self):
        for seconds in (0.001, 0.5, 1.0, 90.0, 300.0, 5400.0, 86400.0):
            assert parse_duration(format_duration(seconds)) == seconds


# ----------------------------------------------------------------------
# mix_seed
# ----------------------------------------------------------------------


class TestMixSeed:
    def test_deterministic_and_63_bit(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
        for parts in ((0,), (1,), (2**63,), (1, 0), (0, 1)):
            seed = mix_seed(*parts)
            assert 0 <= seed < 2**63

    def test_structured_inputs_scatter(self):
        # Consecutive bucket indices / epochs must not collide or cluster.
        seeds = {mix_seed(7, index) for index in range(1000)}
        assert len(seeds) == 1000
        assert mix_seed(7, 1) != mix_seed(8, 0)  # order matters


# ----------------------------------------------------------------------
# WindowRing
# ----------------------------------------------------------------------


class TestRingConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            WindowRing(0.0)
        with pytest.raises(InvalidParameterError):
            WindowRing(10.0, retention=0)
        with pytest.raises(InvalidParameterError):
            WindowRing(10.0, lateness=-1.0)

    def test_geometry(self):
        ring = WindowRing(10.0)
        assert ring.bucket_index(0.0) == 0
        assert ring.bucket_index(9.999) == 0
        assert ring.bucket_index(10.0) == 1
        assert ring.bucket_index(-0.5) == -1
        assert ring.bucket_bounds(3) == (30.0, 40.0)


class TestRingIngest:
    def test_in_order_batch_lands_in_true_buckets(self):
        ring = WindowRing(10.0, seed=1)
        ts = 1000.0 + np.arange(30)  # buckets 100, 101, 102
        accepted, closed = ring.ingest(ts, _values(30))
        assert accepted == 30
        assert [index for index, _ in ring.buckets()] == [100, 101, 102]
        assert [int(s.n) for _, s in ring.buckets()] == [10, 10, 10]
        assert ring.watermark == 1029.0
        assert ring.accepted == 30 and ring.late_dropped == 0
        # Buckets 100 and 101 are closed by the final watermark.
        assert [c.index for c in closed] == [100, 101]

    def test_single_in_order_batch_fully_accepted_despite_span(self):
        # One batch is one atomic arrival: the lateness bound is judged
        # against the PRE-batch watermark, so a wide batch is kept whole.
        ring = WindowRing(10.0, lateness=0.0, seed=2)
        ts = np.array([1000.0, 1035.0, 1005.0, 1020.0])
        accepted, _ = ring.ingest(ts, _values(4))
        assert accepted == 4 and ring.late_dropped == 0

    def test_out_of_order_within_lateness_lands_in_true_bucket(self):
        ring = WindowRing(10.0, lateness=15.0, seed=3)
        ring.ingest([1025.0], [1.0])  # watermark 1025
        accepted, _ = ring.ingest([1012.0], [2.0])  # 13s late, inside bound
        assert accepted == 1
        assert dict((i, int(s.n)) for i, s in ring.buckets()) == {101: 1, 102: 1}

    def test_too_late_dropped_and_counted(self):
        ring = WindowRing(10.0, lateness=5.0, seed=4)
        ring.ingest([1025.0], [1.0])
        accepted, _ = ring.ingest([1012.0], [2.0])  # 13s late, bound is 5s
        assert accepted == 0
        assert ring.late_dropped == 1
        assert ring.accepted == 1

    def test_retention_expires_old_buckets(self):
        ring = WindowRing(10.0, retention=3, seed=5)
        for bucket in range(6):
            ring.ingest([bucket * 10.0 + 5.0], [float(bucket)])
        assert [index for index, _ in ring.buckets()] == [3, 4, 5]
        assert ring.expired_buckets == 3
        assert ring.n == 3  # expired values are gone from live state
        assert ring.accepted == 6  # lifetime ack counter keeps counting

    def test_first_batch_below_retention_floor_dropped(self):
        ring = WindowRing(10.0, retention=2, seed=6)
        ts = np.array([5.0, 15.0, 25.0, 35.0])  # buckets 0..3, floor is 2
        accepted, _ = ring.ingest(ts, _values(4))
        assert accepted == 2
        assert ring.late_dropped == 2
        assert [index for index, _ in ring.buckets()] == [2, 3]


class TestRingClose:
    def test_buckets_close_once_watermark_clears_them(self):
        ring = WindowRing(10.0, seed=7)
        _, closed = ring.ingest([1005.0], [1.0])
        assert closed == []  # bucket 100 still open
        _, closed = ring.ingest([1015.0], [2.0])
        assert [c.index for c in closed] == [100]
        assert (closed[0].start, closed[0].end) == (1000.0, 1010.0)
        _, closed = ring.ingest([1016.0], [3.0])
        assert closed == []  # never reported twice

    def test_lateness_defers_close(self):
        ring = WindowRing(10.0, lateness=10.0, seed=8)
        _, closed = ring.ingest([1005.0], [1.0])
        assert closed == []
        # Without lateness a watermark of 1015 would close bucket 100;
        # with a 10s bound it stays open for stragglers.
        _, closed = ring.ingest([1015.0], [2.0])
        assert closed == []
        _, closed = ring.ingest([1025.0], [3.0])
        assert [c.index for c in closed] == [100]

    def test_empty_buckets_not_reported(self):
        ring = WindowRing(10.0, seed=9)
        _, closed = ring.ingest([1005.0], [1.0])
        _, closed = ring.ingest([1045.0], [2.0])  # skips buckets 101..103
        assert [c.index for c in closed] == [100]

    def test_closed_buckets_catch_up_cursor(self):
        ring = WindowRing(10.0, seed=10)
        ring.ingest(1000.0 + np.arange(50), _values(50))  # closes 100..103
        assert [c.index for c in ring.closed_buckets()] == [100, 101, 102, 103]
        assert [c.index for c in ring.closed_buckets(102)] == [102, 103]
        assert ring.closed_buckets(200) == []


class TestRingHorizon:
    def test_matches_union_oracle_bit_exact(self):
        ring = WindowRing(10.0, seed=11)
        ring.ingest(1000.0 + np.arange(500) * 0.1, _values(500))
        horizon = ring.horizon(1000.0, 1050.0)
        sources = [sketch for _, sketch in ring.buckets()]
        oracle = _UnionOracle(sources)
        assert horizon.n == oracle.n == 500
        assert np.array_equal(horizon.quantiles(FRACTIONS), oracle.quantiles(FRACTIONS))
        # n and eps are what a merged sketch reported; retained is the sum.
        merged = FastReqSketch(ring.k, hra=ring.hra, seed=0).merge_many(sources)
        assert horizon.error_bound() == merged.error_bound()
        assert horizon.num_retained == sum(s.num_retained for s in sources)

    def test_staged_only_buckets_answer_exact_order_statistics(self):
        ring = WindowRing(1.0, retention=64, lateness=2.0, seed=15)
        rng = np.random.default_rng(15)
        admitted = []
        for second in range(30):
            ts = 1000.0 + second + rng.random(700)
            values = rng.lognormal(0.0, 1.0, 700)
            accepted, _ = ring.ingest(ts, values)
            assert accepted == 700
            admitted.append(values)
        assert all(s.num_staged == s.n for _, s in ring.buckets())  # no compaction
        exact = np.sort(np.concatenate(admitted))
        horizon = ring.horizon(1000.0, 1030.0)
        fractions = np.linspace(0.0, 1.0, 101)
        targets = np.maximum(1, np.ceil(fractions * exact.size)).astype(int)
        assert np.array_equal(horizon.quantiles(fractions), exact[targets - 1])
        assert horizon.rank(float(exact[4321])) == 4322
        assert horizon.num_retained == horizon.n == exact.size

    def test_compacting_buckets_match_the_union_oracle(self):
        ring = WindowRing(10.0, retention=16, hra=True, seed=16)
        rng = np.random.default_rng(16)
        for bucket in range(5):
            # One large run (compacts at once) plus staged stragglers.
            ts = 1000.0 + bucket * 10.0 + np.sort(rng.random(10_000)) * 9.0
            ring.ingest(ts, rng.lognormal(0.0, 2.0, 10_000))
            ring.ingest(ts[-1] + rng.random(300) * 0.5, rng.lognormal(0.0, 2.0, 300))
        assert all(s.num_levels > 1 and s.num_staged for _, s in ring.buckets())
        horizon = ring.horizon(1010.0, 1040.0)
        oracle = _UnionOracle(_sources(ring, 1010.0, 1040.0))
        assert horizon.n == oracle.n == 3 * 10_300
        fractions = np.array([0.0, 1e-4, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0])
        assert np.array_equal(horizon.quantiles(fractions), oracle.quantiles(fractions))
        points = np.sort(rng.lognormal(0.0, 2.0, 50))
        assert np.array_equal(horizon.ranks(points), oracle.ranks(points))
        assert np.array_equal(
            horizon.ranks(points, inclusive=False), oracle.ranks(points, inclusive=False)
        )
        assert np.array_equal(horizon.cdf(points), oracle.cdf(points))
        assert horizon.error_bound(delta=0.01) == eps_for_streaming_k(ring.k, oracle.n, 0.01)

    def test_reads_change_no_bucket(self):
        ring = WindowRing(10.0, retention=16, seed=18)
        rng = np.random.default_rng(18)
        ring.ingest(1000.0 + np.arange(400) * 0.1, rng.random(400))  # staged only
        before = _bucket_marks(ring)
        assert all(sketch._rng is None for _, sketch in ring.buckets())
        horizon = ring.horizon(1000.0, 1040.0)
        horizon.quantiles(FRACTIONS)
        horizon.cdf([0.25, 0.5])
        assert all(sketch._rng is None for _, sketch in ring.buckets())
        assert _bucket_marks(ring) == before
        # Buckets that compacted keep their versions and coin state too.
        ring.ingest(1050.0 + np.sort(rng.random(9000)) * 9.0, rng.random(9000))
        ring.ingest([1059.5] * 5, rng.random(5))
        before = _bucket_marks(ring)
        assert before[-1][4] is not None  # this bucket drew coins
        ring.horizon(1000.0, 1060.0).ranks([0.5])
        assert _bucket_marks(ring) == before

    def test_errors_match_the_sketch(self):
        ring = WindowRing(10.0, seed=19)
        ring.ingest(1000.0 + np.arange(50) * 0.1, _values(50))
        horizon = ring.horizon(1000.0, 1010.0)
        sketch = FastReqSketch(ring.k)
        sketch.update_many(_values(50))
        bad_calls = [
            lambda s: s.quantiles([0.5, 1.5]),
            lambda s: s.quantiles([-0.1]),
            lambda s: s.quantiles([float("nan")]),
            lambda s: s.quantile(2.0),
            lambda s: s.cdf([0.5, 0.5]),
            lambda s: s.cdf([0.5, 0.1]),
            lambda s: s.cdf([]),
            lambda s: s.cdf([float("nan")]),
        ]
        for call in bad_calls:
            with pytest.raises(InvalidParameterError) as from_sketch:
                call(sketch)
            with pytest.raises(InvalidParameterError) as from_horizon:
                call(horizon)
            assert str(from_horizon.value) == str(from_sketch.value)

    def test_pure_and_repeatable(self):
        ring = WindowRing(10.0, seed=12)
        ring.ingest(1000.0 + np.arange(200) * 0.2, _values(200))
        before = [(index, int(s.n)) for index, s in ring.buckets()]
        first = ring.horizon(1000.0, 1040.0).quantiles(FRACTIONS)
        second = ring.horizon(1000.0, 1040.0).quantiles(FRACTIONS)
        assert np.array_equal(first, second)
        assert [(index, int(s.n)) for index, s in ring.buckets()] == before

    def test_subrange_selects_overlapping_buckets_only(self):
        ring = WindowRing(10.0, seed=13)
        for bucket in range(5):
            ring.ingest([1000.0 + bucket * 10.0 + 5.0] * 4, [float(bucket)] * 4)
        merged = ring.horizon(1010.0, 1030.0)  # buckets 101 and 102 only
        assert merged.n == 8
        assert merged.quantile(0.0) == 1.0 and merged.quantile(1.0) == 2.0

    def test_empty_and_invalid(self):
        ring = WindowRing(10.0, seed=14)
        empty = ring.horizon(0.0, 10.0)
        assert empty.is_empty and empty.num_retained == 0
        with pytest.raises(EmptySketchError):
            empty.quantiles([0.5])
        with pytest.raises(EmptySketchError):
            empty.cdf([0.5])
        with pytest.raises(InvalidParameterError):
            ring.horizon(10.0, 10.0)

    def test_horizon_makes_no_merge_many_call(self, monkeypatch):
        """A horizon answers from the buckets' union, never a merge."""
        calls = []
        original = FastReqSketch.merge_many

        def spy(self, sketches):
            sketches = list(sketches)
            calls.append(len(sketches))
            return original(self, sketches)

        monkeypatch.setattr(FastReqSketch, "merge_many", spy)
        ring = WindowRing(1.0, seed=17)
        values = np.random.default_rng(1234).random(5500)
        ring.ingest(np.arange(5500) / 1000.0, values)  # buckets 0..5
        horizon = ring.horizon(0.0, 6.0)
        assert horizon.n == 5500
        assert horizon.quantile(1.0) == values.max()
        assert calls == []


class _GroupingRing(WindowRing):
    """Oracle: the ring with the straightforward bucketing algorithm.

    Every batch computes all per-value indices, masks by lateness and ring
    floor, groups with one stable argsort, and collects closed buckets by
    sorting every live bucket.  :meth:`WindowRing.ingest` must match it
    byte for byte while skipping that work on single-bucket batches; WALs
    written under this algorithm must replay identically under the ring.
    """

    __slots__ = ()

    def ingest(self, timestamps, values):
        ts = np.ascontiguousarray(timestamps, dtype=np.float64).reshape(-1)
        vals = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        indices = np.floor(ts / self.bucket_seconds).astype(np.int64)
        previous = self._watermark
        high = int(indices.max())
        if previous is not None:
            high = max(high, self.bucket_index(previous))
            watermark = max(previous, float(ts.max()))
        else:
            watermark = float(ts.max())
        self._watermark = watermark
        floor_index = high - self.retention + 1
        if self._buckets:
            dead = [index for index in self._buckets if index < floor_index]
            for index in dead:
                del self._buckets[index]
            self.expired_buckets += len(dead)
        if previous is None:
            keep = indices >= floor_index
        else:
            keep = (ts >= previous - self.lateness) & (indices >= floor_index)
        dropped = int(keep.size - np.count_nonzero(keep))
        if dropped:
            self.late_dropped += dropped
            indices = indices[keep]
            vals = vals[keep]
        if indices.size:
            order = np.argsort(indices, kind="stable")
            indices = indices[order]
            vals = vals[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(indices)) + 1, [indices.size])
            )
            for lo, hi in zip(starts[:-1], starts[1:]):
                index = int(indices[lo])
                sketch = self._buckets.get(index)
                if sketch is None:
                    sketch = FastReqSketch(self.k, hra=self.hra, seed=self._bucket_seed(index))
                    self._buckets[index] = sketch
                sketch.update_many(vals[lo:hi])
            self.accepted += int(indices.size)
        limit = self.bucket_index(self._watermark - self.lateness) - 1
        if limit <= self._closed_through:
            return int(indices.size), []
        closed = []
        for index, sketch in self.buckets():
            if self._closed_through < index <= limit:
                start, end = self.bucket_bounds(index)
                closed.append((index, start, end, sketch))
        self._closed_through = limit
        return int(indices.size), closed


def _random_batches(rng, width, lateness, count, origin):
    """Timestamped batches in every shape a ring meets: one bucket, many
    buckets, late and too-late stragglers, old batches, forward jumps
    (expiry), values on bucket edges, and blocks past the staging size."""
    now = origin
    for _ in range(count):
        shape = rng.choice(["bucket", "span", "late", "old", "jump", "edge", "big"])
        size = int(rng.integers(1, 200))
        if shape == "bucket":
            start = np.floor(now / width) * width
            ts = start + rng.random(size) * width * 0.999
        elif shape == "span":
            ts = now + rng.uniform(-5 * width, 5 * width, size)
        elif shape == "late":
            ts = now + rng.random(size) * width
            late = rng.random(size) < 0.3
            ts[late] -= lateness + rng.uniform(0, 4 * width, int(late.sum()))
        elif shape == "old":
            ts = now - rng.uniform(0, lateness + 3 * width, size)
        elif shape == "jump":
            now += width * float(rng.integers(2, 50))
            ts = now + rng.random(size) * width
        elif shape == "edge":
            edges = (np.floor(now / width) + rng.integers(-2, 3, size)) * width
            ts = np.nextafter(edges, edges + rng.choice([-1.0, 0.0, 1.0], size) * width)
        else:
            size = 9000 + int(rng.integers(0, 500))
            ts = now + rng.random(size) * width * rng.choice([0.5, 3.0])
        yield ts, rng.lognormal(0.0, 1.0, ts.size)
        now += width * float(rng.uniform(0.0, 1.5))


def _ring_state(ring):
    return (
        ring.watermark,
        ring.closed_through,
        ring.late_dropped,
        ring.expired_buckets,
        ring.accepted,
        [(index, int(sketch.n), int(sketch.num_retained)) for index, sketch in ring.buckets()],
    )


class TestRingDifferential:
    """The ring against the grouping oracle on randomized batches."""

    @pytest.mark.parametrize(
        "width,retention,lateness,origin",
        [
            (1.0, 32, 2.0, 1_700_000_000.0),
            (60.0, 32, 2.0, 1_700_000_000.0),
            (0.25, 8, 0.5, 1_700_000_000.0),
            (1.5, 16, 3.0, 1_700_000_000.0),
            (1.5, 4, 0.0, -50.0),
            (0.25, 1, 0.0, 1000.0),
            (60.0, 1, 30.0, 1_700_000_000.0),
            (1.0, 2, 0.0, -3.0),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_grouping_oracle(self, width, retention, lateness, origin, seed):
        rng = np.random.default_rng([seed, int(width * 4), retention])
        args = dict(retention=retention, lateness=lateness, k=4, hra=bool(seed % 2), seed=seed)
        ring = WindowRing(width, **args)
        oracle = _GroupingRing(width, **args)
        batches = _random_batches(rng, width, max(lateness, width), 60, origin)
        for step, (ts, vals) in enumerate(batches):
            accepted, closed = ring.ingest(ts, vals)
            expected, expected_closed = oracle.ingest(ts, vals)
            assert accepted == expected
            assert [(c.index, c.start, c.end) for c in closed] == [
                (index, start, end) for index, start, end, _sketch in expected_closed
            ]
            assert [c.sketch.n for c in closed] == [c[3].n for c in expected_closed]
            assert _ring_state(ring) == _ring_state(oracle)
            if step % 15 == 14:
                # Packing reads every bucket on both sides alike.
                assert pack_ring(ring) == pack_ring(oracle)
        assert pack_ring(ring) == pack_ring(oracle)
        assert ring.expired_buckets > 0 or retention > 8
        assert ring.late_dropped > 0

    def test_unpacked_ring_continues_like_the_oracle(self):
        rng = np.random.default_rng(7)
        ring = WindowRing(1.5, retention=6, lateness=1.0, k=4, seed=3)
        oracle = _GroupingRing(1.5, retention=6, lateness=1.0, k=4, seed=3)
        batches = list(_random_batches(rng, 1.5, 1.5, 40, 500.0))
        for ts, vals in batches[:20]:
            ring.ingest(ts, vals)
            oracle.ingest(ts, vals)
        ring = unpack_ring(pack_ring(ring), k=4, seed=3)
        blob = pack_ring(oracle)
        assert pack_ring(ring) == blob
        for ts, vals in batches[20:]:
            assert ring.ingest(ts, vals)[0] == oracle.ingest(ts, vals)[0]
            assert _ring_state(ring) == _ring_state(oracle)
        assert pack_ring(ring) == pack_ring(oracle)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_indices_past_int64_match_the_oracle(self):
        # Timestamps whose bucket index overflows int64 are finite, so
        # they pass validation; both paths must file them identically.
        ring = WindowRing(1e-9, retention=4, lateness=0.0, k=4, seed=1)
        oracle = _GroupingRing(1e-9, retention=4, lateness=0.0, k=4, seed=1)
        for ts in ([1e15, 5e-9], [2e-9, 3e-9], [-1e15], [1e15, 2e15], [4e-9], [3e15]):
            ts = np.asarray(ts)
            vals = np.arange(ts.size, dtype=np.float64)
            assert ring.ingest(ts, vals)[0] == oracle.ingest(ts, vals)[0]
            assert _ring_state(ring) == _ring_state(oracle)
        assert pack_ring(ring) == pack_ring(oracle)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @pytest.mark.parametrize("width", [0.25, 0.5])
    def test_infinite_quotients_match_the_oracle(self, width):
        # Finite timestamps whose ``t / width`` overflows to -inf are
        # dropped below the ring floor, the rest of the batch is applied,
        # on a first batch (no lateness cut runs before bucketing) too.
        ring = WindowRing(width, retention=4, lateness=1.0, k=4, seed=1)
        oracle = _GroupingRing(width, retention=4, lateness=1.0, k=4, seed=1)
        for ts in ([-1.7e308, 1000.0], [-1.7e308, 1000.1], [1000.2, -1.7e308, 1000.9]):
            ts = np.asarray(ts)
            vals = np.arange(ts.size, dtype=np.float64)
            assert ring.ingest(ts, vals)[0] == oracle.ingest(ts, vals)[0]
            assert _ring_state(ring) == _ring_state(oracle)
        assert ring.late_dropped == 3
        assert pack_ring(ring) == pack_ring(oracle)
        # A +inf quotient fails at the close, after the same apply.
        ts, vals = np.asarray([1.7e308, 1001.0]), np.asarray([1.0, 2.0])
        with pytest.raises(OverflowError):
            ring.ingest(ts, vals)
        with pytest.raises(OverflowError):
            oracle.ingest(ts, vals)
        assert _ring_state(ring) == _ring_state(oracle)


# ----------------------------------------------------------------------
# FRW1 wire round trip
# ----------------------------------------------------------------------


class TestFRW1:
    def test_roundtrip_preserves_marks_and_answers(self):
        store = WindowStore(resolutions=(10.0, 60.0), lateness=5.0, seed_fn=lambda k: 99)
        ts = 1000.0 + np.arange(400) * 0.3
        store.ingest(KEY, ts, _values(400))
        payload = store.payload(KEY)

        restored = unpack_rings(payload, k=32, seed=99)
        assert set(restored) == {10.0, 60.0}
        for resolution in (10.0, 60.0):
            live, back = store.get(KEY)[resolution], restored[resolution]
            assert back.watermark == live.watermark
            assert back.accepted == live.accepted
            assert back.late_dropped == live.late_dropped
            assert back.expired_buckets == live.expired_buckets
            assert back.closed_through == live.closed_through
            assert [i for i, _ in back.buckets()] == [i for i, _ in live.buckets()]
            assert [int(s.n) for _, s in back.buckets()] == [
                int(s.n) for _, s in live.buckets()
            ]
        # Ring seeds re-derive from the per-key base seed + resolution.
        assert restored[10.0].seed == mix_seed(99, hash_resolution(10.0))

    def test_pack_rings_rejects_nothing_silently(self):
        ring = WindowRing(10.0, seed=15)
        blob = pack_rings({10.0: ring})  # empty ring still packs
        assert unpack_rings(blob, k=32, seed=15)[10.0].bucket_count == 0


# ----------------------------------------------------------------------
# WindowStore
# ----------------------------------------------------------------------


class TestWindowStore:
    def test_resolution_config(self):
        store = WindowStore(resolutions=(60.0, 10.0, 60.0))
        assert store.resolutions == (10.0, 60.0)  # deduped, sorted
        assert store.resolve(0.0) == 10.0  # sentinel = finest
        assert store.resolve(60.0) == 60.0
        with pytest.raises(ServiceError):
            store.resolve(30.0)
        with pytest.raises(ServiceError):
            WindowStore(resolutions=())
        with pytest.raises(ServiceError):
            WindowStore(resolutions=(0.0,))

    def test_validate_rejects_malformed_batches(self):
        store = WindowStore(resolutions=(10.0,))
        with pytest.raises(ServiceError):
            store.ingest(KEY, [1.0, 2.0], [1.0])  # length mismatch
        with pytest.raises(ServiceError):
            store.ingest(KEY, [], [])  # empty
        with pytest.raises(ServiceError):
            store.ingest(KEY, [np.inf], [1.0])  # non-finite timestamp
        with pytest.raises(ServiceError):
            store.ingest(KEY, [1.0], [np.nan])  # NaN value

    def test_ingest_fans_out_to_every_resolution(self):
        store = WindowStore(resolutions=(10.0, 60.0), seed_fn=lambda k: 5)
        ts = 1000.0 + np.arange(120)
        accepted, _events = store.ingest(KEY, ts, _values(120))
        assert accepted == 120
        assert store.get(KEY)[10.0].n == 120
        assert store.get(KEY)[60.0].n == 120
        assert store.get(KEY)[10.0].bucket_count == 12
        assert store.get(KEY)[60.0].bucket_count == 3
        assert store.accepted(KEY) == 120
        assert store.accepted("never") == 0

    def test_events_carry_resolution(self):
        store = WindowStore(resolutions=(10.0, 60.0), seed_fn=lambda k: 5)
        _, events = store.ingest(KEY, 1000.0 + np.arange(120), _values(120))
        resolutions = {event.resolution for event in events}
        assert resolutions == {10.0, 60.0}

    def test_unknown_key_raises(self):
        store = WindowStore(resolutions=(10.0,))
        with pytest.raises(KeyError):
            store.get("missing")

    def test_restore_keeps_new_config_resolutions_empty(self):
        old = WindowStore(resolutions=(10.0,), seed_fn=lambda k: 3)
        old.ingest(KEY, [1005.0], [1.0])
        payload = old.payload(KEY)
        new = WindowStore(resolutions=(10.0, 60.0), seed_fn=lambda k: 3)
        new.restore(KEY, payload)
        assert new.get(KEY)[10.0].n == 1
        assert new.get(KEY)[60.0].n == 0  # added since the snapshot

    def test_stats_aggregate(self):
        store = WindowStore(resolutions=(10.0,), retention=2, seed_fn=lambda k: 1)
        for bucket in range(4):
            store.ingest(KEY, [bucket * 10.0 + 5.0], [1.0])
        stats = store.stats()
        assert stats["keys"] == 1
        assert stats["buckets"] == 2
        assert stats["expired_buckets"] == 2
        assert stats["resolutions"] == [10.0]


# ----------------------------------------------------------------------
# Service-level durability: snapshot + WAL tail, bit-exact
# ----------------------------------------------------------------------

_WINDOW_KW = dict(
    window_resolutions=(10.0,), window_retention=32, window_lateness=5.0
)


def _window_answer(service, start, end):
    return service.window_query(KEY, "quantiles", 0.0, start, end, FRACTIONS)


def _assert_same_answer(expected, got):
    assert expected[0] == got[0]  # n
    assert expected[1] == got[1]  # error bound
    assert np.array_equal(expected[2], got[2])  # values, bit-exact
    assert expected[3] == got[3]  # retained


class TestServiceRecovery:
    def test_snapshot_plus_wal_tail_restart_is_bit_exact(self, tmp_path):
        service = QuantileService(tmp_path, seed=0, **_WINDOW_KW)
        rng = np.random.default_rng(21)
        service.window_ingest(KEY, 1000.0 + np.arange(300) * 0.2, rng.random(300))
        service.snapshot_all()
        # WAL-only tail after the snapshot, including an out-of-order batch.
        service.window_ingest(KEY, 1060.0 + np.arange(100) * 0.1, rng.random(100))
        service.window_ingest(KEY, [1058.0, 1069.5], [5.0, 6.0])
        expected = _window_answer(service, 1000.0, 1100.0)
        expected_stats = service.windows.ring(KEY).stats()
        service.close(snapshot=False)  # crash-style exit

        recovered = QuantileService(tmp_path, seed=0, **_WINDOW_KW)
        _assert_same_answer(expected, _window_answer(recovered, 1000.0, 1100.0))
        assert recovered.windows.ring(KEY).stats() == expected_stats
        recovered.close()

    def test_wal_only_restart_replays_lateness_decisions(self, tmp_path):
        service = QuantileService(tmp_path, seed=0, **_WINDOW_KW)
        service.window_ingest(KEY, [1025.0], [1.0])
        service.window_ingest(KEY, [1012.0], [2.0])  # dropped: 13s > 5s bound
        assert service.windows.ring(KEY).late_dropped == 1
        expected = _window_answer(service, 1000.0, 1040.0)
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, seed=0, **_WINDOW_KW)
        assert recovered.windows.ring(KEY).late_dropped == 1
        _assert_same_answer(expected, _window_answer(recovered, 1000.0, 1040.0))
        recovered.close()

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_wal_with_an_infinite_bucket_quotient_replays(self, tmp_path):
        # -1.7e308 / 0.25 overflows to -inf: the value is logged, dropped
        # below the ring floor, and the batch's other value is applied,
        # live and on replay alike.
        kw = dict(window_resolutions=(0.25,), window_retention=8, window_lateness=1.0)
        service = QuantileService(tmp_path, seed=0, **kw)
        service.window_ingest(KEY, [-1.7e308, 1000.0], [1.0, 2.0])
        expected_stats = service.windows.ring(KEY).stats()
        assert expected_stats["late_dropped"] == 1
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, seed=0, **kw)
        assert recovered.windows.ring(KEY).stats() == expected_stats
        recovered.close()

    @pytest.mark.parametrize("top", [1.7e308, 5e18, -1.7e308])
    def test_batch_without_an_int64_bucket_is_refused_before_logging(self, tmp_path, top):
        # On a 0.5 s ring 1.7e308 / 0.5 overflows to +inf: logged, that
        # batch would fail its apply and then every replay.  5e18 / 0.5
        # leaves int64, where the ring's cast picks no meaningful bucket.
        # A lone -1.7e308 is the batch's maximum too.
        kw = dict(window_resolutions=(0.5,), window_retention=8, window_lateness=1.0)
        service = QuantileService(tmp_path, seed=0, **kw)
        timestamps = [top] if top < 0 else [1000.0, top]
        with pytest.raises(ServiceError, match="bucket index"):
            service.window_ingest("k", timestamps, [1.0] * len(timestamps))
        assert service.wal.size_bytes == 0
        assert "k" not in service.windows
        service.window_ingest("k", [1000.0], [1.0])
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, seed=0, **kw)
        assert recovered.windows.ring("k").stats()["accepted"] == 1
        recovered.close()

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_logged_batch_without_an_int64_bucket_replays(self, tmp_path):
        # Older versions logged and applied [1000.0, 5e18] on a 0.5 s ring
        # (5e18 / 0.5 is finite); such a log must still open although
        # validation now refuses the batch before logging it.
        kw = dict(window_resolutions=(0.5,), window_retention=8, window_lateness=1.0)
        service = QuantileService(tmp_path, seed=0, **kw)
        timestamps = np.asarray([1000.0, 5e18])
        values = np.asarray([1.0, 2.0])
        payload = b"".join((timestamps.astype("<f8").data, values.astype("<f8").data))
        service._window_applied_seq["k"] = service._wal_append_many(
            ((WAL_WINDOW_INGEST, "k", payload),)
        )
        service.windows.ingest("k", timestamps, values, prevalidated=True)
        expected_stats = service.windows.ring("k").stats()
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, seed=0, **kw)
        assert recovered.windows.ring("k").stats() == expected_stats
        recovered.close()

    def test_window_query_ranks_and_cdf_match_the_union_oracle(self):
        service = QuantileService(None, seed=0, **_WINDOW_KW)
        rng = np.random.default_rng(22)
        for step in range(6):
            ts = 1000.0 + step * 10.0 + np.sort(rng.random(9000)) * 9.0
            service.window_ingest(KEY, ts, rng.lognormal(0.0, 1.0, 9000))
        service.window_ingest(KEY, [1055.0, 1059.0], [0.5, 7.0])
        oracle = _UnionOracle(_sources(service.windows.ring(KEY), 1010.0, 1060.0))
        points = np.array([0.1, 0.5, 1.0, 2.0, 8.0])
        n, eps, ranks, retained = service.window_query(
            KEY, "ranks", 0.0, 1010.0, 1060.0, points
        )
        assert n == oracle.n == 5 * 9000 + 2
        assert eps == eps_for_streaming_k(service.windows.k, n)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, oracle.ranks(points).astype(np.float64))
        _, _, cdf, _ = service.window_query(KEY, "cdf", 0.0, 1010.0, 1060.0, points)
        assert np.array_equal(cdf, oracle.cdf(points))
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            service.window_query(KEY, "cdf", 0.0, 1010.0, 1060.0, points[::-1])
        with pytest.raises(InvalidParameterError, match=r"in \[0, 1\]"):
            service.window_query(KEY, "quantiles", 0.0, 1010.0, 1060.0, [1.5])

    def test_restart_is_bit_exact_on_a_one_second_one_minute_ring(self, tmp_path):
        kw = dict(window_resolutions=(1.0, 60.0), window_retention=240, window_lateness=2.0)
        service = QuantileService(tmp_path, seed=0, **kw)
        rng = np.random.default_rng(23)

        def second(t):
            service.window_ingest(KEY, t + rng.random(200), rng.lognormal(0.0, 1.0, 200))

        for t in range(1000, 1120):  # two full minutes of 12,000 values
            second(float(t))
        service.snapshot_all()
        for t in range(1120, 1150):  # a WAL tail after the snapshot
            second(float(t))
        minute = service.windows.ring(KEY, 60.0)
        assert any(sketch.num_levels > 1 for _, sketch in minute.buckets())
        reads = [
            (kind, resolution, start, points)
            for resolution in (1.0, 60.0)
            for start in (1000.0, 1090.0, 1125.0)
            for kind, points in (
                ("quantiles", FRACTIONS),
                ("ranks", np.array([0.5, 1.0, 3.0])),
                ("cdf", np.array([0.5, 1.0, 3.0])),
            )
        ]

        def answers(svc):
            return [
                svc.window_query(KEY, kind, resolution, start, 1150.0, points)
                for kind, resolution, start, points in reads
            ]

        expected = answers(service)
        service.close(snapshot=False)  # crash-style exit

        recovered = QuantileService(tmp_path, seed=0, **kw)
        for want, got in zip(expected, answers(recovered)):
            _assert_same_answer(want, got)
        recovered.close()

    def test_window_query_errors(self):
        service = QuantileService(None, seed=0, **_WINDOW_KW)
        with pytest.raises(KeyError):
            service.window_query("missing", "quantiles", 0.0, 0.0, 1.0, FRACTIONS)
        service.window_ingest(KEY, [1005.0], [1.0])
        with pytest.raises(EmptySketchError):
            service.window_query(KEY, "quantiles", 0.0, 0.0, 10.0, FRACTIONS)
        with pytest.raises(ServiceError):
            service.window_query(KEY, "quantiles", 30.0, 1000.0, 1010.0, FRACTIONS)

    @pytest.mark.parametrize(
        "start, end",
        [(-1.7e308, 1001.0), (float("-inf"), 1001.0), (1000.0, float("inf")),
         (1000.0, 1.7e308), (-5e18, 1001.0)],
    )
    def test_window_query_without_an_int64_bucket_is_refused(self, start, end):
        # t / 0.5 is infinite or leaves int64 for one bound: a bad
        # argument, not an OverflowError from the bucket arithmetic.
        kw = dict(window_resolutions=(0.5,), window_retention=8, window_lateness=1.0)
        service = QuantileService(None, seed=0, **kw)
        service.window_ingest("k", [1000.0], [1.0])
        with pytest.raises(InvalidParameterError, match="bucket index"):
            service.window_query("k", "quantiles", 0.0, start, end, [0.5])
        assert service.window_query("k", "quantiles", 0.0, 1000.0, 1001.0, [0.5])[0] == 1


# ----------------------------------------------------------------------
# The acceptance property
# ----------------------------------------------------------------------

#: One schedule step: (op, seed).  Batches advance a deterministic clock;
#: "late" batches step backwards (some inside the bound, some dropped);
#: "snapshot" reseeds the live side; "restart" is a crash + recovery.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["batch", "late", "sparse", "snapshot", "restart"]),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1,
    max_size=8,
)


class TestWindowQueryBitExactProperty:
    @given(_STEPS)
    @settings(max_examples=25, deadline=None)
    def test_window_query_equals_union_oracle(self, ops):
        """WINDOW_QUERY == the weighted union of the same retained buckets,
        bit for bit — through out-of-order ingest, expiry (small
        retention), snapshots, and crash restarts."""
        with tempfile.TemporaryDirectory() as data_dir:
            kw = dict(
                window_resolutions=(10.0,), window_retention=6, window_lateness=8.0
            )
            service = QuantileService(data_dir, seed=0, **kw)
            try:
                clock = 1000.0
                for op, arg in ops:
                    rng = np.random.default_rng(arg)
                    if op == "batch":
                        clock += float(rng.uniform(0.0, 15.0))
                        size = int(rng.integers(1, 120))
                        ts = clock + rng.uniform(0.0, 10.0, size)
                        clock = max(clock, float(ts.max()))
                        service.window_ingest(KEY, ts, rng.random(size))
                    elif op == "late":
                        # Straddles the lateness bound: some kept, some dropped.
                        size = int(rng.integers(1, 40))
                        ts = clock - rng.uniform(0.0, 20.0, size)
                        service.window_ingest(KEY, ts, rng.random(size))
                    elif op == "sparse":
                        # A big jump expires most of the ring (retention=6).
                        clock += float(rng.uniform(60.0, 120.0))
                        service.window_ingest(KEY, [clock], rng.random(1))
                    elif op == "snapshot":
                        service.snapshot_all()
                    else:  # restart
                        before = self._answer_or_none(service)
                        service.close(snapshot=False)
                        service = QuantileService(data_dir, seed=0, **kw)
                        after = self._answer_or_none(service)
                        assert (before is None) == (after is None)
                        if before is not None:
                            _assert_same_answer(before, after)
                    self._check_against_union_oracle(service)
            finally:
                service.close(snapshot=False)

    @staticmethod
    def _horizon_bounds(ring):
        watermark = ring.watermark
        return watermark - 200.0, watermark + 10.0

    def _answer_or_none(self, service):
        if KEY not in service.windows or service.windows.ring(KEY).n == 0:
            return None
        lo, hi = self._horizon_bounds(service.windows.ring(KEY))
        return _window_answer(service, lo, hi)

    def _check_against_union_oracle(self, service):
        if KEY not in service.windows:
            return
        ring = service.windows.ring(KEY)
        if ring.n == 0:
            return
        lo, hi = self._horizon_bounds(ring)
        got = _window_answer(service, lo, hi)
        sources = _sources(ring, lo, hi)
        oracle = _UnionOracle(sources)
        expected = (
            oracle.n,
            eps_for_streaming_k(ring.k, max(2, oracle.n)),
            oracle.quantiles(FRACTIONS),
            sum(sketch.num_retained for sketch in sources),
        )
        _assert_same_answer(expected, got)
