"""Time-bucketed sketch rings: the windowed plane's core data structure.

A :class:`WindowRing` keeps one :class:`~repro.fast.FastReqSketch` per
wall-clock time bucket of a fixed width and answers any horizon from the
*weighted union* of the overlapping buckets' retained items (a read-only
:class:`Horizon`; Theorem 3 of the paper, full mergeability, makes that
union a valid summary of the horizon, and no merge target adds its own
compaction error).  Nothing is ever re-scanned: ingest cost is one
vectorized grouped ``update_many`` pass, query cost is one sort over at
most ``retention`` tiny summaries.

Timestamps come from the **caller** (epoch seconds as float64) — tests
drive deterministic clocks, production passes ``time.time()``-based
stamps.  That choice is what makes WAL replay bit-exact: a replayed
``(timestamps, values)`` batch lands in exactly the buckets the live
batch did, because bucketing is a pure function of the payload.

Semantics:

* **Bucketing** — value with timestamp ``t`` belongs to bucket
  ``floor(t / bucket_seconds)`` (half-open ``[b*w, (b+1)*w)`` intervals),
  computed by every ring from ``t`` itself, never from a finer ring's
  index (see :meth:`WindowRing.ingest` for why).
* **Watermark / lateness** — the watermark is the maximum timestamp ever
  ingested, and it advances at *batch boundaries*: a batch is one atomic
  arrival, so admission is judged against the watermark as of the
  previous batch (in-batch order is irrelevant, a single in-order batch
  of any span is fully accepted, and WAL replay — which preserves batch
  boundaries — is deterministic).  Values older than that watermark
  minus ``lateness`` are dropped and counted in :attr:`late_dropped`;
  out-of-order arrivals within the bound land in their true bucket.
* **Retention / TTL** — only the newest ``retention`` bucket slots are
  live; older buckets are expired as the watermark advances (TTL =
  ``retention * bucket_seconds``), counted in :attr:`expired_buckets`.
* **Bucket close** — bucket ``b`` is *closed* once no admissible future
  value can reach it (``watermark - lateness >= (b+1)*bucket_seconds``);
  :meth:`ingest` reports newly closed non-empty buckets so the service
  can push subscription notifications exactly once per bucket.

Determinism: every bucket sketch is seeded from a splitmix64 mix of the
ring seed and the bucket index, and :meth:`horizon` draws no coin at all
— so a ring rebuilt from the same payloads (WAL replay, FRW1 snapshot +
tail) answers every horizon bit-identically.  :meth:`reseed_epoch`
re-pins every bucket's coin stream after a snapshot is written/loaded,
mirroring the service's per-key epoch reseeding for plain sketches.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.params import eps_for_streaming_k
from repro.errors import EmptySketchError, InvalidParameterError
from repro.fast import FastReqSketch

__all__ = ["WindowRing", "Horizon", "ClosedBucket", "mix_seed"]

_MASK64 = (1 << 64) - 1
#: Bucket indices are int64 (the grouping computes them with
#: ``astype(np.int64)``); a quotient outside ``[-2**63, 2**63)`` (or an
#: infinite one, when ``t / width`` overflows) does not survive that cast.
_QUOTIENT_MIN = -(2.0**63)
_QUOTIENT_MAX = 2.0**63


def _bucket_indices(timestamps: np.ndarray, width: float) -> np.ndarray:
    """Per-value bucket indices, ``floor(t / width)`` as int64."""
    return np.floor(timestamps / width).astype(np.int64)


def _exact_index(timestamp: float, width: float) -> Optional[int]:
    """``floor(timestamp / width)`` when the int64 cast keeps it exactly,
    else ``None`` (the caller then takes :func:`_bucket_indices`' cast)."""
    quotient = timestamp / width
    if _QUOTIENT_MIN <= quotient < _QUOTIENT_MAX:
        return math.floor(quotient)
    return None


def mix_seed(*parts: int) -> int:
    """Fold integers into one well-mixed non-negative 63-bit seed.

    splitmix64-style: each part perturbs the accumulator through a
    multiply + xor-shift finalizer, so structured inputs (small bucket
    indices, consecutive epochs) land far apart.  Deterministic across
    runs and platforms — the windowed plane's bit-exact recovery leans
    on it.
    """
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc = (acc ^ (int(part) & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        acc ^= acc >> 29
        acc = acc * 0x94D049BB133111EB & _MASK64
        acc ^= acc >> 32
    return acc & ((1 << 63) - 1)


class ClosedBucket(Tuple):
    """``(index, start, end, sketch)`` for one newly closed bucket."""

    __slots__ = ()

    def __new__(cls, index: int, start: float, end: float, sketch):
        return tuple.__new__(cls, (index, start, end, sketch))

    @property
    def index(self) -> int:
        return self[0]

    @property
    def start(self) -> float:
        return self[1]

    @property
    def end(self) -> float:
        return self[2]

    @property
    def sketch(self):
        return self[3]


class WindowRing:
    """A ring of time-bucketed sketches for one (key, resolution).

    Args:
        bucket_seconds: Bucket width (> 0).
        retention: Live bucket slots (>= 1); older buckets expire as the
            watermark advances.
        lateness: Out-of-order tolerance in seconds (>= 0): values older
            than ``watermark - lateness`` are dropped, buckets close only
            once the watermark clears their end by ``lateness``.
        k, hra: Per-bucket sketch parameters.
        seed: Ring seed; bucket ``i`` uses ``mix_seed(seed, i)``.
            ``None`` = fresh randomness (no bit-exact replay promised).
    """

    __slots__ = (
        "bucket_seconds",
        "retention",
        "lateness",
        "k",
        "hra",
        "seed",
        "_buckets",
        "_watermark",
        "_closed_through",
        "late_dropped",
        "expired_buckets",
        "accepted",
    )

    def __init__(
        self,
        bucket_seconds: float,
        *,
        retention: int = 64,
        lateness: float = 0.0,
        k: int = 32,
        hra: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        if not bucket_seconds > 0:
            raise InvalidParameterError(
                f"bucket_seconds must be > 0, got {bucket_seconds}"
            )
        if retention < 1:
            raise InvalidParameterError(f"retention must be >= 1, got {retention}")
        if lateness < 0:
            raise InvalidParameterError(f"lateness must be >= 0, got {lateness}")
        self.bucket_seconds = float(bucket_seconds)
        self.retention = int(retention)
        self.lateness = float(lateness)
        self.k = k
        self.hra = hra
        self.seed = seed
        self._buckets: Dict[int, FastReqSketch] = {}
        self._watermark: Optional[float] = None
        #: Highest bucket index already reported closed (notifications
        #: fire once per bucket; derived from the watermark on restore).
        self._closed_through: int = -(2**62)
        self.late_dropped = 0
        self.expired_buckets = 0
        #: Values accepted into buckets over the ring's whole life (the
        #: ingest ack counter; late-dropped values are excluded).
        self.accepted = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def bucket_index(self, timestamp: float) -> int:
        """The bucket owning ``timestamp`` (half-open intervals)."""
        return int(math.floor(timestamp / self.bucket_seconds))

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``[start, end)`` wall-clock bounds of bucket ``index``."""
        return index * self.bucket_seconds, (index + 1) * self.bucket_seconds

    def _bucket_seed(self, index: int) -> Optional[int]:
        return None if self.seed is None else mix_seed(self.seed, index)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def watermark(self) -> Optional[float]:
        """Largest timestamp ever ingested (``None`` before any data)."""
        return self._watermark

    @property
    def closed_through(self) -> int:
        """Highest bucket index known closed (very negative when none)."""
        return self._closed_through

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def num_retained(self) -> int:
        """Retained items across every live bucket (space accounting)."""
        return sum(sketch.num_retained for sketch in self._buckets.values())

    @property
    def n(self) -> int:
        """Values currently represented by live buckets (expired excluded)."""
        return sum(int(sketch.n) for sketch in self._buckets.values())

    def buckets(self) -> List[Tuple[int, FastReqSketch]]:
        """Live ``(index, sketch)`` pairs in ascending index order."""
        return sorted(self._buckets.items())

    def closed_buckets(self, from_index: int = -(2**62)) -> List[ClosedBucket]:
        """Retained *closed* buckets with index >= ``from_index``.

        The subscription catch-up path: everything here was already
        reported by some :meth:`ingest` (or predates the subscription),
        so a resuming subscriber replays exactly the closed buckets it
        missed — never an open one.
        """
        out = []
        for index, sketch in self.buckets():
            if index < from_index or index > self._closed_through:
                continue
            start, end = self.bucket_bounds(index)
            out.append(ClosedBucket(index, start, end, sketch))
        return out

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(self, timestamps, values) -> Tuple[int, List[ClosedBucket]]:
        """Apply one (timestamps, values) batch.

        Returns ``(accepted, closed)``: how many values landed in a live
        bucket, and the non-empty buckets this batch *newly closed*
        (ascending).  Deterministic for a given batch sequence — the WAL
        replay contract.  Arrays must be pre-validated (same length,
        non-empty, finite timestamps, no NaN values) — the service
        validates before its WAL append, mirroring plain ingest.

        The common batch (every admitted value in one bucket, as a
        1-second batch is in a 1-second or coarser ring) costs a few
        whole-array reductions and one ``update_many``: the batch's
        extremes decide the watermark, the ring floor and whether the
        admitted values share a bucket, so per-value bucket indices and
        the stable grouping sort run only for a batch that spans buckets.
        Both paths apply the same rule — a value's bucket is
        ``floor(t / bucket_seconds)`` taken as an int64, exactly as the
        grouping computes it — so they produce identical buckets, coins
        and counters, and WALs written by either replay the same.  An
        extreme whose quotient leaves the int64 range (a finite ``t``
        whose ``t / bucket_seconds`` overflows to infinity, say) sends the
        batch down the grouping path, whose cast files it.

        Each ring computes its indices from the timestamps, never from a
        finer ring's indices: ``floor(floor(t / 1) / 60)`` and
        ``floor(t / 60)`` are equal in exact arithmetic, but the float
        divisions round separately, so at a bucket edge they can disagree
        (and widths need not nest at all, e.g. 1.5 s beside 1 s).  A
        derived index would file such a value in a different bucket than
        the logged batch did on replay of an older WAL.
        """
        ts = np.ascontiguousarray(timestamps, dtype=np.float64).reshape(-1)
        vals = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        width = self.bucket_seconds
        top = float(ts.max())
        # Division rounds monotonically, so the batch's highest bucket is
        # the bucket of its largest timestamp, unless that quotient falls
        # outside the int64 range (then the cast decides, value by value).
        top_index = _exact_index(top, width)
        if top_index is None:
            high = int(_bucket_indices(ts, width).max())
        else:
            high = top_index
        previous = self._watermark
        if previous is not None:
            high = max(high, self.bucket_index(previous))
            self._watermark = max(previous, top)
        else:
            self._watermark = top

        # Expire buckets that fell off the ring as the watermark advanced.
        floor_index = high - self.retention + 1
        if self._buckets:
            dead = [index for index in self._buckets if index < floor_index]
            for index in dead:
                del self._buckets[index]
            self.expired_buckets += len(dead)

        # Admission: inside the lateness bound (judged against the
        # pre-batch watermark — the batch is one atomic arrival) AND
        # inside the live ring.
        size = ts.size
        bottom = float(ts.min())
        if previous is not None:
            cutoff = previous - self.lateness
            if bottom < cutoff:
                keep = ts >= cutoff
                ts = ts[keep]
                vals = vals[keep]
                if ts.size:
                    bottom = float(ts.min())
        if ts.size:
            # The batch maximum survives any lateness cut, so the
            # admitted values share one bucket iff the extremes do.
            index = _exact_index(bottom, width)
            if index is not None and index == top_index:
                if index >= floor_index:
                    self._bucket(index).update_many(vals)
                else:
                    vals = vals[:0]
            else:
                vals = self._ingest_grouped(ts, vals, floor_index)
        accepted = int(vals.size)
        self.late_dropped += size - accepted
        self.accepted += accepted
        return accepted, self._collect_closed()

    def _ingest_grouped(self, ts, vals, floor_index: int) -> np.ndarray:
        """Apply a batch spanning several buckets; returns the admitted
        values (those inside the live ring), grouped by bucket."""
        indices = _bucket_indices(ts, self.bucket_seconds)
        keep = indices >= floor_index
        if not keep.all():
            indices = indices[keep]
            vals = vals[keep]
        # Group by bucket (stable sort: in-batch order per bucket is the
        # arrival order, so replay feeds each sketch identical slices).
        if indices.size:
            order = np.argsort(indices, kind="stable")
            indices = indices[order]
            vals = vals[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(indices)) + 1, [indices.size])
            )
            for lo, hi in zip(starts[:-1], starts[1:]):
                self._bucket(int(indices[lo])).update_many(vals[lo:hi])
        return vals

    def _bucket(self, index: int) -> FastReqSketch:
        """Bucket ``index``'s sketch, created (and seeded) on first use."""
        sketch = self._buckets.get(index)
        if sketch is None:
            sketch = FastReqSketch(self.k, hra=self.hra, seed=self._bucket_seed(index))
            self._buckets[index] = sketch
        return sketch

    def _collect_closed(self) -> List[ClosedBucket]:
        """Non-empty buckets newly closed by the current watermark.

        Only the newly closed indices are sorted, not every live bucket:
        the watermark crosses a bucket edge about once per bucket width.
        """
        limit = self.bucket_index(self._watermark - self.lateness) - 1
        low = self._closed_through
        if limit <= low:
            return []
        self._closed_through = limit
        closed = []
        for index in sorted(i for i in self._buckets if low < i <= limit):
            start, end = self.bucket_bounds(index)
            closed.append(ClosedBucket(index, start, end, self._buckets[index]))
        return closed

    # ------------------------------------------------------------------
    # Horizon queries
    # ------------------------------------------------------------------

    def horizon(self, start: float, end: float) -> Horizon:
        """A read-only :class:`Horizon` over buckets overlapping ``[start, end)``.

        Answers from the buckets' weighted union: no merge target, no
        compaction, no coin, and every bucket's ``n``, staging block and
        level versions stay as they were.  May be empty (no overlapping
        data) — callers decide whether that is an error.  Bounds whose
        ``t / bucket_seconds`` has no int64 floor (infinite, or too large
        in magnitude) are refused, as ingest timestamps are.
        """
        if not end > start:
            raise InvalidParameterError(
                f"horizon end must be > start, got [{start}, {end})"
            )
        width = self.bucket_seconds
        lo = _exact_index(start, width)
        if lo is None or _exact_index(end, width) is None:
            raise InvalidParameterError(
                f"horizon [{start}, {end}) has no int64 bucket index "
                f"at the {width}s resolution"
            )
        sources = [
            sketch
            for index, sketch in self.buckets()
            if index >= lo and index * width < end
        ]
        return Horizon(sources, self.k)

    # ------------------------------------------------------------------
    # Durability hooks (see repro.windowed.wire for the FRW1 format)
    # ------------------------------------------------------------------

    def reseed_epoch(self, epoch: int) -> None:
        """Pin every bucket's coin stream to ``(bucket seed, epoch)``.

        Called after a ring snapshot is written (live side) and after one
        is loaded (recovery side), with ``epoch`` = the snapshot's WAL
        sequence — the windowed twin of the service's per-key
        ``_reseed_from_epoch``: FRW1 payloads do not carry RNG state, so
        both sides re-pin to the same deterministic stream and the
        post-snapshot WAL tail replays with identical coins.  No-op for
        unseeded rings.
        """
        if self.seed is None:
            return
        for index, sketch in self._buckets.items():
            sketch.reseed(mix_seed(self.seed, index, epoch))

    def restore_bucket(self, index: int, sketch: FastReqSketch) -> None:
        """Install one deserialized bucket (snapshot load path)."""
        self._buckets[int(index)] = sketch

    def restore_marks(
        self,
        *,
        watermark: Optional[float],
        late_dropped: int,
        expired_buckets: int,
        accepted: int,
    ) -> None:
        """Restore counters + watermark; recomputes the closed frontier."""
        self._watermark = watermark
        self.late_dropped = int(late_dropped)
        self.expired_buckets = int(expired_buckets)
        self.accepted = int(accepted)
        if watermark is not None:
            self._closed_through = self.bucket_index(watermark - self.lateness) - 1

    def stats(self) -> dict:
        return {
            "bucket_seconds": self.bucket_seconds,
            "retention": self.retention,
            "lateness": self.lateness,
            "buckets": self.bucket_count,
            "retained_items": self.num_retained,
            "n": self.n,
            "watermark": self._watermark,
            "late_dropped": self.late_dropped,
            "expired_buckets": self.expired_buckets,
            "accepted": self.accepted,
        }


class Horizon:
    """Read-only answers over a set of bucket sketches, built once.

    The query index is :meth:`FastReqSketch.union_index` of the sources —
    the paper's weighted count over their retained items — so a horizon
    costs one sort of the overlapping buckets' items, and a bucket that
    only staged values (never compacted) answers exactly.  The answer
    code and its errors are the engine's.  ``error_bound`` is the
    a-priori bound a merged sketch of the same ``n`` reports: the union
    carries the buckets' compaction errors but none of a merge's own, and
    those are independent and zero-mean, so dropping them only lowers the
    variance the bound controls.
    """

    __slots__ = ("k", "n", "num_retained", "_index")

    def __init__(self, sources: List[FastReqSketch], k: int) -> None:
        self.k = k
        self.n = sum(int(sketch.n) for sketch in sources)
        self.num_retained = sum(sketch.num_retained for sketch in sources)
        self._index = FastReqSketch.union_index(sources)

    @property
    def is_empty(self) -> bool:
        return self.n == 0

    def _answer_index(self, what: str):
        if self.n == 0:
            raise EmptySketchError(f"{what} on an empty horizon")
        return self._index

    def error_bound(self, *, delta: float = 0.05) -> float:
        """A-priori multiplicative error ``eps`` at the horizon's ``n``."""
        return eps_for_streaming_k(self.k, max(2, self.n), delta)

    def rank(self, item: float, *, inclusive: bool = True) -> int:
        return int(self.ranks(np.asarray([item]), inclusive=inclusive)[0])

    def ranks(self, items, *, inclusive: bool = True) -> np.ndarray:
        return self._answer_index("ranks").ranks(items, inclusive=inclusive)

    def quantile(self, q: float) -> float:
        return float(self.quantiles(np.asarray([q]))[0])

    def quantiles(self, fractions) -> np.ndarray:
        qs = np.asarray(fractions, dtype=np.float64)
        return self._answer_index("quantiles").quantiles(qs)

    def cdf(self, split_points, *, inclusive: bool = True) -> np.ndarray:
        points = self._index.split_points(split_points)
        return self._answer_index("cdf").cdf(points, inclusive=inclusive)
