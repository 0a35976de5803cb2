"""A numpy-accelerated REQ sketch for float64 streams.

:class:`FastReqSketch` implements the same relative-compactor stack as
:class:`repro.core.req.ReqSketch` but is built around three
throughput-first structures:

* **Sorted-run levels** — each compactor level keeps a consolidated sorted
  array plus a list of *pending sorted runs* (appended batches and
  promotions).  Appending a batch is O(1); runs are only merged (one
  concatenate + one near-linear sort over already-sorted runs) when a
  compaction or query actually needs the level in sorted order.  A batch
  append followed by merge-style compactions is exactly a merge with a
  pre-sorted single-level sketch, so the Appendix D guarantee framework
  covers it (batching changes which compactions fire, not the guarantee
  class).
* **A preallocated staging block** — scalar :meth:`update` writes into a
  fixed float64 block (a C extension compiled on first import, with a
  pure-Python fallback) and the block is drained into the level structure
  only when full, so single-item ingestion costs one C call per item.
  Reads see staged values through a sorted peek and never drain them.
* **A version-stamped query index** — per-level sorted arrays are cached
  and version-stamped; a query rebuilds only levels dirtied since the
  last query instead of re-sorting every retained item.  The rebuilt
  index (sorted items and one zero-padded cumulative-weight array, read
  as both the rank and the inverse rank index) is itself cached and
  reused for every ``quantiles`` / ``ranks`` / ``cdf`` call until the
  level versions or the staged count change, so a pure read workload is a single
  ``np.searchsorted`` per batch with no per-query rebuild.
  ``error_bound`` is memoized on the same stamp.

Query-index invariants (the service plane leans on these):

* The index is a pure function of the retained multiset, staged values
  included: rebuilding it from scratch (or from a deserialized ``FRQ1``
  payload of the same state) yields bit-identical arrays, and building
  it changes nothing in the sketch (no drain, no compaction, no coin).
* Every content mutation (``update``/``update_many``/``merge``) bumps a
  level version or the staged count, which invalidates the index on the
  *next* query; a stale index is never served.
* :attr:`~FastReqSketch.query_index_hits` /
  :attr:`~FastReqSketch.query_index_rebuilds` count served-from-cache
  queries vs rebuilds (misses == rebuilds); a build's ``version`` is the
  rebuild count at the time it was made.
* Each build also memoizes its last small ``quantiles`` answer, keyed on
  the request's fractions: re-asking the same tail quantiles of an
  unchanged sketch (a dashboard refresh) is one bytes comparison and one
  array copy instead of a handful of numpy calls.  Only validated answers
  are stored, a hit hands out a copy, and the memo dies with its build.
  :attr:`~FastReqSketch.query_index_answer_hits` counts the reads it
  answered whole.
* :meth:`FastReqSketch.union_index` builds the same kind of index over
  several sketches' weighted union (a windowed horizon read) and answers
  through the same code; it changes no input and is cached nowhere.

Differences from the reference engine, all deliberate: float64 items only
(NaN rejected); the ``auto`` parameter scheme only (constant ``k``,
buffers grow with the level's observed throughput — footnote 9).

The test suite cross-validates this engine against the reference
implementation on the same seeded streams (same error class, identical
weight conservation, identical extremes).
"""

from __future__ import annotations

import math
import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import rank_interval
from repro.core.params import eps_for_streaming_k
from repro.core.req import ReqSketch
from repro.core.schedule import CompactionSchedule
from repro.errors import (
    EmptySketchError,
    IncompatibleSketchesError,
    InvalidParameterError,
)
from repro.fast._native import load_stage_buffer

__all__ = ["FastReqSketch"]

#: Scalar updates are staged in a preallocated block of this many float64s
#: and drained into the level structure when it fills (or on a flush).
_PENDING_BLOCK = 8192

_EMPTY_ITEMS = np.empty(0, dtype=np.float64)

#: Views into bases at or below this size are kept as views instead of
#: materialized: a copy() call costs more ingest time than pinning a
#: few-KiB base array costs memory (the anti-pinning guards below only
#: bother copying out of bases larger than this).
_PIN_EXEMPT_BYTES = 16384

#: ``quantiles`` requests of at most this many fractions have their answer
#: memoized on the index build that served them (a dashboard re-asks the
#: same few tail quantiles); larger requests, such as uniform batch
#: frames, are never retained, so the memo stays a few hundred bytes.
_MEMO_MAX_POINTS = 16

#: The C staging-buffer type, or None when no toolchain is available.
_NativeStageBuffer = load_stage_buffer()


class _QueryIndex:
    """One immutable build of a query index, and the answers read from it.

    ``items`` is the weighted coreset sorted ascending and ``padded`` the
    zero-padded inclusive cumulative item weights (the *rank index*: a
    ``searchsorted`` of query values over ``items`` indexes into it to
    read estimated ranks).  ``cumweights`` is the view ``padded[1:]``
    (the *inverse rank index*: a ``searchsorted`` over it maps a target
    rank to its item position), so the build holds one weights array.
    Both are ``None`` when every item weighs 1: a rank is then a position.
    ``total`` is the summed weight (the summarized stream length),
    ``minimum``/``maximum`` are the extremes, staged values included, and
    ``version`` is the owning sketch's monotonically increasing rebuild
    stamp (0 for a union build).

    Every answer path (the fraction and split-point checks, the
    ``searchsorted`` calls, the exact endpoints) lives here, so a sketch
    and a union of sketches answer, and refuse, the same way.  Callers
    check emptiness first: these methods assume ``total > 0``.

    ``memo`` is the last validated small ``quantiles`` answer a sketch
    served from this build, as ``(fractions bytes, private answer copy)``.
    A build is never mutated — any content change makes the sketch build
    a new index — so the memo can never serve an answer from an older
    state and needs no invalidation.
    """

    __slots__ = ("items", "cumweights", "padded", "total", "minimum", "maximum", "version", "memo")

    def __init__(self, items, padded, minimum: float, maximum: float, version: int) -> None:
        self.items = items
        self.padded = padded
        self.cumweights = None if padded is None else padded[1:]
        self.total = items.size if padded is None else int(padded[-1])
        self.minimum = minimum
        self.maximum = maximum
        self.version = version
        self.memo: Optional[Tuple[bytes, np.ndarray]] = None

    def ranks(self, points, *, inclusive: bool = True) -> np.ndarray:
        """Estimated ranks of ``points`` (int64)."""
        side = "right" if inclusive else "left"
        positions = np.searchsorted(self.items, np.asarray(points, dtype=np.float64), side=side)
        return positions if self.padded is None else self.padded[positions]

    def quantiles(self, qs: np.ndarray) -> np.ndarray:
        """Items at normalized ranks ``qs`` (a float64 array), with the
        exact extremes at 0 and 1."""
        # Written so that NaN fails the check (it compares false both ways).
        if not ((qs >= 0.0) & (qs <= 1.0)).all():
            raise InvalidParameterError("quantile fractions must be in [0, 1]")
        targets = np.maximum(1, np.ceil(qs * self.total)).astype(np.int64)
        if self.cumweights is None:
            positions = targets - 1  # unit weights: target rank t sits at t - 1
        else:
            positions = np.searchsorted(self.cumweights, targets, side="left")
        positions = np.minimum(positions, self.items.size - 1)
        result = self.items[positions]
        result = np.where(qs <= 0.0, self.minimum, result)
        return np.where(qs >= 1.0, self.maximum, result)

    @staticmethod
    def split_points(split_points) -> np.ndarray:
        """``split_points`` as float64, refused unless non-empty, NaN-free
        and strictly increasing along the last axis (checked before any
        index is built; a ``(requests, count)`` matrix is checked row by
        row)."""
        points = np.asarray(split_points, dtype=np.float64)
        if points.size == 0:
            raise InvalidParameterError("split_points must be non-empty")
        if np.isnan(points).any():
            raise InvalidParameterError("split_points must not be NaN")
        if (np.diff(points, axis=-1) <= 0).any():
            raise InvalidParameterError("split_points must be strictly increasing")
        return points

    def cdf(self, points: np.ndarray, *, inclusive: bool = True) -> np.ndarray:
        """Estimated CDF at checked :meth:`split_points`, 1.0 appended
        along the last axis."""
        masses = self.ranks(points, inclusive=inclusive) / self.total
        return np.concatenate([masses, np.ones(masses.shape[:-1] + (1,))], axis=-1)


def _build_index(parts, *, presorted: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(sorted items, padded cumulative weights)`` over weighted ``parts``.

    ``parts`` are non-empty ``(items, height)`` pairs; each item weighs
    ``2**height``.  ``presorted`` says every part is already ascending (a
    sketch's levels), so a lone weight-1 part is the index as it stands.
    Otherwise weight-1 parts cost one sort of their concatenation, and
    mixed weights one stable argsort plus one cumsum.  The weights array
    is ``None`` when every item weighs 1.
    """
    if all(height == 0 for _, height in parts):  # every item weighs 1
        if not parts:
            return _EMPTY_ITEMS, None
        if presorted and len(parts) == 1:
            return parts[0][0], None
        items = np.concatenate([items for items, _ in parts])
        items.sort()
        return items, None
    merged = np.concatenate([items for items, _ in parts])
    # Stable argsort: timsort gallops through the pre-sorted runs (every
    # level is one) instead of resorting them.
    order = np.argsort(merged, kind="stable")
    weights = np.concatenate(
        [np.full(items.size, 1 << height, dtype=np.int64) for items, height in parts]
    )
    # Cumulate straight into the padded array: its tail is cumweights.
    padded = np.zeros(merged.size + 1, dtype=np.int64)
    np.cumsum(weights[order], out=padded[1:])
    return merged[order], padded


def _sketch_from_wire(cls, payload: bytes):
    """Unpickle helper: rebuild a sketch from its FRQ1 wire payload."""
    return cls.from_bytes(payload)


class _PyStageBuffer:
    """Pure-Python mirror of the C ``StageBuffer`` (same API, slower push)."""

    __slots__ = ("_buf", "capacity", "count", "_flush_cb", "_nan_exc")

    def __init__(self, capacity: int, nan_exc=ValueError) -> None:
        self._buf = np.empty(capacity, dtype=np.float64)
        self.capacity = capacity
        self.count = 0
        self._flush_cb = None
        self._nan_exc = nan_exc

    def set_flush(self, callback) -> None:
        self._flush_cb = callback

    def push(self, item) -> None:
        value = float(item)
        if value != value:
            raise self._nan_exc("cannot insert NaN: items must form a total order")
        if self.count >= self.capacity:  # a failed flush left the block full
            self._flush_cb()
        index = self.count
        self._buf[index] = value
        self.count = index + 1
        if self.count == self.capacity:
            self._flush_cb()

    def extend(self, values) -> None:
        values = np.frombuffer(values, dtype=np.float64) if isinstance(values, bytes) else values
        if np.isnan(values).any():  # checked before anything is staged
            raise self._nan_exc("cannot insert NaN: items must form a total order")
        offset = 0
        remaining = len(values)
        while remaining > 0:
            space = self.capacity - self.count
            take = min(space, remaining)
            self._buf[self.count : self.count + take] = values[offset : offset + take]
            self.count += take
            offset += take
            remaining -= take
            if self.count == self.capacity:
                self._flush_cb()

    def drain(self) -> bytes:
        block = self._buf[: self.count].tobytes()
        self.count = 0
        return block

    def peek(self) -> bytes:
        return self._buf[: self.count].tobytes()


class _FastLevel:
    """One compactor level: a consolidated sorted array + pending sorted runs.

    ``version`` stamps every content mutation (run append, compaction,
    merge absorption) so the sketch's coreset cache can tell which levels
    are dirty.  Consolidation itself does not bump the version — it changes
    the representation, not the multiset.
    """

    __slots__ = (
        "items",
        "runs",
        "run_size",
        "schedule",
        "inserted",
        "version",
        "cap_cache",
        "cap_valid",
    )

    def __init__(self, items: np.ndarray = _EMPTY_ITEMS, state: int = 0, inserted: int = 0) -> None:
        self.items = items
        self.runs: List[np.ndarray] = []
        self.run_size = 0
        self.schedule = CompactionSchedule(state)
        self.inserted = inserted
        self.version = 0
        #: Memoized capacity + the ``inserted`` bound it stays valid for
        #: (the growth rule only changes when ``inserted`` crosses
        #: ``k * 2^sections``; the compression loop asks far more often).
        self.cap_cache = 0
        self.cap_valid = -1

    @property
    def size(self) -> int:
        """Retained items (consolidated + pending runs)."""
        return self.items.size + self.run_size

    def add_run(self, run: np.ndarray) -> None:
        """Append a sorted batch without merging (O(1) until needed).

        Runs may arrive as (strided) views into a larger base array — the
        promotion cascade exploits that to stay allocation-free.  A view
        much smaller than its base would pin the base's memory, so those
        are materialized; the 16x threshold keeps total pinned memory
        within 16x of the retained items while skipping the expensive
        strided gathers for the large mid-cascade promotions.  Bases under
        ``_PIN_EXEMPT_BYTES`` are never worth a copy call: pinning them
        costs less memory than the copy costs time on the ingest path.
        """
        base = run.base
        if (
            base is not None
            and base.nbytes > _PIN_EXEMPT_BYTES
            and run.nbytes * 16 < base.nbytes
        ):
            run = run.copy()
        self.runs.append(run)
        self.run_size += run.size
        self.inserted += int(run.size)
        self.version += 1

    def consolidate(self) -> np.ndarray:
        """Merge pending runs into the sorted array (lazy, idempotent).

        numpy's introsort is near-linear on the concatenation of a few
        sorted runs, and SIMD-accelerated — measurably faster here than an
        explicit k-way merge in Python.
        """
        if self.runs:
            arrays = self.runs if not self.items.size else [self.items, *self.runs]
            if len(arrays) == 1:
                self.items = arrays[0]
            else:
                merged = np.concatenate(arrays)
                merged.sort()
                self.items = merged
            self.runs = []
            self.run_size = 0
        return self.items


class FastReqSketch:
    """Relative-error quantiles over float64 streams, numpy-backed.

    Args:
        k: Section size (even integer >= 2); same accuracy role as in
            :class:`~repro.core.req.ReqSketch`.
        hra: High-rank-accuracy mode.
        seed: Seed for the numpy RNG driving the compaction coins.  The
            generator is built from it at the first compaction, not here:
            a sketch that only stages values (a short-lived time bucket, a
            decoded payload) never pays for one.
            :meth:`reseed` is the one way to re-pin the stream later.
        n_bound: Optional known stream-length bound; when given the buffer
            capacity is the fixed ``B = 2 k ceil(log2(n/k))`` of Theorem 14
            instead of the per-level growth rule (used by the large-n space
            experiments; unlike the reference engine, exceeding the bound
            is not policed here).
    """

    def __init__(
        self,
        k: int = 32,
        *,
        hra: bool = False,
        seed: Optional[int] = None,
        n_bound: Optional[int] = None,
    ) -> None:
        if not isinstance(k, int) or k < 2 or k % 2 != 0:
            raise InvalidParameterError(f"k must be an even integer >= 2, got {k!r}")
        self.k = k
        self.n_bound = n_bound
        self._fixed_capacity: Optional[int] = None
        if n_bound is not None:
            if n_bound < 1:
                raise InvalidParameterError(f"n_bound must be >= 1, got {n_bound}")
            sections = max(1, math.ceil(math.log2(max(2.0, n_bound / k))))
            self._fixed_capacity = 2 * k * sections
        self.hra = bool(hra)
        self.reseed(seed)
        self._levels: List[_FastLevel] = []
        self._n = 0
        self._min = math.inf
        self._max = -math.inf
        self._index: Optional[_QueryIndex] = None
        self._index_key: Optional[List[int]] = None
        self._eps_memo: Optional[Tuple[int, float, float]] = None
        #: Queries answered from the cached index without a rebuild.
        self.query_index_hits = 0
        #: Index rebuilds (== cache misses: every miss rebuilds).
        self.query_index_rebuilds = 0
        #: Index hits whose whole answer came from the build's answer memo.
        self.query_index_answer_hits = 0

        stage_type = _NativeStageBuffer or _PyStageBuffer
        self._stage = stage_type(_PENDING_BLOCK, InvalidParameterError)
        # The flush hook must not strongly reference self (the stage buffer
        # lives in self.__dict__; a bound method would close a cycle).
        ref = weakref.ref(self)
        def _flush_hook() -> None:
            sketch = ref()
            if sketch is not None:
                sketch._drain_stage()
        self._stage.set_flush(_flush_hook)
        #: Per-instance binding: ``update`` IS the staging buffer's C push,
        #: so the scalar hot path is one C call per item (no Python frame).
        self.update = self._stage.push

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of stream items summarized (including staged scalars)."""
        return self._n + self._stage.count

    @property
    def is_empty(self) -> bool:
        return self.n == 0

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def num_retained(self) -> int:
        """Stored items across levels plus the staged scalar block."""
        return sum(level.size for level in self._levels) + self._stage.count

    @property
    def num_staged(self) -> int:
        """Raw items in the staging block (part of ``num_retained``)."""
        return self._stage.count

    @property
    def min_item(self) -> float:
        if self.n == 0:
            raise EmptySketchError("min_item on an empty sketch")
        return self.query_index().minimum

    @property
    def max_item(self) -> float:
        if self.n == 0:
            raise EmptySketchError("max_item on an empty sketch")
        return self.query_index().maximum

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "HRA" if self.hra else "LRA"
        return (
            f"FastReqSketch(k={self.k}, {mode}, n={self.n}, "
            f"levels={self.num_levels}, retained={self.num_retained})"
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, item: float) -> None:
        """Insert one item (staged; drained into the levels in blocks).

        Note: on instances this name is bound directly to the staging
        buffer's C ``push`` — this method body only runs if that per-
        instance binding has been removed.
        """
        self._stage.push(item)

    def update_many(self, items: Sequence[float]) -> None:
        """Insert a batch; numpy arrays take the vectorized path directly.

        Batches smaller than the staging block are appended to the staging
        buffer (no flush, no level churn) by one ``extend`` call, which
        rejects a NaN before staging anything; larger batches are sorted
        once and ingested as a single run.
        """
        values = np.asarray(items, dtype=np.float64)
        if values.ndim != 1:
            values = values.reshape(-1)
        size = values.size
        if size == 0:
            return
        stage = self._stage
        if size < stage.capacity:
            # The C staging buffer requires a C-contiguous block (strided
            # views, reversed slices, ... are copied here).
            if not values.flags.c_contiguous:
                values = np.ascontiguousarray(values)
            stage.extend(values)
            return
        run = np.sort(values)
        if np.isnan(run[-1]):  # numpy sorts NaN to the end
            raise InvalidParameterError("cannot insert NaN: items must form a total order")
        self.flush()
        self._ingest_run(run)

    def flush(self) -> None:
        """Push staged scalar updates into the level structure."""
        if self._stage.count:
            self._drain_stage()

    def _drain_stage(self) -> None:
        block = np.frombuffer(self._stage.drain(), dtype=np.float64)
        self._ingest_run(np.sort(block))

    def _ingest_run(self, run: np.ndarray) -> None:
        """Ingest one sorted, NaN-free run (ownership transfers)."""
        self._n += int(run.size)
        first = run[0]
        last = run[-1]
        if first < self._min:
            self._min = float(first)
        if last > self._max:
            self._max = float(last)
        if not self._levels:
            self._levels.append(_FastLevel())
        self._levels[0].add_run(run)
        self._compress()

    # ------------------------------------------------------------------
    # Compaction (merge-style: batch semantics)
    # ------------------------------------------------------------------

    def reseed(self, seed: Optional[int]) -> None:
        """Re-pin the compaction coin stream to ``seed``.

        The one way to set coin state from outside the engine.  Like the
        constructor's seed it is lazy: the generator is built from
        ``seed`` at the next compaction, so reseeding a sketch that never
        compacts again costs nothing.  Coins already spent are not undone;
        the next compaction draws the first coin of ``default_rng(seed)``.
        ``None`` means fresh entropy.
        """
        if isinstance(seed, int) and seed < 0:
            # random.Random accepts negative seeds; numpy does not.  Map to
            # the two's-complement value so callers can derive seeds freely.
            seed = seed & (2**64 - 1)
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None

    def _capacity(self, level: int) -> int:
        if self._fixed_capacity is not None:
            return self._fixed_capacity
        state = self._levels[level]
        inserted = max(1, state.inserted)
        if inserted <= state.cap_valid:
            return state.cap_cache
        sections = max(1, math.ceil(math.log2(max(2.0, inserted / self.k))))
        state.cap_cache = 2 * self.k * sections
        # ceil(log2(inserted / k)) is flat until inserted crosses the next
        # power-of-two multiple of k, so the memo holds up to that bound.
        state.cap_valid = self.k << sections
        return state.cap_cache

    def _compress(self) -> None:
        level = 0
        while level < len(self._levels):
            current = self._levels[level]
            capacity = self._capacity(level)
            while current.size >= capacity:
                promoted = self._compact_level(current, capacity)
                if promoted.size == 0:
                    break
                if level + 1 == len(self._levels):
                    self._levels.append(_FastLevel())
                self._levels[level + 1].add_run(promoted)
                capacity = self._capacity(level)
            level += 1

    def _compact_level(self, level: _FastLevel, capacity: int) -> np.ndarray:
        items = level.consolidate()
        sections = level.schedule.sections_to_compact()
        protect = max(capacity // 2, capacity - sections * self.k)
        size = items.size
        if (size - protect) % 2 != 0:
            protect += 1
        if size <= protect:
            return _EMPTY_ITEMS
        if self.hra:
            cut = size - protect
            slice_ = items[:cut]
            level.items = items[cut:]
        else:
            slice_ = items[protect:]
            level.items = items[:protect]
        base = level.items.base
        if (
            base is not None
            and base.nbytes > _PIN_EXEMPT_BYTES
            and level.items.nbytes * 4 < base.nbytes
        ):
            level.items = level.items.copy()
        level.version += 1
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self._seed)
        offset = 1 if rng.random() < 0.5 else 0
        level.schedule.advance()
        # Strided view, not a copy: the next level's add_run decides whether
        # materializing is worth it (it usually is not — the cascade keeps
        # halving this view until it is consumed).
        return slice_[offset::2]

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other) -> "FastReqSketch":
        """Merge one sketch into this one; ``other`` is left unchanged.

        Accepts another :class:`FastReqSketch` or a float-item reference
        :class:`~repro.core.req.ReqSketch` with the same ``k``/``hra``
        (mixed fleets aggregate through the same path).
        """
        return self.merge_many((other,))

    def merge_many(self, sketches) -> "FastReqSketch":
        """K-way merge: absorb every input with ONE compression pass.

        Equivalent in guarantee class to a sequential pairwise fold (the
        Appendix D merge analysis covers arbitrary merge trees, and
        concatenating same-height buffers before compacting is exactly the
        flat tree), but much faster: each input's level runs are appended
        O(1), schedule states are OR-ed, and ``_compress`` runs once over
        the combined structure instead of once per input.

        The inputs are snapshotted first and never mutated — not even their
        staging buffers are drained.  Returns ``self`` for chaining.

        Raises:
            IncompatibleSketchesError: If any input's compaction geometry
                (``k``, ``hra``, ``n_bound``) differs, or a reference sketch
                holds non-numeric items.
        """
        states = [self._donor_state(other) for other in sketches]
        self.flush()
        total = 0
        for levels, other_n, other_min, other_max in states:
            if other_n == 0:
                continue
            while len(self._levels) < len(levels):
                self._levels.append(_FastLevel())
            for height, (items, state, inserted) in enumerate(levels):
                ours = self._levels[height]
                if items.size:
                    ours.add_run(items)  # already counts items.size into inserted
                ours.inserted += inserted - items.size
                if state:  # OR-ing a zero state changes nothing
                    ours.schedule.merge(CompactionSchedule(state))
                ours.version += 1
            total += other_n
            self._min = min(self._min, other_min)
            self._max = max(self._max, other_max)
        self._n += total
        if total:
            self._compress()
        return self

    def _donor_state(self, other):
        """Validate one merge input and snapshot it without mutating it.

        Returns ``(levels, n, min, max)`` where ``levels`` is a list of
        ``(sorted items, schedule state, inserted)`` per height; a fast
        donor's staged scalars are part of its level 0.
        """
        if isinstance(other, FastReqSketch):
            if other.k != self.k or other.hra != self.hra or other.n_bound != self.n_bound:
                raise IncompatibleSketchesError("k/hra/n_bound parameters differ")
            levels, minimum, maximum = other._peek_levels(copy=True)
            return levels, other.n, minimum, maximum
        if isinstance(other, ReqSketch):
            if other.scheme == "theory":
                raise IncompatibleSketchesError(
                    "cannot merge a theory-scheme reference sketch into the "
                    "fast engine (it has no Appendix D parameter ladder); "
                    "convert the fast sketch to the reference engine instead"
                )
            if other.k != self.k or other.hra != self.hra:
                raise IncompatibleSketchesError("k/hra parameters differ")
            if other.n_bound != self.n_bound:
                raise IncompatibleSketchesError("n_bound parameters differ")
            levels = []
            for compactor in other.compactors():
                try:
                    items = np.asarray(compactor.items(), dtype=np.float64)
                except (TypeError, ValueError) as exc:
                    raise IncompatibleSketchesError(
                        "cannot merge a reference sketch holding non-numeric items "
                        "into the float64 fast engine"
                    ) from exc
                levels.append((items, compactor.state, compactor.inserted))
            if other.is_empty:
                return levels, 0, math.inf, -math.inf
            return levels, other.n, float(other.min_item), float(other.max_item)
        raise IncompatibleSketchesError(
            f"cannot merge FastReqSketch with {type(other).__name__}"
        )

    def _peek_levels(self, *, copy: bool = False):
        """``(levels, min, max)``: ``(sorted items, state, inserted)`` per
        height, with the staging block peeked (not drained) and sorted into
        level 0 as weight-1 items.  Every read goes through here, so no
        read compacts or spends a coin.  ``copy`` hands out arrays the
        caller may keep (a merge target does)."""
        levels = []
        for level in self._levels:
            items = level.consolidate()
            levels.append((items.copy() if copy else items, level.schedule.state, level.inserted))
        minimum, maximum = self._min, self._max
        count = self._stage.count
        if count:
            staged = np.sort(np.frombuffer(self._stage.peek(), dtype=np.float64))
            minimum = min(minimum, float(staged[0]))
            maximum = max(maximum, float(staged[-1]))
            items, state, inserted = levels[0] if levels else (_EMPTY_ITEMS, 0, 0)
            if items.size:
                staged = np.concatenate((items, staged))
                staged.sort()
            levels[:1] = [(staged, state, inserted + count)]
        return levels, minimum, maximum

    # ------------------------------------------------------------------
    # Serialization (wire format; see repro.fast.wire)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Encode into the compact ``FRQ1`` wire format.

        A read: staged scalars are encoded as level-0 items without a
        drain.  Call :meth:`flush` first to save the drained state (the
        service's checkpoints do).  See :mod:`repro.fast.wire` for the
        layout.
        """
        from repro.fast.wire import to_bytes

        return to_bytes(self)

    @classmethod
    def from_bytes(cls, data) -> "FastReqSketch":
        """Decode a ``FRQ1`` payload; level arrays are zero-copy views.

        The coin stream starts unseeded (fresh coin randomness, which is
        what the analysis needs), built at the first compaction;
        :meth:`reseed` pins it instead.  Raises
        :class:`~repro.errors.SerializationError` on malformed input.
        """
        from repro.fast.wire import from_bytes

        return from_bytes(data, cls)

    def __reduce__(self):
        """Pickle/deepcopy via the wire format.

        The staging block and RNG are process-local (the staging buffer is
        a C object), so pickling ships the FRQ1 payload: staged items ride
        in it as level-0 items and the copy wakes with fresh coin
        randomness — the same semantics as :meth:`from_bytes`.
        """
        return (_sketch_from_wire, (type(self), self.to_bytes()))

    # ------------------------------------------------------------------
    # Queries (vectorized, incrementally cached)
    # ------------------------------------------------------------------

    def query_index(self) -> _QueryIndex:
        """The version-stamped query index (rebuilt lazily on dirt).

        Built from :meth:`_peek_levels` and cached against the per-level
        version stamps plus the staged count: levels untouched since the
        last query reuse their consolidated sorted arrays as-is, and a
        pure query workload pays nothing — every batch query is a single
        ``np.searchsorted`` over these arrays.
        """
        key = [level.version for level in self._levels]
        key.append(self._stage.count)
        if self._index is not None and self._index_key == key:
            self.query_index_hits += 1
            return self._index
        levels, minimum, maximum = self._peek_levels()
        parts = [(items, height) for height, (items, _, _) in enumerate(levels) if items.size]
        sorted_items, padded = _build_index(parts, presorted=True)
        self.query_index_rebuilds += 1
        self._index = _QueryIndex(sorted_items, padded, minimum, maximum, self.query_index_rebuilds)
        self._index_key = key
        return self._index

    def rank(self, item: float, *, inclusive: bool = True) -> int:
        """Estimated rank of one query point."""
        return int(self.ranks(np.asarray([item]), inclusive=inclusive)[0])

    def ranks(self, items: Sequence[float], *, inclusive: bool = True) -> np.ndarray:
        """Vectorized rank estimates for an array of query points."""
        if self.n == 0:
            raise EmptySketchError("ranks on an empty sketch")
        return self.query_index().ranks(items, inclusive=inclusive)

    def normalized_rank(self, item: float, *, inclusive: bool = True) -> float:
        """Rank scaled into [0, 1]."""
        return self.rank(item, inclusive=inclusive) / self.n

    def quantile(self, q: float) -> float:
        """Item at normalized rank ``q`` (exact min/max at the endpoints)."""
        return float(self.quantiles(np.asarray([q]))[0])

    def quantiles(self, fractions: Sequence[float]) -> np.ndarray:
        """Vectorized quantile queries.

        The answer depends on the extremes as well as the index, and the
        build carries them, so memoizing on the index build is exact.
        """
        if self.n == 0:
            raise EmptySketchError("quantiles on an empty sketch")
        qs = np.asarray(fractions, dtype=np.float64)
        index = self.query_index()
        # Keyed on the fractions alone: quantiles are elementwise, so a
        # one-row batch matrix shares a flat request's entry.
        key = qs.tobytes() if qs.size <= _MEMO_MAX_POINTS else None
        memo = index.memo
        if key is not None and memo is not None and memo[0] == key:
            self.query_index_answer_hits += 1
            return memo[1].reshape(qs.shape).copy()
        result = index.quantiles(qs)
        if key is not None:
            index.memo = (key, result.copy())
        return result

    def cdf(self, split_points: Sequence[float], *, inclusive: bool = True) -> np.ndarray:
        """Estimated CDF at the split points, final element 1.0."""
        points = _QueryIndex.split_points(split_points)
        if self.n == 0:
            raise EmptySketchError("cdf on an empty sketch")
        return self.query_index().cdf(points, inclusive=inclusive)

    @staticmethod
    def union_index(sketches) -> _QueryIndex:
        """A query index over the weighted union of ``sketches``' retained items.

        The paper's estimator over several sketches at once, with no merge
        target: each level's consolidated items weigh ``2**height`` and
        each staging block is read raw at weight 1, then one sort (one
        stable argsort and cumsum when weights differ) orders them all.
        Nothing is merged, compacted or drained and no coin is drawn: the
        inputs' ``n``, staged counts and level versions are unchanged.
        Full mergeability (Theorem 3) makes the union a valid summary of
        the inputs' combined stream; a ``merge_many`` would only add its
        own compaction error to it.  The inputs must share ``k``/``hra``.
        The build's ``version`` is 0 and it is cached nowhere.
        """
        parts = []
        minimum, maximum = math.inf, -math.inf
        for sketch in sketches:
            for height, level in enumerate(sketch._levels):
                items = level.consolidate()
                if items.size:
                    parts.append((items, height))
            if sketch._stage.count:
                parts.append((np.frombuffer(sketch._stage.peek(), dtype=np.float64), 0))
            minimum = min(minimum, sketch._min)
            maximum = max(maximum, sketch._max)
        items, padded = _build_index(parts, presorted=False)
        if items.size:
            # The drained extremes are tracked; the staged ones are in items.
            minimum = min(minimum, float(items[0]))
            maximum = max(maximum, float(items[-1]))
        return _QueryIndex(items, padded, minimum, maximum, 0)

    # ------------------------------------------------------------------
    # Error bounds (auto-scheme, mirrors ReqSketch)
    # ------------------------------------------------------------------

    def error_bound(self, *, delta: float = 0.05) -> float:
        """A-priori multiplicative error ``eps`` at the current stream length.

        Memoized on ``(n, delta)``: a read-heavy workload (the service
        query plane answers thousands of requests between ingests) pays
        the bound computation once per stream length, not per request.
        """
        n = max(2, self.n)
        memo = self._eps_memo
        if memo is not None and memo[0] == n and memo[1] == delta:
            return memo[2]
        eps = eps_for_streaming_k(self.k, n, delta)
        self._eps_memo = (n, delta, eps)
        return eps

    def rank_bounds(self, item: float, *, delta: float = 0.05) -> Tuple[int, int]:
        """(lower, upper) bounds on the true rank, from the (1 +/- eps) bound
        (relative to ``n - R`` under HRA; see
        :func:`~repro.core.bounds.rank_interval`)."""
        return rank_interval(self.rank(item), self.error_bound(delta=delta), self.n, hra=self.hra)
