"""A multi-tenant keyed store of REQ sketches under one memory budget.

:class:`SketchStore` maps tenant/metric keys (any string up to 64 KiB) to
:class:`~repro.fast.FastReqSketch` instances.  The design constraints come
straight from the paper: per-key summaries are tiny (``O(k log(n/k))``
retained items), fully mergeable, and serialize compactly (``FRQ1``), so a
single process can hold summaries for a very large keyspace — and evicting
a cold key is just writing its wire payload somewhere and dropping it.

Three responsibilities live here:

* **Lazy creation** — the first ``update_many``/``merge`` against a key
  creates its sketch.  Per-key RNG seeds are derived deterministically
  from the store's base seed and the key (CRC32-mixed), which makes
  write-ahead-log replay bit-exact: a crashed server that re-applies the
  same batches in the same order reconstructs *identical* sketches (see
  :mod:`repro.service.persistence`).  Pass ``seed=None`` for fresh
  randomness when replay determinism is not needed.
* **Memory accounting** — the store tracks total retained items across
  resident sketches incrementally (``retained_items``), updated from
  deltas of only the touched key: a write the sketch only staged adds the
  growth of its staging block, O(1); any other write or checkpoint
  recounts that key's levels, never all keys.  Reads (queries, payloads)
  peek at the staging block instead of draining it, so they never move
  the count.
* **Flush, then spill** — when ``memory_budget`` (in retained items) is
  exceeded, the store first checkpoints keys in place, largest staging
  block first: the key's raw staged values are compacted (a flush), its
  payload goes through the ``spill_save`` callback and ``on_pin``
  re-pins its coins, and the key stays resident in its LRU slot.  Only
  when no key's staging block is worth flushing are least-recently-used
  keys serialized through ``spill_save`` and dropped from memory; a later
  access transparently reloads them via ``spill_load``.  The server wires
  these callbacks to its snapshot files, so both rungs double as durable
  checkpoints; standalone users can pass ``spill_dir`` for self-contained
  FRQ1 spill files.

One routine, :meth:`SketchStore.checkpoint`, saves a resident key in
place: flush, ``spill_save``, ``on_pin``.  The budget's first rung and the
service's snapshot pass and scrub heal all call it.
"""

from __future__ import annotations

import hashlib
import heapq
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.errors import InvalidParameterError, ServiceError
from repro.fast import FastReqSketch
from repro.fast.wire import peek_header, retained_in_payload
from repro.service.log import RateLimiter, logger

log = logger.getChild("store")

__all__ = ["SketchStore", "spill_filename"]


def spill_filename(key: str) -> str:
    """A filesystem-safe, collision-resistant file name for ``key``.

    Keys are arbitrary UTF-8 up to 64 KiB, so the name is a digest rather
    than an escaping of the key; the key itself lives inside snapshot
    files (:mod:`repro.service.persistence`), never in file names.
    """
    return hashlib.sha256(key.encode("utf-8")).hexdigest() + ".frq1"


class _Entry:
    """One resident key: its sketch plus cached accounting state."""

    __slots__ = ("sketch", "retained")

    def __init__(self, sketch: FastReqSketch) -> None:
        self.sketch = sketch
        self.retained = 0


class SketchStore:
    """Keyed :class:`~repro.fast.FastReqSketch` instances under one budget.

    Args:
        k: Section size for every sketch (even integer >= 2).
        hra: High-rank-accuracy mode for every sketch.
        seed: Base seed; each key derives a distinct deterministic seed
            from it (``None`` = fresh randomness per key, which forfeits
            bit-exact WAL replay).
        memory_budget: Optional cap on total retained items across
            resident sketches; exceeding it flushes the largest staging
            blocks in place, then spills LRU keys (see
            :meth:`_enforce_budget`).  Requires a spill target
            (``spill_dir`` or ``spill_save``/``spill_load``).
        spill_dir: Directory for self-contained FRQ1 spill files (created
            on first spill).  Mutually exclusive with explicit callbacks.
        spill_save: ``(key, payload) -> None`` called on eviction and on
            an in-place checkpoint.
        spill_load: ``(key) -> Optional[bytes]`` called on a miss; return
            ``None`` if the key was never spilled.
        on_pin: ``(key, sketch) -> None`` called whenever a resident
            sketch equals its saved payload: after a reload and after an
            in-place checkpoint.  The service re-seeds the coin stream
            here, so replay from that payload stays bit-exact.
    """

    def __init__(
        self,
        *,
        k: int = 32,
        hra: bool = False,
        seed: Optional[int] = 0,
        memory_budget: Optional[int] = None,
        spill_dir: Optional[str] = None,
        spill_save: Optional[Callable[[str, bytes], None]] = None,
        spill_load: Optional[Callable[[str], Optional[bytes]]] = None,
        on_pin: Optional[Callable[[str, FastReqSketch], None]] = None,
    ) -> None:
        if (spill_save is None) != (spill_load is None):
            raise InvalidParameterError("spill_save and spill_load must be passed together")
        if spill_dir is not None and spill_save is not None:
            raise InvalidParameterError("pass spill_dir or spill_save/spill_load, not both")
        if spill_dir is not None:
            directory = Path(spill_dir)

            def spill_save(key: str, payload: bytes, _dir=directory) -> None:
                _dir.mkdir(parents=True, exist_ok=True)
                path = _dir / spill_filename(key)
                tmp = path.with_suffix(".tmp")
                tmp.write_bytes(payload)
                tmp.replace(path)

            def spill_load(key: str, _dir=directory) -> Optional[bytes]:
                path = _dir / spill_filename(key)
                return path.read_bytes() if path.exists() else None

        if memory_budget is not None:
            if memory_budget < 1:
                raise InvalidParameterError(f"memory_budget must be >= 1, got {memory_budget}")
            if spill_save is None:
                raise InvalidParameterError(
                    "a memory_budget needs somewhere to spill: pass spill_dir "
                    "or spill_save/spill_load (dropping sketches would lose data)"
                )
        # Fail fast on bad sketch parameters, not on the first ingest.
        FastReqSketch(k, hra=hra)
        self.k = k
        self.hra = bool(hra)
        self.seed = seed
        self.memory_budget = memory_budget
        self._spill_save = spill_save
        self._spill_load = spill_load
        self._on_pin = on_pin
        #: Resident entries in LRU order (most recently used at the end).
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: Keys currently living only in the spill target.
        self._spilled: Dict[str, bool] = {}
        self._retained_total = 0
        self.spill_count = 0
        self.load_count = 0
        #: In-place checkpoints (rung 1 of the budget).
        self.flush_count = 0
        #: Budget-step saves that failed (the step gave up for that call).
        self.save_fail_count = 0
        self._save_fail_log = RateLimiter()
        #: Flush candidates, kept only under a budget: ``key -> staged``
        #: as last seen by a write, and a min-heap of ``(-staged, key)``
        #: holding one entry per dict item plus stale ones, which
        #: :meth:`_next_flush` discards as it meets them.
        self._staged: Dict[str, int] = {}
        self._flush_heap: List[tuple] = []
        #: Query-index counters carried by evicted sketches (the live
        #: counters ride on each resident sketch; see query_index_stats).
        self._index_hits_evicted = 0
        self._index_rebuilds_evicted = 0
        self._index_answer_hits_evicted = 0
        #: Reusable coalescing scratch for :meth:`stage_concat` (float64;
        #: grown geometrically, never shrunk — the store is single-writer).
        self._stage_buf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Key inventory
    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._entries or key in self._spilled

    def __len__(self) -> int:
        return len(self._entries) + len(self._spilled)

    def keys(self) -> List[str]:
        """Every known key, resident or spilled (insertion-ish order)."""
        return list(self._entries) + list(self._spilled)

    def register_spilled(self, key: str) -> None:
        """Declare that ``key`` exists in the spill target (recovery path).

        The first access loads it through ``spill_load`` like any evicted
        key.  No-op if the key is already resident.
        """
        if key not in self._entries:
            self._spilled[key] = True

    def forget_spilled(self, key: str) -> bool:
        """Drop a spilled key from the inventory (the quarantine path).

        When the key's only copy — its snapshot file — fails its
        integrity check, the file is quarantined and the key must stop
        being advertised: after this call the key is simply *unknown*
        (``KeyError`` → ``UNKNOWN_KEY`` on the wire), which is exactly
        the state cluster ``repair()`` heals exactly (FETCH + MERGE into
        empty).  Returns ``False`` if the key was resident or unknown —
        a resident key needs no forgetting, its live sketch is the
        authoritative copy.
        """
        return self._spilled.pop(key, None) is not None

    @property
    def resident_keys(self) -> List[str]:
        return list(self._entries)

    @property
    def spilled_keys(self) -> List[str]:
        return list(self._spilled)

    @property
    def retained_items(self) -> int:
        """Total retained items across resident sketches (the memory metric)."""
        return self._retained_total

    def derive_seed(self, key: str) -> Optional[int]:
        """The deterministic per-key seed (``None`` when the store is unseeded).

        CRC32 of the key, shifted clear of small base-seed deltas, so
        distinct keys (and distinct base seeds) get distinct coin streams.
        """
        if self.seed is None:
            return None
        return (self.seed + (zlib.crc32(key.encode("utf-8")) << 17)) & (2**63 - 1)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get(self, key: str, *, create: bool = False) -> FastReqSketch:
        """The sketch for ``key`` (reloading a spilled key transparently).

        Marks the key most-recently-used.  With ``create=True`` a missing
        key gets a fresh empty sketch; otherwise ``KeyError``.
        """
        entry = self._touch(key)
        if entry is None:
            if not create:
                raise KeyError(key)
            entry = self._create(key)
        return entry.sketch

    def peek(self, key: str) -> FastReqSketch:
        """``key``'s sketch if resident — no LRU touch, no spill reload."""
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(key)
        return entry.sketch

    def _create(self, key: str) -> _Entry:
        sketch = FastReqSketch(self.k, hra=self.hra, seed=self.derive_seed(key))
        entry = _Entry(sketch)
        self._entries[key] = entry
        return entry

    def _touch(self, key: str) -> Optional[_Entry]:
        """Mark ``key`` most-recently-used, reloading it if spilled."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        if key in self._spilled:
            payload = self._spill_load(key) if self._spill_load else None
            if payload is None:
                raise ServiceError(f"spilled key {key!r} is missing from the spill target")
            try:
                sketch = FastReqSketch.from_bytes(payload)
            except Exception as exc:
                raise ServiceError(f"corrupt spill payload for key {key!r}: {exc}") from exc
            del self._spilled[key]
            if self._on_pin is not None:
                # Post-load hook; the service uses it to re-seed the RNG
                # deterministically so recovery replay stays bit-exact.
                self._on_pin(key, sketch)
            entry = _Entry(sketch)
            entry.retained = sketch.num_retained
            self._entries[key] = entry
            self._retained_total += entry.retained
            self.load_count += 1
            # Reloads happen on the read path too (QUERY on a spilled key);
            # the budget must hold there, not just after writes — otherwise
            # a query-only workload grows residency without bound.
            if self.memory_budget is not None and self._retained_total > self.memory_budget:
                self._enforce_budget(keep=key)
            return entry
        return None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update_many(self, key: str, values) -> int:
        """Feed one batch into ``key``'s sketch (created lazily); returns its ``n``.

        A batch the sketch staged without a drain grows its staging block,
        and so its ``num_retained``, by exactly the growth of the block;
        :meth:`_settle` adds that growth instead of recounting the levels.
        """
        entry = self._touch(key) or self._create(key)
        sketch = entry.sketch
        staged = sketch.num_staged
        try:
            sketch.update_many(values)
        except BaseException:
            self._recount(entry)  # a drain may have run before the raise
            raise
        return self._settle(key, entry, sketch.num_staged - staged)

    def stage_concat(self, arrays) -> np.ndarray:
        """Concatenate per-frame value views into one contiguous batch.

        The server's coalescing path funnels every ``INGEST`` frame a
        connection delivered in one event-loop tick here, then feeds the
        result to a **single** :meth:`update_many` — so the sketch's
        amortized compaction schedule sees one large run instead of many
        small ones, exactly as the paper's cost analysis assumes.

        Returns a view into a reusable scratch buffer: valid until the
        next ``stage_concat`` call.  Callers that persist the batch (the
        WAL) must copy (``tobytes``) before the next tick.  The sketch
        itself copies on ingest (staging block / ``np.sort``), so handing
        the view to ``update_many`` is safe.
        """
        total = 0
        for array in arrays:
            total += int(array.size)
        buf = self._stage_buf
        if buf is None or buf.size < total:
            self._stage_buf = buf = np.empty(max(total, 16384), dtype=np.float64)
        offset = 0
        for array in arrays:
            size = int(array.size)
            buf[offset : offset + size] = array
            offset += size
        return buf[:total]

    def merge_payload(self, key: str, payload: bytes) -> int:
        """Union an ``FRQ1`` payload into ``key`` (created lazily); returns its ``n``.

        The distributed-edge path: sketch at the edge, ship the payload,
        union here.  The donor is decoded once and never retained.
        """
        try:
            donor = FastReqSketch.from_bytes(payload)
        except Exception as exc:
            raise ServiceError(f"cannot decode merge payload for key {key!r}: {exc}") from exc
        return self.merge_sketch(key, donor)

    def merge_sketch(self, key: str, donor: FastReqSketch) -> int:
        """Union an in-process sketch into ``key`` (created lazily)."""
        entry = self._touch(key) or self._create(key)
        entry.sketch.merge_many((donor,))
        return self._settle(key, entry)

    def replace_payload(self, key: str, payload: bytes) -> int:
        """Install an ``FRQ1`` payload as ``key``'s entire state; returns its ``n``.

        The migration apply: unlike :meth:`merge_payload` this **discards**
        whatever the store held for ``key`` (resident or spilled) and makes
        the decoded payload the key's summary.  Replace-not-merge is what
        makes a retried state transfer idempotent — pushing the same bundle
        twice (a rebalance restarted after a crash) cannot double-count.
        """
        try:
            donor = FastReqSketch.from_bytes(payload)
        except Exception as exc:
            raise ServiceError(
                f"cannot decode replacement payload for key {key!r}: {exc}"
            ) from exc
        if donor.k != self.k or bool(donor.hra) != self.hra:
            raise ServiceError(
                f"replacement payload has k={donor.k}/hra={donor.hra}; "
                f"this store runs k={self.k}/hra={self.hra}"
            )
        seed = self.derive_seed(key)
        if seed is not None:
            # FRQ1 carries no RNG state.  Pin the replacement's coin stream
            # to the per-key seed: every replica installs the same bundle
            # and derives the same stream, so post-migration compactions
            # stay bit-identical across replicas — and WAL replay of the
            # same record re-derives it, keeping recovery bit-exact too.
            donor.reseed(seed)
        old = self._entries.pop(key, None)
        if old is not None:
            self._retained_total -= old.retained
            self._retire_counters(old.sketch)
        self._spilled.pop(key, None)
        entry = _Entry(donor)
        entry.retained = int(donor.num_retained)
        self._entries[key] = entry
        self._retained_total += entry.retained
        if self.memory_budget is not None and self._retained_total > self.memory_budget:
            self._enforce_budget(keep=key)
        return int(donor.n)

    def _settle(self, key: str, entry: _Entry, grown: int = 0) -> int:
        """Post-write bookkeeping: accounting delta, budget.

        ``grown`` is how much the write grew the staging block.  When it
        is positive the write only appended staged values (a drain empties
        the block, and a batch that reaches the block size is ingested as
        a run after one), so the key's retained count moves by exactly
        ``grown``.  Otherwise, and for every merge, the key is recounted
        over its levels.
        """
        sketch = entry.sketch
        if grown > 0:
            entry.retained += grown
            self._retained_total += grown
        else:
            self._recount(entry)
        if self.memory_budget is not None:
            staged = sketch.num_staged
            # 2k is the least level-0 capacity; the cheap test first.
            if staged >= 2 * self.k and staged >= self._flush_floor(sketch):
                self._track(key, staged)
            if self._retained_total > self.memory_budget:
                self._enforce_budget(keep=key)
        return sketch.n

    # ------------------------------------------------------------------
    # Queries (the read hot path: index-backed, vectorized)
    # ------------------------------------------------------------------

    @staticmethod
    def evaluate(sketch, kind: str, points) -> np.ndarray:
        """Run read requests against ``sketch``; returns float64 values.

        ``sketch`` is a ``FastReqSketch`` or a windowed ``Horizon`` (they
        share one answer path).  ``kind`` is ``"quantiles"`` / ``"ranks"``
        / ``"cdf"``.  ``points`` is one request's points, or a
        ``(requests, count)`` matrix of uniform requests with one answer
        row each (``cdf`` checks and appends along the last axis).  Every
        kind routes through a query index — one vectorized ``searchsorted``
        per call, however many rows; ranks are widened to float64 (exact
        below 2**53) so every kind shares the wire value format.
        """
        if kind == "quantiles":
            return sketch.quantiles(points)
        if kind == "ranks":
            return np.asarray(sketch.ranks(points), dtype=np.float64)
        if kind == "cdf":
            return sketch.cdf(points)
        raise ServiceError(f"unknown query kind {kind!r}")

    def query(self, key: str, kind: str, points, cache: Optional[dict] = None):
        """``(n, error_bound, values, num_retained)`` for one request.

        Reloads a spilled key transparently (the reloaded sketch rebuilds
        its query index on this first read, then serves later reads from
        it).  The error bound comes from the engine's memoized value —
        one bound computation per stream length, not per request — and
        ``num_retained`` rides along as the response footer's source.
        ``cache`` maps keys this frame already resolved to their
        ``(sketch, n, error_bound, num_retained)``, so the requests of one
        frame share a single lookup (and a single LRU touch / spill
        reload), bound and retained count per key: reads never change a
        sketch, and a frame is answered without yielding to a writer.
        """
        hit = cache.get(key) if cache is not None else None
        if hit is None:
            sketch = self._read_entry(key).sketch
            hit = (sketch, int(sketch.n), float(sketch.error_bound()), int(sketch.num_retained))
            if cache is not None:
                cache[key] = hit
        sketch, n, eps, retained = hit
        return n, eps, self.evaluate(sketch, kind, points), retained

    def query_batch(self, key: str, kind: str, points: np.ndarray):
        """Uniform batch read: ``points`` is one ``(requests, count)`` matrix.

        All rows are answered with a single index-backed engine call
        (:meth:`evaluate` on the matrix), which is what makes a uniform
        ``MULTI_QUERY`` frame O(total points) instead of O(requests)
        Python dispatches.  Raises (instead of degrading to a per-row
        loop) when any row is invalid; the server then falls back to the
        per-request path so errors attribute to the exact request.  Row
        answers are bit-identical to per-row :meth:`query` calls.
        """
        sketch = self._read_entry(key).sketch
        values = self.evaluate(sketch, kind, points)
        return int(sketch.n), float(sketch.error_bound()), values, int(sketch.num_retained)

    def _read_entry(self, key: str) -> _Entry:
        """``key``'s entry for a read (LRU touch, spill reload), or ``KeyError``."""
        entry = self._touch(key)
        if entry is None:
            raise KeyError(key)
        return entry

    def query_index_stats(self) -> dict:
        """Aggregate query-index counters across the whole keyspace.

        Sums the per-sketch hit/rebuild counters of every resident key
        plus an accumulator absorbed from evicted sketches, so the totals
        are monotonic across spill/reload cycles.  A miss always rebuilds
        (the index is never served stale), so ``misses == rebuilds``.
        ``answer_hits`` counts the hits whose whole answer came from the
        index build's answer memo (a subset of ``hits``).
        """
        hits = self._index_hits_evicted
        rebuilds = self._index_rebuilds_evicted
        answer_hits = self._index_answer_hits_evicted
        for entry in self._entries.values():
            sketch = entry.sketch
            hits += sketch.query_index_hits
            rebuilds += sketch.query_index_rebuilds
            answer_hits += sketch.query_index_answer_hits
        return {
            "hits": hits,
            "misses": rebuilds,
            "rebuilds": rebuilds,
            "answer_hits": answer_hits,
        }

    def _retire_counters(self, sketch: FastReqSketch) -> None:
        """Fold a departing sketch's query-index counters into the store's."""
        self._index_hits_evicted += sketch.query_index_hits
        self._index_rebuilds_evicted += sketch.query_index_rebuilds
        self._index_answer_hits_evicted += sketch.query_index_answer_hits

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def payload(self, key: str) -> bytes:
        """``key``'s current summary as an ``FRQ1`` payload (touches LRU).

        A read: the sketch is left as it was (see ``FastReqSketch.to_bytes``).
        """
        return self._read_entry(key).sketch.to_bytes()

    def _payload(self, entry: _Entry) -> bytes:
        """The checkpoint encoding: flush ``entry`` (folded into the
        accounting), then serialize the drained state."""
        entry.sketch.flush()
        self._recount(entry)
        return entry.sketch.to_bytes()

    def _recount(self, entry: _Entry) -> None:
        """Fold ``entry``'s current ``num_retained`` into the accounting."""
        retained = entry.sketch.num_retained
        self._retained_total += retained - entry.retained
        entry.retained = retained

    def spill(self, key: str) -> None:
        """Explicitly evict one resident key to the spill target."""
        entry = self._entries.get(key)
        if entry is None:
            if key in self._spilled:
                return
            raise KeyError(key)
        self._evict(key, entry)

    def _evict(self, key: str, entry: _Entry) -> None:
        if self._spill_save is None:
            raise ServiceError("no spill target configured")
        self._spill_save(key, self._payload(entry))
        del self._entries[key]
        self._retained_total -= entry.retained
        self._spilled[key] = True
        self.spill_count += 1
        # The reloaded sketch restarts its counters at zero; fold the
        # evicted sketch's into the store accumulator so aggregate
        # query-index stats stay monotonic across spill/reload cycles.
        self._retire_counters(entry.sketch)

    @staticmethod
    def _flush_floor(sketch: FastReqSketch) -> int:
        """Staged items from which a flush is sure to compact level 0."""
        return sketch._capacity(0) if sketch.num_levels else 2 * sketch.k

    def _track(self, key: str, staged: int) -> None:
        """Record ``key`` as a flush candidate holding ``staged`` items."""
        if self._staged.get(key) == staged:
            return
        self._staged[key] = staged
        heap = self._flush_heap
        heapq.heappush(heap, (-staged, key))
        if len(heap) > 2 * len(self._staged) + 64:
            heap[:] = [(-count, name) for name, count in self._staged.items()]
            heapq.heapify(heap)

    def _next_flush(self) -> Optional[str]:
        """The resident key with the largest staging block that is at
        least its flush floor (ties: the smallest key), or ``None``.

        Recorded counts can only overstate a key's block (a write that
        drains it below its flush floor, a merge or an eviction leaves the
        old count behind), so each popped entry is checked against the
        sketch and re-queued at its true count: the answer is a function
        of the resident sketches alone.
        """
        heap = self._flush_heap
        staged_map = self._staged
        while heap:
            negative, key = heap[0]
            if staged_map.get(key) != -negative:
                heapq.heappop(heap)  # superseded by a newer entry
                continue
            entry = self._entries.get(key)
            staged = 0
            if entry is not None:
                sketch = entry.sketch
                staged = sketch.num_staged
                if staged < self._flush_floor(sketch):
                    staged = 0
            if staged == -negative:
                return key
            heapq.heappop(heap)
            del staged_map[key]
            if staged:
                self._track(key, staged)
        return None

    def checkpoint(self, key: str) -> None:
        """Save resident ``key`` in place: flush, ``spill_save``, ``on_pin``.

        The key keeps its LRU slot.  This is the one routine that saves a
        resident key's payload and re-pins its coins, so the saved payload
        and the coin stream that follows it always agree: the service's
        snapshot pass, the budget's first rung and the scrub's heal of a
        resident key's snapshot all call it.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(key)
        if self._spill_save is None:
            raise ServiceError("no spill target configured")
        self._staged.pop(key, None)
        self._spill_save(key, self._payload(entry))
        if self._on_pin is not None:
            self._on_pin(key, entry.sketch)

    def _enforce_budget(self, *, keep: str) -> None:
        """Bring the store back under budget: flush, then spill.

        Rung 1 checkpoints in place.  While over budget, the resident key
        with the largest staging block (ties by key order)
        is flushed, saved through ``spill_save`` and re-pinned through
        ``on_pin``; only keys whose block is at least their level-0
        capacity qualify, so each flush compacts.  The key stays resident
        where it is in LRU order.  Rung 2, reached only when no key
        qualifies, spills LRU keys (never ``keep``, the active key).

        Every rung-1 and rung-2 save is a durable checkpoint, which is what
        keeps replay bit-exact: a flush spends coins, and replay, which
        starts from each key's last snapshot with fewer keys resident,
        never meets the budget pressure that caused it.

        The write that called this step is already applied, so a failed
        save must not fail it: the victim stays resident, the failure is
        counted (``save_fail_count``) and logged, and the step ends for
        this call.  An explicit :meth:`spill` still raises.
        """
        budget = self.memory_budget
        try:
            while self._retained_total > budget:
                victim = self._next_flush()
                if victim is None:
                    break
                self.checkpoint(victim)
                self.flush_count += 1
            while self._retained_total > budget and len(self._entries) > 1:
                victim = next(iter(self._entries))
                if victim == keep:
                    # The active key is by definition MRU, so hitting it here
                    # means it is the only resident key — handled by the loop
                    # bound; this guards against callers racing the ordering.
                    break
                self._evict(victim, self._entries[victim])
        except Exception as exc:
            self.save_fail_count += 1
            emit, suppressed = self._save_fail_log.ready("budget-save")
            if emit:
                log.warning(
                    "memory budget step could not save a key (%s: %s); the key "
                    "stays resident and the store stays over budget until a "
                    "later step succeeds (%d repeats suppressed)",
                    type(exc).__name__,
                    exc,
                    suppressed,
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def key_stats(self, key: str) -> dict:
        """Per-key stats without changing residency or LRU order.

        A spilled key's numbers come from its payload header
        (:func:`~repro.fast.wire.peek_header`) — no decode, no reload.
        """
        entry = self._entries.get(key)
        if entry is not None:
            sketch = entry.sketch
            return {
                "key": key,
                "resident": True,
                "n": int(sketch.n),
                "retained": int(sketch.num_retained),
                "staged": int(sketch.num_staged),
                "levels": int(sketch.num_levels),
            }
        if key in self._spilled:
            payload = self._spill_load(key) if self._spill_load else None
            if payload is None:
                raise ServiceError(f"spilled key {key!r} is missing from the spill target")
            header = peek_header(payload)
            return {
                "key": key,
                "resident": False,
                "n": int(header.n),
                "retained": retained_in_payload(payload, header),
                "staged": 0,
                "levels": int(header.num_levels),
                "payload_bytes": len(payload),
            }
        raise KeyError(key)

    def stats(self) -> dict:
        """Store-wide stats (cheap: no decodes, no reloads)."""
        return {
            "keys": len(self),
            "resident": len(self._entries),
            "spilled": len(self._spilled),
            "retained_items": self._retained_total,
            "memory_budget": self.memory_budget,
            "spill_count": self.spill_count,
            "load_count": self.load_count,
            "flush_count": self.flush_count,
            "save_fail_count": self.save_fail_count,
            "n_resident": sum(int(e.sketch.n) for e in self._entries.values()),
            "query_index": self.query_index_stats(),
        }

    def items(self) -> Iterator:
        """Iterate ``(key, entry)`` over resident keys (no LRU effect)."""
        return iter(self._entries.items())
