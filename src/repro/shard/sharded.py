"""Sharded REQ sketching: route batches across shards, query the union.

The paper's full-mergeability theorem (Theorem 3) means a stream can be
partitioned *arbitrarily* across independent sketches and merged later with
no accuracy loss beyond a single sketch's guarantee — the partition does not
even have to be balanced or deterministic.  :class:`ShardedReqSketch`
exploits that to scale ingestion past one core / one process:

* **Routing** — ``update_many`` batches are split ``round_robin`` (strided
  slices, cheapest) or by ``hash`` of the value bits (sticky placement, so
  identical values land on the same shard) across ``S`` shards.  Any policy
  is correct; the choice only affects balance.
* **local backend** — ``S`` in-process :class:`~repro.fast.FastReqSketch`
  shards.  No serialization, no processes; useful when sharding exists for
  organizational reasons (per-tenant shards, bounded per-shard state) or to
  feed the same code path the distributed deployment uses.
* **process backend** — batches accumulate per shard and are shipped to a
  ``ProcessPoolExecutor`` once ``flush_items`` are pending; each task
  builds a partial sketch in the worker and returns its ``FRQ1`` wire
  payload (:mod:`repro.fast.wire`).  ``collect()`` decodes the payloads and
  unions them with one k-way ``merge_many`` pass.

Queries (``rank``/``quantile``/``cdf``/...) go through a cached union
coreset: ``collect()`` merges all shards into one sketch, and the cache is
invalidated whenever new data arrives (including :meth:`absorb`).  Batch
``quantiles``/``ranks``/``cdf`` calls route through the cached union's
version-stamped query index (:meth:`~repro.fast.FastReqSketch.query_index`),
so a read-heavy workload rebuilds neither the union nor its index per
call; :attr:`query_index_hits` / :attr:`query_index_rebuilds` count
union-cache reuse vs rebuilds, and :attr:`query_index_answer_hits` the
reads the unions' answer memos served whole (the same counters
:class:`~repro.fast.FastReqSketch` exposes).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.fast import FastReqSketch

__all__ = ["ShardedReqSketch", "BACKENDS", "ROUTES"]

BACKENDS = ("local", "process")
ROUTES = ("round_robin", "hash")

#: Scalar updates accumulate in a small list and are routed in blocks.
_SCALAR_BLOCK = 8192

#: Fibonacci-hash multiplier for the ``hash`` route (mixes the low-entropy
#: high bits of float64 values into the shard index).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _build_partial(k: int, hra: bool, seed: Optional[int], payload: bytes) -> bytes:
    """Worker task: sketch one raw float64 batch, return its wire payload."""
    sketch = FastReqSketch(k, hra=hra, seed=seed)
    sketch.update_many(np.frombuffer(payload, dtype=np.float64))
    sketch.flush()  # ship the compacted partial, not its raw staged values
    return sketch.to_bytes()


class ShardedReqSketch:
    """One logical REQ sketch served by ``S`` fast-engine shards.

    Args:
        num_shards: Number of independent shards (>= 1).
        k: Section size for every shard (even integer >= 2); the union has
            the same accuracy class as a single sketch with this ``k`` fed
            the full stream (Theorem 3).
        hra: High-rank-accuracy mode.
        seed: Base seed; shard ``i`` derives ``seed + i``, worker tasks
            derive further distinct seeds, and the union uses ``seed - 1``.
            Default ``None`` = fresh randomness (matching the other sketch
            classes; pass a seed for reproducible runs).
        backend: ``"local"`` (same-process shards) or ``"process"``
            (ProcessPoolExecutor ingestion returning wire payloads).
        route: ``"round_robin"`` (strided split) or ``"hash"`` (value-
            sticky placement).
        max_workers: Process-backend pool size (default: ``num_shards``).
        flush_items: Process backend: pending items per shard that trigger
            shipping a batch to the pool.

    The process backend is a context manager (``with ShardedReqSketch(...)
    as s: ...``) or can be closed explicitly with :meth:`close`.
    """

    def __init__(
        self,
        num_shards: int = 4,
        *,
        k: int = 32,
        hra: bool = False,
        seed: Optional[int] = None,
        backend: str = "local",
        route: str = "round_robin",
        max_workers: Optional[int] = None,
        flush_items: int = 262_144,
    ) -> None:
        if num_shards < 1:
            raise InvalidParameterError(f"num_shards must be >= 1, got {num_shards}")
        if backend not in BACKENDS:
            raise InvalidParameterError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if route not in ROUTES:
            raise InvalidParameterError(f"route must be one of {ROUTES}, got {route!r}")
        if flush_items < 1:
            raise InvalidParameterError(f"flush_items must be >= 1, got {flush_items}")
        self.num_shards = num_shards
        self.k = k
        self.hra = bool(hra)
        self.backend = backend
        self.route = route
        self._seed = seed
        self._scalars: List[float] = []
        self._union: Optional[FastReqSketch] = None
        self._union_token: Optional[int] = None
        #: Queries served from the cached union without a rebuild.
        self.query_index_hits = 0
        #: Union-coreset rebuilds (== cache misses: every miss rebuilds).
        self.query_index_rebuilds = 0
        #: Answer-memo hits of unions already dropped (keeps
        #: :attr:`query_index_answer_hits` monotonic across rebuilds).
        self._answer_hits_dropped = 0
        if backend == "local":
            self._shards = [
                FastReqSketch(k, hra=hra, seed=self._shard_seed(i))
                for i in range(num_shards)
            ]
        else:
            self._max_workers = max_workers or num_shards
            self._flush_items = flush_items
            self._executor: Optional[ProcessPoolExecutor] = None
            self._pending: List[List[np.ndarray]] = [[] for _ in range(num_shards)]
            self._pending_items = [0] * num_shards
            self._futures: list = []
            self._parts: List[FastReqSketch] = []
            self._routed = 0
            self._task_counter = 0
        # Fail fast on a bad k rather than inside the first worker task.
        FastReqSketch(k, hra=hra)

    def _shard_seed(self, index: int) -> Optional[int]:
        return None if self._seed is None else self._seed + index

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Items summarized across all shards (including in-flight batches)."""
        staged = len(self._scalars)
        if self.backend == "local":
            return staged + sum(shard.n for shard in self._shards)
        return staged + self._routed

    @property
    def is_empty(self) -> bool:
        return self.n == 0

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "HRA" if self.hra else "LRA"
        return (
            f"ShardedReqSketch(shards={self.num_shards}, k={self.k}, {mode}, "
            f"backend={self.backend!r}, route={self.route!r}, n={self.n})"
        )

    def update(self, item: float) -> None:
        """Insert one item (staged; routed in blocks of ``_SCALAR_BLOCK``)."""
        value = float(item)
        if value != value:
            raise InvalidParameterError("cannot insert NaN: items must form a total order")
        self._scalars.append(value)
        if len(self._scalars) >= _SCALAR_BLOCK:
            self._drain_scalars()

    def update_many(self, items: Sequence[float]) -> None:
        """Insert a batch, split across shards by the routing policy."""
        values = np.asarray(items, dtype=np.float64)
        if values.ndim != 1:
            values = values.reshape(-1)
        if values.size == 0:
            return
        if np.isnan(values).any():
            raise InvalidParameterError("cannot insert NaN: items must form a total order")
        self._route(values)

    def absorb(self, sketch) -> None:
        """Merge an existing sketch's summary into the plane (local backend).

        A sketch built so far is re-homed onto the plane this way, after
        which batches route normally.  The donor must share ``k`` and
        ``hra`` and is never mutated (``merge_many`` snapshot semantics).
        It lands on the least-loaded shard — any placement is correct by
        Theorem 3; this one keeps shard sizes balanced.

        Raises:
            InvalidParameterError: On the process backend (worker tasks
                ingest raw values, not pre-built summaries).
            IncompatibleSketchesError: If ``k``/``hra`` differ.
        """
        if self.backend != "local":
            raise InvalidParameterError(
                "absorb() requires the local backend; on the process backend "
                "ship the sketch's wire payload to the aggregator instead"
            )
        # Invalidate the cached union (and thus its query index) even when
        # the donor leaves n unchanged (an empty donor is a no-op anyway);
        # clearing the token too keeps the staleness check single-sourced.
        self._drop_union()
        self._union_token = None
        target = min(self._shards, key=lambda shard: shard.n)
        target.merge_many((sketch,))

    def _drain_scalars(self) -> None:
        if self._scalars:
            block = np.asarray(self._scalars, dtype=np.float64)
            self._scalars = []
            self._route(block, owned=True)

    def _route(self, values: np.ndarray, *, owned: bool = False) -> None:
        """Split ``values`` across shards.

        ``owned`` marks a freshly allocated private array the backend may
        retain without a defensive copy.
        """
        self._drop_union()
        shards = self.num_shards
        if shards == 1:
            self._ingest(0, values, owned=owned)
            return
        if self.route == "round_robin":
            for index in range(shards):
                part = values[index::shards]
                if part.size:
                    # A strided view is materialized by the backend anyway.
                    self._ingest(index, part, owned=False)
        else:  # hash: value-sticky placement via Fibonacci hashing of the bits
            bits = np.ascontiguousarray(values).view(np.uint64)
            with np.errstate(over="ignore"):
                ids = ((bits * _GOLDEN) >> np.uint64(33)) % np.uint64(shards)
            for index in range(shards):
                part = values[ids == index]
                if part.size:
                    # Boolean-mask indexing allocates a fresh array.
                    self._ingest(index, part, owned=True)

    def _ingest(self, shard: int, values: np.ndarray, *, owned: bool) -> None:
        if self.backend == "local":
            self._shards[shard].update_many(values)
            return
        # Pending batches outlive the update_many call, so they must not
        # alias caller memory (the caller may mutate its array afterwards —
        # even into NaN, bypassing the validation above).  Arrays this class
        # allocated itself are kept as-is; anything else is materialized or
        # defensively copied.
        if owned and values.flags.c_contiguous:
            chunk = values
        else:
            chunk = np.ascontiguousarray(values)
            if chunk is values:
                chunk = chunk.copy()
        self._pending[shard].append(chunk)
        self._pending_items[shard] += values.size
        self._routed += values.size
        if self._pending_items[shard] >= self._flush_items:
            self._ship(shard)

    def _ship(self, shard: int) -> None:
        """Submit one shard's pending batches to the pool as a worker task.

        The raw payload is retained next to the future until its result is
        decoded (see :meth:`collect`), so a dying worker loses no data —
        the payload is resubmitted to a fresh pool.
        """
        chunks = self._pending[shard]
        if not chunks:
            return
        payload = (chunks[0] if len(chunks) == 1 else np.concatenate(chunks)).tobytes()
        self._pending[shard] = []
        self._pending_items[shard] = 0
        seed = None
        if self._seed is not None:
            seed = self._seed + shard + self.num_shards * (1 + self._task_counter)
        self._task_counter += 1
        self._futures.append([self._submit(seed, payload), seed, payload, False])

    def _submit(self, seed: Optional[int], payload: bytes):
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._max_workers)
        return self._executor.submit(_build_partial, self.k, self.hra, seed, payload)

    # ------------------------------------------------------------------
    # Collection and queries
    # ------------------------------------------------------------------

    def collect(self) -> FastReqSketch:
        """A union sketch over everything ingested so far.

        Routes any staged scalars, drains in-flight worker tasks (process
        backend), and merges every shard with one ``merge_many`` pass.  The
        shards themselves are never mutated, so ingestion can continue and
        a later ``collect()`` reflects the new data.  The returned sketch
        is an independent snapshot the caller owns: it is decoupled from
        the plane's internal query cache (via a wire-format round trip), so
        updating it does not feed the shards or poison later queries.
        """
        union = self._collect()
        return FastReqSketch.from_bytes(union.to_bytes())

    def _collect(self) -> FastReqSketch:
        """The plane's cached internal union (queries run against this)."""
        self._drain_scalars()
        token = self.n
        if self._union is not None and self._union_token == token:
            self.query_index_hits += 1
            return self._union
        self.query_index_rebuilds += 1
        self._drop_union()
        # seed - 1 is disjoint from every shard seed (seed..seed+S-1) and
        # every worker-task seed (>= seed + S): no correlated coin streams.
        union_seed = None if self._seed is None else self._seed - 1
        union = FastReqSketch(self.k, hra=self.hra, seed=union_seed)
        if self.backend == "local":
            union.merge_many(self._shards)
        else:
            for shard in range(self.num_shards):
                self._ship(shard)
            # Pop each task only after its payload is decoded and stored, so
            # nothing is double-ingested if one fails mid-loop.  A task whose
            # worker died (BrokenProcessPool, killed child) is resubmitted
            # ONCE from its retained payload on a fresh pool; a second
            # failure, or a corrupt result, raises to the caller with every
            # other task still queued for the next attempt.
            while self._futures:
                future, seed, payload, retried = self._futures[0]
                try:
                    result = future.result()
                except Exception:
                    if retried:
                        raise
                    self._restart_pool()
                    self._futures[0] = [self._submit(seed, payload), seed, payload, True]
                    continue
                self._parts.append(FastReqSketch.from_bytes(result))
                self._futures.pop(0)
            union.merge_many(self._parts)
        self._union = union
        self._union_token = token
        return union

    def _drop_union(self) -> None:
        """Forget the cached union, keeping its answer-memo hit count."""
        if self._union is not None:
            self._answer_hits_dropped += self._union.query_index_answer_hits
            self._union = None

    @property
    def query_index_answer_hits(self) -> int:
        """Reads the cached unions' answer memos served whole (monotonic)."""
        union = self._union
        current = 0 if union is None else union.query_index_answer_hits
        return self._answer_hits_dropped + current

    @property
    def query_index_version(self) -> int:
        """Stamp of the current union build (== rebuild count so far)."""
        return self.query_index_rebuilds

    def query_index(self):
        """The cached union's version-stamped query index.

        Batch reads against the plane are two cache layers deep: the
        union coreset is rebuilt only when new data arrived, and its
        engine-level index (sorted items + cumulative weights) is
        version-stamped on top — so repeated ``quantiles``/``ranks``
        batches cost one ``searchsorted`` each, same as a single sketch.
        """
        return self._collect().query_index()

    def rank(self, item: float, *, inclusive: bool = True) -> int:
        return self._collect().rank(item, inclusive=inclusive)

    def ranks(self, items: Sequence[float], *, inclusive: bool = True) -> np.ndarray:
        return self._collect().ranks(items, inclusive=inclusive)

    def normalized_rank(self, item: float, *, inclusive: bool = True) -> float:
        return self._collect().normalized_rank(item, inclusive=inclusive)

    def quantile(self, q: float) -> float:
        return self._collect().quantile(q)

    def quantiles(self, fractions: Sequence[float]) -> np.ndarray:
        return self._collect().quantiles(fractions)

    def cdf(self, split_points: Sequence[float], *, inclusive: bool = True) -> np.ndarray:
        return self._collect().cdf(split_points, inclusive=inclusive)

    def rank_bounds(self, item: float, *, delta: float = 0.05):
        return self._collect().rank_bounds(item, delta=delta)

    def error_bound(self, *, delta: float = 0.05) -> float:
        return self._collect().error_bound(delta=delta)

    @property
    def min_item(self) -> float:
        return self._collect().min_item

    @property
    def max_item(self) -> float:
        return self._collect().max_item

    @property
    def num_retained(self) -> int:
        """Items currently held by the plane (its space cost).

        Local backend: retained items across shards plus staged scalars.
        Process backend: retained items of decoded partial sketches plus
        pending/in-flight raw batches at full size (they have not been
        compacted yet) plus staged scalars — computed without triggering a
        collect, so reading the metric never blocks on the pool.
        """
        if self.backend == "local":
            return sum(shard.num_retained for shard in self._shards) + len(self._scalars)
        in_flight = sum(len(task[2]) // 8 for task in self._futures)
        return (
            sum(part.num_retained for part in self._parts)
            + sum(self._pending_items)
            + in_flight
            + len(self._scalars)
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _restart_pool(self) -> None:
        """Replace a (possibly broken) pool; the caller resubmits in-flight
        tasks from their retained payloads."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut down the worker pool (no-op for the local backend)."""
        if self.backend == "process" and self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedReqSketch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
