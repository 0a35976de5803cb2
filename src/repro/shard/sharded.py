"""Sharded REQ sketching: partition a stream across shards, collect the union.

The paper's full-mergeability theorem (Theorem 3) means a stream can be
partitioned *arbitrarily* across independent sketches and unioned once
with no accuracy loss beyond a single sketch's guarantee — the partition
does not even have to be balanced.  :class:`ShardedReqSketch` is exactly
that: a split and a :meth:`~ShardedReqSketch.collect`.

* **Partition** — each ``update_many`` batch is split round-robin
  (strided slices) across ``S`` shards.
* **local backend** — ``S`` in-process :class:`~repro.fast.FastReqSketch`
  shards.  No serialization, no processes.
* **process backend** — batches accumulate per shard and are shipped to a
  ``ProcessPoolExecutor`` (one worker per shard) once ``_FLUSH_ITEMS`` are
  pending; each task builds a partial sketch in the worker and returns its
  ``FRQ1`` wire payload (:mod:`repro.fast.wire`).
* **collect** — one k-way ``merge_many`` pass over the shards (or the
  decoded partials) into a fresh sketch.  ``merge_many`` copies its
  donors, so the union belongs to the caller and ingestion can continue.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.fast import FastReqSketch

__all__ = ["ShardedReqSketch", "BACKENDS"]

BACKENDS = ("local", "process")

#: Process backend: pending items per shard that ship a batch to the pool.
_FLUSH_ITEMS = 262_144


def _build_partial(k: int, hra: bool, seed: Optional[int], payload: bytes) -> bytes:
    """Worker task: sketch one raw float64 batch, return its wire payload."""
    sketch = FastReqSketch(k, hra=hra, seed=seed)
    sketch.update_many(np.frombuffer(payload, dtype=np.float64))
    sketch.flush()  # ship the compacted partial, not its raw staged values
    return sketch.to_bytes()


class ShardedReqSketch:
    """One logical REQ sketch built by ``S`` fast-engine shards.

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

    Use it as a context manager (``with ShardedReqSketch(...) as s: ...``)
    or call :meth:`close` to shut the process backend's pool down.
    """

    def __init__(
        self,
        num_shards: int = 4,
        *,
        k: int = 32,
        hra: bool = False,
        seed: Optional[int] = None,
        backend: str = "local",
    ) -> None:
        if num_shards < 1:
            raise InvalidParameterError(f"num_shards must be >= 1, got {num_shards}")
        if backend not in BACKENDS:
            raise InvalidParameterError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.num_shards = num_shards
        self.k = k
        self.hra = bool(hra)
        self.backend = backend
        self._seed = seed
        if backend == "local":
            self._shards = [
                FastReqSketch(k, hra=hra, seed=None if seed is None else seed + i)
                for i in range(num_shards)
            ]
        else:
            self._executor: Optional[ProcessPoolExecutor] = None
            self._pending: List[List[np.ndarray]] = [[] for _ in range(num_shards)]
            self._pending_items = [0] * num_shards
            self._futures: list = []
            self._parts: List[FastReqSketch] = []
            self._routed = 0
            self._task_counter = 0
            # Fail fast on a bad k rather than inside the first worker task.
            FastReqSketch(k, hra=hra)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Items summarized across all shards (including in-flight batches)."""
        if self.backend == "local":
            return sum(shard.n for shard in self._shards)
        return self._routed

    @property
    def is_empty(self) -> bool:
        return self.n == 0

    def __len__(self) -> int:
        return self.n

    def update_many(self, items: Sequence[float]) -> None:
        """Insert a batch, split round-robin across the shards."""
        values = np.asarray(items, dtype=np.float64).reshape(-1)
        if np.isnan(values).any():
            raise InvalidParameterError("cannot insert NaN: items must form a total order")
        shards = self.num_shards
        for index in range(shards):
            part = values[index::shards]
            if part.size:
                self._ingest(index, part)

    def _ingest(self, shard: int, values: np.ndarray) -> None:
        if self.backend == "local":
            self._shards[shard].update_many(values)
            return
        # Pending batches outlive the update_many call, so they must not
        # alias caller memory (the caller may mutate its array afterwards —
        # even into NaN, bypassing the validation above).
        self._pending[shard].append(values.copy())
        self._pending_items[shard] += values.size
        self._routed += values.size
        if self._pending_items[shard] >= _FLUSH_ITEMS:
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
            self._executor = ProcessPoolExecutor(max_workers=self.num_shards)
        return self._executor.submit(_build_partial, self.k, self.hra, seed, payload)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self) -> FastReqSketch:
        """A union sketch over everything ingested so far.

        Drains in-flight worker tasks (process backend) and merges every
        shard with one ``merge_many`` pass.  The shards are never mutated
        and the union shares no state with them, so ingestion can continue
        and a later ``collect()`` reflects the new data.
        """
        # seed - 1 is disjoint from every shard seed (seed..seed+S-1) and
        # every worker-task seed (>= seed + S): no correlated coin streams.
        union_seed = None if self._seed is None else self._seed - 1
        union = FastReqSketch(self.k, hra=self.hra, seed=union_seed)
        if self.backend == "local":
            return union.merge_many(self._shards)
        for shard in range(self.num_shards):
            self._ship(shard)
        # Pop each task only after its payload is decoded and stored, so
        # nothing is double-ingested if one fails mid-loop.  A task whose
        # worker died (BrokenProcessPool, killed child) is resubmitted ONCE
        # from its retained payload on a fresh pool; a second failure, or a
        # corrupt result, raises to the caller with every other task still
        # queued for the next attempt.
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
        return union.merge_many(self._parts)

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
