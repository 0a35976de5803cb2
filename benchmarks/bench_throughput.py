"""T1 — Engineering throughput benchmarks (update / query / merge / serde).

Two entry points share one workload definition:

* **pytest-benchmark** microbenchmarks (``pytest benchmarks/bench_throughput.py
  --benchmark-only``) — conventional comparative timings across every sketch
  in the repo;
* **a tracked JSON emitter** (``python benchmarks/bench_throughput.py``) —
  times the hot operations (scalar update, batch update, merge, quantile
  queries, serde round-trips, 16-shard aggregation, sharded ingest) for
  the reference and fast engines and writes ``BENCH_throughput.json`` at
  the repo root.  The first run records a ``baseline`` section; later runs
  preserve it and add ``current`` plus ``speedup_vs_baseline`` ratios,
  giving future PRs a perf trajectory.  Ops added after a baseline was
  recorded are backfilled into it from the first run that measures them,
  so pre-existing baseline entries are never perturbed.

  Aggregation-plane rows (items/sec over the same 16-shard workload):
  ``merge_many`` is the fast engine's k-way union, ``merge_fold16`` the
  equivalent sequential pairwise-``merge`` fold — their ratio is the
  tracked ``merge_many_vs_pairwise`` headline (floor: 2x, enforced by
  ``--check``).  ``serde`` counts wire-format round-trips/sec and
  ``sharded_ingest`` the ShardedReqSketch local-backend ingest rate.

  Service-plane rows: ``service_ingest`` measures end-to-end socket
  ingestion — a real asyncio :class:`~repro.service.QuantileServer` on
  localhost (in-memory, no WAL), a sync :class:`QuantileClient` shipping
  the batch workload in 4096-value frames across 8 keys.  It prices the
  full path: framing + TCP + event loop + ``update_many`` per frame,
  with one ack round trip per frame.  ``service_ingest_pipelined`` is
  the same workload through ``QuantileClient.ingest_stream`` — a window
  of frames in flight, zero-copy decode, and server-side per-key
  coalescing — the path that closes the gap to in-process
  ``update_many``.  ``service_query`` counts QUERY round trips/sec on
  one connection (2 fractions per request).

  Query-plane rows (requests/sec; each request asks 2 fractions, the
  same shape as ``service_query``): ``service_query_batched`` ships
  uniform ``MULTI_QUERY`` frames of ``SERVICE_QUERY_BATCH`` requests one
  at a time (``query_stream`` with ``window=1`` — the dashboard-refresh
  shape: one vectorized round trip per frame), and
  ``service_query_pipelined`` keeps ``SERVICE_QUERY_WINDOW`` frames in
  flight.  Both ride the version-stamped query index + vectorized
  encode/decode path; ``--check`` enforces the tracked
  ``SERVICE_QUERY_BATCH_FLOOR`` (50x) over the ``service_query``
  baseline, and ``--check-service`` gates the batched/per-request ratio
  hardware-normalized in CI.

Set ``BENCH_SMOKE=1`` (see ``benchmarks/conftest.py``) to shrink every
workload so the whole file runs in seconds — used by the tier-1 smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional

import pytest

from repro.baselines import (
    DDSketch,
    GKSketch,
    HierarchicalSamplingSketch,
    KLLSketch,
    MRLSketch,
    ReservoirSampler,
    TDigest,
)
from repro.core import ReqSketch, deserialize, serialize
from repro.fast import FastReqSketch

#: Smoke mode shrinks every workload (env-driven; see benchmarks/conftest.py).
BENCH_SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

UPDATE_BATCH = 2_000 if BENCH_SMOKE else 20_000
rng = random.Random(99)
DATA = [rng.random() for _ in range(UPDATE_BATCH)]


SKETCH_FACTORIES = {
    "req-auto": lambda: ReqSketch(32, seed=1),
    "req-hra": lambda: ReqSketch(32, hra=True, seed=1),
    "req-theory": lambda: ReqSketch(eps=0.1, delta=0.1, seed=1),
    "kll": lambda: KLLSketch(k=200, seed=1),
    "gk": lambda: GKSketch(eps=0.01),
    "mrl": lambda: MRLSketch(buffer_size=128),
    "tdigest": lambda: TDigest(compression=100),
    "ddsketch": lambda: DDSketch(alpha=0.01),
    "reservoir": lambda: ReservoirSampler(4096, seed=1),
    "hier-sampling": lambda: HierarchicalSamplingSketch(eps=0.1, seed=1),
}


@pytest.mark.parametrize("name", sorted(SKETCH_FACTORIES))
def test_update_throughput(benchmark, name):
    """Stream UPDATE_BATCH items into a fresh sketch."""
    factory = SKETCH_FACTORIES[name]

    def run():
        sketch = factory()
        sketch.update_many(DATA)
        return sketch

    sketch = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sketch.n == UPDATE_BATCH


@pytest.mark.parametrize("name", ["req-auto", "kll", "tdigest", "gk"])
def test_rank_query_throughput(benchmark, name):
    """1000 rank queries against a built sketch."""
    sketch = SKETCH_FACTORIES[name]()
    sketch.update_many(DATA)
    queries = [i / 1000 for i in range(1000)]

    def run():
        return [sketch.rank(q) for q in queries]

    ranks = benchmark(run)
    assert len(ranks) == 1000


@pytest.mark.parametrize("name", ["req-auto", "kll", "tdigest"])
def test_quantile_query_throughput(benchmark, name):
    """1000 quantile queries against a built sketch."""
    sketch = SKETCH_FACTORIES[name]()
    sketch.update_many(DATA)
    fractions = [i / 1000 for i in range(1, 1000)]

    def run():
        return sketch.quantiles(fractions)

    values = benchmark(run)
    assert len(values) == 999


@pytest.mark.parametrize("name", ["req-auto", "req-theory", "kll"])
def test_merge_throughput(benchmark, name):
    """Merge two half-stream sketches (fresh copies each round)."""
    factory = SKETCH_FACTORIES[name]
    left = factory()
    left.update_many(DATA[: UPDATE_BATCH // 2])
    right = factory()
    right.update_many(DATA[UPDATE_BATCH // 2 :])

    if name.startswith("req"):
        def run():
            return ReqSketch.merged(left, right)
    else:
        import copy

        def run():
            return copy.deepcopy(left).merge(right)

    merged = benchmark.pedantic(run, rounds=5, iterations=1)
    assert merged.n == UPDATE_BATCH


def test_fast_engine_batch_update(benchmark):
    """The numpy engine ingesting the batch as one array (the fast path)."""
    import numpy as np

    array = np.asarray(DATA)

    def run():
        sketch = FastReqSketch(32, seed=1)
        sketch.update_many(array)
        return sketch

    sketch = benchmark(run)
    assert sketch.n == UPDATE_BATCH


def test_fast_engine_scalar_update(benchmark):
    """The numpy engine ingesting one item at a time (the staged path)."""

    def run():
        sketch = FastReqSketch(32, seed=1)
        update = sketch.update
        for value in DATA:
            update(value)
        sketch.flush()
        return sketch

    sketch = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sketch.n == UPDATE_BATCH


def test_fast_engine_vector_ranks(benchmark):
    """1000 rank queries answered in one vectorized call."""
    import numpy as np

    sketch = FastReqSketch(32, seed=2)
    sketch.update_many(np.asarray(DATA))
    queries = np.linspace(0.0, 1.0, 1000)
    ranks = benchmark(lambda: sketch.ranks(queries))
    assert len(ranks) == 1000


def test_fast_engine_merge_many(benchmark):
    """16-shard k-way union on the fast engine (the aggregation-plane path)."""
    import numpy as np

    parts = np.array_split(np.asarray(DATA), 16)
    shards = []
    for index, part in enumerate(parts):
        shard = FastReqSketch(32, seed=30 + index)
        shard.update_many(part)
        shard.flush()  # drained and consolidated, as a checkpointed shard is
        shard.quantile(0.5)
        shards.append(shard)

    def run():
        target = FastReqSketch(32, seed=29)
        target.merge_many(shards)
        return target

    merged = benchmark(run)
    assert merged.n == UPDATE_BATCH


def test_fast_engine_wire_roundtrip(benchmark):
    """FRQ1 wire-format round trip (zero-copy decode)."""
    import numpy as np

    sketch = FastReqSketch(32, seed=28)
    sketch.update_many(np.asarray(DATA))
    sketch.flush()
    clone = benchmark(lambda: FastReqSketch.from_bytes(sketch.to_bytes()))
    assert clone.n == sketch.n


def test_sharded_local_ingest(benchmark):
    """ShardedReqSketch local-backend batch ingest (routing + shard feed)."""
    import numpy as np

    from repro.shard import ShardedReqSketch

    array = np.asarray(DATA)

    def run():
        sharded = ShardedReqSketch(4, k=32, seed=27, backend="local")
        sharded.update_many(array)
        return sharded

    sharded = benchmark(run)
    assert sharded.n == UPDATE_BATCH


def test_service_socket_ingest(benchmark):
    """End-to-end quantile-service ingest over a localhost socket."""
    import numpy as np

    from repro.service import QuantileClient, QuantileService, ServerThread

    service = QuantileService(None)
    array = np.asarray(DATA)
    epoch = [0]

    def run():
        epoch[0] += 1
        with QuantileClient(port=running.port) as client:
            for start in range(0, UPDATE_BATCH, 4096):
                client.ingest(f"bench/{epoch[0]}", array[start : start + 4096])
        return service

    with ServerThread(service) as running:
        benchmark.pedantic(run, rounds=3, iterations=1)
        assert service.store.get(f"bench/{epoch[0]}").n == UPDATE_BATCH


def test_service_query_batched(benchmark):
    """Vectorized MULTI_QUERY reads over a localhost socket (window=1)."""
    import numpy as np

    from repro.service import QuantileClient, QuantileService, ServerThread

    service = QuantileService(None)
    with ServerThread(service) as running:
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("q", np.asarray(DATA))
            points = np.tile(np.array([0.5, 0.99]), (1024, 1))

            def run():
                return client.query_stream("q", points, frame_requests=256, window=1)

            result = benchmark.pedantic(run, rounds=3, iterations=1)
            assert result.values.shape == (1024, 2)
            assert result.n == UPDATE_BATCH


def test_serialize_throughput(benchmark):
    sketch = ReqSketch(32, seed=2)
    sketch.update_many(DATA)
    blob = benchmark(lambda: serialize(sketch))
    assert len(blob) > 0


def test_deserialize_throughput(benchmark):
    sketch = ReqSketch(32, seed=3)
    sketch.update_many(DATA)
    blob = serialize(sketch)
    clone = benchmark(lambda: deserialize(blob))
    assert clone.n == sketch.n


# ----------------------------------------------------------------------
# Tracked JSON emitter (python benchmarks/bench_throughput.py)
# ----------------------------------------------------------------------

#: Operations recorded in BENCH_throughput.json, in report order.
TRACKED_OPS = (
    "update",
    "update_many",
    "merge",
    "quantiles",
    "serde",
    "merge_many",
    "merge_fold16",
    "sharded_ingest",
    "service_ingest",
    "service_ingest_pipelined",
    "service_query",
    "service_query_batched",
    "service_query_pipelined",
    "windowed_ingest",
    "windowed_horizon_query",
)

#: Which tracked ops each engine measures (the reference engine has no
#: k-way merge or sharded plane; its ``merge_many`` row is the pairwise
#: fold, its only aggregation path, for cross-engine comparison).
ENGINE_OPS = {
    "fast": TRACKED_OPS,
    "reference": ("update", "update_many", "merge", "quantiles", "serde", "merge_many"),
}

#: Shards in the aggregation-plane workloads (merge_many / merge_fold16).
AGG_SHARDS = 16

#: Acceptance ratios checked by ``--check`` (fast engine vs baseline).
SPEEDUP_FLOORS = {"update": 5.0, "update_many": 3.0}

#: ``--check`` floor for fast.merge_many over the equivalent pairwise fold.
MERGE_MANY_FLOOR = 2.0

#: ``--check`` floor for pipelined socket ingest over the per-frame-ack path.
SERVICE_PIPELINE_FLOOR = 2.0

#: ``--check`` floor for the batched query path over the tracked
#: per-request ``service_query`` baseline (the PR-5 acceptance headline).
SERVICE_QUERY_BATCH_FLOOR = 50.0

#: Committed hardware-normalized service-plane ratios for the CI smoke gate
#: (``--check-service``): each service row divided by the same run's
#: ``update_many`` — normalizing by the in-process engine cancels raw CPU
#: speed, so the gate ports across machines.  Committed at the *low* end
#: of repeated BENCH_SMOKE runs on the reference box (observed ranges:
#: ingest 0.08-0.16, pipelined 0.16-0.24), so the 30% tolerance trips on
#: genuine regressions (losing coalescing or vectorized decode roughly
#: halves these) rather than scheduler noise.
SERVICE_SMOKE_BASELINE_RATIO = {
    "service_ingest": 0.09,
    "service_ingest_pipelined": 0.15,
}
SERVICE_SMOKE_TOLERANCE = 0.30

#: Committed hardware-normalized floor for the query plane in the same
#: gate: ``service_query_batched`` divided by the same run's per-request
#: ``service_query`` — both are socket paths on the same box, so raw CPU
#: and loopback speed cancel.  Committed well under the observed range on
#: the reference box (140-215x across smoke and full runs; losing the
#: vectorized MULTI_QUERY path or the query index collapses it to ~1-3x),
#: with the shared 30% tolerance.
SERVICE_SMOKE_QUERY_RATIO = 60.0

#: Committed hardware-normalized windowed-plane ratios for the CI
#: ``windowed-smoke`` gate (``--check-windowed``).  ``windowed_ingest``
#: (values/sec through ``window_ingest`` across ``WINDOWED_KEYS`` keys
#: with every batch rolling buckets over) is divided by the same run's
#: in-process ``update_many`` — raw CPU speed cancels, what remains is
#: the per-batch bucketing/grouping/WAL-less apply overhead.
#: ``windowed_horizon_query`` (horizon reads/sec over
#: ~``WINDOWED_BUCKET_SPAN`` buckets, 2 fractions each) is divided by the
#: same run's ``merge_many`` items/sec — a horizon is answered from the
#: buckets' weighted union (one sort of their retained items, no merge),
#: and the k-way merge row stands in as the same-run sort-and-concatenate
#: kernel speed, so the quotient isolates per-query overhead from raw
#: CPU speed.  The ratio was committed when horizons still merged; the
#: union path only raises it.  Committed at roughly half the low
#: end of repeated BENCH_SMOKE runs on the reference box (observed:
#: ingest 0.0057-0.0080, query 0.00013-0.0002 — smoke batches are ~200
#: values across 100 keys, so per-batch overhead dominates by design),
#: leaving the shared 30% tolerance to trip on real regressions (e.g.
#: losing the grouped ``update_many`` ingest path or rebuilding a
#: merge target per query) rather than scheduler noise.
WINDOWED_SMOKE_INGEST_RATIO = 0.003
WINDOWED_SMOKE_QUERY_RATIO = 0.00006
#: Keys and bucket span of the windowed benchmark workload.
WINDOWED_KEYS = 100
WINDOWED_BUCKET_SPAN = 8


def _best_ops_per_sec(run: Callable[[], int], *, repeats: int = 3) -> float:
    """Best-of-``repeats`` throughput for ``run`` (which returns an op count)."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        ops = run()
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, ops / elapsed)
    return best


def _workload_sizes(smoke: bool) -> Dict[str, int]:
    if smoke:
        return {"scalar_n": 5_000, "batch_n": 20_000, "merge_n": 10_000, "queries": 200}
    return {"scalar_n": 200_000, "batch_n": 200_000, "merge_n": 100_000, "queries": 1_000}


def measure_engine(name: str, *, smoke: bool = False, repeats: int = 3) -> Dict[str, float]:
    """Time the four tracked operations for one engine (``fast``/``reference``).

    Returns ops/sec per operation.  The reference engine's pure-Python scalar
    loop gets a smaller stream so a full run stays under a minute.
    """
    import numpy as np

    sizes = _workload_sizes(smoke)
    fast = name == "fast"
    scalar_n = sizes["scalar_n"] if fast else max(sizes["scalar_n"] // 10, 1_000)
    batch_n = sizes["batch_n"] if fast else max(sizes["batch_n"] // 10, 1_000)
    merge_n = sizes["merge_n"] if fast else max(sizes["merge_n"] // 10, 1_000)

    data_rng = np.random.default_rng(42)
    scalar_data = data_rng.random(scalar_n).tolist()
    batch_data = data_rng.random(batch_n)
    merge_data = data_rng.random(merge_n)

    def make(seed: int):
        if fast:
            return FastReqSketch(32, seed=seed)
        return ReqSketch(32, seed=seed)

    def run_scalar() -> int:
        # C-level driver loop (map) so the measurement is the per-item cost
        # of update() itself, not the caller's bytecode dispatch.
        sketch = make(1)
        deque(map(sketch.update, scalar_data), maxlen=0)
        if fast:
            sketch.flush()
        assert sketch.n == scalar_n
        return scalar_n

    def run_batch() -> int:
        sketch = make(2)
        sketch.update_many(batch_data if fast else batch_data.tolist())
        assert sketch.n == batch_n
        return batch_n

    half = merge_n // 2
    left = make(3)
    right = make(4)
    if fast:
        left.update_many(merge_data[:half])
        right.update_many(merge_data[half:])
    else:
        left.update_many(merge_data[:half].tolist())
        right.update_many(merge_data[half:].tolist())

    def run_merge() -> int:
        if fast:
            target = make(5)
            target.merge(left)
            target.merge(right)
        else:
            target = ReqSketch.merged(left, right)
        assert target.n == merge_n
        return merge_n

    query_sketch = make(6)
    query_sketch.update_many(batch_data if fast else batch_data.tolist())
    n_queries = sizes["queries"]
    fractions = np.linspace(0.001, 0.999, n_queries)
    fraction_list = fractions.tolist()

    def run_quantiles() -> int:
        values = query_sketch.quantiles(fractions if fast else fraction_list)
        assert len(values) == n_queries
        return n_queries

    # Serde: round-trips/sec through the cross-format serialize/deserialize
    # dispatch (FRQ1 wire format for fast, REQ1 for reference).
    serde_sketch = make(7)
    serde_sketch.update_many(batch_data if fast else batch_data.tolist())
    serde_sketch.quantile(0.5)  # settle staging/consolidation first

    def run_serde() -> int:
        clone = deserialize(serialize(serde_sketch))
        assert clone.n == serde_sketch.n
        return 1

    # Aggregation plane: union AGG_SHARDS equal shards of the merge stream.
    # fast.merge_many is the k-way path; merge_fold16 (fast only) is the
    # equivalent sequential pairwise fold it must beat; the reference
    # engine's only aggregation is the fold, reported as its merge_many.
    shard_parts = np.array_split(merge_data, AGG_SHARDS)
    agg_shards = []
    for index, part in enumerate(shard_parts):
        shard = make(100 + index)
        shard.update_many(part if fast else part.tolist())
        if fast:
            shard.flush()  # drained, as a checkpointed shard is (reads do not drain)
        shard.quantile(0.5)  # consolidate, like a decoded shard
        agg_shards.append(shard)

    def run_merge_fold() -> int:
        target = make(8)
        for shard in agg_shards:
            target.merge(shard)
        assert target.n == merge_n
        return merge_n

    if fast:
        def run_merge_many() -> int:
            target = make(8)
            target.merge_many(agg_shards)
            assert target.n == merge_n
            return merge_n
    else:
        run_merge_many = run_merge_fold

    ops = {
        "update": _best_ops_per_sec(run_scalar, repeats=repeats),
        "update_many": _best_ops_per_sec(run_batch, repeats=repeats),
        "merge": _best_ops_per_sec(run_merge, repeats=repeats),
        "quantiles": _best_ops_per_sec(run_quantiles, repeats=repeats),
        "serde": _best_ops_per_sec(run_serde, repeats=repeats),
        "merge_many": _best_ops_per_sec(run_merge_many, repeats=repeats),
    }

    if fast:
        from repro.shard import ShardedReqSketch

        def run_sharded() -> int:
            sharded = ShardedReqSketch(4, k=32, seed=9, backend="local")
            sharded.update_many(batch_data)
            assert sharded.n == batch_n
            return batch_n

        ops["merge_fold16"] = _best_ops_per_sec(run_merge_fold, repeats=repeats)
        ops["sharded_ingest"] = _best_ops_per_sec(run_sharded, repeats=repeats)
        ops["service_ingest"] = _measure_service_ingest(batch_data, repeats=repeats)
        ops["service_ingest_pipelined"] = _measure_service_ingest_pipelined(
            batch_data, repeats=repeats
        )
        ops["service_query"] = _measure_service_query(
            batch_data, queries=n_queries, repeats=repeats
        )
        ops.update(
            _measure_service_query_vectorized(
                batch_data, queries=n_queries, repeats=repeats
            )
        )
        ops.update(
            _measure_windowed(batch_data, queries=n_queries, repeats=repeats)
        )
    return ops


#: ``service_ingest`` frame size (values per INGEST request).
SERVICE_FRAME = 4096
#: ``service_ingest`` spreads the workload over this many keys.
SERVICE_KEYS = 8
#: ``service_ingest_pipelined`` frame size / in-flight window.
SERVICE_PIPE_FRAME = 32768
SERVICE_PIPE_WINDOW = 32


def _measure_service_ingest(batch_data, *, repeats: int) -> float:
    """End-to-end socket ingest: asyncio server + sync client on localhost.

    One in-memory server (no WAL — this row prices the network/protocol
    path, not fsync) serves all repeats; each repeat streams the batch
    workload in ``SERVICE_FRAME``-value frames round-robin across
    ``SERVICE_KEYS`` keys, under fresh key names so every repeat ingests
    into empty sketches like the other rows do.
    """
    import numpy as np

    from repro.service import QuantileClient, QuantileService, ServerThread

    batch_n = len(batch_data)
    frames = [
        np.ascontiguousarray(batch_data[start : start + SERVICE_FRAME])
        for start in range(0, batch_n, SERVICE_FRAME)
    ]
    epoch = [0]

    with ServerThread(QuantileService(None)) as running:

        def run_ingest() -> int:
            epoch[0] += 1
            with QuantileClient(port=running.port) as client:
                total = 0
                for index, frame in enumerate(frames):
                    key = f"bench/{epoch[0]}/{index % SERVICE_KEYS}"
                    client.ingest(key, frame)
                    total += len(frame)
                assert total == batch_n
            return batch_n

        return _best_ops_per_sec(run_ingest, repeats=repeats)


def _measure_service_ingest_pipelined(batch_data, *, repeats: int) -> float:
    """Pipelined socket ingest: ``ingest_stream`` windows, coalescing server.

    Same server and key spread as ``service_ingest``, but each key's
    segment streams as a window of in-flight frames (no per-frame round
    trip) that the server coalesces into single ``update_many`` batches —
    the tracked number for the service/engine throughput-gap work.  One
    connection serves all repeats (pipelining is a steady-state property;
    connection setup is priced by ``service_ingest``).

    The client carries a :class:`RetryPolicy`, so this row prices the
    production shape: an exactly-once session with sequence-framed
    ingest (``SEQ_INGEST`` + server-side dedup marks), not the bare
    fire-and-hope wire format.
    """
    import numpy as np

    from repro.service import QuantileClient, QuantileService, RetryPolicy, ServerThread

    batch_n = len(batch_data)
    per_key = batch_n // SERVICE_KEYS
    segments = [
        np.ascontiguousarray(batch_data[index * per_key : (index + 1) * per_key])
        for index in range(SERVICE_KEYS - 1)
    ]
    segments.append(np.ascontiguousarray(batch_data[(SERVICE_KEYS - 1) * per_key :]))
    epoch = [0]

    with ServerThread(QuantileService(None)) as running:
        with QuantileClient(port=running.port, retry=RetryPolicy(timeout=60.0)) as client:
            assert client.exactly_once  # sequence framing is on

            def run_pipelined() -> int:
                epoch[0] += 1
                total = 0
                for index, segment in enumerate(segments):
                    key = f"pipe/{epoch[0]}/{index}"
                    client.ingest_stream(
                        key,
                        segment,
                        frame_values=SERVICE_PIPE_FRAME,
                        window=SERVICE_PIPE_WINDOW,
                    )
                    total += len(segment)
                assert total == batch_n
                return batch_n

            return _best_ops_per_sec(run_pipelined, repeats=max(repeats, 3))


def _measure_service_query(batch_data, *, queries: int, repeats: int) -> float:
    """QUERY round trips/sec on one connection (2 fractions per request)."""
    import numpy as np

    from repro.service import QuantileClient, QuantileService, ServerThread

    fractions = np.array([0.5, 0.99])
    with ServerThread(QuantileService(None)) as running:
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("q", np.ascontiguousarray(batch_data))

            def run_queries() -> int:
                for _ in range(queries):
                    client.query("q", fractions)
                return queries

            return _best_ops_per_sec(run_queries, repeats=repeats)


#: ``service_query_batched``/``service_query_pipelined``: requests per
#: MULTI_QUERY frame, frames in flight (pipelined only), and total
#: requests per repeat as a multiple of the ``queries`` workload size.
SERVICE_QUERY_BATCH = 512
SERVICE_QUERY_WINDOW = 8
SERVICE_QUERY_SCALE = 16


def _measure_service_query_vectorized(batch_data, *, queries: int, repeats: int) -> Dict[str, float]:
    """The vectorized read path: requests/sec through ``query_stream``.

    Same server, key, and request shape (2 fractions) as
    ``service_query``, but the requests travel as uniform ``MULTI_QUERY``
    frames answered from the key's version-stamped query index with one
    batched ``searchsorted`` per frame.  ``service_query_batched`` sends
    one frame at a time (``window=1``: the single-dashboard-refresh
    shape); ``service_query_pipelined`` keeps ``SERVICE_QUERY_WINDOW``
    frames in flight so reads overlap the network like writes do.
    """
    import numpy as np

    from repro.service import QuantileClient, QuantileService, ServerThread

    total = queries * SERVICE_QUERY_SCALE
    points = np.tile(np.array([0.5, 0.99]), (total, 1))
    with ServerThread(QuantileService(None)) as running:
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("q", np.ascontiguousarray(batch_data))

            def run_batched() -> int:
                result = client.query_stream(
                    "q", points, frame_requests=SERVICE_QUERY_BATCH, window=1
                )
                assert result.values.shape == (total, 2)
                return total

            def run_pipelined() -> int:
                result = client.query_stream(
                    "q",
                    points,
                    frame_requests=SERVICE_QUERY_BATCH,
                    window=SERVICE_QUERY_WINDOW,
                )
                assert result.values.shape == (total, 2)
                return total

            return {
                "service_query_batched": _best_ops_per_sec(run_batched, repeats=repeats),
                "service_query_pipelined": _best_ops_per_sec(run_pipelined, repeats=repeats),
            }


def _measure_windowed(batch_data, *, queries: int, repeats: int) -> Dict[str, float]:
    """The windowed plane: bucketed ingest and horizon reads, in-process.

    ``windowed_ingest`` streams the batch workload across
    ``WINDOWED_KEYS`` keys into 1-second buckets; every per-key batch's
    timestamps sweep ``WINDOWED_BUCKET_SPAN`` bucket widths, so each call
    pays the full bucketing path — vectorized grouping, bucket creation,
    rollover/close bookkeeping — not just one sketch's ``update_many``.
    Fresh key names per repeat keep rings empty like the other rows.

    ``windowed_horizon_query`` answers ``[start, end)`` reads over the
    populated keys: each query indexes the weighted union of the
    ~``WINDOWED_BUCKET_SPAN`` overlapping buckets (one sort, no merge
    target, no compaction) plus a 2-fraction evaluate — the
    union-on-query cost the windowed design commits to.
    """
    import numpy as np

    from repro.service import QuantileService

    batch_n = len(batch_data)
    per_key = max(batch_n // WINDOWED_KEYS, 1)
    segments = [
        np.ascontiguousarray(batch_data[index * per_key : (index + 1) * per_key])
        for index in range(WINDOWED_KEYS)
    ]
    segments = [segment for segment in segments if len(segment)]
    stamps = [
        np.linspace(0.0, float(WINDOWED_BUCKET_SPAN), len(segment), endpoint=False)
        for segment in segments
    ]
    fractions = np.array([0.5, 0.99])
    epoch = [0]

    service = QuantileService(
        None, window_resolutions=(1.0,), window_retention=64, seed=0
    )

    def run_windowed_ingest() -> int:
        epoch[0] += 1
        total = 0
        for index, segment in enumerate(segments):
            service.window_ingest(f"win/{epoch[0]}/{index}", stamps[index], segment)
            total += len(segment)
        return total

    ingest_rate = _best_ops_per_sec(run_windowed_ingest, repeats=repeats)

    # Query workload: one set of populated keys, cycled round-robin.
    keys = [f"winq/{index}" for index in range(len(segments))]
    for key, segment, ts in zip(keys, segments, stamps):
        service.window_ingest(key, ts, segment)

    def run_horizon_queries() -> int:
        for count in range(queries):
            service.window_query(
                keys[count % len(keys)],
                "quantiles",
                0.0,
                0.0,
                float(WINDOWED_BUCKET_SPAN),
                fractions,
            )
        return queries

    query_rate = _best_ops_per_sec(run_horizon_queries, repeats=repeats)
    return {"windowed_ingest": ingest_rate, "windowed_horizon_query": query_rate}


def collect_measurements(*, smoke: bool = False, repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Measure every tracked engine; returns ``{engine: {op: ops_per_sec}}``."""
    return {
        "fast": measure_engine("fast", smoke=smoke, repeats=repeats),
        "reference": measure_engine("reference", smoke=smoke, repeats=repeats),
    }


def render_report(
    current: Dict[str, Dict[str, float]],
    baseline: Optional[Dict[str, Dict[str, float]]],
    *,
    smoke: bool,
) -> dict:
    """Assemble the JSON document: config, baseline, current, speedups."""
    if baseline is not None:
        # Backfill ops added since the baseline was recorded (they start a
        # fresh trajectory from this run) WITHOUT touching existing entries.
        baseline = {
            engine: {**current.get(engine, {}), **ops}
            for engine, ops in baseline.items()
        }
    report = {
        "schema": 1,
        "benchmark": "bench_throughput",
        "units": "ops_per_sec",
        "config": {"smoke": smoke, **_workload_sizes(smoke)},
        "baseline": baseline if baseline is not None else current,
        "current": current,
    }
    report["baseline_config"] = report["config"]
    base = report["baseline"]
    speedups: Dict[str, Dict[str, float]] = {}
    for engine, ops in current.items():
        engine_base = base.get(engine, {})
        speedups[engine] = {
            op: round(value / engine_base[op], 3)
            for op, value in ops.items()
            if engine_base.get(op)
        }
    report["speedup_vs_baseline"] = speedups
    fast_ops = current.get("fast", {})
    if fast_ops.get("merge_fold16"):
        report["merge_many_vs_pairwise"] = round(
            fast_ops["merge_many"] / fast_ops["merge_fold16"], 3
        )
    return report


def load_baseline(path: Path, config: dict) -> Optional[Dict[str, Dict[str, float]]]:
    """The ``baseline`` section of an existing report, if any.

    A baseline is only comparable when it was measured under the same
    workload config — a smoke run must not be ratioed against (or silently
    replace the baseline of) a full-workload report, and vice versa.
    """
    if not path.exists():
        return None
    try:
        report = json.loads(path.read_text())
        baseline = report["baseline"]
        recorded = report.get("baseline_config", report.get("config"))
    except (ValueError, KeyError):
        return None
    if recorded is not None and recorded != config:
        print(
            f"note: baseline in {path} was measured under a different workload "
            "config; starting a fresh baseline for this config",
            file=sys.stderr,
        )
        return None
    return baseline


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_throughput.json"),
        help="output JSON path (default: repo-root BENCH_throughput.json)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny workloads (seconds, not minutes)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing repeats")
    parser.add_argument(
        "--reset-baseline",
        action="store_true",
        help="overwrite the stored baseline with this run",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the fast engine meets the tracked speedup floors",
    )
    parser.add_argument(
        "--check-service",
        action="store_true",
        help="exit 1 if the service-plane rows regress more than "
        f"{SERVICE_SMOKE_TOLERANCE:.0%} below the committed hardware-"
        "normalized ratios (the CI bench-smoke gate)",
    )
    parser.add_argument(
        "--check-windowed",
        action="store_true",
        help="exit 1 if the windowed-plane rows regress more than "
        f"{SERVICE_SMOKE_TOLERANCE:.0%} below the committed hardware-"
        "normalized ratios (the CI windowed-smoke gate)",
    )
    args = parser.parse_args(argv)

    smoke = args.smoke or BENCH_SMOKE
    out = Path(args.out)
    config = {"smoke": smoke, **_workload_sizes(smoke)}
    if out.exists() and not args.reset_baseline:
        try:
            existing = json.loads(out.read_text()).get("config")
        except ValueError:
            existing = None
        if existing is not None and existing != config:
            print(
                f"error: {out} tracks a different workload config "
                f"(smoke={existing.get('smoke')}); refusing to overwrite it "
                "with this run — pass --out elsewhere or --reset-baseline",
                file=sys.stderr,
            )
            return 2
    baseline = None if args.reset_baseline else load_baseline(out, config)
    current = collect_measurements(smoke=smoke, repeats=args.repeats)
    report = render_report(current, baseline, smoke=smoke)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"wrote {out}")
    for engine in ("fast", "reference"):
        for op in TRACKED_OPS:
            if op not in current[engine]:
                continue
            ratio = report["speedup_vs_baseline"][engine].get(op)
            print(
                f"  {engine:>9}.{op:<14} {current[engine][op]:>14,.0f} ops/s"
                + (f"  ({ratio:.2f}x baseline)" if ratio is not None else "")
            )
    kway = report.get("merge_many_vs_pairwise")
    if kway is not None:
        print(f"  fast.merge_many vs pairwise fold ({AGG_SHARDS} shards): {kway:.2f}x")
    fast_now = current["fast"]
    if fast_now.get("service_ingest") and fast_now.get("service_ingest_pipelined"):
        pipeline_gain = fast_now["service_ingest_pipelined"] / fast_now["service_ingest"]
        print(f"  fast.service_ingest_pipelined vs per-frame acks: {pipeline_gain:.2f}x")
    else:
        pipeline_gain = None
    query_base = report["baseline"].get("fast", {}).get("service_query")
    if query_base and fast_now.get("service_query_batched"):
        query_gain = fast_now["service_query_batched"] / query_base
        print(
            f"  fast.service_query_batched vs service_query baseline: {query_gain:.1f}x"
        )
    else:
        query_gain = None
    if args.check:
        failures = [
            f"fast.{op}: {report['speedup_vs_baseline']['fast'].get(op, 0.0):.2f}x < {floor}x"
            for op, floor in SPEEDUP_FLOORS.items()
            if report["speedup_vs_baseline"]["fast"].get(op, 0.0) < floor
        ]
        if kway is not None and kway < MERGE_MANY_FLOOR:
            failures.append(
                f"fast.merge_many vs pairwise: {kway:.2f}x < {MERGE_MANY_FLOOR}x"
            )
        # The pipelining gain needs full-size windows to show; smoke
        # workloads fit one frame per key, so the floor only binds on
        # full runs (the smoke gate is --check-service instead).
        if not smoke and pipeline_gain is not None and pipeline_gain < SERVICE_PIPELINE_FLOOR:
            failures.append(
                f"fast.service_ingest_pipelined vs service_ingest: "
                f"{pipeline_gain:.2f}x < {SERVICE_PIPELINE_FLOOR}x"
            )
        # The batched-query acceptance floor compares against the tracked
        # service_query baseline, so it only binds on full-workload runs
        # against an established baseline file (smoke runs start a fresh
        # baseline; their gate is --check-service).
        if not smoke and query_gain is not None and query_gain < SERVICE_QUERY_BATCH_FLOOR:
            failures.append(
                f"fast.service_query_batched vs service_query baseline: "
                f"{query_gain:.1f}x < {SERVICE_QUERY_BATCH_FLOOR}x"
            )
        if failures:
            print("speedup floors not met: " + "; ".join(failures), file=sys.stderr)
            return 1
    if args.check_service:
        failures = []
        anchor = fast_now.get("update_many", 0.0)
        for op, committed in SERVICE_SMOKE_BASELINE_RATIO.items():
            measured = fast_now.get(op, 0.0)
            if not anchor or not measured:
                failures.append(f"fast.{op}: missing measurement")
                continue
            ratio = measured / anchor
            floor = committed * (1.0 - SERVICE_SMOKE_TOLERANCE)
            print(
                f"  service gate {op}: {ratio:.3f} of update_many "
                f"(committed {committed:.3f}, floor {floor:.3f})"
            )
            if ratio < floor:
                failures.append(
                    f"fast.{op}: {ratio:.3f} of update_many < floor {floor:.3f} "
                    f"(committed ratio {committed:.3f}, tolerance "
                    f"{SERVICE_SMOKE_TOLERANCE:.0%})"
                )
        # Query plane: batched requests/sec over the same run's per-request
        # round trips — both socket paths, so the ratio ports across boxes.
        per_request = fast_now.get("service_query", 0.0)
        batched = fast_now.get("service_query_batched", 0.0)
        if not per_request or not batched:
            failures.append("fast.service_query_batched: missing measurement")
        else:
            ratio = batched / per_request
            floor = SERVICE_SMOKE_QUERY_RATIO * (1.0 - SERVICE_SMOKE_TOLERANCE)
            print(
                f"  service gate service_query_batched: {ratio:.1f}x service_query "
                f"(committed {SERVICE_SMOKE_QUERY_RATIO:.0f}x, floor {floor:.1f}x)"
            )
            if ratio < floor:
                failures.append(
                    f"fast.service_query_batched: {ratio:.1f}x service_query < "
                    f"floor {floor:.1f}x (committed {SERVICE_SMOKE_QUERY_RATIO:.0f}x, "
                    f"tolerance {SERVICE_SMOKE_TOLERANCE:.0%})"
                )
        if failures:
            print("service-plane smoke gate failed: " + "; ".join(failures), file=sys.stderr)
            return 1
    if args.check_windowed:
        failures = []
        gates = (
            ("windowed_ingest", "update_many", WINDOWED_SMOKE_INGEST_RATIO),
            ("windowed_horizon_query", "merge_many", WINDOWED_SMOKE_QUERY_RATIO),
        )
        for op, anchor_op, committed in gates:
            measured = fast_now.get(op, 0.0)
            anchor = fast_now.get(anchor_op, 0.0)
            if not anchor or not measured:
                failures.append(f"fast.{op}: missing measurement")
                continue
            ratio = measured / anchor
            floor = committed * (1.0 - SERVICE_SMOKE_TOLERANCE)
            print(
                f"  windowed gate {op}: {ratio:.4f} of {anchor_op} "
                f"(committed {committed:.4f}, floor {floor:.4f})"
            )
            if ratio < floor:
                failures.append(
                    f"fast.{op}: {ratio:.4f} of {anchor_op} < floor {floor:.4f} "
                    f"(committed ratio {committed:.4f}, tolerance "
                    f"{SERVICE_SMOKE_TOLERANCE:.0%})"
                )
        if failures:
            print("windowed-plane smoke gate failed: " + "; ".join(failures), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
