"""repro — a reproduction of "Relative Error Streaming Quantiles" (PODS 2021).

The package implements the REQ sketch of Cormode, Karnin, Liberty, Thaler
and Vesely (arXiv:2004.01668) together with every substrate the paper's
claims rest on: the additive-error and multiplicative-error comparators of
its Section 1.1, synthetic stream workloads, an evaluation harness, the
theory-side constructions of its appendices, and an experiment suite that
empirically validates each theorem.

Quick start::

    from repro import ReqSketch

    sketch = ReqSketch(eps=0.05, hra=True)   # sharp at high ranks (p99, ...)
    for latency in latencies:
        sketch.update(latency)
    p999 = sketch.quantile(0.999)

Performance
===========

Two engines implement the same compactor stack:

* :class:`ReqSketch` — the reference engine: pure Python, works for any
  totally ordered items (floats, ints, strings, tuples, ...), and is the
  fully parameterized implementation every experiment validates against.
* :class:`FastReqSketch` — the ingestion engine for float64 streams:
  levels are sorted numpy runs merged lazily, batches ingest through one
  vectorized path, and scalar updates are staged in a preallocated block
  (a small C extension compiled on first import when a compiler is
  available; a pure-Python fallback otherwise — set ``REPRO_NO_NATIVE=1``
  to force the fallback).  Throughput is tracked in
  ``BENCH_throughput.json`` (regenerate with
  ``python benchmarks/bench_throughput.py``).

Choosing and using them:

* Pick :class:`FastReqSketch` whenever items are plain numbers and update
  rate matters (hot paths, monitors, services); pick :class:`ReqSketch`
  for generic item types or the ``theory`` parameter scheme.  Both engines
  serialize through ``repro.serialize``/``repro.deserialize``.
* **Batch when you can**: ``update_many(array)`` is an order of magnitude
  faster than per-item ``update`` even on the fast engine.
* **Staging and visibility**: ``FastReqSketch.update`` stages items in a
  block.  ``sketch.n`` counts them immediately, but they reach the level
  structure only when the block fills or on ``flush()``.  Queries and
  ``to_bytes()`` read the staged values through a sorted peek without
  draining them, so there is no need to call ``flush()`` before querying
  and a read never changes the sketch; call it to compact the staged
  values before serializing a snapshot (the service's checkpoints do).
* Batches smaller than the staging block are appended to the staging
  buffer; batches at least as large are sorted once and ingested as a
  single sorted run.

Sharded aggregation
===================

The paper's full-mergeability theorem (Theorem 3) says REQ sketches can be
combined in *arbitrary* merge trees with no accuracy loss — the union of
any partition of a stream carries the same ``(1 +/- eps)`` guarantee as a
single sketch fed the whole stream.  The package exposes that at three
levels:

* ``FastReqSketch.merge_many(sketches)`` — k-way aggregation: every
  input is snapshotted once (inputs are never mutated, not even their
  staging buffers), same-height buffers are concatenated, schedule states
  are OR-ed, and ONE compression pass runs over the combined structure —
  several times faster than a sequential pairwise-``merge`` fold.
* ``to_bytes()`` / ``from_bytes()`` — the compact ``FRQ1`` wire format
  (:mod:`repro.fast.wire`): versioned little-endian header, level runs as
  raw float64 buffers, zero-copy ``np.frombuffer`` decode.  The layout is
  versioned and stable: payloads written by this release decode in later
  ones.  ``repro.serialize``/``repro.deserialize`` dispatch on the sketch
  type / payload magic and convert across engines on request
  (``deserialize(data, engine="fast"|"reference")``).
* :class:`~repro.shard.ShardedReqSketch` — routes ``update_many`` batches
  across ``S`` independent shards (round-robin or value-hash), with a
  same-process backend for cheap deployments and a ``ProcessPoolExecutor``
  backend that ships batches to workers and returns wire payloads; queries
  run against a cached ``merge_many`` union coreset.

**When to shard:** one ``FastReqSketch`` sustains tens of millions of
updates/s, so shard for *cores* (the process backend, when one core
saturates), for *isolation* (per-tenant/per-window shards merged on
demand — see :class:`~repro.windowed.WindowRing`), or for
*distribution* (sketch at the edge, ship ``FRQ1`` payloads, union at the
aggregator).  Never for accuracy — the merged union is in the same error
class either way, which is exactly the paper's mergeability theorem.

The service plane
=================

:mod:`repro.service` turns the library into a runnable system: a
multi-tenant keyed store of fast-engine sketches with LRU spill-to-disk,
durable state (per-key ``FRQ1`` snapshots plus an append-only batch WAL
with replay-on-recovery), and an asyncio TCP server speaking a compact
length-prefixed binary protocol, with matching sync and async clients::

    repro-quantiles serve --port 7379 --data-dir ./qdata

    from repro.service import QuantileClient
    with QuantileClient(port=7379) as client:
        client.ingest("tenant-a/latency", latencies)   # one update_many
        p50, p99 = client.query("tenant-a/latency", [0.5, 0.99]).quantiles

Ingest batches append to the WAL before touching the store, so a killed
server replays to the exact same sketches; cold keys spill to snapshot
files and reload transparently.  The service imports lazily — ``import repro`` does not pay
for it.

Reads scale the same way writes do: :class:`FastReqSketch` caches a
*version-stamped query index* (sorted coreset + cumulative weights,
rebuilt only when the coreset version changes; ``error_bound`` memoized
on the same stamp), and the service's ``MULTI_QUERY`` opcode ships many
read requests per frame with per-request statuses — uniform batches are
vectorized end to end (client ``query_many`` / ``query_stream``), with
answers bit-identical to in-process queries even across spill/reload
and WAL recovery.  See :mod:`repro.fast.engine` for the index
invariants and :mod:`repro.service` for the wire surface.

See README.md for the architecture overview and
:mod:`repro.experiments.registry` for the E1–E12 index of the paper's
claims.
"""

from repro._version import __version__
from repro.core import (
    CloseOutReqSketch,
    DeterministicReqSketch,
    RelativeCompactor,
    ReqSketch,
    check_invariants,
    deserialize,
    serialize,
)
from repro.fast import FastReqSketch
from repro.shard import ShardedReqSketch
from repro.errors import (
    EmptySketchError,
    IncompatibleSketchesError,
    InvalidParameterError,
    ReproError,
    SerializationError,
    ServiceError,
    StreamLengthExceededError,
)

__all__ = [
    "CloseOutReqSketch",
    "DeterministicReqSketch",
    "EmptySketchError",
    "FastReqSketch",
    "IncompatibleSketchesError",
    "InvalidParameterError",
    "RelativeCompactor",
    "ReproError",
    "ReqSketch",
    "SerializationError",
    "ServiceError",
    "ShardedReqSketch",
    "StreamLengthExceededError",
    "__version__",
    "check_invariants",
    "deserialize",
    "serialize",
]
