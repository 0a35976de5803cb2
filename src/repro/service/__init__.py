"""The quantile service plane: a network-fronted, durable sketch store.

PRs 1-2 built the fast engine and the sharded aggregation plane; this
package turns the library into a runnable multi-tenant service.  What the
paper contributes is exactly what makes this shape viable: per-key REQ
summaries are tiny (``O(k log(n/k))`` items for relative-error rank
guarantees), *fully mergeable* in arbitrary trees (Theorem 3), and travel
as compact ``FRQ1`` payloads — so one process can front millions of keys,
evict cold ones to disk for the cost of a few KiB each, and union edge
sketches shipped over the wire without losing accuracy.

Layers (bottom up):

* :class:`SketchStore` (:mod:`repro.service.store`) — tenant/metric keys
  to :class:`~repro.fast.FastReqSketch`, lazy creation, incremental
  retained-item accounting, a memory budget that checkpoints in place and
  then spills LRU keys to disk; one key is one sketch, since the sketch
  is fully mergeable (Theorem 3).
* :mod:`repro.service.persistence` — per-key ``FRQ1`` snapshots plus an
  append-only CRC-guarded batch WAL; replay-on-recovery reconstructs
  every key after a crash (bit-exact for WAL-replayed keys, thanks to
  deterministic per-key seeds).  The one log, :class:`WriteAheadLog`,
  writes and fsyncs on a background writer with group commit — the
  server's acks gate on commit tickets, so durability costs latency
  instead of throughput, and in-process callers simply wait on theirs.
* :class:`QuantileService` / :class:`QuantileServer`
  (:mod:`repro.service.server`) — the durable core and its asyncio TCP
  front speaking the length-prefixed binary protocol of
  :mod:`repro.service.protocol` (``INGEST``/``QUERY``/``CDF``/``MERGE``/
  ``STATS``/``SNAPSHOT``/``PING``/``MULTI_INGEST``/``RANK``/
  ``MULTI_QUERY``).  The ingest path is pipelined end to end: zero-copy
  frame decode, per-tick coalescing into single ``update_many`` batches,
  uvloop when installed.
* :class:`QuantileClient` / :class:`AsyncQuantileClient`
  (:mod:`repro.service.client`) — sync and asyncio clients with per-key
  client-side batching, windowed pipelined streaming in both directions
  (``ingest_stream`` / ``query_stream``, one shared windowing state
  machine), multi-key fan-in frames (``ingest_multi``), and batched
  reads with per-request statuses (``query_many``).
* :mod:`repro.service.resilience` — the resilience plane.
  :class:`RetryPolicy` gives clients reconnect-and-replay with capped
  jittered backoff and a hard retry budget; with it, ``HELLO``
  negotiates an exactly-once session whose per-``(session, key)``
  high-water marks (:class:`SessionTable`) ride the WAL and a sidecar
  checkpoint, so a retried frame is acknowledged without being applied
  twice — even across a server crash between apply and ack.
  :class:`OverloadPolicy` sheds ingest (``RETRY_LATER``) on WAL-queue /
  parse-buffer watermarks while reads keep flowing; the server also
  enforces connection limits, answers ``HEALTH``, and drains gracefully
  on ``SIGTERM``.  :mod:`repro.service.faultproxy` is the deterministic
  chaos harness that proves all of it (seeded mid-byte faults, silent
  frame blackholes, manual partitions).
* the storage-fault plane — :mod:`repro.service.faultdisk` injects
  seeded/scripted disk faults (ENOSPC, EIO, short writes, bit rot)
  beneath the WAL and snapshot stores via the ``io_layer`` hook;
  snapshots carry ``FRS1`` CRC32 framing; :mod:`repro.service.scrub`
  re-reads retained files on a cadence and quarantines rot (resident
  keys self-heal, spilled keys heal via cluster repair); a full or
  failing disk flips the service into read-only **degraded mode**
  (ingest sheds with ``RETRY_LATER``, reads keep flowing) until space
  returns.

One layer up, :mod:`repro.cluster` runs many of these nodes as a
replicated cluster (consistent-hash routing, failover reads, hinted
handoff, anti-entropy repair over ``FETCH``/``MERGE``); each node is
just this service started with a ``node_id``.

The query plane leans on the engine's **version-stamped query index**
(:meth:`repro.fast.FastReqSketch.query_index`) and its invariants:

* the index is a pure function of the retained multiset — rebuilding
  from the same state (including a deserialized ``FRQ1`` payload, a
  reloaded spill file, or WAL-replayed history) yields bit-identical
  arrays, so answers over the wire are bit-identical to in-process ones;
* every mutation bumps a level version that invalidates the index on
  the next read — a stale index (or stale memoized ``error_bound``) is
  never served, and neither is a stale memoized answer, because a small
  ``quantiles`` answer is memoized on the index build itself;
* a uniform ``MULTI_QUERY`` frame is answered with ONE batched
  ``searchsorted`` over the index and vectorized response encode; the
  server's ``STATS`` reports the aggregate hit/miss/rebuild and
  answer-memo hit counters (``query_index``) plus per-opcode counts so
  cache behaviour is observable in production.

Run it::

    repro-quantiles serve --port 7379 --data-dir ./qdata --memory-budget 2000000
    repro-quantiles query p99s --host 127.0.0.1 --q 0.5 0.99

or in-process::

    from repro.service import QuantileService, QuantileServer, QuantileClient
"""

from repro.service.client import (
    AsyncQuantileClient,
    BucketEvent,
    QuantileClient,
    QueryResult,
)
from repro.service.faultdisk import (
    DiskIo,
    FaultyDisk,
    ScriptedDiskFaults,
    SeededDiskFaults,
)
from repro.service.faultproxy import FaultProxy, ScriptedFaults, SeededFaults
from repro.service.persistence import SnapshotStore, WriteAheadLog
from repro.service.resilience import OverloadPolicy, RetryPolicy, SessionTable
from repro.service.scrub import Scrubber, verify_wal_file
from repro.service.server import (
    QuantileServer,
    QuantileService,
    ServerThread,
    new_event_loop,
    run_server,
)
from repro.service.store import SketchStore

__all__ = [
    "AsyncQuantileClient",
    "BucketEvent",
    "DiskIo",
    "FaultProxy",
    "FaultyDisk",
    "OverloadPolicy",
    "QuantileClient",
    "QuantileServer",
    "QuantileService",
    "QueryResult",
    "RetryPolicy",
    "ScriptedDiskFaults",
    "ScriptedFaults",
    "Scrubber",
    "SeededDiskFaults",
    "SeededFaults",
    "ServerThread",
    "SessionTable",
    "SketchStore",
    "SnapshotStore",
    "WriteAheadLog",
    "new_event_loop",
    "run_server",
    "verify_wal_file",
]
