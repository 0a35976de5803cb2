"""The quantile service: durable keyed sketches behind an asyncio server.

Two layers:

* :class:`QuantileService` — the sans-io core: a
  :class:`~repro.service.SketchStore` composed with the WAL and snapshot
  store of :mod:`repro.service.persistence`.  Every mutation appends to
  the WAL before touching the store; the memory budget's in-place flushes
  and spills both save through the snapshot files, so each doubles as the
  key's durable checkpoint.
  Usable directly in-process (tests, embedded deployments, benchmarks
  with ``data_dir=None`` for a pure in-memory service).
* :class:`QuantileServer` — an ``asyncio`` TCP front speaking the
  length-prefixed protocol of :mod:`repro.service.protocol`.  Sketch
  operations are vectorized numpy on tiny summaries — microseconds — so
  a single event loop serves many connections without worker threads.

The ingest hot path is **pipelined and coalesced**: connections are
``asyncio.Protocol`` transports (no stream-reader overhead), every
``data_received`` tick parses *all* complete frames in the connection
buffer as zero-copy views, and all six ingest opcodes go through **one
pipeline**: decode, admit (shed, route, freeze, exactly-once dedup),
then stage into one run per tick, applied by a single
:meth:`QuantileService.ingest_groups` call (one WAL enqueue, one
``update_many`` per group).  Adjacent single-key frames of one key and
session coalesce into one group — one WAL record, one amortized
compaction pass, the schedule the paper's cost analysis assumes — and
their acks come from the cumulative counts.  WAL writes and fsyncs run
on the log's background writer thread (group commit) and acks are
released only when the covering commit ticket resolves — responses stay
in request order via a per-connection ordered output queue.

Consistency notes (single event loop, no locks needed):

* Frame batches are dispatched synchronously — no await between decode
  and response staging — so each batch is atomic with respect to every
  other connection's.  Within a batch, any opcode but plain ingest
  flushes the staged run first, so one connection's requests always
  observe their own program order.
* ``snapshot_all`` is a plain synchronous method — no awaits — so the
  "write every dirty key, then truncate the WAL" sequence cannot
  interleave with an ingest that would be lost by the truncation (it
  barriers the group-commit writer before truncating).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._version import __version__
from repro.errors import (
    DegradedError,
    EmptySketchError,
    InvalidParameterError,
    ReproError,
    ServiceError,
    SnapshotCorruptError,
)
from repro.service import protocol as wire
from repro.service.faultdisk import DEFAULT_IO
from repro.service.log import RateLimiter, configure_cli_logging
from repro.service.log import logger as log
from repro.service.persistence import (
    WAL_INGEST,
    WAL_MERGE,
    WAL_MIGRATE_SET,
    WAL_SEQ_INGEST,
    WAL_SEQ_WINDOW_INGEST,
    WAL_WINDOW_INGEST,
    SnapshotStore,
    WriteAheadLog,
    check_key_size,
    pack_session_header,
    recover,
)
from repro.service.resilience import (
    ADMIT_APPLY,
    ADMIT_SHED,
    OverloadPolicy,
    SessionTable,
)
from repro.service.store import SketchStore, spill_filename
from repro.windowed import SubscriptionHub, WindowStore

__all__ = [
    "GroupApplyError",
    "QuantileService",
    "QuantileServer",
    "ServerThread",
    "run_server",
    "new_event_loop",
]

#: Sentinel: "use the default overload policy" (``None`` disables shedding).
_DEFAULT_OVERLOAD = object()


def _find_bad_batch(batches) -> Optional[Tuple[int, str]]:
    """``None`` when every batch is non-empty and NaN-free, else
    ``(index, reason)`` for the first bad one.

    One NaN scan over the concatenation covers a whole multi-key frame;
    only a failing call rescans batch by batch to name the culprit.
    """
    if all(batch.size for batch in batches):
        flat = batches[0] if len(batches) == 1 else np.concatenate(batches)
        if not np.isnan(flat).any():
            return None
    for index, batch in enumerate(batches):
        if batch.size == 0:
            return index, "empty ingest batch"
        if np.isnan(batch).any():
            return index, "cannot insert NaN: items must form a total order"
    return None


class GroupApplyError(ServiceError):
    """Groups of one :meth:`QuantileService.ingest_groups` call failed to
    apply after the call was logged.

    ``results`` holds each group's ``n`` after it, ``None`` where it
    failed (``failed`` lists those indices); ``error`` is the first
    failure, which this error stands in for.  Every other group applied.
    """

    def __init__(self, error: Exception, results: List[Optional[int]]) -> None:
        self.failed = [index for index, n in enumerate(results) if n is None]
        super().__init__(f"group {self.failed[0]}: {error}")
        self.error = error
        self.results = results


class _Migration:
    """Per-key live-migration state on the SOURCE node of a reshard.

    Created by ``MIGRATE BEGIN``.  Until it is frozen the key behaves as
    usual: writes apply and are acked, and the state holds nothing that
    grows.  ``MIGRATE DRAIN freeze=1`` flips the key to **frozen**:
    writes and merges are shed with ``RETRY_LATER`` (never acked, so
    nothing can be lost) while the coordinator takes the final capture
    and cuts the topology over.  Every BEGIN and DRAIN is the
    coordinator's heartbeat and re-arms ``deadline``; a migration that
    misses it expires, frozen or not — if the coordinator dies mid-dance
    the key thaws (or its marker goes) automatically and the source stays
    authoritative, so a crashed rebalance never wedges ingest or leaves
    the node routed for good.
    """

    __slots__ = ("frozen", "deadline")

    def __init__(self) -> None:
        self.frozen = False
        self.deadline = 0.0


#: The ingest opcodes, each as ``(sequenced, multi_key, windowed)``.
_INGEST_OPS = {
    wire.OP_INGEST: (False, False, False),
    wire.OP_SEQ_INGEST: (True, False, False),
    wire.OP_MULTI_INGEST: (False, True, False),
    wire.OP_SEQ_MULTI_INGEST: (True, True, False),
    wire.OP_WINDOW_INGEST: (False, False, True),
    wire.OP_SEQ_WINDOW_INGEST: (True, False, True),
}


class _Segment:
    """A slice of a tick's staged ingest run under one session (``sid``
    ``None`` unsequenced): one multi-key frame's admitted ``(key,
    values)`` groups, or the ``batches`` of adjacent single-key frames of
    one key, flushed as ONE group of ``size`` values.  ``marks`` (each
    key's mark before the segment's admit) and ``seq`` (the highest frame
    seq) are the rollback if a group fails; after the flush ``results``
    holds each group's ``n``, ``None`` where it failed."""

    __slots__ = ("groups", "batches", "size", "sid", "seq", "marks", "results")

    def __init__(self, groups, sid, seq, marks, single) -> None:
        self.groups = groups
        self.batches = [groups[0][1]] if single else None
        self.size = int(groups[0][1].size) if single else 0
        self.sid = sid
        self.seq = seq
        self.marks = marks
        self.results: List[Optional[int]] = []


class _Run:
    """A tick's staged ingest: ``segments`` in apply order, and ``frames``
    waiting on them as ``(slot, segment, acks, multi)``.  A multi-key
    frame's ``acks`` holds its duplicates' acks, ``None`` where results
    go (or is ``None``: all results); a single-key frame's is where its
    values end in the segment, or its duplicate ack."""

    __slots__ = ("segments", "frames")

    def __init__(self) -> None:
        self.segments: List[_Segment] = []
        self.frames: List[tuple] = []


def new_event_loop(use_uvloop: bool = True) -> asyncio.AbstractEventLoop:
    """A fresh event loop, ``uvloop``-backed when installed.

    ``uvloop`` is never required: when it is missing (or ``use_uvloop``
    is false, or ``REPRO_NO_UVLOOP`` is set) this silently falls back to
    the stock asyncio loop, so deployments opt in simply by installing
    the package and opt out with the CLI flag.
    """
    if use_uvloop and not os.environ.get("REPRO_NO_UVLOOP"):
        try:
            import uvloop

            return uvloop.new_event_loop()
        except Exception:  # pragma: no cover - uvloop not installed here
            pass
    return asyncio.new_event_loop()


class QuantileService:
    """A durable multi-tenant sketch store (no networking).

    Args:
        data_dir: Durability root (``wal.log`` + ``snapshots/``).  ``None``
            runs fully in memory — no WAL, no snapshots, eviction needs a
            ``memory_budget`` of ``None`` or spills are refused.
        k, hra, seed: Sketch parameters for every key (``seed`` defaults
            to ``0`` so WAL replay is bit-exact; pass ``None`` for fresh
            randomness at the cost of exact-replay determinism).
        memory_budget: Retained-item cap across resident sketches; past
            it the store flushes the largest staging blocks in place, then
            spills LRU keys; both checkpoint through the snapshot files.
        fsync: ``os.fsync`` on every WAL commit and snapshot save, so
            acknowledged writes survive power loss — including across a
            checkpoint, where the snapshots are forced to disk before the
            WAL truncation that makes them load-bearing.
        group_commit: Whether a mutation may apply before its WAL record
            is committed.  By default (``False``) every mutation waits on
            its commit ticket before it applies (committing on the
            caller's thread when no commit is in flight), so a storage
            failure raises :class:`~repro.errors.DegradedError` with
            nothing applied.  ``True`` is the server's mode: a mutation
            applies once its record is *queued*, its durability is
            signalled by the ticket (:meth:`commit_ticket` / the server's
            ack gating), and :meth:`wal_barrier` blocks until everything
            queued so far is durable.  The log's bytes are the same
            either way.
        window_resolutions: Bucket widths (seconds) of the windowed
            plane — every key ingested through ``WINDOW_INGEST`` keeps
            one sketch ring per resolution (see :mod:`repro.windowed`).
            Always on (an idle ring costs nothing), so a WAL carrying
            windowed records can always replay.
        window_retention: Live bucket slots per ring (the TTL is
            ``retention * resolution`` seconds of wall clock).
        window_lateness: Out-of-order tolerance in seconds for windowed
            ingest (see :class:`~repro.windowed.WindowRing`).
        io_layer: The disk io layer every persistence object routes its
            bytes through (default: the real-disk pass-through).  Chaos
            tests inject a :class:`~repro.service.faultdisk.FaultyDisk`
            to script ENOSPC/EIO/bit-rot without touching a real device.
        min_free_bytes: Free-space threshold for leaving degraded mode —
            after an ENOSPC poisons the WAL the service stays read-only
            until the data dir's filesystem reports at least this much
            free space again.
    """

    def __init__(
        self,
        data_dir: Optional[str] = None,
        *,
        k: int = 32,
        hra: bool = False,
        seed: Optional[int] = 0,
        memory_budget: Optional[int] = None,
        fsync: bool = False,
        group_commit: bool = False,
        max_sessions: int = 4096,
        node_id: Optional[str] = None,
        window_resolutions=(60.0,),
        window_retention: int = 64,
        window_lateness: float = 0.0,
        io_layer=None,
        min_free_bytes: int = 8 << 20,
    ) -> None:
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.io = DEFAULT_IO if io_layer is None else io_layer
        self.min_free_bytes = min_free_bytes
        self._fsync = fsync
        #: Degraded read-only mode: set when storage stops accepting
        #: writes (ENOSPC, poisoned WAL).  While set, ingest sheds with
        #: RETRY_LATER and reads keep serving; cleared by
        #: :meth:`try_exit_degraded` once space returns.
        self.degraded_reason: Optional[str] = None
        self.degraded_since: Optional[float] = None
        self.degraded_entries = 0
        #: Snapshot files quarantined (moved aside as corrupt) and keys
        #: forgotten because their only copy was the quarantined file.
        self.quarantined_files = 0
        self.quarantined_keys: List[str] = []
        self._quarantine_log = RateLimiter(5.0)
        #: Cluster identity: surfaced in STATS/HEALTH so ring-aware
        #: clients and `cluster-status` can verify they reached the node
        #: the topology names (``None`` = standalone service).
        self.node_id = node_id
        #: The installed cluster topology (a ClusterMap, or ``None`` for a
        #: standalone service).  When set together with ``node_id``, ingest
        #: for keys this node does not own is refused with a
        #: ``STATUS_WRONG_TOPOLOGY`` redirect carrying the map, so stale
        #: clients re-route themselves after a reshard.
        self.topology = None
        self._topology_json: Optional[str] = None
        #: Keys mid-migration on this node (source side of a reshard).
        self._migrations: Dict[str, _Migration] = {}
        #: Seconds a migration lives without a coordinator heartbeat (a
        #: BEGIN or DRAIN) before it expires; a frozen key then thaws.
        self.migration_freeze_timeout = 5.0
        self._applied_seq: Dict[str, int] = {}
        self._snap_seq: Dict[str, int] = {}
        self._seq = 1
        self._last_ticket = None
        self._wait_commit = not group_commit
        self.wal_appends = 0
        #: Exactly-once dedup state (kept even for in-memory services, so
        #: retries within one process lifetime never double-count).
        self.sessions = SessionTable(max_sessions)
        if self.data_dir is None:
            if memory_budget is not None:
                raise InvalidParameterError(
                    "a memory_budget needs a data_dir to spill into "
                    "(in-memory services cannot evict without losing data)"
                )
            self.wal = None
            self.snapshots = None
            spill_save = spill_load = None
        else:
            self.wal = WriteAheadLog(self.data_dir / "wal.log", fsync=fsync, io=self.io)
            self.snapshots = SnapshotStore(self.data_dir / "snapshots", fsync=fsync, io=self.io)

            def spill_save(key: str, payload: bytes) -> None:
                seq = self._applied_seq.get(key, 0)
                self.snapshots.save(key, seq, payload)
                self._snap_seq[key] = seq

            def spill_load(key: str) -> Optional[bytes]:
                try:
                    loaded = self.snapshots.load(key)
                except SnapshotCorruptError as exc:
                    # The key's only copy is rotten: quarantine the file
                    # and forget the key, so the *next* access reads as
                    # UNKNOWN_KEY — the exact state cluster repair heals
                    # byte-identically from a healthy replica.  This
                    # access still fails (the store reports the key as
                    # missing from the spill target).
                    self.quarantine_snapshot(key, exc)
                    return None
                return None if loaded is None else loaded[1]

        self.store = SketchStore(
            k=k,
            hra=hra,
            seed=seed,
            memory_budget=memory_budget,
            spill_save=spill_save,
            spill_load=spill_load,
            on_pin=self._reseed_from_epoch,
        )
        #: The windowed plane: per-key time-bucketed sketch rings (its
        #: seeds derive from the store's per-key seeds, in a disjoint
        #: namespace, so plain and windowed determinism coexist).
        self.windows = WindowStore(
            resolutions=window_resolutions,
            retention=window_retention,
            lateness=window_lateness,
            k=k,
            hra=hra,
            seed_fn=self.store.derive_seed,
        )
        self._window_applied_seq: Dict[str, int] = {}
        self._window_snap_seq: Dict[str, int] = {}
        #: Ring snapshots live in their own store (FRW1 bundles under
        #: ``windows/``): a key's plain and windowed checkpoints advance
        #: independently, and neither plane's snapshot can shadow the
        #: other's WAL cover point.
        self.window_snapshots = (
            None
            if self.data_dir is None
            else SnapshotStore(self.data_dir / "windows", fsync=fsync, io=self.io)
        )
        if self.wal is not None:
            if self.wal.healed_bytes:
                log.warning(
                    "healed WAL torn tail: path=%s truncated_bytes=%d — a crash "
                    "mid-append left a partial final record; it was never durable "
                    "(never acknowledged when fsync is on), all earlier records "
                    "replay normally",
                    self.wal.path,
                    self.wal.healed_bytes,
                )
            self.sessions.load(self.data_dir / "sessions.bin")
            # Ring snapshots load BEFORE WAL replay (replay applies only
            # the records newer than each key's windowed cover point) and
            # re-pin their coin streams to the snapshot epoch, mirroring
            # the save side — bit-exact windowed recovery.
            loaded_windows = self.window_snapshots.load_all(
                on_corrupt=self._quarantine_corrupt_file
            )
            for key, (seq, payload) in loaded_windows.items():
                self.windows.restore(key, payload)
                self._window_snap_seq[key] = seq
                self._window_applied_seq[key] = seq
                self.windows.reseed_epoch(key, seq)
            self._seq = recover(
                self.store,
                self.wal,
                self.snapshots,
                self._applied_seq,
                self._snap_seq,
                self.sessions,
                window_apply=self._window_apply_replay,
                window_restore=self._window_restore,
                window_snap_seq=self._window_snap_seq,
                window_applied_seq=self._window_applied_seq,
                on_corrupt=self._quarantine_corrupt_file,
            )
            if self._window_snap_seq:
                # A truncated WAL no longer witnesses the sequences the
                # windowed snapshots were stamped with; never reuse them.
                self._seq = max(self._seq, max(self._window_snap_seq.values()) + 1)
        if self.data_dir is not None and (self.data_dir / "topology.json").exists():
            # Reload the topology this node had installed before the
            # restart, so a recovered node keeps refusing keys it handed
            # off (a stale client must not be able to resurrect them).
            self._load_topology(self.data_dir / "topology.json")
        self.started_at = time.time()
        self.ingested_values = 0
        self.query_count = 0
        self.merge_count = 0
        #: Background-scrub state (counters live here even when no scrub
        #: task runs — ``scrub_once()`` can always be called directly).
        from repro.service.scrub import Scrubber

        self.scrub = None if self.data_dir is None else Scrubber(self)

    # ------------------------------------------------------------------
    # Mutations (WAL first, then the store)
    # ------------------------------------------------------------------

    def _wal_append_many(self, records) -> int:
        """Append ``(op, key, payload)`` records under consecutive
        sequences in one WAL call; returns the first sequence.

        Without ``group_commit`` this waits on the commit ticket, so the
        caller applies only what is durable.  With it the records are
        only queued and the server gates their acks on the ticket.

        Callers stamp the applied-seq maps themselves: a key's stamp must
        be set just before *that* key's apply (see :meth:`ingest_groups`).
        """
        if self.degraded:
            raise DegradedError(
                f"read-only degraded mode ({self.degraded_reason}): write shed"
            )
        first = self._seq
        stamped = [(op, first + i, key, payload) for i, (op, key, payload) in enumerate(records)]
        self._seq = first + len(stamped)
        try:
            ticket = self.wal.append_many(stamped, wait=self._wait_commit)
        except Exception as exc:
            # The records never became replayable (a failed commit is
            # healed as a torn tail at next open); hand the sequences back
            # so the log carries no gap, then flip read-only.  Only a
            # storage failure degrades — a validation error (oversized
            # key) is the caller's problem, not the disk's.
            self._seq = first
            if not isinstance(exc, OSError) and self.wal.failed is None:
                raise
            self.enter_degraded(f"WAL append failed: {exc}")
            raise DegradedError(f"WAL append failed, entering degraded mode: {exc}") from exc
        self._last_ticket = ticket
        self.wal_appends += len(stamped)
        return first

    def _wal_append(self, op: int, key: str, payload: bytes) -> None:
        """Append one plain-plane record and stamp ``key``'s applied seq."""
        self._applied_seq[key] = self._wal_append_many(((op, key, payload),))

    def commit_ticket(self):
        """The pending commit ticket covering every WAL append so far.

        ``None`` when nothing is awaiting a commit — in-memory services,
        services that wait on every ticket before applying, or a drained
        queue.  The server releases ingest/merge acks only after this
        resolves.  A ticket that completed **with an exception** is still
        returned: the covered records never became durable, and mapping
        it to ``None`` would let the server ack writes the WAL lost.
        """
        ticket = self._last_ticket
        if ticket is None:
            return None
        if ticket.done() and ticket.exception() is None:
            return None
        return ticket

    def wal_barrier(self) -> None:
        """Block until every queued WAL record is durable (no-op in memory)."""
        if self.wal is not None:
            self.wal.barrier()

    # ------------------------------------------------------------------
    # Degraded read-only mode (storage faults)
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self.degraded_reason is not None

    @property
    def wal_failed(self) -> bool:
        """True when the WAL is poisoned (a write/commit failed)."""
        return self.wal is not None and self.wal.failed is not None

    @property
    def disk_free_bytes(self) -> Optional[int]:
        """Free bytes under the data dir (``None``: in-memory/unknown)."""
        if self.data_dir is None:
            return None
        return self.io.disk_free(self.data_dir)

    def enter_degraded(self, reason: str) -> None:
        """Flip read-only: ingest sheds with RETRY_LATER, reads serve.

        Idempotent — the first storage failure records the reason; later
        failures while already degraded change nothing.
        """
        if self.degraded:
            return
        self.degraded_reason = str(reason)
        self.degraded_since = time.time()
        self.degraded_entries += 1
        log.error(
            "entering degraded read-only mode: %s — ingest sheds with "
            "RETRY_LATER (nothing unacknowledged is lost; sequenced "
            "clients replay), reads keep serving; recovery is automatic "
            "once the disk accepts writes again",
            reason,
        )

    def try_exit_degraded(self) -> bool:
        """Attempt to leave degraded mode; returns True on success.

        The exit sequence keeps "acknowledged == replayable" intact:

        1. Free space must be back (``min_free_bytes`` under the data
           dir) — ENOSPC would just re-poison the fresh log.
        2. The poisoned WAL is closed and reopened.  Opening self-heals
           the failed append's torn tail — poisoning stopped all later
           appends, so the tear is genuinely the last record and was
           never acknowledged.
        3. A full checkpoint makes the in-memory state durable again.
           Group-commit batches that were *applied* but never committed
           (their acks were withheld) are thereby re-covered by
           snapshots, so the store and the fresh log agree byte-exactly.
        4. Only then does the flag clear and ingest resume.

        A failure at any step leaves the service degraded for the next
        probe tick to retry.
        """
        if not self.degraded:
            return True
        if self.wal is None:
            self._clear_degraded()
            return True
        free = self.disk_free_bytes
        if free is not None and free < self.min_free_bytes:
            return False
        try:
            self.wal.close()
            self.wal = WriteAheadLog(
                self.data_dir / "wal.log",
                fsync=self._fsync,
                max_queue=self.wal.max_queue,
                io=self.io,
            )
            if self.wal.healed_bytes:
                log.warning(
                    "degraded-mode exit healed the failed append: path=%s "
                    "truncated_bytes=%d (the record was never acknowledged)",
                    self.wal.path,
                    self.wal.healed_bytes,
                )
            self._last_ticket = None
            self.snapshot_all()
        except Exception as exc:
            log.warning(
                "degraded-mode exit attempt failed (%s); staying read-only", exc
            )
            return False
        self._clear_degraded()
        return True

    def _clear_degraded(self) -> None:
        log.warning(
            "leaving degraded mode after %.1fs (%s): storage accepts "
            "writes again, ingest resumes",
            time.time() - (self.degraded_since or time.time()),
            self.degraded_reason,
        )
        self.degraded_reason = None
        self.degraded_since = None

    # ------------------------------------------------------------------
    # Snapshot quarantine (corrupt files)
    # ------------------------------------------------------------------

    def quarantine_dir(self) -> Optional[Path]:
        return None if self.data_dir is None else self.data_dir / "quarantine"

    def _quarantine_move(self, path: Path) -> Optional[Path]:
        """Move a corrupt file under ``data_dir/quarantine/``."""
        qdir = self.quarantine_dir()
        if qdir is None:
            return None
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = qdir / f"{path.name}.{suffix}"
        try:
            path.replace(target)
        except OSError:
            return None
        self.quarantined_files += 1
        return target

    def _quarantine_corrupt_file(self, path, exc) -> None:
        """``on_corrupt`` hook for recovery/scrub: move the file aside.

        Rate-limited warn via the service logger — a directory full of
        rot must not flood the log line-per-file.
        """
        moved = self._quarantine_move(Path(path))
        should_emit, suppressed = self._quarantine_log.ready("quarantine")
        if should_emit:
            log.warning(
                "quarantined corrupt snapshot file: %s -> %s (%s)%s",
                path,
                moved,
                exc,
                f" [+{suppressed} similar suppressed]" if suppressed else "",
            )

    def quarantine_snapshot(self, key: str, exc) -> None:
        """Quarantine ``key``'s snapshot file and forget the key.

        Used when the corrupt file was the key's *only* copy (the key was
        spilled).  Afterwards the key reads as unknown — on the cluster
        plane ``repair()`` sees an ``n == 0`` replica and re-fetches the
        byte-identical payload from the healthiest peer.
        """
        path = self.snapshots.directory / spill_filename(key)
        if path.exists():
            self._quarantine_corrupt_file(path, exc)
        if self.store.forget_spilled(key):
            self._snap_seq.pop(key, None)
            self._applied_seq.pop(key, None)
            self.quarantined_keys.append(key)

    def ingest(self, key: str, values, *, session=None) -> int:
        """Apply one batch to ``key``; returns the key's total ``n``.

        Validation happens *before* the WAL append — a rejected batch
        (NaN, empty) must not poison replay.  ``session`` is an optional
        ``(session_id, max_frame_seq)`` pair: the batch came through the
        exactly-once sequenced path and its WAL record must carry the
        session mark so recovery rebuilds the dedup table (see
        :class:`~repro.service.resilience.SessionTable`).
        """
        return self.ingest_batches(key, (values,), session=session)

    def ingest_batches(self, key: str, arrays, *, session=None) -> int:
        """Several batches for ``key`` as ONE record and ONE apply (the
        concatenation), returning the key's total ``n``.  Raises the
        apply's own error, not its :class:`GroupApplyError` wrapper."""
        if len(arrays) == 1:
            array = np.ascontiguousarray(arrays[0], dtype=np.float64).reshape(-1)
        else:
            array = self.store.stage_concat(arrays)
        try:
            return self.ingest_groups(((key, array),), session=session)[0]
        except GroupApplyError as exc:
            raise exc.error from None

    def ingest_groups(self, groups, *, session=None, prevalidated: bool = False) -> List[int]:
        """Apply ``(key, values)`` groups in order as one unit; returns
        each group's ``n`` after it (a repeated key's acks are cumulative).

        The one apply path of every plain ingest (``ingest``,
        ``ingest_batches`` and the server's staged run).  ``session`` is
        the ``(sid, seq)`` (or ``None``) every group is logged under, or a
        list holding each group's own.

        1. validate — the keys, then one empty/NaN pass over all values
           (both skipped when ``prevalidated``: the server checks each
           frame as it decodes it); a bad group rejects the call before
           anything is logged;
        2. log — one degraded check, one WAL call enqueueing one
           ``WAL_INGEST`` (or, with a session, ``WAL_SEQ_INGEST``) record
           per group, in group order;
        3. apply — one ``store.update_many`` per group, exactly as replay
           applies one record; every budget checkpoint or spill it causes
           snapshots and reseeds the key, so recovery stays bit-exact.

        Each key's applied seq is stamped just before its own apply, never
        for the whole call up front: applying group *i* can spill a later
        group's key, and that spill snapshot must not claim a record that
        has not been applied yet (see :func:`~repro.service.persistence.recover`).

        Anything raised before step 3 means nothing was logged or applied.
        A group whose apply fails (a spilled key whose snapshot turns out
        corrupt) does not stop the others, whose records are already
        logged; the failed key's later groups in the call are skipped
        rather than applied without the earlier one.  The call then raises
        :class:`GroupApplyError` naming every failed group.  A failed
        record keeps its applied-seq stamp: live state never holds its
        values (the retry logs them anew), so a later snapshot of the key
        rightly claims to cover it and recovery skips it.
        """
        if not groups:
            return []
        if not prevalidated:
            for key, _values in groups:
                self._check_key(key)
            bad = _find_bad_batch([values for _key, values in groups])
            if bad is not None:
                index, reason = bad
                raise InvalidParameterError(
                    reason if len(groups) == 1 else f"group {index}: {reason}"
                )
        seq = None
        if self.wal is not None:
            sessions = session if isinstance(session, list) else [session] * len(groups)
            heads = {None: b""}
            records = []
            for (key, values), group_session in zip(groups, sessions):
                head = heads.get(group_session)
                if head is None:
                    head = heads[group_session] = pack_session_header(*group_session)
                records.append((
                    WAL_INGEST if group_session is None else WAL_SEQ_INGEST,
                    key,
                    head + values.astype("<f8", copy=False).tobytes(),
                ))
            seq = self._wal_append_many(records)
        store = self.store
        applied_seq = self._applied_seq
        results: List[Optional[int]] = [None] * len(groups)
        failed_keys = set()
        error: Optional[Exception] = None
        ingested = 0
        for index, (key, values) in enumerate(groups):
            if failed_keys and key in failed_keys:
                continue
            if seq is not None:
                applied_seq[key] = seq + index
            try:
                results[index] = store.update_many(key, values)
            except Exception as exc:
                failed_keys.add(key)
                error = error or exc
                continue
            ingested += values.size
        self.ingested_values += ingested
        if error is not None:
            raise GroupApplyError(error, results)
        return results

    def current_n(self, key: str) -> int:
        """``key``'s total count right now (``0`` for an unknown key).

        Duplicate sequenced frames are acked with the key's *current* n —
        the frame is already counted, so "n after this frame" is simply
        "n now".  Works for spilled keys without reloading them.
        """
        try:
            return int(self.store.key_stats(key)["n"])
        except (KeyError, ServiceError):
            return 0

    @property
    def wal_queue_depth(self) -> int:
        """Records queued behind the WAL writer (0 in memory)."""
        return 0 if self.wal is None else self.wal.queue_depth

    @staticmethod
    def _check_key(key: str) -> None:
        """Refuse to create the empty key or one too long to log.

        The wire ``STATS`` opcode reads an empty key as "server-wide", so
        an empty-keyed sketch would be ingestible yet unreachable for
        per-key stats; rejecting it at creation keeps every stored key
        addressable by every opcode.  A key over the WAL's 65535-byte cap
        is refused here, before anything is logged or applied — the log
        could never record it, nor a snapshot save it.
        """
        if not key:
            raise ServiceError(
                "the empty key is reserved (STATS uses it for server-wide stats)"
            )
        check_key_size(key)

    def merge(self, key: str, payload: bytes) -> int:
        """Union an ``FRQ1`` donor payload into ``key``; returns its ``n``."""
        self._check_key(key)
        # Decode first: a corrupt payload must fail before it reaches the WAL.
        from repro.fast import FastReqSketch

        donor = FastReqSketch.from_bytes(payload)
        if donor.k != self.store.k or donor.hra != self.store.hra or donor.n_bound is not None:
            # Every merge-incompatibility must be rejected HERE: once a
            # record reaches the WAL it is replayed on every restart, and a
            # record that cannot apply would brick recovery permanently.
            raise ServiceError(
                f"merge payload has k={donor.k}/hra={donor.hra}/"
                f"n_bound={donor.n_bound}; this service runs "
                f"k={self.store.k}/hra={self.store.hra}/n_bound=None"
            )
        if self.wal is not None:
            self._wal_append(WAL_MERGE, key, bytes(payload))
        n = self.store.merge_sketch(key, donor)
        self.merge_count += 1
        return n

    def payload(self, key: str) -> Tuple[int, bytes]:
        """``(n, FRQ1 payload)`` for ``key`` — the FETCH/repair read path.

        Read-only: the staging block is encoded as level-0 items without
        being drained, so no coin is spent and a key FETCHed between
        writes still recovers bit-exact.  Raises ``KeyError`` for unknown
        keys (mapped to ``UNKNOWN_KEY`` on the wire).
        """
        self._check_key(key)
        payload = self.store.payload(key)
        return self.current_n(key), payload

    # ------------------------------------------------------------------
    # Cluster topology & live migration (see repro.cluster.reshard)
    # ------------------------------------------------------------------

    def topology_json(self) -> str:
        """The installed topology as JSON (empty string when none)."""
        return self._topology_json or ""

    def install_topology(self, map_json: str) -> int:
        """Install (and persist) a cluster topology; returns its version.

        Installing the same or a newer map is always accepted; an *older*
        version is refused — the cutover protocol installs the new map on
        destinations first, and a laggard re-delivery of the old map must
        not roll a node back to claiming keys it already handed off.
        """
        # Lazy import: the service plane must not pull the cluster plane
        # in at module scope (repro.cluster imports the client, which
        # imports this module).
        from repro.cluster.ring import ClusterMap

        new_map = ClusterMap.from_json(map_json)
        if self.topology is not None and new_map.version < self.topology.version:
            raise ServiceError(
                f"refusing topology downgrade: v{self.topology.version} is "
                f"installed, v{new_map.version} was offered"
            )
        self.topology = new_map
        self._topology_json = new_map.to_json()
        if self.data_dir is not None:
            path = self.data_dir / "topology.json"
            tmp = path.with_name("topology.json.tmp")
            tmp.write_text(self._topology_json + "\n")
            os.replace(tmp, path)
        return new_map.version

    def _load_topology(self, path: Path) -> None:
        from repro.cluster.ring import ClusterMap

        try:
            self.topology = ClusterMap.load(path)
            self._topology_json = self.topology.to_json()
        except Exception as exc:
            # A torn topology file must not keep the node down — without a
            # map the node simply accepts everything, exactly like a node
            # that never saw a topology; the next install rewrites it.
            log.warning("ignoring unreadable topology file %s: %s", path, exc)

    def owns_key(self, key: str) -> bool:
        """Whether this node may serve ``key`` under the installed map.

        Vacuously true for standalone services (no topology or no
        ``node_id``).  A node absent from the installed map — the tail end
        of its own decommission — owns nothing.
        """
        if self.topology is None or self.node_id is None:
            return True
        if self.node_id not in self.topology:
            return False
        return any(
            node.node_id == self.node_id for node in self.topology.replicas(key)
        )

    def _check_migration(self, key: str) -> Optional[_Migration]:
        """``key``'s live migration state, expiring a stale one."""
        state = self._migrations.get(key)
        if state is None:
            return None
        if time.time() >= state.deadline:
            self._expire_migration(key)
            return None
        return state

    def _expire_migration(self, key: str) -> None:
        """Drop a migration whose coordinator stopped heartbeating.

        Auto-abort: a frozen key thaws and the source stays
        authoritative.  Every write shed while frozen was never acked, so
        nothing is lost by resuming normal ingest.
        """
        state = self._migrations.pop(key)
        if state.frozen:
            log.warning(
                "migration freeze for key %r expired without a commit; thawing",
                key,
            )
        else:
            log.warning("migration of key %r expired before its freeze; dropping it", key)

    def migrating_keys(self) -> int:
        """Live migrations on this node, after expiring stale ones."""
        migrations = self._migrations
        if migrations:
            now = time.time()
            for key in [key for key, state in migrations.items() if now >= state.deadline]:
                self._expire_migration(key)
        return len(migrations)

    def migration_active(self, key: str) -> bool:
        return self._check_migration(key) is not None

    def migration_frozen(self, key: str) -> bool:
        state = self._check_migration(key)
        return state is not None and state.frozen

    def migrate_begin(self, key: str) -> bytes:
        """Capture ``key``'s full state as an MB1 bundle; start its migration.

        The capture is atomic with respect to ingest (synchronous under
        the event loop): the bundle holds the key's FRQ1 payload, its
        per-session exactly-once high-water marks, and its FRW1 window
        bundle as of this instant.  Re-issuing BEGIN recaptures (a
        restarted transfer supersedes the old one); a live freeze is
        preserved, which is what makes the final post-freeze recapture a
        complete image of the key.  Every BEGIN re-arms the migration's
        deadline (:attr:`migration_freeze_timeout`).
        """
        self._check_key(key)
        has_sketch = key in self.store.keys()
        has_window = key in self.windows.keys()
        if not has_sketch and not has_window:
            raise KeyError(key)
        sketch = self.store.payload(key) if has_sketch else None
        window = self.windows.payload(key) if has_window else None
        marks = self.sessions.marks_for_key(key)
        state = self._check_migration(key)
        if state is None:
            state = self._migrations[key] = _Migration()
        state.deadline = time.time() + self.migration_freeze_timeout
        return wire.pack_migration_bundle(self.current_n(key), sketch, marks, window)

    def migrate_drain(self, key: str, *, freeze: bool = False) -> bool:
        """Whether ``key`` is frozen, after optionally freezing it.

        ``freeze=True`` flips the key to frozen — subsequent writes and
        merges are shed with ``RETRY_LATER`` until COMMIT/ABORT (or the
        deadline).  Every DRAIN extends the deadline: it is the
        coordinator's liveness heartbeat.  A key with no migration (never
        begun, committed, or expired) raises.
        """
        state = self._check_migration(key)
        if state is None:
            raise ServiceError(
                f"no migration in progress for key {key!r} "
                "(send MIGRATE BEGIN first, or it timed out)"
            )
        if freeze:
            state.frozen = True
        state.deadline = time.time() + self.migration_freeze_timeout
        return state.frozen

    def migrate_commit(self, key: str) -> None:
        """End ``key``'s migration (drop its freeze).  Idempotent."""
        self._migrations.pop(key, None)

    def migrate_abort(self, key: str) -> None:
        """Abandon ``key``'s migration; the source stays authoritative."""
        self._migrations.pop(key, None)

    def migrate_apply(self, key: str, bundle: bytes) -> int:
        """Install a pushed MB1 bundle as ``key``'s entire state.

        The destination side of a reshard.  REPLACE semantics — the
        decoded sketch *becomes* the key's summary, the shipped session
        marks fold into the dedup table (max-fold, so a replica that
        already saw newer client frames keeps its higher marks), the
        window bundle replaces the key's rings.  Replace-not-merge makes
        a retried push idempotent: applying the same bundle twice cannot
        double-count.  Durable via one ``WAL_MIGRATE_SET`` record carrying
        the bundle verbatim; every part is validated *before* the append
        so a record that cannot apply never reaches the log (same rule as
        :meth:`merge`).  Returns the key's resulting ``n``.
        """
        self._check_key(key)
        bundle = bytes(bundle)
        try:
            n, sketch, marks, window = wire.unpack_migration_bundle(bundle)
        except Exception as exc:
            raise ServiceError(f"bad migration bundle for key {key!r}: {exc}") from exc
        if sketch is not None:
            from repro.fast import FastReqSketch

            try:
                donor = FastReqSketch.from_bytes(sketch)
            except Exception as exc:
                raise ServiceError(
                    f"migration bundle for key {key!r} carries an undecodable "
                    f"FRQ1 payload: {exc}"
                ) from exc
            if (
                donor.k != self.store.k
                or bool(donor.hra) != self.store.hra
                or donor.n_bound is not None
            ):
                raise ServiceError(
                    f"migration payload has k={donor.k}/hra={donor.hra}/"
                    f"n_bound={donor.n_bound}; this service runs "
                    f"k={self.store.k}/hra={self.store.hra}/n_bound=None"
                )
        if window is not None:
            from repro.windowed.wire import unpack_rings

            try:
                unpack_rings(window, k=self.windows.k)
            except Exception as exc:
                raise ServiceError(
                    f"migration bundle for key {key!r} carries an undecodable "
                    f"FRW1 window bundle: {exc}"
                ) from exc
        if self.wal is not None:
            self._wal_append(WAL_MIGRATE_SET, key, bundle)
            if window is not None:
                self._window_applied_seq[key] = self._applied_seq[key]
        for sid, mark in marks.items():
            self.sessions.observe(sid, key, mark)
        if sketch is not None:
            self.store.replace_payload(key, sketch)
        if window is not None:
            self._window_restore(key, window)
        return self.current_n(key) if sketch is not None else int(n)

    def _window_restore(self, key: str, payload: bytes) -> None:
        """Install a migrated FRW1 bundle (live apply AND WAL replay).

        Epoch-reseeds to epoch 0 on every installer: FRW1 carries no RNG
        state, and each replica (and each replay of the same record)
        installs the identical bundle, so pinning every side to the same
        epoch keeps post-migration windowed compactions bit-identical.
        """
        self.windows.restore(key, payload)
        self.windows.reseed_epoch(key, 0)

    # ------------------------------------------------------------------
    # Windowed plane (see repro.windowed)
    # ------------------------------------------------------------------

    def window_ingest(
        self, key: str, timestamps, values, *, session=None, prevalidated: bool = False
    ):
        """Apply one (timestamps, values) batch to ``key``'s rings.

        Returns ``(accepted_total, events)``: the key's lifetime accepted
        count (the windowed ack — monotone, so duplicate sequenced frames
        ack consistently) and the buckets this batch closed (the server
        turns those into subscription pushes).  Validation happens before
        the WAL append, and the record carries the timestamps — replay
        re-buckets identically because bucketing is a pure function of
        the payload.  ``prevalidated`` skips the key and batch checks for
        a caller that ran both on these one-dimensional float64 arrays
        (the server, as it decodes the frame).
        """
        if prevalidated:
            ts, vals = timestamps, values
        else:
            self._check_key(key)
            ts = np.ascontiguousarray(timestamps, dtype=np.float64).reshape(-1)
            vals = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
            self.windows.validate(ts, vals)
        if self.wal is not None:
            if session is None:
                op, head = WAL_WINDOW_INGEST, b""
            else:
                op, head = WAL_SEQ_WINDOW_INGEST, pack_session_header(*session)
            # One copy: the header and both halves joined straight into
            # the record (``astype`` is a no-op on little-endian hosts).
            payload = b"".join(
                (head, ts.astype("<f8", copy=False).data, vals.astype("<f8", copy=False).data)
            )
            # Same log as the plain plane, separate applied-seq map.
            self._window_applied_seq[key] = self._wal_append_many(((op, key, payload),))
        accepted, events = self.windows.ingest(key, ts, vals, prevalidated=True)
        self.ingested_values += int(vals.size)
        return accepted, events

    def window_accepted(self, key: str) -> int:
        """``key``'s lifetime accepted count (duplicate-frame acks)."""
        return self.windows.accepted(key)

    def _window_apply_replay(self, key: str, payload) -> None:
        """Re-apply one windowed WAL payload (timestamps + values halves).

        A logged batch passed the validation of the version that logged
        it, so replay skips :meth:`WindowStore.validate`: its bucket-index
        rule is newer than some logs, and a batch an older version
        accepted and applied (``[1000.0, 5e18]`` on a 0.5 s ring) must
        still replay.
        """
        array = np.frombuffer(payload, dtype="<f8")
        if array.size % 2:
            raise ServiceError("windowed WAL payload has an odd float count")
        half = array.size // 2
        self.windows.ingest(key, array[:half], array[half:], prevalidated=True)

    def window_query(self, key: str, kind, resolution: float, start: float, end: float, points):
        """A horizon read: ``(n, eps, values, retained)`` over ``[start, end)``.

        Answers from the weighted union of one ring's overlapping buckets
        (a read-only :class:`~repro.windowed.ring.Horizon`: one sort, no
        merge, no coin) — the windowed twin of :meth:`query_points`.
        ``retained`` is the buckets' summed ``num_retained``.
        """
        kind_name = self._kind_name(kind)
        horizon = self.windows.horizon(key, start, end, resolution)
        if horizon.is_empty:
            raise EmptySketchError(
                f"no windowed data in [{start}, {end}) for key {key!r}"
            )
        values = self.store.evaluate(horizon, kind_name, points)
        self.query_count += 1
        return int(horizon.n), float(horizon.error_bound()), values, int(horizon.num_retained)

    # ------------------------------------------------------------------
    # Queries (index-backed; see repro.service.store.SketchStore.query)
    # ------------------------------------------------------------------

    #: Wire kind codes -> the store's kind names (derived, not re-listed).
    _KIND_NAMES = {code: name for name, code in wire.QUERY_KINDS.items()}

    @classmethod
    def _kind_name(cls, kind) -> str:
        name = cls._KIND_NAMES.get(wire.kind_code(kind))
        if name is None:
            raise ServiceError(f"unknown query kind {kind:#x}")
        return name

    def query(self, key: str, fractions):
        """``(n, error_bound, quantiles, num_retained)`` for ``key``."""
        self.query_count += 1
        return self.store.query(key, "quantiles", fractions)

    def cdf(self, key: str, split_points):
        """``(n, error_bound, masses, num_retained)`` — one extra mass entry."""
        self.query_count += 1
        return self.store.query(key, "cdf", split_points)

    def rank(self, key: str, values):
        """``(n, error_bound, ranks, num_retained)`` — ranks as exact f64."""
        self.query_count += 1
        return self.store.query(key, "ranks", values)

    def query_points(self, key: str, kind, points, cache: Optional[dict] = None):
        """One ``MULTI_QUERY`` request: ``(n, eps, values, retained)``.

        ``cache`` (owned by the store) lets every request in one frame
        share a single store lookup (and a single LRU touch / spill
        reload, error bound and retained count) per key — the per-frame
        reuse the batched read path is built around.
        """
        kind_name = self._kind_name(kind)
        self.query_count += 1
        return self.store.query(key, kind_name, points, cache)

    def query_batch(self, key: str, kind, points):
        """A uniform ``MULTI_QUERY`` frame: one vectorized engine call."""
        result = self.store.query_batch(key, self._kind_name(kind), points)
        self.query_count += int(points.shape[0])
        return result

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _epoch_seed(self, key: str, seq: int) -> Optional[int]:
        """The deterministic RNG seed for ``key``'s post-``seq`` coin stream."""
        base = self.store.derive_seed(key)
        if base is None:
            return None
        return (base ^ (seq * 0x9E3779B97F4A7C15)) & (2**63 - 1)

    def _reseed_from_epoch(self, key: str, sketch) -> None:
        """Pin ``sketch``'s coin stream to its durable history.

        The store's ``on_pin`` hook: called after
        :meth:`SketchStore.checkpoint` writes a snapshot (``snapshot_all``,
        the budget's in-place checkpoint, the scrub's heal) and after one
        is loaded (recovery/reload side).  ``FRQ1`` does not carry RNG
        state, so without this a key recovered from a snapshot plus a WAL
        tail would replay its post-snapshot compactions with different
        coins and settle on slightly different (still in-guarantee)
        answers.  Re-seeding both sides from ``(key, snapshot seq)`` makes
        the coin stream a deterministic function of the key's durable
        history, so recovery is bit-exact in every case.  Skipped for
        unseeded stores (no determinism was promised).
        """
        seed = self._epoch_seed(key, self._snap_seq.get(key, 0))
        if seed is None:
            return
        sketch.reseed(seed)

    def snapshot_all(self) -> int:
        """Checkpoint every dirty key, then truncate the WAL.

        Returns the number of snapshot files written.  Spilled keys are
        clean by construction (eviction snapshots them); resident keys are
        dirty when records newer than their snapshot exist.  After the
        pass every WAL record is covered by some snapshot, so the log
        resets.  Synchronous end to end — under asyncio this cannot
        interleave with a mutation (see the module docstring).
        """
        if self.snapshots is None:
            return 0
        written = 0
        for key in self.store.resident_keys:
            if self._applied_seq.get(key, 0) <= self._snap_seq.get(key, -1):
                continue
            self.store.checkpoint(key)
            written += 1
        # Windowed rings checkpoint as FRW1 bundles in their own store,
        # then re-pin their coin streams to the snapshot epoch — the same
        # save-side reseed the load side applies, so the post-snapshot
        # WAL tail replays with identical coins.
        if self.window_snapshots is not None:
            for key in self.windows.keys():
                applied = self._window_applied_seq.get(key, 0)
                if applied <= self._window_snap_seq.get(key, -1):
                    continue
                self.windows.flush(key)
                self.window_snapshots.save(key, applied, self.windows.payload(key))
                self._window_snap_seq[key] = applied
                written += 1
                self.windows.reseed_epoch(key, applied)
        # Persist the session high-water marks BEFORE truncating: the WAL
        # records that carried them are about to disappear, and a crash
        # between save and truncate is harmless (replay re-observes the
        # same marks — max-fold is idempotent).
        self.sessions.save(self.data_dir / "sessions.bin", fsync=self.wal.fsync)
        self.wal.truncate()
        return written

    def close(self, *, snapshot: bool = True) -> None:
        """Release file handles; by default checkpoint first."""
        if snapshot and self.wal is not None:
            self.snapshot_all()
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self, key: Optional[str] = None) -> dict:
        if key:
            return self.store.key_stats(key)
        report = {
            "version": __version__,
            "node_id": self.node_id,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "ingested_values": self.ingested_values,
            "query_count": self.query_count,
            "merge_count": self.merge_count,
            "durable": self.wal is not None,
            "wal_bytes": self.wal.size_bytes if self.wal is not None else 0,
            "wal_healed_bytes": self.wal.healed_bytes if self.wal is not None else 0,
            "wal_appends": self.wal_appends,
            "next_seq": self._seq,
            "sessions": len(self.sessions),
            "topology_version": None if self.topology is None else self.topology.version,
            "migrating_keys": self.migrating_keys(),
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "degraded_entries": self.degraded_entries,
            "disk_free_bytes": self.disk_free_bytes,
            "quarantined_files": self.quarantined_files,
            "quarantined_keys": len(self.quarantined_keys),
        }
        if self.scrub is not None:
            report["scrub"] = self.scrub.stats()
        if self.wal is not None:
            wal_stats = self.wal.stats()
            report["wal_queue_depth"] = wal_stats.pop("queue_depth")
            report["group_commit"] = wal_stats
        else:
            report["wal_queue_depth"] = 0
        report.update(self.store.stats())
        report["windowed"] = self.windows.stats()
        return report


class _Connection(asyncio.BufferedProtocol):
    """One client connection on the pipelined hot path.

    A :class:`asyncio.BufferedProtocol`: the kernel's ``recv`` lands
    directly in the connection's parse buffer (:meth:`get_buffer` hands
    the transport the writable tail), so inbound bytes are copied exactly
    once — kernel to buffer — and one syscall can deliver far more than
    the stream-reader's fixed chunk.  :meth:`buffer_updated` parses every
    complete frame as a zero-copy :class:`memoryview`, hands the whole
    batch to the server's coalescing dispatcher, then compacts.
    Responses are staged per batch and written in request order; a batch
    whose WAL records are still in the group-commit queue parks behind
    its commit ticket in :attr:`_outq` (earlier pending batches keep
    later ready ones queued, so ordering survives mixed workloads).
    """

    __slots__ = (
        "server",
        "transport",
        "_buf",
        "_rpos",
        "_wpos",
        "_outq",
        "_close_after_flush",
        "session_id",
        "_rejected",
        "_tick_backlog",
    )

    #: Initial receive-buffer size; grows to fit the largest frame seen.
    #: Small on purpose — mostly-idle connections in a many-client
    #: deployment should not pin megabytes each; a pipelining connection
    #: pays a one-time geometric growth instead.
    _INITIAL_BUFFER = 1 << 16
    #: Minimum writable tail handed to the transport per recv.
    _MIN_RECV = 1 << 16
    #: Socket receive-buffer request (large windows without GIL ping-pong).
    _SO_RCVBUF = 1 << 21

    def __init__(self, server: "QuantileServer") -> None:
        self.server = server
        self.transport = None
        self._buf = bytearray(self._INITIAL_BUFFER)
        self._rpos = 0  # parse offset
        self._wpos = 0  # fill offset
        #: Ordered (ticket, payload) pairs awaiting write.
        self._outq: deque = deque()
        self._close_after_flush = False
        #: Exactly-once session granted via HELLO (None until negotiated).
        self.session_id: Optional[str] = None
        self._rejected = False
        #: Unparsed bytes at the start of the current tick — the overload
        #: watermark input (capacity never shrinks, so it is useless here).
        self._tick_backlog = 0

    # -- asyncio.BufferedProtocol hooks --------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        server = self.server
        if server.draining or (
            server.max_connections is not None
            and len(server._transports) >= server.max_connections
        ):
            # Refuse at the door with a retryable error so the client's
            # backoff loop can come back, then close.  The connection is
            # never registered — it does not count against the limit and
            # its bytes are ignored.
            self._rejected = True
            server.rejected_connections += 1
            reason = "draining" if server.draining else "connection limit reached"
            transport.write(
                wire.encode_frame(
                    wire.error_body(wire.STATUS_RETRY_LATER, f"{reason}; retry later")
                )
            )
            transport.close()
            return
        server.connections += 1
        server._transports.add(transport)
        server._conns.add(self)
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                import socket as _socket

                sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_RCVBUF, self._SO_RCVBUF)
            except OSError:  # pragma: no cover - platform quirk, not fatal
                pass

    def connection_lost(self, exc) -> None:
        self.server._transports.discard(self.transport)
        self.server._conns.discard(self)
        self.server.subscriptions.drop_connection(self)
        self._outq.clear()

    def eof_received(self):
        # A half-closing client (write_eof, then read acks) must still
        # receive everything owed — including acks parked behind a
        # pending group-commit ticket.  Keep the transport open and close
        # once the output queue drains.
        self._close_after_flush = True
        self._flush_outq()
        return True

    def pause_writing(self) -> None:
        # The kernel send buffer is full: stop reading new requests so a
        # slow reader cannot balloon our response queue.
        if self.transport is not None:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        if self.transport is not None:
            self.transport.resume_reading()

    def get_buffer(self, sizehint: int) -> memoryview:
        buf = self._buf
        free = len(buf) - self._wpos
        if free < self._MIN_RECV:
            pending = self._wpos - self._rpos
            if self._rpos:
                # Move the unparsed tail (at most one partial frame) to
                # the front; capacity is preserved, no reallocation.
                buf[:pending] = bytes(memoryview(buf)[self._rpos : self._wpos])
                self._rpos = 0
                self._wpos = pending
                free = len(buf) - pending
            if free < self._MIN_RECV:
                # A frame larger than the buffer is mid-flight: grow to
                # fit its declared length (bounded by MAX_FRAME + header).
                needed = self._MIN_RECV
                if pending >= 4:
                    (length,) = wire._LEN.unpack_from(buf, 0)
                    if length <= wire.MAX_FRAME:
                        needed = max(needed, 4 + length - pending)
                buf.extend(bytes(needed + len(buf)))  # geometric growth
        return memoryview(buf)[self._wpos :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._rejected:
            return
        try:
            self._wpos += nbytes
            self._tick_backlog = self._wpos - self._rpos
            buf = self._buf
            frames: List[memoryview] = []
            view = memoryview(buf)
            pos = self._rpos
            end = self._wpos
            oversized: Optional[int] = None
            while end - pos >= 4:
                (length,) = wire._LEN.unpack_from(buf, pos)
                if length > wire.MAX_FRAME:
                    oversized = length
                    break
                if end - pos - 4 < length:
                    break
                frames.append(view[pos + 4 : pos + 4 + length])
                pos += 4 + length
            if frames:
                # Dispatch is synchronous: every frame's values are copied
                # into sketches/WAL payloads before we return, so the
                # views can be released and the buffer compacted.
                payload, ticket = self.server._process_frames(frames, self)
            else:
                payload, ticket = b"", None
            for frame in frames:
                frame.release()
            view.release()
            if pos == self._wpos:
                self._rpos = self._wpos = 0
            else:
                self._rpos = pos
            if payload:
                self._enqueue(ticket, payload)
            if oversized is not None:
                self._enqueue(
                    None,
                    wire.encode_frame(
                        wire.error_body(
                            wire.STATUS_BAD_REQUEST,
                            f"frame of {oversized} bytes exceeds cap {wire.MAX_FRAME}",
                        )
                    ),
                )
                self._close_after_flush = True
                self._flush_outq()
        except Exception:  # pragma: no cover - never kill the event loop
            log.exception("unhandled error in connection parse loop; closing connection")
            if self.transport is not None:
                self.transport.close()

    # -- ordered, commit-gated response writes -------------------------

    def _enqueue(self, ticket, payload: bytes) -> None:
        if ticket is None and not self._outq:
            if self.transport is not None:
                self.transport.write(payload)
            return
        self._outq.append((ticket, payload))
        if ticket is not None:
            # Resolved on the WAL writer thread; hop back to the loop.
            loop = self.server._loop
            ticket.add_done_callback(
                lambda _fut: loop.call_soon_threadsafe(self._flush_outq)
            )
        self._flush_outq()

    def _flush_outq(self) -> None:
        transport = self.transport
        while self._outq:
            ticket, payload = self._outq[0]
            if ticket is not None:
                if not ticket.done():
                    return
                if ticket.exception() is not None:
                    # The group commit failed (disk full, ...): the staged
                    # acks are lies now.  Drop the connection — the client
                    # sees a transport error and knows the batch outcome
                    # is indeterminate; recovery replays only what commit-
                    # ted.  Never send an OK ack for a lost record.
                    log.error(
                        "WAL group commit failed: %s; dropping connection "
                        "instead of acking",
                        ticket.exception(),
                    )
                    # The WAL is poisoned (every later commit would fail
                    # too): flip the whole server read-only rather than
                    # letting each connection rediscover the corpse.
                    self.server.service.enter_degraded(
                        f"WAL group commit failed: {ticket.exception()}"
                    )
                    self._outq.clear()
                    if transport is not None:
                        transport.abort()
                    return
            self._outq.popleft()
            if transport is not None:
                transport.write(payload)
        if self._close_after_flush and transport is not None:
            transport.close()


class QuantileServer:
    """The asyncio TCP front for a :class:`QuantileService`.

    Args:
        service: The service to expose (owned by the caller).
        host, port: Bind address; port ``0`` picks a free port (read it
            back from :attr:`port` after :meth:`start`).
        snapshot_interval: Seconds between periodic ``snapshot_all``
            passes (``None`` disables; the ``SNAPSHOT`` opcode and
            graceful stop still checkpoint).
        max_connections: Cap on concurrently open connections; arrivals
            past it are refused with ``STATUS_RETRY_LATER`` (``None`` =
            unlimited).
        overload: An :class:`~repro.service.resilience.OverloadPolicy`
            deciding when ingest is shed with ``STATUS_RETRY_LATER``.
            Defaults to ``OverloadPolicy()``; pass ``None`` to disable
            shedding entirely.
        drain_timeout: Default deadline (seconds) for a graceful drain —
            how long :meth:`stop` waits for in-flight acks to flush.
        scrub_interval: Seconds between background integrity scrub
            passes over retained snapshots and the WAL (``None``
            disables; durable services only).
        degraded_probe_interval: Cadence (seconds) of the degraded-mode
            probe, which notices a poisoned WAL and attempts
            ``try_exit_degraded`` once the disk recovers.
    """

    def __init__(
        self,
        service: QuantileService,
        *,
        host: str = "127.0.0.1",
        port: int = 7379,
        snapshot_interval: Optional[float] = None,
        max_connections: Optional[int] = None,
        overload=_DEFAULT_OVERLOAD,
        drain_timeout: float = 10.0,
        scrub_interval: Optional[float] = None,
        degraded_probe_interval: float = 0.5,
    ) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.snapshot_interval = snapshot_interval
        self.max_connections = max_connections
        self.overload = OverloadPolicy() if overload is _DEFAULT_OVERLOAD else overload
        self.drain_timeout = drain_timeout
        self.scrub_interval = scrub_interval
        self.degraded_probe_interval = degraded_probe_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._snapshot_task: Optional[asyncio.Task] = None
        self._scrub_task: Optional[asyncio.Task] = None
        self._probe_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._transports: set = set()
        self._conns: set = set()
        self.connections = 0
        #: True once a graceful drain began: no new connections, all
        #: ingest shed, reads still answered until the deadline.
        self.draining = False
        #: Ingest frames refused RETRY_LATER at admit: tick shed, freeze, floor.
        self.shed_count = 0
        #: Connections refused at the door (limit reached or draining).
        self.rejected_connections = 0
        self._stopped = False
        self._snapshot_log_limit = RateLimiter(30.0)
        #: Per-opcode frame counts (STATS: observe the pipeline in prod).
        self.op_counts: Dict[str, int] = {}
        #: Live SUBSCRIBE registrations (the server-push surface).
        self.subscriptions = SubscriptionHub()

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.snapshot_interval is not None and self.service.wal is not None:
            self._snapshot_task = asyncio.ensure_future(self._periodic_snapshots())
        if self.scrub_interval is not None and self.service.scrub is not None:
            self._scrub_task = asyncio.ensure_future(self._periodic_scrub())
        if self.service.wal is not None:
            self._probe_task = asyncio.ensure_future(self._degraded_probe())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(
        self, *, snapshot: bool = True, drain: bool = False, drain_timeout: Optional[float] = None
    ) -> None:
        """Stop accepting, drop connections, optionally checkpoint.

        ``snapshot=False`` models a crash: durable state is whatever the
        WAL and existing snapshots already hold (the recovery tests lean
        on this).

        ``drain=True`` is the graceful path (SIGTERM): stop accepting,
        shed new ingest with ``STATUS_RETRY_LATER``, wait up to
        ``drain_timeout`` for every connection's staged acks to flush
        (including acks parked behind group-commit tickets), barrier the
        WAL, then close.  Clients with retry policies fail over cleanly —
        every ack they hold is durable, everything shed was never applied.
        """
        if self._stopped:
            return
        self._stopped = True
        self.draining = True
        for attr in ("_snapshot_task", "_scrub_task", "_probe_task"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, attr, None)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            deadline = self._loop.time() + (
                self.drain_timeout if drain_timeout is None else drain_timeout
            )
            while any(conn._outq for conn in self._conns):
                if self._loop.time() >= deadline:
                    log.warning(
                        "drain deadline reached with %d connections still "
                        "flushing; closing them",
                        sum(1 for conn in self._conns if conn._outq),
                    )
                    break
                await asyncio.sleep(0.02)
            try:
                # Off-loop: the barrier blocks on the WAL writer thread.
                await self._loop.run_in_executor(None, self.service.wal_barrier)
            except ServiceError as exc:  # pragma: no cover - poisoned WAL
                log.error("WAL barrier failed during drain: %s", exc)
        for transport in list(self._transports):
            transport.close()
        self._transports.clear()
        self._conns.clear()
        self.service.close(snapshot=snapshot)

    async def _periodic_snapshots(self) -> None:
        while True:
            await asyncio.sleep(self.snapshot_interval)
            if self.service.degraded:
                # The disk already refused writes; hammering it with a
                # full checkpoint just burns the rate-limit budget.  The
                # degraded probe checkpoints on recovery.
                continue
            try:
                self.service.snapshot_all()
            except Exception as exc:
                # A transient failure (disk full, permission blip) must not
                # kill the checkpoint loop for the rest of the process —
                # the WAL keeps everything durable; report (rate-limited:
                # one line per window, not one per attempt) and retry.
                emit, suppressed = self._snapshot_log_limit.ready("periodic-snapshot")
                if emit:
                    log.warning(
                        "periodic snapshot failed (will retry): %s%s",
                        exc,
                        f" ({suppressed} repeats suppressed)" if suppressed else "",
                    )

    async def _periodic_scrub(self) -> None:
        """Run one integrity pass per ``scrub_interval`` seconds.

        ``scrub_once`` mutates service state (quarantine, snapshot
        rewrite), so it runs on the event loop like every other mutation
        — a pass over a few hundred snapshots is milliseconds.
        """
        while True:
            await asyncio.sleep(self.scrub_interval)
            if self.service.degraded:
                continue  # the disk is the problem; scrubbing it isn't
            try:
                self.service.scrub.scrub_once()
            except Exception as exc:  # pragma: no cover - defensive
                log.warning("background scrub pass failed (will retry): %s", exc)

    async def _degraded_probe(self) -> None:
        """Watch for a poisoned WAL; attempt recovery while degraded.

        Two jobs on one cadence: (1) a commit failure poisons the
        WAL on the writer thread — if no subsequent write has tripped
        ``enter_degraded`` yet, do it here so HEALTH flips promptly;
        (2) while degraded, call ``try_exit_degraded`` each tick — it
        re-checks free space and rebuilds the WAL, so recovery happens
        without operator action the moment the disk clears.
        """
        while True:
            await asyncio.sleep(self.degraded_probe_interval)
            service = self.service
            try:
                if not service.degraded and service.wal_failed:
                    service.enter_degraded(f"WAL poisoned: {service.wal.failed}")
                elif service.degraded:
                    service.try_exit_degraded()
            except Exception as exc:  # pragma: no cover - defensive
                log.warning("degraded-mode probe failed (will retry): %s", exc)

    # ------------------------------------------------------------------
    # Batch dispatch: coalescing + commit gating
    # ------------------------------------------------------------------

    def _count_op(self, op: int) -> None:
        name = wire.OP_NAMES.get(op, f"op_{op:#x}")
        self.op_counts[name] = self.op_counts.get(name, 0) + 1

    def _topology_reject(self, key: str) -> Optional[bytes]:
        """A ``WRONG_TOPOLOGY`` redirect body when this node does not own
        ``key`` under the installed map, else ``None``.  The body carries
        the map itself so the client refreshes and re-routes in one round
        trip."""
        message = self._unowned(key)
        if message is None:
            return None
        return wire.wrong_topology_body(message, self.service.topology_json())

    def _unowned(self, key: str) -> Optional[str]:
        """Why this node may not serve ``key``, or ``None`` if it owns it."""
        service = self.service
        if service.owns_key(key):
            return None
        return (
            f"node {service.node_id!r} does not own key {key!r} under "
            f"topology v{service.topology.version}"
        )

    def _shed_body(self, conn) -> Optional[bytes]:
        """This tick's ``RETRY_LATER`` answer to ingest, or ``None`` when
        ingest may proceed.  (Reads always pass; see OverloadPolicy.)"""
        service = self.service
        if self.draining:
            reason = "draining"
        elif service.degraded:
            # Read-only degraded mode (full/failing disk): every write
            # path sheds before it can touch the WAL.
            reason = f"degraded ({service.degraded_reason})"
        elif self.overload is not None and self.overload.should_shed(
            wal_queue_depth=service.wal_queue_depth,
            buffer_bytes=conn._tick_backlog,
        ):
            reason = "overloaded"
        else:
            return None
        return wire.error_body(wire.STATUS_RETRY_LATER, f"{reason}; ingest shed, retry later")

    def _process_frames(self, frames, conn):
        """Dispatch one tick's worth of frames; returns ``(payload, ticket)``.

        ``payload`` is every response frame, encoded and joined in request
        order; ``ticket`` (or ``None``) is the group-commit ticket the
        write must wait for.

        All six ingest opcodes share one pipeline: :meth:`_decode_ingest`
        (every per-frame check, so one bad frame never fails another),
        :meth:`_admit` (shed, route, freeze, dedup), then :meth:`_stage`
        into the tick's run.  A single-key frame extends the run's last
        group when that group holds single-key frames of the same key and
        session: one WAL record and one ``update_many`` for a burst, acks
        from the cumulative counts.  :meth:`_flush` applies the run with
        ONE :meth:`QuantileService.ingest_groups` call before any frame
        that is not plain ingest (windowed frames then apply at once), before
        admitting a duplicate, and at tick end — so a connection's requests
        always observe their own program order, and every frame is admitted
        and applied within one run.
        """
        service = self.service
        slots: List[Optional[bytes]] = [None] * len(frames)
        run = _Run()
        appends_before = service.wal_appends
        shed_body = self._shed_body(conn)
        #: Routing guards engage only when a topology is installed or a
        #: migration is live — standalone services skip them entirely.
        routed = service.topology is not None or service.migrating_keys() > 0
        for index, frame in enumerate(frames):
            if not len(frame):
                self._count_op(0)
                slots[index] = wire.error_body(wire.STATUS_BAD_REQUEST, "empty request frame")
                continue
            op = frame[0]
            self._count_op(op)
            shape = _INGEST_OPS.get(op)
            if shape is None:
                self._flush(run, slots)
                if op == wire.OP_SUBSCRIBE:
                    slots[index] = self._subscribe(frame, conn)
                elif op == wire.OP_HELLO:
                    slots[index] = self._hello(frame, conn)
                else:
                    slots[index] = self._dispatch(frame)
                continue
            sequenced, multi, windowed = shape
            try:
                seq, groups, timestamps = self._decode_ingest(frame, conn, *shape)
            except Exception as exc:
                slots[index] = self._error_response(exc)
                continue
            if windowed:
                self._flush(run, slots)
            sid = conn.session_id if sequenced else None
            refusal, marks = self._admit(run, slots, groups, sid, seq, shed_body, routed)
            if refusal is not None:
                slots[index] = refusal
                continue
            if windowed:
                slots[index] = self._window_apply(groups[0], timestamps, sid, seq, marks)
            else:
                self._stage(run, index, groups, sid, seq, marks, multi)
        self._flush(run, slots)

        out = bytearray()
        for body in slots:
            out += wire._LEN.pack(len(body))
            out += body
        ticket = (
            service.commit_ticket() if service.wal_appends != appends_before else None
        )
        # The bytearray is fresh per tick, so hand it to transport.write
        # as-is — no defensive bytes() copy on the hot path.
        return out, ticket

    def _decode_ingest(self, frame, conn, sequenced, multi, windowed):
        """Decode and check one ingest frame: ``(seq or None, groups,
        timestamps or None)``, a single-key frame being one group.  Raises
        when the frame itself is bad: truncated or with trailing bytes,
        the empty key, an empty or NaN batch (one scan per frame; a
        multi-key frame is rejected whole, naming the group), a bad
        windowed batch, no session."""
        seq, offset = wire.unpack_seq(frame, 1) if sequenced else (None, 1)
        timestamps = None
        if multi:
            groups = wire.unpack_multi_ingest(frame, offset)
        elif windowed:
            key, timestamps, values = wire.unpack_window_ingest(frame, offset)
            self.service.windows.validate(timestamps, values)
            groups = [(key, values)]
        else:
            key, offset = wire.unpack_key(frame, offset)
            values, offset = wire.unpack_values(frame, offset)
            if offset != len(frame):
                raise ServiceError(f"{len(frame) - offset} trailing bytes after the ingest values")
            groups = [(key, values)]
        for key, _values in groups:
            QuantileService._check_key(key)
        bad = None if windowed else _find_bad_batch([values for _key, values in groups])
        if bad is not None:
            if not multi:
                raise InvalidParameterError(bad[1])
            raise ServiceError(f"{wire.OP_NAMES[frame[0]].upper()} group {bad[0]}: {bad[1]}")
        if sequenced and conn.session_id is None:
            raise ServiceError(
                "sequenced ingest requires an exactly-once session (send HELLO first)"
            )
        return seq, groups, timestamps

    def _admit(self, run, slots, groups, sid, seq, shed_body, routed):
        """Admit one decoded ingest frame; returns ``(refusal, marks)``.

        ``refusal`` answers the whole frame when none of it may apply: a
        redirect for a key this node does not own, or ``RETRY_LATER``
        (counted once in ``shed_count``) when the tick sheds ingest or a
        key is frozen for a cutover.  Else ``marks`` maps each key of a
        sequenced frame to its mark before this frame, or to ``None`` for
        a duplicate (acked, never re-applied); it is empty unsequenced.

        The freeze is frame-constant, decided BEFORE any admit:
        ``ADMIT_APPLY`` advances a mark at once, so mixed per-key verdicts
        could advance one key's mark and then shed the frame, whose retry
        would then be deduplicated into an ack for values never counted.
        A frame holding a duplicate flushes the run first, so the ack
        counts every earlier frame of the tick and the admit sees any mark
        a failed flush rolled back.
        """
        service = self.service
        if routed:
            # Redirect BEFORE admit: the retry carries the same seq to the
            # new owner, whose dedup marks arrived with the migrated state.
            for key, _values in groups:
                reject = self._topology_reject(key)
                if reject is not None:
                    if sid is not None:
                        service.sessions.release_redirected(sid, seq)
                    return reject, None
                if shed_body is None and service._migrations and service.migration_frozen(key):
                    shed_body = wire.error_body(
                        wire.STATUS_RETRY_LATER,
                        f"key {key!r} is frozen for a topology cutover; retry later",
                    )
        marks: Dict[str, Optional[int]] = {}
        if sid is not None:
            sessions = service.sessions
            prevs = {key: sessions.high_water(sid, key) for key, _values in groups}
            if any(seq <= prev for prev in prevs.values()):
                self._flush(run, slots)
                prevs = {key: sessions.high_water(sid, key) for key in prevs}
            for key, prev in prevs.items():
                verdict = sessions.admit(sid, key, seq, shedding=shed_body is not None)
                if verdict is ADMIT_SHED:
                    # No key of the frame applied (see SessionTable.admit:
                    # shedding is frame-constant, the floor per session).
                    break
                marks[key] = prev if verdict is ADMIT_APPLY else None
            else:
                return None, marks
        elif shed_body is None:
            return None, marks
        self.shed_count += 1
        if shed_body is None:  # the session's shed floor refused the frame
            shed_body = wire.error_body(wire.STATUS_RETRY_LATER, "ingest shed, retry later")
        return shed_body, None

    def _stage(self, run, index, groups, sid, seq, marks, multi) -> None:
        """Join one admitted plain frame (response slot ``index``) to the
        tick's run; :meth:`_flush` answers it."""
        segments = run.segments
        if multi:
            acks = None
            if None in marks.values():
                # Duplicates (the run was flushed at admit): their counts now.
                current_n = self.service.current_n
                acks = [None if marks[key] is not None else current_n(key) for key, _v in groups]
                groups = [group for group, ack in zip(groups, acks) if ack is None]
            segments.append(_Segment(groups, sid, seq, marks, False))
            run.frames.append((index, segments[-1], acks, True))
            return
        ((key, values),) = groups
        if marks.get(key, 0) is None:
            run.frames.append((index, None, self.service.current_n(key), False))
            return
        last = segments[-1] if segments else None
        if last is None or last.batches is None or last.groups[0][0] != key or last.sid != sid:
            last = _Segment(groups, sid, seq, marks, True)
            segments.append(last)
        else:
            last.batches.append(values)
            last.size += int(values.size)
            last.seq = seq
        run.frames.append((index, last, last.size, False))

    def _flush(self, run, slots) -> None:
        """Apply the staged run with ONE ``ingest_groups`` call (each group
        one record under its segment's ``(sid, highest seq)``) and answer
        every frame staged in it.

        A failure before anything was logged (degraded mode, a WAL error)
        fails every group; a :class:`GroupApplyError` only the groups it
        names.  Failed groups' marks roll back; their frames get the error.
        """
        segments, frames = run.segments, run.frames
        if not frames:
            return
        run.segments, run.frames = [], []
        # Coalesced segments share one staging scratch (a view: the WAL
        # encode and the sketch copy it); other groups stay frame views.
        coalesced = [s for s in segments if s.batches is not None and len(s.batches) > 1]
        flat = self.service.store.stage_concat([b for s in coalesced for b in s.batches])
        offset = 0
        for segment in coalesced:
            segment.groups = [(segment.groups[0][0], flat[offset : offset + segment.size])]
            offset += segment.size
        groups, sessions = [], []
        for segment in segments:
            groups += segment.groups
            session = None if segment.sid is None else (segment.sid, segment.seq)
            sessions += [session] * len(segment.groups)
        failure = None
        try:
            results = self.service.ingest_groups(groups, session=sessions, prevalidated=True)
        except Exception as exc:
            failure = self._error_response(exc)
            results = exc.results if isinstance(exc, GroupApplyError) else [None] * len(groups)
        offset = 0
        for segment in segments:
            segment.results = results[offset : offset + len(segment.groups)]
            offset += len(segment.groups)
            if failure is not None:
                failed = [key for (key, _v), n in zip(segment.groups, segment.results) if n is None]
                self._revert(segment.sid, segment.seq, segment.marks, failed)
        for index, segment, acks, multi in frames:
            if segment is not None:
                results = segment.results
                if None in results:
                    slots[index] = failure
                    continue
                if not multi:
                    acks = results[0] - segment.size + acks
                elif acks is None:
                    acks = results
                else:
                    fill = iter(results)
                    acks = [next(fill) if ack is None else ack for ack in acks]
            slots[index] = b"\x00" + (  # a multi ack: group count, then one u64 each
                wire._COUNT.pack(len(acks)) + np.asarray(acks, "<u8").tobytes()
                if multi else wire.pack_n(acks)
            )

    def _window_apply(self, group, timestamps, sid, seq, marks) -> bytes:
        """Apply one admitted windowed frame at once (never staged: its
        batch boundaries are the lateness unit); returns its answer."""
        service = self.service
        key, values = group
        if marks.get(key, 0) is None:
            # The windowed twin of the ``current_n`` duplicate ack.
            return b"\x00" + wire.pack_n(service.window_accepted(key))
        session = None if sid is None else (sid, seq)
        try:
            accepted, events = service.window_ingest(
                key, timestamps, values, session=session, prevalidated=True
            )
        except Exception as exc:
            self._revert(sid, seq, marks, [key])
            return self._error_response(exc)
        if events:
            self._notify_closed(key, events)
        return b"\x00" + wire.pack_n(accepted)

    def _revert(self, sid, seq, marks, keys) -> None:
        """Roll back the marks of admitted ``keys`` whose apply failed.

        Left standing, an advanced mark would dedup the client's retry of
        these very frames into an ack for values that never landed.
        ``revert`` also pins the shed floor, so later pipelined frames
        shed until that retry and applied seqs stay gap-free.
        """
        if sid is not None:
            for key in keys:
                self.service.sessions.revert(sid, key, marks[key], seq)

    def _hello(self, frame, conn) -> bytes:
        """Open (or drop) the connection's exactly-once session."""
        try:
            flags, sid = wire.unpack_hello(frame)
        except Exception as exc:
            return self._error_response(exc)
        granted = flags & wire.FLAG_EXACTLY_ONCE
        if granted:
            conn.session_id = sid
            high_water = self.service.sessions.hello(sid)
        else:
            conn.session_id = None
            high_water = 0
        return wire.pack_hello_response(granted, high_water)

    @staticmethod
    def _error_response(exc: Exception) -> bytes:
        """Map an exception to the response body ``_dispatch`` would send."""
        if isinstance(exc, GroupApplyError):
            exc = exc.error
        if isinstance(exc, KeyError):
            return wire.error_body(wire.STATUS_UNKNOWN_KEY, f"unknown key {exc.args[0]!r}")
        if isinstance(exc, DegradedError):
            # Degraded mode is a retriable shed, not a client mistake:
            # the write was never applied, so RETRY_LATER (against this
            # node once space returns, or a healthy replica) is honest.
            return wire.error_body(wire.STATUS_RETRY_LATER, str(exc))
        if isinstance(exc, InvalidParameterError):
            # A bad argument (out-of-range or NaN fraction, unordered
            # split points, NaN value) is the client's mistake.
            return wire.error_body(wire.STATUS_BAD_REQUEST, str(exc))
        if isinstance(exc, EmptySketchError):
            return wire.error_body(wire.STATUS_ERROR, str(exc))
        if isinstance(exc, ServiceError):
            return wire.error_body(wire.STATUS_BAD_REQUEST, str(exc))
        if isinstance(exc, ReproError):
            return wire.error_body(wire.STATUS_ERROR, str(exc))
        import sys
        import traceback

        traceback.print_exc(file=sys.stderr)
        return wire.error_body(
            wire.STATUS_ERROR, f"internal error: {type(exc).__name__}: {exc}"
        )

    def _subscribe(self, frame, conn) -> bytes:
        """Register ``conn`` for bucket-close pushes; returns the ack body.

        The ack carries the catch-up replay inline (closed buckets at or
        past ``resume_from`` still in retention), so a reconnecting
        subscriber always sees its replay *before* any live push on the
        same connection — the dedup contract clients rely on.  Subscribing
        creates no state: a key not yet written gets an empty replay and
        the pushes of its later writes.  A routed node redirects a key it
        does not own, like every keyed read.
        """
        service = self.service
        try:
            key, resolution, resume_from, fractions = wire.unpack_subscribe(frame)
            service._check_key(key)
            reject = self._topology_reject(key)
            if reject is not None:
                return reject
            resolved = service.windows.resolve(resolution)
            # A lookup, never a create: a key with no rings yet has no
            # catch-up, and its first write creates the rings as usual.
            try:
                ring = service.windows.get(key)[resolved]
            except KeyError:
                buckets = []
            else:
                buckets = ring.closed_buckets(resume_from)
            # Copy the fractions out of the receive buffer: the view dies
            # with this tick, the subscription outlives it.
            fractions = np.array(fractions, dtype=np.float64)
            events = []
            next_index = resume_from
            for bucket in buckets:
                events.append(
                    wire.pack_bucket_event(
                        bucket.index,
                        bucket.start,
                        bucket.end,
                        int(bucket.sketch.n),
                        float(bucket.sketch.error_bound()),
                        bucket.sketch.quantiles(fractions),
                    )
                )
                next_index = max(next_index, bucket.index + 1)
            self.subscriptions.add(
                conn, key, resolved, tuple(float(f) for f in fractions), next_index
            )
            return wire.pack_subscribe_response(resolved, next_index, events)
        except Exception as exc:
            return self._error_response(exc)

    def _notify_closed(self, key: str, events) -> None:
        """Push newly closed buckets to this key's subscribers.

        Pushes are fire-and-forget and not commit-gated: a subscriber that
        loses one (crash between WAL append and flush) re-derives it from
        durable state via reconnect catch-up, so gating them on the group
        commit would buy nothing but latency.
        """
        if not self.subscriptions.active_count:
            return

        def encode(sub, event) -> bytes:
            sketch = event.sketch
            return wire.encode_frame(
                b"\x00"
                + wire.pack_bucket_event(
                    event.index,
                    event.start,
                    event.end,
                    int(sketch.n),
                    float(sketch.error_bound()),
                    sketch.quantiles(np.asarray(sub.fractions, dtype=np.float64)),
                )
            )

        def send(conn, payload: bytes) -> None:
            conn._enqueue(None, payload)

        self.subscriptions.notify(key, events, encode, send)

    def _dispatch(self, body: bytes) -> bytes:
        """Decode one request body, run it, encode the response body.

        Synchronous on purpose: no await between decode and response means
        every request is atomic under the event loop.
        """
        if not body:
            return wire.error_body(wire.STATUS_BAD_REQUEST, "empty request frame")
        op = body[0]
        service = self.service
        routed = service.topology is not None or service.migrating_keys() > 0
        try:
            if op in self._READ_KINDS or op == wire.OP_WINDOW_QUERY:
                return self._read(op, body, routed)
            if op == wire.OP_MULTI_QUERY:
                return self._multi_query(body, routed)
            if op == wire.OP_MERGE:
                key, offset = wire.unpack_key(body, 1)
                payload, end = wire.unpack_blob(body, offset)
                self._check_end(body, end, "MERGE payload")
                if routed:
                    if service.migration_frozen(key):
                        # The same rule ingest follows: a frozen key sheds
                        # every write, so the final capture is complete.
                        return wire.error_body(
                            wire.STATUS_RETRY_LATER,
                            f"key {key!r} is frozen for a topology cutover; "
                            "retry the merge later",
                        )
                    reject = self._topology_reject(key)
                    if reject is not None:
                        return reject
                return b"\x00" + wire.pack_n(service.merge(key, payload))
            if op == wire.OP_STATS:
                key, end = wire.unpack_key(body, 1)
                self._check_end(body, end, "STATS key")
                stats = self.service.stats(key or None)
                if not key:
                    # Server-wide stats also report the network front:
                    # cumulative + currently-open connections and
                    # per-opcode frame counts (how much of the traffic
                    # rides the pipelined/coalesced path).
                    stats["connections"] = self.connections
                    stats["open_connections"] = len(self._transports)
                    stats["op_counts"] = dict(self.op_counts)
                    stats["shed_count"] = self.shed_count
                    stats["rejected_connections"] = self.rejected_connections
                    stats["draining"] = self.draining
                    stats.setdefault("windowed", {})[
                        "active_subscriptions"
                    ] = self.subscriptions.active_count
                return b"\x00" + wire.pack_blob(json.dumps(stats).encode("utf-8"))
            if op == wire.OP_FETCH:
                key, end = wire.unpack_key(body, 1)
                self._check_end(body, end, "FETCH key")
                if not key:
                    return wire.error_body(wire.STATUS_BAD_REQUEST, "FETCH needs a key")
                reject = self._topology_reject(key) if routed else None
                if reject is not None:
                    return reject
                n, payload = service.payload(key)
                return b"\x00" + wire.pack_n(n) + wire.pack_blob(payload)
            if op == wire.OP_TOPOLOGY:
                mode, map_json = wire.unpack_topology(body)
                if mode == wire.TOPOLOGY_SET:
                    service.install_topology(map_json)
                return b"\x00" + wire.pack_blob(
                    service.topology_json().encode("utf-8")
                )
            if op == wire.OP_MIGRATE_PUSH:
                key, bundle = wire.unpack_migrate_push(body)
                # No ownership check: a push legitimately arrives BEFORE
                # the new topology is installed on this destination.
                return b"\x00" + wire.pack_n(service.migrate_apply(key, bundle))
            if op == wire.OP_MIGRATE:
                mode, freeze, key = wire.unpack_migrate(body)
                if mode == wire.MIGRATE_KEYS:
                    keys = list(
                        dict.fromkeys(
                            list(service.store.keys()) + list(service.windows.keys())
                        )
                    )
                    return wire.pack_keys_response(keys)
                if mode == wire.MIGRATE_BEGIN:
                    return b"\x00" + wire.pack_blob(service.migrate_begin(key))
                if mode == wire.MIGRATE_DRAIN:
                    return wire.pack_drain_response(
                        service.migrate_drain(key, freeze=freeze)
                    )
                if mode == wire.MIGRATE_COMMIT:
                    service.migrate_commit(key)
                    return b"\x00"
                service.migrate_abort(key)
                return b"\x00"
            if op in (wire.OP_SNAPSHOT, wire.OP_PING, wire.OP_HEALTH):
                self._check_end(body, 1, f"{wire.OP_NAMES[op].upper()} opcode")
                if op == wire.OP_SNAPSHOT:
                    return b"\x00" + wire._COUNT.pack(self.service.snapshot_all())
                if op == wire.OP_PING:
                    return b"\x00" + wire.pack_blob(__version__.encode("utf-8"))
                return self._health_response()
            return wire.error_body(wire.STATUS_BAD_REQUEST, f"unknown opcode {op:#x}")
        except Exception as exc:
            # One mapping for every path (shared with the coalescing
            # dispatcher): a failure must answer with an error response,
            # never tear down the connection silently.
            return self._error_response(exc)

    def _health_response(self) -> bytes:
        """One ``HEALTH`` answer: readiness byte + JSON detail.

        Load balancers branch on the byte (cheap, stable); operators read
        the blob.  ``OVERLOADED`` reflects the WAL queue only — per-
        connection parse backlog is a per-peer signal, not server health.
        """
        if self.draining:
            state = wire.HEALTH_DRAINING
        elif self.service.degraded:
            # Degraded outranks overloaded: a full disk sheds ALL writes,
            # not just a transient queue spike, and a balancer should
            # route writes elsewhere until this clears.
            state = wire.HEALTH_DEGRADED
        elif self.overload is not None and self.overload.should_shed(
            wal_queue_depth=self.service.wal_queue_depth
        ):
            state = wire.HEALTH_OVERLOADED
        else:
            state = wire.HEALTH_READY
        detail = {
            "state": ("ready", "overloaded", "draining", "degraded")[state],
            "degraded": self.service.degraded,
            "degraded_reason": self.service.degraded_reason,
            "disk_free_bytes": self.service.disk_free_bytes,
            "node_id": self.service.node_id,
            "open_connections": len(self._transports),
            "max_connections": self.max_connections,
            "wal_queue_depth": self.service.wal_queue_depth,
            "shed_count": self.shed_count,
            "rejected_connections": self.rejected_connections,
            "sessions": len(self.service.sessions),
            "windowed_keys": len(self.service.windows.keys()),
            "active_subscriptions": self.subscriptions.active_count,
            "topology_version": (
                None if self.service.topology is None
                else self.service.topology.version
            ),
            "migrating_keys": self.service.migrating_keys(),
        }
        if self.service.scrub is not None:
            detail["scrub"] = self.service.scrub.stats()
        return (
            b"\x00"
            + bytes([state])
            + wire.pack_blob(json.dumps(detail).encode("utf-8"))
        )

    @staticmethod
    def _check_end(body, end: int, what: str) -> None:
        """Refuse a request body that goes on past its last operand."""
        if end != len(body):
            raise ServiceError(f"{len(body) - end} trailing bytes after the {what}")

    #: The single-key point reads and the query kind each one asks.
    _READ_KINDS = {
        wire.OP_QUERY: wire.KIND_QUANTILES,
        wire.OP_CDF: wire.KIND_CDF,
        wire.OP_RANK: wire.KIND_RANKS,
    }

    def _read(self, op: int, body, routed: bool) -> bytes:
        """Answer one ``QUERY``/``CDF``/``RANK`` or ``WINDOW_QUERY`` body.

        All four decode to ``(key, kind, points)`` — a window read adds
        its horizon — and pass the one read gate before they are answered.
        """
        if op == wire.OP_WINDOW_QUERY:
            key, kind, *horizon, points = wire.unpack_window_query(body)
        else:
            kind, horizon = self._READ_KINDS[op], None
            key, offset = wire.unpack_key(body, 1)
            points, end = wire.unpack_values(body, offset)
            self._check_end(body, end, "request points")
        refusal = self._read_refusal(key, 1, points.size, routed)
        if refusal is not None:
            return refusal
        if horizon is None:
            return wire.pack_query_result(*self.service.query_points(key, kind, points))
        return wire.pack_query_result(*self.service.window_query(key, kind, *horizon, points))

    def _read_refusal(self, key, requests: int, count, routed: bool) -> Optional[bytes]:
        """What a read answers instead of its values, or ``None``: the
        ``WRONG_TOPOLOGY`` redirect when a ``routed`` node does not own
        ``key`` (``None`` for a mixed frame, checked record by record),
        else ``BAD_REQUEST`` when the response to ``requests`` answers of
        ``count`` points (:func:`~repro.service.protocol.query_response_bound`)
        could exceed ``MAX_FRAME`` — such a frame would end the connection.
        """
        if routed and key is not None:
            reject = self._topology_reject(key)
            if reject is not None:
                return reject
        if wire.query_response_bound(requests, count) > wire.MAX_FRAME:
            return wire.error_body(
                wire.STATUS_BAD_REQUEST,
                f"response for {requests} requests would exceed "
                f"MAX_FRAME ({wire.MAX_FRAME}); split the batch",
            )
        return None

    def _multi_query(self, body, routed: bool) -> bytes:
        """Answer one ``MULTI_QUERY`` frame (vectorized when uniform).

        A uniform frame (single key/kind/count) is answered with ONE
        batched engine call over the key's query index and one vectorized
        response build.  Anything else — mixed keys, a failing key, an
        invalid row — takes the per-request loop, whose answers are
        bit-identical and whose errors attribute to the exact request via
        per-record statuses (one missing key never fails the rest of the
        batch).  The loop resolves each distinct key once (the frame
        ``cache``); when every record is OK, all answers have one length
        and there are at least
        :data:`~repro.service.protocol.FIXED_STRIDE_MIN_REQUESTS` of them
        (the many-key dashboard frame), the response is built column-wise
        by the fixed-stride encoder, byte-identical to the per-record one.

        On a ``routed`` node ownership is checked once per distinct key,
        as ``QUERY`` checks it: a uniform frame for a key this node does
        not own gets the ``WRONG_TOPOLOGY`` redirect, and in a mixed
        frame each unowned key's records get a ``WRONG_TOPOLOGY`` error
        while the owned keys still answer.
        """
        service = self.service
        uniform = wire.try_uniform_multi_query(body)
        if uniform is not None:
            key, kind, points = uniform
            refusal = self._read_refusal(key, *points.shape, routed)
            if refusal is not None:
                return refusal
            try:
                result = service.query_batch(key, kind, points)
            except Exception:
                pass  # re-run per request below so the error names its row
            else:
                return bytes(wire.encode_uniform_query_response(*result))
        requests = wire.unpack_multi_query(body)
        counts = np.array([points.size for _key, _kind, points in requests])
        refusal = self._read_refusal(None, len(requests), counts, routed)
        if refusal is not None:
            return refusal
        # Each entry is an answer tuple or a ready error record.
        records: List[object] = []
        failed = False
        cache: Dict[str, object] = {}
        refusals: Dict[str, Optional[bytes]] = {}  # per distinct key
        for key, kind, points in requests:
            if routed:
                if key not in refusals:
                    message = self._unowned(key)
                    refusals[key] = None if message is None else (
                        bytes([wire.STATUS_WRONG_TOPOLOGY])
                        + wire.pack_blob(message.encode("utf-8")[: wire.ERROR_MESSAGE_CAP])
                    )
                if refusals[key] is not None:
                    records.append(refusals[key])
                    failed = True
                    continue
            try:
                records.append(service.query_points(key, kind, points, cache))
            except Exception as exc:
                error = self._error_response(exc)
                # Truncated so the response bound above holds for any key
                # size (an unknown-key message embeds the key).
                message = bytes(error[1 : 1 + wire.ERROR_MESSAGE_CAP])
                records.append(bytes([error[0]]) + wire.pack_blob(message))
                failed = True
        if not failed and len(records) >= wire.FIXED_STRIDE_MIN_REQUESTS:
            n, eps, values, retained = zip(*records)
            width = values[0].shape
            if all(row.shape == width for row in values):
                return bytes(
                    wire.encode_uniform_query_response(n, eps, np.stack(values), retained)
                )
        parts = [b"\x00", wire._COUNT.pack(len(requests))]
        for record in records:
            parts.append(record if isinstance(record, bytes) else wire.pack_query_result(*record))
        return b"".join(parts)


class ServerThread:
    """A :class:`QuantileServer` on a daemon thread with its own event loop.

    The bridge for synchronous callers — tests, benchmarks, notebook
    demos, or embedding the service next to blocking code::

        with ServerThread(QuantileService(None)) as running:
            client = QuantileClient(port=running.port)

    ``stop(snapshot=False)`` models a crash (no goodbye checkpoint), which
    the recovery tests lean on; the context manager exit checkpoints.
    """

    def __init__(
        self,
        service: QuantileService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_interval: Optional[float] = None,
        start_timeout: float = 10.0,
        use_uvloop: bool = True,
        max_connections: Optional[int] = None,
        overload=_DEFAULT_OVERLOAD,
        drain_timeout: float = 10.0,
        scrub_interval: Optional[float] = None,
        degraded_probe_interval: float = 0.5,
    ) -> None:
        self.service = service
        self.server = QuantileServer(
            service,
            host=host,
            port=port,
            snapshot_interval=snapshot_interval,
            max_connections=max_connections,
            overload=overload,
            drain_timeout=drain_timeout,
            scrub_interval=scrub_interval,
            degraded_probe_interval=degraded_probe_interval,
        )
        self.loop = new_event_loop(use_uvloop)
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._stopped = False
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self._started.wait(start_timeout):
            raise ServiceError("server thread did not start in time")
        if self._start_error is not None:
            self.thread.join(timeout=start_timeout)
            raise ServiceError(f"server failed to start: {self._start_error}")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._start_error = exc
            self._started.set()
            return
        self._started.set()
        self.loop.run_forever()

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, *, snapshot: bool = True, drain: bool = False) -> None:
        """Stop the server and its loop (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(snapshot=snapshot, drain=drain), self.loop
        )
        future.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_server(
    data_dir: Optional[str],
    *,
    host: str = "127.0.0.1",
    port: int = 7379,
    k: int = 32,
    hra: bool = False,
    seed: Optional[int] = 0,
    memory_budget: Optional[int] = None,
    snapshot_interval: Optional[float] = 30.0,
    fsync: bool = False,
    use_uvloop: bool = True,
    max_connections: Optional[int] = None,
    drain_timeout: float = 10.0,
    node_id: Optional[str] = None,
    window_resolutions=(60.0,),
    window_retention: int = 64,
    window_lateness: float = 0.0,
    scrub_interval: Optional[float] = 300.0,
    min_free_bytes: int = 8 << 20,
    io_layer=None,
) -> int:
    """Blocking entry point for ``repro-quantiles serve``.

    Runs until interrupted.  SIGTERM triggers a graceful **drain**: stop
    accepting, shed new ingest with ``RETRY_LATER``, flush in-flight acks
    (up to ``drain_timeout``), barrier the WAL, checkpoint, exit — the
    orchestrator-rollout path, where clients with retry policies fail
    over without losing an acknowledged value.  SIGINT stops fast (still
    with a final checkpoint).  Returns a process exit code.

    WAL writes and fsyncs happen off the event loop and acks gate on the
    covering group commit, so durability costs latency (one commit)
    instead of throughput.
    ``use_uvloop`` picks up uvloop when installed (silent fallback).
    """
    import signal

    configure_cli_logging()
    service = QuantileService(
        data_dir,
        k=k,
        hra=hra,
        seed=seed,
        memory_budget=memory_budget,
        fsync=fsync,
        group_commit=True,
        node_id=node_id,
        window_resolutions=window_resolutions,
        window_retention=window_retention,
        window_lateness=window_lateness,
        min_free_bytes=min_free_bytes,
        io_layer=io_layer,
    )
    server = QuantileServer(
        service,
        host=host,
        port=port,
        snapshot_interval=snapshot_interval,
        max_connections=max_connections,
        drain_timeout=drain_timeout,
        scrub_interval=scrub_interval if data_dir is not None else None,
    )
    drain_requested = False

    async def main() -> None:
        nonlocal drain_requested
        await server.start()
        # Machine-readable ready line FIRST: supervisors and cluster test
        # harnesses spawning N servers on port 0 parse this to learn the
        # bound address the moment accepts are live (no poll-connect).
        ready = f"READY host={server.host} port={server.port}"
        if node_id is not None:
            ready += f" node_id={node_id}"
        print(ready, flush=True)
        durable = f"data_dir={data_dir}" if data_dir else "in-memory (no durability)"
        print(
            f"repro-quantiles {__version__} serving on {server.host}:{server.port} "
            f"[k={k}, {'HRA' if hra else 'LRA'}, {durable}, "
            f"{len(service.store)} keys recovered]",
            flush=True,
        )
        # asyncio.start_server accepts connections as soon as it exists;
        # this task only needs to sleep until a stop signal arrives.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def request_stop(drain: bool) -> None:
            nonlocal drain_requested
            drain_requested = drain
            stop.set()

        for signum, drain in ((signal.SIGINT, False), (signal.SIGTERM, True)):
            try:
                loop.add_signal_handler(signum, request_stop, drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: fall back to KeyboardInterrupt below
        await stop.wait()
        if drain_requested:
            log.info("SIGTERM: draining (timeout %.1fs)", drain_timeout)
        await server.stop(snapshot=True, drain=drain_requested)

    loop = new_event_loop(use_uvloop)
    try:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(main())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback path
        pass
    finally:
        try:
            loop.run_until_complete(server.stop(snapshot=True))
        except Exception:
            service.close(snapshot=True)
        asyncio.set_event_loop(None)
        loop.close()
    return 0
