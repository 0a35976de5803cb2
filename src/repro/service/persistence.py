"""Durable state for the quantile service: snapshots + a write-ahead log.

Two complementary mechanisms, both built on the ``FRQ1`` wire format of
:mod:`repro.fast.wire`, reconstruct every key after a restart:

* **Per-key snapshots** (:class:`SnapshotStore`) — one file per key
  holding the key (snapshots must be enumerable at recovery, so the key
  is embedded; file names are digests), the sequence number of the last
  WAL record folded into it, and the sketch's ``FRQ1`` payload.  Snapshot
  files are written atomically (temp file + rename) so a crash mid-write
  leaves the previous snapshot intact.
* **One append-only batch WAL** (:class:`WriteAheadLog`) — every ingest
  batch (raw float64 values) and merge (an ``FRQ1`` donor payload) is
  logged with a monotonically increasing sequence number and a CRC32.
  Appends enqueue and return a **commit ticket**; a background writer
  thread drains the queue and pays one flush/fsync per batch (group
  commit).  Acknowledgements gate on the ticket, and a caller that needs
  a definite answer before it applies (the in-process service) simply
  waits on it.  Each record is self-delimiting, so replay after a crash
  walks the log and stops cleanly at a torn tail — and opening the log
  truncates that tail away, so records appended after a restart are
  never shadowed behind unreadable bytes.  A failed write poisons the
  log: one failure rule for every caller.

**Recovery** (:func:`recover`) registers every snapshot, then replays WAL
records whose sequence number exceeds the owning key's snapshot sequence.
Because :class:`~repro.service.SketchStore` derives per-key RNG seeds
deterministically, a key recovered purely from the WAL re-consumes the
exact same coin stream as the original process and ends *bit-identical*;
a key recovered from a snapshot with no later records is trivially
identical (same payload).  Only the snapshot-plus-later-records case
re-randomizes the post-snapshot compaction coins — still inside the
paper's ``(1 ± eps)`` guarantee, per Theorem 3's analysis of resumed
merges.

**Compaction**: after a full snapshot pass every record in the WAL is
covered by some snapshot, so the log is truncated.  Sequence numbers keep
counting up across truncations (they are persisted in the snapshots), so
"newer than the snapshot" stays well-defined forever.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future
from pathlib import Path
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from repro.errors import ServiceError, SnapshotCorruptError
from repro.service.faultdisk import DEFAULT_IO
from repro.service.log import logger as _log
from repro.service.store import spill_filename

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "SnapshotStore",
    "recover",
    "WAL_INGEST",
    "WAL_MERGE",
    "WAL_SEQ_INGEST",
    "WAL_WINDOW_INGEST",
    "WAL_SEQ_WINDOW_INGEST",
    "WAL_MIGRATE_SET",
    "check_key_size",
    "pack_session_header",
    "unpack_session_header",
]

#: Record op: ``payload`` is a raw little-endian float64 batch.
WAL_INGEST = 1
#: Record op: ``payload`` is an ``FRQ1`` donor sketch to union in.
WAL_MERGE = 2
#: Record op: an ingest batch from a sequenced (exactly-once) session.
#: ``payload`` is ``<u16 sid_len><sid><u64 max_frame_seq>`` followed by
#: the raw float64 batch; replay folds the session mark back into the
#: :class:`~repro.service.resilience.SessionTable` — **even for records
#: the key's snapshot already covers** — so dedup survives restarts.
WAL_SEQ_INGEST = 3
#: Record op: a *windowed* ingest batch.  ``payload`` is the timestamps
#: then the values, as two equal-length raw little-endian float64 halves
#: — timestamps ride in the log so replay rebuilds the identical ring
#: (bucketing is a pure function of the payload, never of replay time).
WAL_WINDOW_INGEST = 4
#: Windowed ingest from a sequenced (exactly-once) session: the
#: ``WAL_SEQ_INGEST`` session header followed by the windowed halves.
WAL_SEQ_WINDOW_INGEST = 5
#: Record op: a migration state transfer.  ``payload`` is an ``MB1``
#: bundle (:func:`repro.service.protocol.pack_migration_bundle`): the
#: key's FRQ1 payload, its per-session high-water marks, and its FRW1
#: windowed rings.  Replay **replaces** the key's state (replace, not
#: merge, so a re-pushed bundle after an aborted rebalance is
#: idempotent) and folds the marks into the session table — even for
#: records a snapshot already covers, mirroring ``WAL_SEQ_INGEST``.
WAL_MIGRATE_SET = 6

#: Per-record framing: body length, CRC32 of the body.
_RECORD_HEAD = struct.Struct("<II")
#: Body prefix: op, sequence number, key length (key + payload follow).
_BODY_HEAD = struct.Struct("<BQH")

_SNAP_HEAD = struct.Struct("<QH")

#: Snapshot file framing: magic, then the legacy body, then a CRC32
#: footer over the body.  Files written before the framing existed start
#: straight at the body and carry no checksum; they still load (scrub
#: reports them as unverifiable) and are rewritten framed on next save.
_SNAP_MAGIC = b"FRS1"
_SNAP_CRC = struct.Struct("<I")

#: ``WAL_SEQ_INGEST`` payload prefix: session-id length (id + u64 seq follow).
_SESSION_HEAD = struct.Struct("<H")
_SESSION_SEQ = struct.Struct("<Q")


#: Keys of at most this many characters fit the u16 length field however
#: they encode (UTF-8 spends at most 4 bytes per character), so only a
#: longer key pays for an encode to check its size.
_SHORT_KEY_CHARS = 0xFFFF // 4


def check_key_size(key: str) -> None:
    """Refuse a key whose UTF-8 form overflows the u16 length field of a
    WAL record or snapshot (raises :class:`~repro.errors.ServiceError`)."""
    if len(key) > _SHORT_KEY_CHARS:
        size = len(key.encode("utf-8"))
        if size > 0xFFFF:
            raise ServiceError(f"key of {size} UTF-8 bytes exceeds the 65535-byte cap")


def pack_session_header(sid: str, seq: int) -> bytes:
    """The ``WAL_SEQ_INGEST`` payload prefix for ``(sid, seq)``."""
    raw = sid.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ServiceError(f"session id of {len(raw)} UTF-8 bytes exceeds the 65535-byte cap")
    return _SESSION_HEAD.pack(len(raw)) + raw + _SESSION_SEQ.pack(seq)


def unpack_session_header(payload) -> Tuple[str, int, int]:
    """Decode a session header; returns ``(sid, seq, values_offset)``."""
    try:
        (sid_len,) = _SESSION_HEAD.unpack_from(payload, 0)
        raw = bytes(payload[_SESSION_HEAD.size : _SESSION_HEAD.size + sid_len])
        if len(raw) != sid_len:
            raise ValueError("payload shorter than its declared session id")
        sid = raw.decode("utf-8")
        (seq,) = _SESSION_SEQ.unpack_from(payload, _SESSION_HEAD.size + sid_len)
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise ServiceError(f"corrupt WAL session header: {exc}") from exc
    return sid, seq, _SESSION_HEAD.size + sid_len + _SESSION_SEQ.size


def _fsync_dir(directory: Path) -> None:
    """Force a directory entry (a just-completed rename) to disk."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WalRecord(NamedTuple):
    op: int
    seq: int
    key: str
    payload: bytes


class WriteAheadLog:
    """The service's write-ahead log: an append-only, CRC-guarded record
    log with an off-loop writer and **group commit**.

    Records are framed ``<u32 body_len><u32 crc32(body)><body>`` with the
    body ``<u8 op><u64 seq><u16 key_len><key><payload>``.

    :meth:`append_many` enqueues records and returns a **commit ticket**
    (a :class:`concurrent.futures.Future`) at once — no file I/O on the
    caller's thread.  A writer thread drains the whole queue, writes every
    queued record, then pays **one** flush (and one ``os.fsync`` when
    ``fsync=True``) for the batch before resolving the tickets.  A caller
    that acknowledges writes releases the ack only once the ticket
    resolves — acknowledged means replayable — while the flush/fsync cost
    is amortized across every record that arrived during the previous
    commit.  A caller that must not go on before its records are durable
    passes ``wait=True`` and waits on the ticket (:meth:`append` is one
    record plus that wait).  The writer thread starts with the first
    append that does not wait, so a log opened only to replay (or to
    audit) starts none.

    Records hit the file in append order (single FIFO queue).  A crash
    loses at most the queued-but-uncommitted suffix — records whose
    tickets never resolved and whose writes were therefore never
    acknowledged.

    Opening the log **self-heals a torn tail**: a crash mid-append can
    leave a partial record at the end of the file, and because replay
    stops at the first unreadable record, anything appended *after* that
    tear would be acknowledged yet invisible to every future recovery.
    ``__init__`` therefore trims the file to its longest valid record
    prefix (:attr:`healed_bytes` reports how much was dropped) before the
    append handle opens, keeping "appended" equivalent to "replayable".

    A failed write or flush **poisons** the log: the failure may have
    left a partial record mid-file, and appending past it would shadow
    acknowledged records behind bytes replay cannot cross (the torn-tail
    healer only heals a *tail*).  The failed batch's ticket carries the
    error, everything still queued fails with it, and every later append
    raises; recovery heals the torn tail at next open (the partial record
    was never acknowledged, so truncating it loses nothing).

    Thread model: appends come from one thread (the asyncio event loop,
    or the in-process caller).  At most one commit runs at a time, on the
    writer thread or on a waiting caller's, and it owns the file until it
    ends.  :meth:`barrier` blocks until everything queued is durable —
    checkpoints call it (through :meth:`truncate`) so no covered record
    can land after the truncate.

    ``io`` routes every byte of file I/O (defaults to the real-disk
    pass-through); chaos tests inject a
    :class:`~repro.service.faultdisk.FaultyDisk` here.
    """

    def __init__(self, path, *, fsync: bool = False, max_queue: int = 65536, io=None) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.max_queue = max_queue
        self.io = DEFAULT_IO if io is None else io
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Torn-tail bytes truncated away when this handle opened (0 = clean).
        self.healed_bytes = self._heal_torn_tail()
        self._file = open(self.path, "ab")
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._open_ticket: Optional[Future] = None
        self._committing = False
        self._closed = False
        self._crashed = False
        self._thread: Optional[threading.Thread] = None
        #: First write failure; once set the log is poisoned (see _commit).
        self._failed: Optional[BaseException] = None
        self.commit_count = 0
        self.committed_records = 0
        self.max_commit_batch = 0
        self.last_commit_batch = 0
        self.last_commit_seconds = 0.0
        self.total_commit_seconds = 0.0

    @property
    def failed(self) -> Optional[BaseException]:
        """The poisoning write failure, or ``None`` while healthy."""
        with self._cond:
            return self._failed

    # -- the append path -------------------------------------------------

    def append(self, op: int, seq: int, key: str, payload: bytes) -> None:
        """Append one record and wait until it is committed; raises the
        commit's error if it failed."""
        self.append_many(((op, seq, key, payload),), wait=True)

    def append_many(self, records, *, wait: bool = False) -> Future:
        """Enqueue ``(op, seq, key, payload)`` records under one lock and
        one writer wakeup; returns the one commit ticket covering them all.

        The ticket resolves (``result() is None``) once the records — and
        every record queued with them — are flushed (and fsynced when
        configured).  It carries the write error if the commit failed.
        Payloads must be owned buffers: they are written after this call
        returns, so a view into a reusable scratch would tear.  A record
        whose key overflows the u16 length field is refused here, before
        anything is queued.

        ``wait=True`` returns only once the ticket resolved, raising the
        commit's error.  When no commit is in flight, such a caller leads
        the commit itself on its own thread: handing the batch to the
        writer and waiting to be woken would only add two thread switches,
        and either way one commit runs at a time.
        """
        for _op, _seq, key, _payload in records:
            check_key_size(key)
        batch = None
        with self._cond:
            self._check_usable()
            if len(self._queue) >= self.max_queue:
                # Backpressure: the producer (event loop) outran the disk.
                # Block briefly rather than growing without bound; the
                # writer drains whole queues per wakeup, so this clears in
                # one commit.  A multi-record batch may overshoot the cap
                # by its own length.
                while (
                    len(self._queue) >= self.max_queue
                    and not self._closed
                    and not self._crashed
                    and self._failed is None
                ):
                    self._cond.wait(0.05)
                # The wait can end because the log died, not because the
                # queue drained — enqueueing then would strand the record
                # (and its ticket) forever.
                self._check_usable()
            ticket = self._open_ticket
            if ticket is None:
                ticket = self._open_ticket = Future()
            self._queue.extend(records)
            if wait and not self._committing:
                batch, ticket = self._take_batch()
            else:
                if self._thread is None:
                    self._thread = threading.Thread(
                        target=self._run, name="wal-group-commit", daemon=True
                    )
                    self._thread.start()
                self._cond.notify_all()
        if batch is not None:
            self._commit(batch, ticket)
        if wait:
            ticket.result()
        return ticket

    def _check_usable(self) -> None:
        """Raise (under the lock) when the log cannot accept appends."""
        if self._failed is not None:
            raise ServiceError(
                f"write-ahead log failed and is poisoned: {self._failed} — "
                "appending past a failed write could leave a torn record "
                "mid-file that shadows later records from replay"
            )
        if self._closed or self._crashed:
            raise ServiceError("write-ahead log is closed")

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _take_batch(self) -> Tuple[list, Future]:
        """Claim everything queued, and its ticket, for one commit (call
        under the lock)."""
        batch, ticket = list(self._queue), self._open_ticket
        self._queue.clear()
        self._open_ticket = None
        self._committing = True
        self._cond.notify_all()
        return batch, ticket

    def _run(self) -> None:
        """The writer thread: commit whatever is queued while no other
        commit is in flight, until the log closes, crashes or is poisoned."""
        while True:
            with self._cond:
                while not self._crashed and (
                    self._committing or not (self._queue or self._closed)
                ):
                    self._cond.wait()
                if self._crashed or not self._queue:  # crashed, or closed and drained
                    return
                batch, ticket = self._take_batch()
            if not self._commit(batch, ticket):
                return

    def _commit(self, batch, ticket: Future) -> bool:
        """Write and flush one claimed batch, then resolve its ticket;
        returns ``False`` when the commit failed and poisoned the log."""
        started = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            for record in batch:
                head, body = self._frame(*record)
                self.io.write(self._file, head)
                self.io.write(self._file, body)
            self.io.flush(self._file)
            if self.fsync:
                self.io.fsync(self._file)
        except BaseException as exc:  # disk full, handle revoked, ...
            error = exc
        elapsed = time.perf_counter() - started
        with self._cond:
            self._committing = False
            if error is None:
                self.commit_count += 1
                self.committed_records += len(batch)
                self.last_commit_batch = len(batch)
                self.max_commit_batch = max(self.max_commit_batch, len(batch))
                self.last_commit_seconds = elapsed
                self.total_commit_seconds += elapsed
            else:
                # POISON the log (see the class docstring): refuse all
                # further appends, fail everything still queued, and
                # leave the file for recovery to heal at next open.
                self._failed = error
                _log.error(
                    "WAL group commit failed, log poisoned: path=%s "
                    "batch=%d error=%s",
                    self.path,
                    len(batch),
                    error,
                )
                abandoned_ticket = self._open_ticket
                self._open_ticket = None
                self._queue.clear()
            self._cond.notify_all()
        if error is None:
            ticket.set_result(None)
            return True
        ticket.set_exception(error)
        if abandoned_ticket is not None:
            abandoned_ticket.set_exception(
                ServiceError(f"write-ahead log poisoned by earlier failure: {error}")
            )
        return False

    @staticmethod
    def _frame(op: int, seq: int, key: str, payload: bytes) -> Tuple[bytes, bytes]:
        """``(record head, body)`` bytes for one record."""
        raw_key = key.encode("utf-8")
        body = _BODY_HEAD.pack(op, seq, len(raw_key)) + raw_key + payload
        return _RECORD_HEAD.pack(len(body), zlib.crc32(body)), body

    # -- replay and recovery ---------------------------------------------

    def replay(self, *, strict: bool = False) -> Iterator[WalRecord]:
        """Yield every intact record in order.

        A torn tail (truncated record, CRC mismatch) ends iteration
        cleanly — that is the expected state after a crash mid-append.
        With ``strict=True`` it raises :class:`~repro.errors.ServiceError`
        instead (for integrity audits).

        Streams record by record from its own file handle (never the
        whole log at once — recovery after a crash mid-burst must not
        need WAL-sized memory; appends through the live handle keep
        working independently).
        """
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            for record, _end in self._records(handle, strict=strict):
                yield record

    @staticmethod
    def _records(handle, *, strict: bool) -> Iterator[Tuple[WalRecord, int]]:
        """Yield ``(record, end_offset)`` per intact record from ``handle``."""
        offset = 0
        while True:
            head = handle.read(_RECORD_HEAD.size)
            if not head:
                return
            if len(head) < _RECORD_HEAD.size:
                if strict:
                    raise ServiceError(f"torn WAL record header at byte {offset}")
                return
            length, crc = _RECORD_HEAD.unpack(head)
            body = handle.read(length)
            if len(body) < length:
                if strict:
                    raise ServiceError(f"torn WAL record body at byte {offset}")
                return
            if zlib.crc32(body) != crc:
                if strict:
                    raise ServiceError(f"WAL CRC mismatch at byte {offset}")
                return
            try:
                op, seq, key_len = _BODY_HEAD.unpack_from(body, 0)
                raw_key = body[_BODY_HEAD.size : _BODY_HEAD.size + key_len]
                if len(raw_key) != key_len:
                    raise ValueError("record body shorter than its declared key")
                key = raw_key.decode("utf-8")
            except (struct.error, ValueError, UnicodeDecodeError) as exc:
                if strict:
                    raise ServiceError(
                        f"malformed WAL record at byte {offset}: {exc}"
                    ) from exc
                return
            offset += _RECORD_HEAD.size + length
            yield WalRecord(op, seq, key, body[_BODY_HEAD.size + key_len :]), offset

    def _heal_torn_tail(self) -> int:
        """Truncate a torn *tail* left by a crash; returns the bytes dropped.

        Only a genuine torn append is healed: the invalid region must be a
        single record whose declared extent reaches (or overruns) the end
        of the file — the signature of a crash mid-append.  An unreadable
        record with more data *after* its declared end is mid-file
        corruption (bit rot, a bad sector): truncating there would destroy
        every later record, so it raises instead — the operator keeps the
        damaged file for offline repair (``replay(strict=True)`` pinpoints
        the damage).

        The scan re-reads the whole log once before :func:`recover` reads
        it again; recovery is rare (startup only) and the log is bounded
        by the checkpoint interval, so correctness of this path wins over
        saving the extra pass.
        """
        if not self.path.exists():
            return 0
        size = self.path.stat().st_size
        valid = 0
        with open(self.path, "rb") as handle:
            for _record, end in self._records(handle, strict=False):
                valid = end
        torn = size - valid
        if not torn:
            return 0
        with open(self.path, "rb") as handle:
            handle.seek(valid)
            head = handle.read(_RECORD_HEAD.size)
        if len(head) == _RECORD_HEAD.size:
            (length, _crc) = _RECORD_HEAD.unpack(head)
            if valid + _RECORD_HEAD.size + length < size:
                raise ServiceError(
                    f"WAL record at byte {valid} is unreadable but is not the "
                    f"last record ({size - valid} bytes follow): mid-file "
                    "corruption, not a torn append — refusing to truncate "
                    "acknowledged records; repair the log offline "
                    "(replay(strict=True) locates the damage)"
                )
        with open(self.path, "r+b") as handle:
            handle.truncate(valid)
        return torn

    # -- barriers, truncation, shutdown ----------------------------------

    def barrier(self, timeout: Optional[float] = 30.0) -> None:
        """Block until every queued record is committed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queue or self._committing:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ServiceError("WAL commit barrier timed out")
                self._cond.wait(remaining)

    def truncate(self) -> None:
        """Drop every record (call only when all are covered by snapshots;
        the barrier first makes sure nothing in flight survives)."""
        self.barrier()
        self._check_usable()
        self._file.close()
        self._file = open(self.path, "wb")
        self.io.flush(self._file)
        if self.fsync:
            self.io.fsync(self._file)

    def close(self) -> None:
        """Drain the queue, commit, stop the writer, close the file."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._stop_writer()

    def _abandon(self) -> None:
        """Test hook: simulate a crash — queued records are LOST.

        Stops the writer without draining, so anything enqueued after the
        last commit never reaches the file, exactly like power loss
        between ack-staging and the group fsync.
        """
        with self._cond:
            self._crashed = True
            self._queue.clear()
            self._cond.notify_all()
        self._stop_writer()

    def _stop_writer(self) -> None:
        if self._thread is not None:
            self._thread.join(timeout=30)
        self._file.close()

    @property
    def size_bytes(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def stats(self) -> dict:
        """Commit-pipeline counters for STATS reporting."""
        with self._cond:
            count = self.commit_count
            return {
                "queue_depth": len(self._queue),
                "commit_count": count,
                "committed_records": self.committed_records,
                "last_commit_batch": self.last_commit_batch,
                "max_commit_batch": self.max_commit_batch,
                "mean_commit_batch": round(self.committed_records / count, 2) if count else 0.0,
                "last_commit_ms": round(self.last_commit_seconds * 1e3, 3),
                "mean_commit_ms": round(self.total_commit_seconds / count * 1e3, 3)
                if count
                else 0.0,
            }

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

class SnapshotStore:
    """Per-key snapshot files with CRC32-footered ``FRS1`` framing.

    Each file is ``FRS1`` + ``<u64 seq><u16 key_len><key><FRQ1 payload>``
    + ``<u32 crc32>`` over everything between magic and footer.  The WAL
    already CRC-guards every record; the framing closes the snapshot
    plane's bit-rot blind spot — a flipped bit anywhere in the body fails
    the load (:class:`~repro.errors.SnapshotCorruptError`) instead of
    silently decoding into a wrong sketch.  Files written before the
    framing existed (no magic) still parse, carry no checksum to verify,
    and are rewritten framed by their next save.

    With ``fsync=True`` every save is forced to disk (file data before the
    rename, the directory entry after it), matching the power-loss
    durability of an ``fsync``-ing WAL — required when a snapshot is about
    to justify truncating the WAL records it covers.
    """

    def __init__(self, directory, *, fsync: bool = False, io=None) -> None:
        self.directory = Path(directory)
        self.fsync = fsync
        self.io = DEFAULT_IO if io is None else io

    def save(self, key: str, seq: int, payload: bytes) -> None:
        """Atomically write ``key``'s snapshot (temp file + rename)."""
        raw_key = key.encode("utf-8")
        if len(raw_key) > 0xFFFF:
            raise ServiceError(f"key of {len(raw_key)} UTF-8 bytes exceeds the 65535-byte cap")
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / spill_filename(key)
        tmp = path.with_suffix(".tmp")
        body = _SNAP_HEAD.pack(seq, len(raw_key)) + raw_key + payload
        try:
            with open(tmp, "wb") as handle:
                self.io.write(handle, _SNAP_MAGIC + body + _SNAP_CRC.pack(zlib.crc32(body)))
                if self.fsync:
                    self.io.flush(handle)
                    self.io.fsync(handle)
        except Exception:
            # A failed save (ENOSPC mid-write) must not leave a partial
            # temp file to confuse a later rename; the previous snapshot
            # is still intact under the real name.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        tmp.replace(path)
        if self.fsync:
            _fsync_dir(self.directory)

    def load(self, key: str) -> Optional[Tuple[int, bytes]]:
        """``(seq, payload)`` for ``key``, or ``None`` if never snapshotted.

        Verifies the CRC footer before trusting a framed file — recovery
        and the lazy spill path never decode rotten bytes into a sketch.
        """
        path = self.directory / spill_filename(key)
        if not path.exists():
            return None
        seq, _key, payload = self._parse(path)
        return seq, payload

    def load_all(self, *, on_corrupt=None) -> Dict[str, Tuple[int, bytes]]:
        """Every snapshot on disk, ``{key: (seq, payload)}``.

        ``on_corrupt(path, exc)``: called per unreadable file instead of
        aborting the whole load — one rotten snapshot must not take down
        recovery of every other key.  ``None`` keeps the raising
        behavior (integrity audits).
        """
        if not self.directory.exists():
            return {}
        result: Dict[str, Tuple[int, bytes]] = {}
        for path in sorted(self.directory.glob("*.frq1")):
            try:
                seq, key, payload = self._parse(path)
            except SnapshotCorruptError as exc:
                if on_corrupt is None:
                    raise
                on_corrupt(path, exc)
                continue
            result[key] = (seq, payload)
        return result

    def iter_meta(self, *, on_corrupt=None):
        """Yield ``(key, seq)`` per snapshot, reading only the file heads.

        Recovery registers every snapshotted key without touching its
        payload (keys load lazily through the store's spill path), so
        startup I/O stays O(keys), not O(total snapshot bytes).  The CRC
        footer is therefore **not** checked here — the payload read
        (:meth:`load`) and the background scrub do that; this pass only
        validates the structural head.  ``on_corrupt(path, exc)`` skips
        an unreadable file instead of raising.
        """
        if not self.directory.exists():
            return
        for path in sorted(self.directory.glob("*.frq1")):
            with open(path, "rb") as handle:
                try:
                    head = handle.read(len(_SNAP_MAGIC))
                    if head != _SNAP_MAGIC:
                        head += handle.read(_SNAP_HEAD.size - len(head))
                    else:
                        head = handle.read(_SNAP_HEAD.size)
                    seq, key_len = _SNAP_HEAD.unpack(head)
                    raw_key = handle.read(key_len)
                    if len(raw_key) != key_len:
                        raise ValueError("snapshot shorter than its declared key")
                    key = raw_key.decode("utf-8")
                except (struct.error, ValueError, UnicodeDecodeError) as exc:
                    corrupt = SnapshotCorruptError(path, str(exc))
                    corrupt.__cause__ = exc
                    if on_corrupt is None:
                        raise corrupt from exc
                    on_corrupt(path, corrupt)
                    continue
            yield key, seq

    def verify(self, path) -> Tuple[int, str, bytes]:
        """Fully read and checksum one snapshot file (the scrub primitive).

        Returns ``(seq, key, payload)``; raises
        :class:`~repro.errors.SnapshotCorruptError` on any damage.
        """
        return self._parse(path)

    def _parse(self, path) -> Tuple[int, str, bytes]:
        path = Path(path)
        data = self.io.read_bytes(path)
        if data[: len(_SNAP_MAGIC)] == _SNAP_MAGIC:
            if len(data) < len(_SNAP_MAGIC) + _SNAP_CRC.size:
                raise SnapshotCorruptError(path, "truncated FRS1 snapshot")
            body = data[len(_SNAP_MAGIC) : -_SNAP_CRC.size]
            (crc,) = _SNAP_CRC.unpack(data[-_SNAP_CRC.size :])
            if zlib.crc32(body) != crc:
                raise SnapshotCorruptError(path, "FRS1 CRC mismatch (bit rot or torn write)")
        else:
            # Pre-FRS1 snapshot: no checksum to verify, structure only.
            body = data
        try:
            seq, key_len = _SNAP_HEAD.unpack_from(body, 0)
            raw_key = body[_SNAP_HEAD.size : _SNAP_HEAD.size + key_len]
            if len(raw_key) != key_len:
                raise ValueError("snapshot shorter than its declared key")
            key = raw_key.decode("utf-8")
        except (struct.error, ValueError, UnicodeDecodeError) as exc:
            raise SnapshotCorruptError(path, str(exc)) from exc
        return seq, key, body[_SNAP_HEAD.size + key_len :]


def recover(
    store,
    wal: WriteAheadLog,
    snapshots: SnapshotStore,
    applied_seq: Dict[str, int],
    snap_seq: Dict[str, int],
    sessions=None,
    *,
    window_apply=None,
    window_restore=None,
    window_snap_seq: Optional[Dict[str, int]] = None,
    window_applied_seq: Optional[Dict[str, int]] = None,
    on_corrupt=None,
) -> int:
    """Rebuild ``store`` from disk; returns the next free sequence number.

    Every snapshotted key is registered with the store as *spilled* (its
    payload loads lazily through the store's spill callbacks, which the
    server wires to ``snapshots`` — so recovery cost is O(WAL), not
    O(keyspace)).  WAL records newer than the owning key's snapshot are
    then re-applied in order; applying loads keys into residency and the
    store's normal LRU budget enforcement handles any overflow.

    ``applied_seq`` and ``snap_seq`` are the caller's live sequence maps,
    filled in place.  Each record's sequence is entered into
    ``applied_seq`` *before* it is applied: applying can trigger an LRU
    spill, and the spill callback snapshots with ``applied_seq[key]`` —
    recording the pre-apply sequence there would stamp a snapshot that
    already contains the record as not containing it, double-applying it
    on the next recovery.

    ``sessions`` (a :class:`~repro.service.resilience.SessionTable`, or
    ``None``) receives every ``WAL_SEQ_INGEST`` record's session mark —
    including records skipped because a snapshot covers them, since the
    mark must survive regardless of which durability artifact carried
    the values.

    Windowed records (``WAL_WINDOW_INGEST`` / ``WAL_SEQ_WINDOW_INGEST``)
    route through ``window_apply(key, payload)`` and keep their own
    sequence maps (``window_snap_seq`` / ``window_applied_seq``): the
    windowed plane snapshots into a separate store on its own cadence,
    so a key's plain and windowed cover points advance independently.
    The caller is expected to have loaded its windowed snapshots before
    calling.  A log carrying windowed records while ``window_apply`` is
    ``None`` refuses to start — dropping acked writes on a config change
    would be silent data loss.

    ``WAL_MIGRATE_SET`` records (a pushed migration bundle) *replace* the
    key's plain state via ``store.replace_payload`` and its windowed rings
    via ``window_restore(key, frw1_payload)``, each side honoring its own
    snapshot cover; the bundle's session marks always fold into
    ``sessions``, like ``WAL_SEQ_INGEST`` marks do.

    ``on_corrupt(path, exc)``: called per unreadable snapshot file
    instead of aborting recovery of every other key (the server wires
    this to its quarantine hook); ``None`` keeps the raising behavior.
    """
    import numpy as np

    max_seq = 0
    for key, seq in snapshots.iter_meta(on_corrupt=on_corrupt):
        snap_seq[key] = seq
        applied_seq[key] = seq
        max_seq = max(max_seq, seq)
        store.register_spilled(key)
    for record in wal.replay():
        max_seq = max(max_seq, record.seq)
        payload = record.payload
        if record.op in (WAL_SEQ_INGEST, WAL_SEQ_WINDOW_INGEST):
            sid, frame_seq, offset = unpack_session_header(payload)
            if sessions is not None:
                sessions.observe(sid, record.key, frame_seq)
            payload = payload[offset:]
        if record.op == WAL_MIGRATE_SET:
            from repro.service.protocol import unpack_migration_bundle

            try:
                _n, sketch, marks, window = unpack_migration_bundle(payload)
            except Exception as exc:
                raise ServiceError(
                    f"WAL record seq={record.seq} key={record.key!r} carries "
                    f"a corrupt migration bundle ({exc}) — refusing to start "
                    "with partial state"
                ) from exc
            if sessions is not None:
                for sid, mark in marks.items():
                    sessions.observe(sid, record.key, mark)
            if window is not None and record.seq > (window_snap_seq or {}).get(record.key, -1):
                if window_restore is None:
                    raise ServiceError(
                        f"WAL record seq={record.seq} key={record.key!r} is a "
                        "migration with windowed state but the windowed plane "
                        "is disabled — refusing to start and silently drop "
                        "acked writes"
                    )
                if window_applied_seq is not None:
                    window_applied_seq[record.key] = record.seq
                window_restore(record.key, window)
            if sketch is not None and record.seq > snap_seq.get(record.key, -1):
                applied_seq[record.key] = record.seq
                try:
                    store.replace_payload(record.key, sketch)
                except Exception as exc:
                    raise ServiceError(
                        f"WAL record seq={record.seq} key={record.key!r} cannot "
                        f"be applied ({exc}); the log is inconsistent with the "
                        "store configuration — refusing to start with partial state"
                    ) from exc
            continue
        if record.op in (WAL_WINDOW_INGEST, WAL_SEQ_WINDOW_INGEST):
            if record.seq <= (window_snap_seq or {}).get(record.key, -1):
                continue
            if window_apply is None:
                raise ServiceError(
                    f"WAL record seq={record.seq} key={record.key!r} is a "
                    "windowed ingest but the windowed plane is disabled — "
                    "refusing to start and silently drop acked writes"
                )
            if window_applied_seq is not None:
                window_applied_seq[record.key] = record.seq
            try:
                window_apply(record.key, payload)
            except Exception as exc:
                raise ServiceError(
                    f"WAL record seq={record.seq} key={record.key!r} cannot "
                    f"be applied ({exc}); the log is inconsistent with the "
                    "store configuration — refusing to start with partial state"
                ) from exc
            continue
        if record.seq <= snap_seq.get(record.key, -1):
            continue
        applied_seq[record.key] = record.seq
        try:
            if record.op in (WAL_INGEST, WAL_SEQ_INGEST):
                store.update_many(record.key, np.frombuffer(payload, dtype="<f8"))
            elif record.op == WAL_MERGE:
                store.merge_payload(record.key, record.payload)
            else:
                raise ServiceError(f"unknown WAL op {record.op}")
        except Exception as exc:
            raise ServiceError(
                f"WAL record seq={record.seq} key={record.key!r} cannot be "
                f"applied ({exc}); the log is inconsistent with the store "
                "configuration — refusing to start with partial state"
            ) from exc
    return max_seq + 1
