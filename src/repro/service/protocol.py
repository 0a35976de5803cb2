"""The length-prefixed binary protocol of the quantile service.

One TCP connection carries a sequence of frames in each direction; every
request frame gets exactly one response frame, in order.  A frame is::

    length   u32   byte length of the body (little-endian)
    body     ...   request or response payload

Request bodies start with a one-byte opcode; response bodies start with a
one-byte status (``0`` = OK, anything else an error code followed by a
UTF-8 message).  All integers are little-endian; all value arrays are raw
contiguous little-endian float64 — the same dtype the fast engine ingests,
so the server feeds ``update_many`` without a conversion pass and the
``FRQ1`` payloads of :mod:`repro.fast.wire` embed unchanged in ``MERGE``
frames and snapshot files.

Requests (``key`` is ``u16 length + UTF-8 bytes``)::

    INGEST        0x01  key, u32 count, count * f64 values
    QUERY         0x02  key, u32 count, count * f64 fractions
    CDF           0x03  key, u32 count, count * f64 split points
    MERGE         0x04  key, u32 length, FRQ1 payload
    STATS         0x05  key (empty = server-wide)
    SNAPSHOT      0x06  (no operands)
    PING          0x07  (no operands)
    MULTI_INGEST  0x08  u32 groups, groups * (key, u32 count, values)
    RANK          0x09  key, u32 count, count * f64 query points
    MULTI_QUERY   0x0A  u32 requests, requests * (key, u8 kind, u32 count,
                        count * f64 points); kind: 0 = quantiles,
                        1 = ranks (inclusive), 2 = cdf
    HELLO         0x0B  u32 flags, session id (key encoding)
    SEQ_INGEST    0x0C  u64 seq, then the INGEST operands
    SEQ_MULTI_INGEST 0x0D  u64 seq, then the MULTI_INGEST operands
    HEALTH        0x0E  (no operands)
    FETCH         0x0F  key — the key's FRQ1 payload (repair read path)
    WINDOW_INGEST 0x10  key, u32 count, count * f64 timestamps,
                        count * f64 values (both zero-copy views)
    WINDOW_QUERY  0x11  key, u8 kind, f64 resolution (0 = finest),
                        f64 start, f64 end, u32 count, count * f64 points
    SUBSCRIBE     0x12  key, f64 resolution (0 = finest), i64 resume_from
                        (first bucket index wanted), u32 count,
                        count * f64 fractions
    SEQ_WINDOW_INGEST 0x13  u64 seq, then the WINDOW_INGEST operands
    TOPOLOGY      0x14  u8 mode: 0 = fetch the installed cluster map,
                        1 = install (u32 length + JSON topology document)
    MIGRATE_PUSH  0x15  key, u32 length, MB1 migration bundle — durably
                        REPLACES the key's state at the receiver
    MIGRATE       0x16  u8 mode (0 = KEYS, 1 = BEGIN, 2 = DRAIN,
                        3 = COMMIT, 4 = ABORT); DRAIN carries a u8
                        freeze flag next; every mode but KEYS then
                        carries the key

Requests for a key a server no longer owns under its installed topology
answer ``STATUS_WRONG_TOPOLOGY`` whose body is two blobs — a UTF-8
message and the server's topology JSON — so one round trip refreshes a
stale client ring (see :func:`wrong_topology_body`).

Responses (after the status byte; every read response carries the key's
``u64 num_retained`` as a trailing footer for observability)::

    INGEST        u64 n                      key's total after the batch
    QUERY         u64 n, f64 eps, values, u64 retained
    CDF           u64 n, f64 eps, masses, u64 retained   count+1 masses
    RANK          u64 n, f64 eps, ranks (f64), u64 retained
    MERGE         u64 n
    STATS         u32 length, UTF-8 JSON
    SNAPSHOT      u32 keys written
    PING          u32 length, UTF-8 version
    MULTI_INGEST  u32 groups, groups * u64 n (per group, in request order)
    MULTI_QUERY   u32 requests, requests * record — each record leads with
                  its OWN u8 status (one missing key cannot fail the
                  batch): OK records are ``0, u64 n, f64 eps, u32 count,
                  values, u64 retained`` (a QUERY/CDF/RANK response body);
                  error records are ``status, u32 length, UTF-8 message``.
    FETCH         u64 n, u32 length, FRQ1 payload
    TOPOLOGY      u32 length, JSON cluster map (empty = none installed)
    MIGRATE_PUSH  u64 n                     key's total after the apply
    MIGRATE       KEYS: u32 count, count * key; BEGIN: u32 length, MB1
                  bundle; DRAIN: u8 frozen (1 once the key is frozen);
                  COMMIT/ABORT: empty
    WINDOW_INGEST u64 accepted               key's lifetime accepted total
    WINDOW_QUERY  u64 n, f64 eps, values, u64 retained   (query body shape)
    SUBSCRIBE     f64 resolution (resolved), i64 next_index, u32 events,
                  events * (u32 length, bucket event) — the catch-up
                  replay, inline so it always precedes live pushes

``SUBSCRIBE`` flips the connection into a push stream: after the ack
(which carries the catch-up events for closed buckets >= ``resume_from``
inline), the server sends one unsolicited OK frame per newly closed
bucket — ``0, bucket event`` — and the connection stops being
request/response (clients dedicate a socket to it).  A bucket event is
``i64 index, f64 start, f64 end, u64 n, f64 eps, u32 count, count * f64
quantiles`` (the subscriber's fractions, evaluated server-side at bucket
close).  Delivery is at-least-once across reconnects but duplicates are
detectable by index: a resuming client re-subscribes with
``resume_from`` = last index + 1 and the server replays only the closed
buckets still retained.

``MULTI_QUERY`` is the vectorized read path.  A *uniform* frame — every
record naming the same key, kind, and point count (many point sets
against one metric) — is fixed-stride on the wire, so both sides move it
with numpy instead of per-request loops: the client tiles one record
template and writes all point rows with a single 2-D slice assignment
(:func:`build_query_frames`), the server verifies uniformity with one
vectorized header compare, extracts every row as one matrix
(:func:`try_uniform_multi_query`), answers them with a single batch call
against the sketch's query index, and emits the response the same way
(:func:`encode_uniform_query_response`).  Other frames take a
per-request loop with identical results.  A *many-key* frame (the
dashboard shape: many keys asking the same kind and points) is answered
column-wise on the same wire format: :func:`pack_multi_query` encodes
the shared ``kind + count + points`` suffix once, the server resolves
each distinct key once per frame, and a response of at least
:data:`FIXED_STRIDE_MIN_REQUESTS` OK records of one answer length is
fixed-stride too, so :func:`encode_uniform_query_response` and
:func:`decode_uniform_query_response` build and read it with per-row
``n``/``eps``/``retained`` columns.  A frame with a failed or refused
record, mixed answer lengths, or fewer requests keeps the per-record
encoding; the bytes are the same either way.

The frame length is capped (:data:`MAX_FRAME`) so a corrupt or hostile
length prefix cannot make either side allocate unbounded memory; both
sides fail the connection loudly with
:class:`~repro.errors.TransportError` (a ``ServiceError`` and a
``ConnectionError``), because the announced body stays unread and the
stream cannot be resynchronized.  A request under the cap can still imply
a response over it, so the response bound
(:func:`query_response_bound`) guards every read opcode — ``QUERY``,
``CDF``, ``RANK``, ``MULTI_QUERY`` and ``WINDOW_QUERY``: the server
answers such a read with a small ``BAD_REQUEST`` and keeps serving the
connection.

Hot-path discipline: every decode helper accepts any buffer (``bytes``,
``bytearray``, ``memoryview``) and reads value arrays as zero-copy
``np.frombuffer`` views — no per-value Python objects anywhere.  Encoders
that run per batch (:func:`build_ingest_frames`) write headers and values
directly into one reusable output buffer via ``pack_into`` + vectorized
numpy slice assignment, so a pipelined client pays one buffer fill and one
``sendall`` for a whole window of frames.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ServiceError, TransportError, WrongTopologyError

__all__ = [
    "OP_INGEST",
    "OP_QUERY",
    "OP_CDF",
    "OP_MERGE",
    "OP_STATS",
    "OP_SNAPSHOT",
    "OP_PING",
    "OP_MULTI_INGEST",
    "OP_RANK",
    "OP_MULTI_QUERY",
    "OP_HELLO",
    "OP_SEQ_INGEST",
    "OP_SEQ_MULTI_INGEST",
    "OP_HEALTH",
    "OP_FETCH",
    "OP_WINDOW_INGEST",
    "OP_WINDOW_QUERY",
    "OP_SUBSCRIBE",
    "OP_SEQ_WINDOW_INGEST",
    "OP_TOPOLOGY",
    "OP_MIGRATE_PUSH",
    "OP_MIGRATE",
    "OP_NAMES",
    "FLAG_EXACTLY_ONCE",
    "HEALTH_READY",
    "HEALTH_OVERLOADED",
    "HEALTH_DRAINING",
    "HEALTH_DEGRADED",
    "KIND_QUANTILES",
    "KIND_RANKS",
    "KIND_CDF",
    "QUERY_KINDS",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_UNKNOWN_KEY",
    "STATUS_BAD_REQUEST",
    "STATUS_RETRY_LATER",
    "STATUS_WRONG_TOPOLOGY",
    "TOPOLOGY_GET",
    "TOPOLOGY_SET",
    "MIGRATE_KEYS",
    "MIGRATE_BEGIN",
    "MIGRATE_DRAIN",
    "MIGRATE_COMMIT",
    "MIGRATE_ABORT",
    "MAX_FRAME",
    "encode_frame",
    "pack_key",
    "pack_values",
    "unpack_key",
    "unpack_values",
    "build_ingest_frames",
    "pack_multi_ingest",
    "unpack_multi_ingest",
    "pack_hello",
    "unpack_hello",
    "pack_hello_response",
    "unpack_hello_response",
    "pack_seq_ingest",
    "pack_seq_multi_ingest",
    "unpack_seq",
    "pack_health",
    "unpack_health_response",
    "pack_window_ingest",
    "unpack_window_ingest",
    "pack_seq_window_ingest",
    "pack_window_query",
    "unpack_window_query",
    "pack_subscribe",
    "unpack_subscribe",
    "pack_bucket_event",
    "unpack_bucket_event",
    "pack_subscribe_response",
    "unpack_subscribe_response",
    "pack_multi_query",
    "unpack_multi_query",
    "kind_code",
    "query_response_bound",
    "ERROR_MESSAGE_CAP",
    "FIXED_STRIDE_MIN_REQUESTS",
    "build_query_frames",
    "try_uniform_multi_query",
    "pack_query_result",
    "unpack_query_result",
    "encode_uniform_query_response",
    "decode_uniform_query_response",
    "read_frame_sync",
    "FrameReader",
    "error_body",
    "raise_for_status",
    "pack_topology",
    "unpack_topology",
    "pack_migrate_push",
    "unpack_migrate_push",
    "pack_migrate",
    "unpack_migrate",
    "pack_keys_response",
    "unpack_keys_response",
    "pack_migration_bundle",
    "unpack_migration_bundle",
    "pack_drain_response",
    "unpack_drain_response",
    "wrong_topology_body",
]

OP_INGEST = 0x01
OP_QUERY = 0x02
OP_CDF = 0x03
OP_MERGE = 0x04
OP_STATS = 0x05
OP_SNAPSHOT = 0x06
OP_PING = 0x07
OP_MULTI_INGEST = 0x08
OP_RANK = 0x09
OP_MULTI_QUERY = 0x0A
#: Session handshake: ``u32 capability flags, session id (key encoding)``.
#: Response: ``status, u32 granted flags, u64 session high-water mark``.
#: Negotiated — an old server answers BAD_REQUEST ("unknown opcode") and
#: the client falls back to the unsequenced protocol.
OP_HELLO = 0x0B
#: ``INGEST`` with a ``u64 seq`` between the opcode and the key; the
#: server applies it at most once per ``(session, key)`` (see
#: :mod:`repro.service.resilience`).
OP_SEQ_INGEST = 0x0C
#: ``MULTI_INGEST`` with a leading ``u64 seq`` shared by every group.
OP_SEQ_MULTI_INGEST = 0x0D
#: Readiness probe: responds ``status, u8 state, u32 length, JSON``.
OP_HEALTH = 0x0E
#: ``key`` -> the key's current ``FRQ1`` payload (``u64 n, u32 length,
#: payload``).  The read half of anti-entropy repair: a cluster
#: coordinator FETCHes the authoritative replica's summary and ships it
#: to a lagging replica through ``MERGE`` — mergeability (the paper's
#: Theorem 3) makes the healed replica as accurate as one that saw the
#: stream directly.  Unknown keys answer ``UNKNOWN_KEY``.
OP_FETCH = 0x0F
#: Windowed ingest: ``key, u32 count, timestamps, values`` — each value
#: lands in the wall-clock bucket its timestamp names (see
#: :mod:`repro.windowed`).  Both arrays decode as zero-copy views.
OP_WINDOW_INGEST = 0x10
#: Horizon read: merge the buckets overlapping ``[start, end)`` at one
#: resolution and answer quantile/rank/cdf points against the merge.
OP_WINDOW_QUERY = 0x11
#: Long-lived push stream: per-bucket-close quantile updates.  The first
#: server-push surface in the protocol — see the module docstring.
OP_SUBSCRIBE = 0x12
#: ``WINDOW_INGEST`` with a ``u64 seq`` between the opcode and the key
#: (the exactly-once windowed write, mirroring ``SEQ_INGEST``).
OP_SEQ_WINDOW_INGEST = 0x13
#: Topology surface: fetch (mode 0) or install (mode 1) the server's
#: cluster map.  An installed map makes the server *ownership-aware*:
#: operations on keys whose replica set excludes this node answer
#: ``STATUS_WRONG_TOPOLOGY`` carrying the map, so stale clients refresh
#: in one round trip.  Installing also persists the map to the data dir
#: (survives restart) and is the per-node commit point of a rebalance.
OP_TOPOLOGY = 0x14
#: State transfer: ``key + MB1 bundle`` (sketch payload, per-session
#: high-water marks, windowed rings).  The receiver durably **replaces**
#: the key's state — replace, not merge, so a retried migration after an
#: abort is idempotent and never double-counts.
OP_MIGRATE_PUSH = 0x15
#: Migration control plane (coordinator -> source node): list keys,
#: begin (capture state), drain (freeze the key, or heartbeat a freeze),
#: commit, abort.
OP_MIGRATE = 0x16

#: Opcode -> wire name (STATS reporting; unknown opcodes render as hex).
OP_NAMES = {
    OP_INGEST: "ingest",
    OP_QUERY: "query",
    OP_CDF: "cdf",
    OP_MERGE: "merge",
    OP_STATS: "stats",
    OP_SNAPSHOT: "snapshot",
    OP_PING: "ping",
    OP_MULTI_INGEST: "multi_ingest",
    OP_RANK: "rank",
    OP_MULTI_QUERY: "multi_query",
    OP_HELLO: "hello",
    OP_SEQ_INGEST: "seq_ingest",
    OP_SEQ_MULTI_INGEST: "seq_multi_ingest",
    OP_HEALTH: "health",
    OP_FETCH: "fetch",
    OP_WINDOW_INGEST: "window_ingest",
    OP_WINDOW_QUERY: "window_query",
    OP_SUBSCRIBE: "subscribe",
    OP_SEQ_WINDOW_INGEST: "seq_window_ingest",
    OP_TOPOLOGY: "topology",
    OP_MIGRATE_PUSH: "migrate_push",
    OP_MIGRATE: "migrate",
}

#: ``HELLO`` capability flag: per-frame sequence numbers + server-side
#: dedup — the exactly-once ingest contract.
FLAG_EXACTLY_ONCE = 0x1

#: ``HEALTH`` states (the ``u8`` after the response status byte).
HEALTH_READY = 0
HEALTH_OVERLOADED = 1
HEALTH_DRAINING = 2
#: Storage cannot accept writes (ENOSPC, poisoned WAL): the server is
#: read-only — ingest sheds with ``RETRY_LATER``, queries still serve.
HEALTH_DEGRADED = 3

#: ``MULTI_QUERY`` request kinds (the per-record ``u8 kind`` operand).
KIND_QUANTILES = 0
KIND_RANKS = 1
KIND_CDF = 2

#: Client-facing kind names -> wire codes.
QUERY_KINDS = {"quantiles": KIND_QUANTILES, "ranks": KIND_RANKS, "cdf": KIND_CDF}

STATUS_OK = 0
#: Generic server-side failure (the message says what went wrong).
STATUS_ERROR = 1
#: The requested key does not exist (queries never create keys).
STATUS_UNKNOWN_KEY = 2
#: The frame could not be decoded (bad opcode, truncated operands, ...).
STATUS_BAD_REQUEST = 3
#: The server is shedding load (or draining); the request was NOT
#: applied — back off and resend the same frame.
STATUS_RETRY_LATER = 4
#: The request named a key this node no longer owns under its installed
#: cluster topology; the request was NOT applied.  The body carries the
#: server's map JSON (:func:`wrong_topology_body`) so the client can
#: refresh its ring and re-route without a separate topology fetch.
STATUS_WRONG_TOPOLOGY = 5

#: ``TOPOLOGY`` request modes (the ``u8`` after the opcode).
TOPOLOGY_GET = 0
TOPOLOGY_SET = 1

#: ``MIGRATE`` request modes (the ``u8`` after the opcode).
MIGRATE_KEYS = 0
MIGRATE_BEGIN = 1
MIGRATE_DRAIN = 2
MIGRATE_COMMIT = 3
MIGRATE_ABORT = 4

#: Hard cap on one frame's body, request or response (64 MiB ~ an 8M-value
#: ingest batch — far past the point where splitting batches is free).
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct("<I")
_KEYLEN = struct.Struct("<H")
_COUNT = struct.Struct("<I")
_N = struct.Struct("<Q")
_EPS = struct.Struct("<d")

#: Fixed sizes of an OK query record: ``status + n + eps + count`` head
#: and the ``u64 num_retained`` footer (the values sit between them).
_QREC_HEAD = 1 + _N.size + _EPS.size + _COUNT.size
_QREC_TAIL = _N.size

#: Fewest requests for which a many-key ``MULTI_QUERY`` frame is answered
#: and decoded with the fixed-stride codec
#: (:func:`encode_uniform_query_response`,
#: :func:`decode_uniform_query_response`) instead of one record at a
#: time.  Its fixed cost (column byte views, ``np.stack``, the decode's
#: row compares) loses on small frames: server answer plus client decode
#: of many-key frames of 4-fraction quantile requests, in process on one
#: pinned core of a 2-core x86 VM, took 1.39x the per-record time at 1
#: request, 1.12x at 8, 1.00x at 12-13, 0.94x at 16, 0.81x at 64 and
#: 0.78x at 256.  16 is the first power of two past that crossover.
FIXED_STRIDE_MIN_REQUESTS = 16

#: Wire dtype for value arrays (explicit little-endian float64).
WIRE_DTYPE = np.dtype("<f8")


def encode_frame(body: bytes) -> bytes:
    """Prefix ``body`` with its u32 length."""
    if len(body) > MAX_FRAME:
        raise ServiceError(f"frame body of {len(body)} bytes exceeds MAX_FRAME ({MAX_FRAME})")
    return _LEN.pack(len(body)) + body


def pack_key(key: str) -> bytes:
    """``u16 length + UTF-8`` key encoding (keys are capped at 64 KiB - 1)."""
    raw = key.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ServiceError(f"key of {len(raw)} UTF-8 bytes exceeds the 65535-byte cap")
    return _KEYLEN.pack(len(raw)) + raw


def pack_values(values) -> bytes:
    """``u32 count`` + the values as raw little-endian float64."""
    array = np.ascontiguousarray(values, dtype=WIRE_DTYPE).reshape(-1)
    return _COUNT.pack(array.size) + array.tobytes()


def unpack_key(body: bytes, offset: int) -> Tuple[str, int]:
    """Decode a packed key at ``offset``; returns ``(key, new_offset)``."""
    try:
        (length,) = _KEYLEN.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated key length: {exc}") from exc
    offset += _KEYLEN.size
    end = offset + length
    if end > len(body):
        raise ServiceError(f"truncated key: {length} bytes declared, {len(body) - offset} present")
    try:
        # bytes() first so memoryview/bytearray bodies decode too; the copy
        # is just the key (<= 64 KiB), never the value payload.
        return bytes(body[offset:end]).decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ServiceError(f"key is not valid UTF-8: {exc}") from exc


def unpack_values(body: bytes, offset: int) -> Tuple[np.ndarray, int]:
    """Decode a packed value array at ``offset``; returns ``(array, new_offset)``.

    The array is a zero-copy read-only view into ``body`` when the host is
    little-endian (the overwhelmingly common case).
    """
    try:
        (count,) = _COUNT.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated value count: {exc}") from exc
    offset += _COUNT.size
    end = offset + 8 * count
    if end > len(body):
        raise ServiceError(
            f"truncated values: {count} declared, {(len(body) - offset) // 8} present"
        )
    return np.frombuffer(body, dtype=WIRE_DTYPE, count=count, offset=offset), end


def pack_n(n: int) -> bytes:
    return _N.pack(n)


def unpack_n(body: bytes, offset: int) -> Tuple[int, int]:
    try:
        (n,) = _N.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated u64: {exc}") from exc
    return n, offset + _N.size


def pack_blob(data: bytes) -> bytes:
    """``u32 length`` + raw bytes (FRQ1 payloads, JSON stats, ...)."""
    return _COUNT.pack(len(data)) + data


def unpack_blob(body: bytes, offset: int) -> Tuple[bytes, int]:
    try:
        (length,) = _COUNT.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated blob length: {exc}") from exc
    offset += _COUNT.size
    end = offset + length
    if end > len(body):
        raise ServiceError(f"truncated blob: {length} bytes declared, {len(body) - offset} present")
    return bytes(body[offset:end]), end


def build_ingest_frames(
    key: str,
    values,
    *,
    frame_values: int = 8192,
    out: Optional[bytearray] = None,
    start_seq: Optional[int] = None,
):
    """Encode ``values`` as consecutive complete ``INGEST`` frames.

    The whole window is laid out in **one** buffer — headers via
    ``pack_into``, values via vectorized numpy slice assignment straight
    into the buffer (no per-value objects, no ``bytes`` concatenation) —
    so a pipelined sender pays a single ``sendall`` per window.

    Args:
        key: Target key (shared by every frame).
        values: The batch; split into frames of at most ``frame_values``.
        frame_values: Values per frame (the last frame takes the remainder).
        out: Optional reusable scratch ``bytearray``; grown in place when
            too small.  Callers must be done with the previous window (and
            have released any views into it) before reusing.
        start_seq: When given, frames are ``SEQ_INGEST`` carrying
            sequence numbers ``start_seq, start_seq + 1, ...`` (one per
            frame) for the server's exactly-once dedup.  Frame boundaries
            are a pure function of ``frame_values`` and the slice offset,
            so a rewound stream re-encodes byte-identical frames with
            identical sequence numbers.

    Returns:
        ``(window, counts)`` — a :class:`memoryview` over the encoded
        frames and the per-frame value counts, in order.
    """
    array = np.ascontiguousarray(values, dtype=WIRE_DTYPE).reshape(-1)
    if array.size == 0:
        raise ServiceError("cannot frame an empty batch")
    if frame_values < 1:
        raise ServiceError(f"frame_values must be >= 1, got {frame_values}")
    raw_key = pack_key(key)
    seq_size = 0 if start_seq is None else _N.size
    head = 1 + seq_size + len(raw_key) + _COUNT.size  # opcode [+ seq] + key + count
    if head + 8 * frame_values > MAX_FRAME:
        raise ServiceError(
            f"{frame_values} values per frame exceeds MAX_FRAME ({MAX_FRAME})"
        )
    n = int(array.size)
    nframes = -(-n // frame_values)
    total = nframes * (_LEN.size + head) + 8 * n
    if out is None:
        buf = bytearray(total)
    else:
        buf = out
        if len(buf) < total:
            buf.extend(bytes(total - len(buf)))
    counts = []
    offset = 0
    pos = 0
    seq = start_seq
    while pos < n:
        count = min(frame_values, n - pos)
        _LEN.pack_into(buf, offset, head + 8 * count)
        offset += _LEN.size
        if seq_size:
            buf[offset] = OP_SEQ_INGEST
            _N.pack_into(buf, offset + 1, seq)
            seq += 1
            offset += 1 + seq_size
        else:
            buf[offset] = OP_INGEST
            offset += 1
        buf[offset : offset + len(raw_key)] = raw_key
        offset += len(raw_key)
        _COUNT.pack_into(buf, offset, count)
        offset += _COUNT.size
        np.frombuffer(buf, dtype=WIRE_DTYPE, count=count, offset=offset)[:] = array[
            pos : pos + count
        ]
        offset += 8 * count
        pos += count
        counts.append(count)
    return memoryview(buf)[:offset], counts


def pack_multi_ingest(batches) -> bytes:
    """One ``MULTI_INGEST`` request body from ``(key, values)`` pairs.

    Fan-in convenience: several keys' batches travel (and are acked) as a
    single frame, pricing one round trip for the lot.
    """
    items = list(batches.items()) if hasattr(batches, "items") else list(batches)
    if not items:
        raise ServiceError("MULTI_INGEST needs at least one (key, values) group")
    parts = [bytes([OP_MULTI_INGEST]), _COUNT.pack(len(items))]
    for key, values in items:
        parts.append(pack_key(key))
        parts.append(pack_values(values))
    body = b"".join(parts)
    if len(body) > MAX_FRAME:
        raise ServiceError(f"MULTI_INGEST body of {len(body)} bytes exceeds MAX_FRAME")
    return body


def unpack_multi_ingest(body, offset: int = 1):
    """Decode a ``MULTI_INGEST`` body into ``[(key, values_view), ...]``.

    Value arrays are zero-copy views into ``body``.  The groups are read in
    one loop of local ``unpack_from`` calls (a frame carries thousands of
    small groups); a group that fails to decode is decoded again with
    :func:`unpack_key`/:func:`unpack_values` for the reason.  Any truncation
    or trailing garbage raises :class:`~repro.errors.ServiceError` naming
    the offending group, so a pipelined client can attribute the failure.
    """
    try:
        (groups,) = _COUNT.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated MULTI_INGEST group count: {exc}") from exc
    offset += _COUNT.size
    if groups == 0:
        raise ServiceError("MULTI_INGEST declares zero groups")
    size = len(body)
    keylen_at = _KEYLEN.unpack_from
    count_at = _COUNT.unpack_from
    frombuffer = np.frombuffer
    out = []
    append = out.append
    try:
        for index in range(groups):
            start = offset
            (length,) = keylen_at(body, offset)
            offset += 2 + length
            key = str(body[start + 2 : offset], "utf-8")
            (count,) = count_at(body, offset)  # also fails on a truncated key
            offset += 4
            end = offset + 8 * count
            if end > size:
                break
            append((key, frombuffer(body, WIRE_DTYPE, count, offset)))
            offset = end
        else:
            if offset != size:
                raise ServiceError(
                    f"{size - offset} trailing bytes after MULTI_INGEST group {groups - 1}"
                )
            return out
    except (struct.error, UnicodeDecodeError):
        pass
    # Group ``index`` (starting at ``start``) is bad: the helpers say why.
    try:
        unpack_values(body, unpack_key(body, start)[1])
    except ServiceError as exc:
        raise ServiceError(f"MULTI_INGEST group {index}: {exc}") from exc
    raise ServiceError(f"MULTI_INGEST group {index} does not decode")


def pack_hello(session_id: str, flags: int = FLAG_EXACTLY_ONCE) -> bytes:
    """A ``HELLO`` request body: capability flags + the session id."""
    return bytes([OP_HELLO]) + _COUNT.pack(flags) + pack_key(session_id)


def unpack_hello(body) -> Tuple[int, str]:
    """Decode a ``HELLO`` body into ``(flags, session_id)``."""
    try:
        (flags,) = _COUNT.unpack_from(body, 1)
    except struct.error as exc:
        raise ServiceError(f"truncated HELLO flags: {exc}") from exc
    sid, offset = unpack_key(body, 1 + _COUNT.size)
    if offset != len(body):
        raise ServiceError(f"{len(body) - offset} trailing bytes after HELLO session id")
    if not sid:
        raise ServiceError("HELLO session id must be non-empty")
    return flags, sid


def pack_hello_response(granted: int, high_water: int) -> bytes:
    """An OK ``HELLO`` response: granted flags + session high-water mark."""
    return b"\x00" + _COUNT.pack(granted) + _N.pack(high_water)


def unpack_hello_response(payload) -> Tuple[int, int]:
    """Decode an OK ``HELLO`` payload into ``(granted, high_water)``."""
    try:
        (granted,) = _COUNT.unpack_from(payload, 0)
        (high_water,) = _N.unpack_from(payload, _COUNT.size)
    except struct.error as exc:
        raise ServiceError(f"truncated HELLO response: {exc}") from exc
    return granted, high_water


def pack_seq_ingest(seq: int, key: str, values) -> bytes:
    """One ``SEQ_INGEST`` body (the single-frame, non-streamed encode)."""
    return bytes([OP_SEQ_INGEST]) + _N.pack(seq) + pack_key(key) + pack_values(values)


def pack_seq_multi_ingest(seq: int, batches) -> bytes:
    """A ``SEQ_MULTI_INGEST`` body: ``u64 seq`` + the MULTI_INGEST groups."""
    body = pack_multi_ingest(batches)
    out = bytes([OP_SEQ_MULTI_INGEST]) + _N.pack(seq) + body[1:]
    if len(out) > MAX_FRAME:
        raise ServiceError(f"SEQ_MULTI_INGEST body of {len(out)} bytes exceeds MAX_FRAME")
    return out


def unpack_seq(body, offset: int = 1) -> Tuple[int, int]:
    """Decode the ``u64 seq`` of a sequenced frame; returns ``(seq, new_offset)``."""
    try:
        (seq,) = _N.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated sequence number: {exc}") from exc
    if seq == 0:
        raise ServiceError("sequence numbers start at 1 (0 is reserved)")
    return seq, offset + _N.size


def pack_health() -> bytes:
    """A ``HEALTH`` request body (no operands)."""
    return bytes([OP_HEALTH])


def unpack_health_response(payload) -> Tuple[int, bytes]:
    """Decode an OK ``HEALTH`` payload into ``(state, json_blob)``."""
    if not len(payload):
        raise ServiceError("truncated HEALTH response")
    state = payload[0]
    blob, _ = unpack_blob(payload, 1)
    return state, blob


_F64 = struct.Struct("<d")
_IDX = struct.Struct("<q")


def _unpack_f64(body, offset: int, what: str) -> Tuple[float, int]:
    try:
        (value,) = _F64.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated {what}: {exc}") from exc
    return float(value), offset + _F64.size


def _pack_ts_values(timestamps, values) -> bytes:
    """``u32 count`` + timestamps + values (parallel f64 arrays)."""
    ts = np.ascontiguousarray(timestamps, dtype=WIRE_DTYPE).reshape(-1)
    vals = np.ascontiguousarray(values, dtype=WIRE_DTYPE).reshape(-1)
    if ts.size != vals.size:
        raise ServiceError(
            f"windowed batch length mismatch: {ts.size} timestamps vs {vals.size} values"
        )
    return _COUNT.pack(ts.size) + ts.tobytes() + vals.tobytes()


def pack_window_ingest(key: str, timestamps, values) -> bytes:
    """One ``WINDOW_INGEST`` body: key + parallel (timestamp, value) arrays."""
    body = bytes([OP_WINDOW_INGEST]) + pack_key(key) + _pack_ts_values(timestamps, values)
    if len(body) > MAX_FRAME:
        raise ServiceError(f"WINDOW_INGEST body of {len(body)} bytes exceeds MAX_FRAME")
    return body


def pack_seq_window_ingest(seq: int, key: str, timestamps, values) -> bytes:
    """``WINDOW_INGEST`` with a leading ``u64 seq`` (exactly-once dedup)."""
    body = (
        bytes([OP_SEQ_WINDOW_INGEST])
        + _N.pack(seq)
        + pack_key(key)
        + _pack_ts_values(timestamps, values)
    )
    if len(body) > MAX_FRAME:
        raise ServiceError(f"SEQ_WINDOW_INGEST body of {len(body)} bytes exceeds MAX_FRAME")
    return body


def unpack_window_ingest(body, offset: int = 1):
    """Decode ``WINDOW_INGEST`` operands into ``(key, ts_view, values_view)``.

    Both arrays are zero-copy float64 views into ``body`` — the windowed
    twin of :func:`unpack_values`' discipline.
    """
    key, offset = unpack_key(body, offset)
    try:
        (count,) = _COUNT.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated WINDOW_INGEST count: {exc}") from exc
    offset += _COUNT.size
    end = offset + 16 * count
    if end != len(body):
        raise ServiceError(
            f"WINDOW_INGEST declares {count} pairs ({16 * count} bytes) "
            f"but carries {len(body) - offset}"
        )
    ts = np.frombuffer(body, dtype=WIRE_DTYPE, count=count, offset=offset)
    values = np.frombuffer(body, dtype=WIRE_DTYPE, count=count, offset=offset + 8 * count)
    return key, ts, values


def pack_window_query(
    key: str, kind, resolution: float, start: float, end: float, points
) -> bytes:
    """One ``WINDOW_QUERY`` body (kind as in ``MULTI_QUERY`` records)."""
    return (
        bytes([OP_WINDOW_QUERY])
        + pack_key(key)
        + bytes([kind_code(kind)])
        + _F64.pack(resolution)
        + _F64.pack(start)
        + _F64.pack(end)
        + pack_values(points)
    )


def unpack_window_query(body, offset: int = 1):
    """``(key, kind, resolution, start, end, points_view)`` for WINDOW_QUERY."""
    key, offset = unpack_key(body, offset)
    if offset >= len(body):
        raise ServiceError("truncated WINDOW_QUERY kind byte")
    kind = body[offset]
    offset += 1
    resolution, offset = _unpack_f64(body, offset, "WINDOW_QUERY resolution")
    start, offset = _unpack_f64(body, offset, "WINDOW_QUERY start")
    end, offset = _unpack_f64(body, offset, "WINDOW_QUERY end")
    points, offset = unpack_values(body, offset)
    if offset != len(body):
        raise ServiceError(f"{len(body) - offset} trailing bytes after WINDOW_QUERY points")
    return key, kind, resolution, start, end, points


def pack_subscribe(key: str, resolution: float, resume_from: int, fractions) -> bytes:
    """One ``SUBSCRIBE`` body: watch (key, resolution) from a bucket index."""
    return (
        bytes([OP_SUBSCRIBE])
        + pack_key(key)
        + _F64.pack(resolution)
        + _IDX.pack(resume_from)
        + pack_values(fractions)
    )


def unpack_subscribe(body, offset: int = 1):
    """``(key, resolution, resume_from, fractions_view)`` for SUBSCRIBE."""
    key, offset = unpack_key(body, offset)
    resolution, offset = _unpack_f64(body, offset, "SUBSCRIBE resolution")
    try:
        (resume_from,) = _IDX.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated SUBSCRIBE resume index: {exc}") from exc
    offset += _IDX.size
    fractions, offset = unpack_values(body, offset)
    if fractions.size == 0:
        raise ServiceError("SUBSCRIBE needs at least one fraction")
    if offset != len(body):
        raise ServiceError(f"{len(body) - offset} trailing bytes after SUBSCRIBE fractions")
    return key, resolution, int(resume_from), fractions


def pack_bucket_event(
    index: int, start: float, end: float, n: int, eps: float, values
) -> bytes:
    """One bucket event: the payload of a push frame (after its status)."""
    array = np.ascontiguousarray(values, dtype=WIRE_DTYPE).reshape(-1)
    return (
        _IDX.pack(index)
        + _F64.pack(start)
        + _F64.pack(end)
        + _N.pack(n)
        + _EPS.pack(eps)
        + _COUNT.pack(array.size)
        + array.tobytes()
    )


def unpack_bucket_event(payload, offset: int = 0):
    """``(index, start, end, n, eps, values_view, new_offset)``."""
    try:
        (index,) = _IDX.unpack_from(payload, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated bucket event index: {exc}") from exc
    offset += _IDX.size
    start, offset = _unpack_f64(payload, offset, "bucket event start")
    end, offset = _unpack_f64(payload, offset, "bucket event end")
    n, offset = unpack_n(payload, offset)
    eps, offset = _unpack_f64(payload, offset, "bucket event error bound")
    values, offset = unpack_values(payload, offset)
    return int(index), start, end, n, eps, values, offset


def pack_subscribe_response(resolution: float, next_index: int, events) -> bytes:
    """An OK ``SUBSCRIBE`` ack: resolved resolution, live cursor, catch-up.

    ``events`` are already-encoded bucket event bodies
    (:func:`pack_bucket_event`).  Carrying the catch-up inline in the ack
    (instead of as separate pushes) pins the ordering: a subscriber
    always sees its replay before any live push.
    """
    parts = [
        b"\x00",
        _F64.pack(resolution),
        _IDX.pack(next_index),
        _COUNT.pack(len(events)),
    ]
    for event in events:
        parts.append(_COUNT.pack(len(event)))
        parts.append(event)
    body = b"".join(parts)
    if len(body) > MAX_FRAME:
        raise ServiceError(f"SUBSCRIBE response of {len(body)} bytes exceeds MAX_FRAME")
    return body


def unpack_subscribe_response(payload):
    """``(resolution, next_index, [event bodies])`` for an OK SUBSCRIBE ack."""
    resolution, offset = _unpack_f64(payload, 0, "SUBSCRIBE ack resolution")
    try:
        (next_index,) = _IDX.unpack_from(payload, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated SUBSCRIBE ack cursor: {exc}") from exc
    offset += _IDX.size
    try:
        (count,) = _COUNT.unpack_from(payload, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated SUBSCRIBE ack event count: {exc}") from exc
    offset += _COUNT.size
    events = []
    for _ in range(count):
        blob, offset = unpack_blob(payload, offset)
        events.append(blob)
    if offset != len(payload):
        raise ServiceError(
            f"{len(payload) - offset} trailing bytes after SUBSCRIBE ack events"
        )
    return resolution, int(next_index), events


def kind_code(kind) -> int:
    """Normalize a query kind — a :data:`QUERY_KINDS` name or a numeric
    wire code — to its ``u8`` code.  The single spelling of this check:
    clients, frame builders, and the server all route through it, so a
    new kind is added in exactly one table."""
    if isinstance(kind, str):
        try:
            return QUERY_KINDS[kind]
        except KeyError:
            raise ServiceError(
                f"unknown query kind {kind!r}; expected one of {sorted(QUERY_KINDS)}"
            ) from None
    code = int(kind)
    if not 0 <= code <= 0xFF:
        raise ServiceError(f"query kind {kind!r} does not fit the u8 kind byte")
    return code


def query_response_bound(requests: int, count) -> int:
    """Upper bound on a read's response body, as a ``MULTI_QUERY``
    response of ``requests`` records of ``count`` points each (or, when
    ``count`` is an array, of one record per listed count).

    An OK record outweighs its request record (the fixed head plus the
    ``num_retained`` footer, and ``cdf`` answers ``count + 1`` masses),
    so a request frame under :data:`MAX_FRAME` can imply a response over
    it.  Both sides use this bound to refuse such reads up front — the
    server with a small error frame, for every read opcode (a
    ``QUERY``/``CDF``/``RANK``/``WINDOW_QUERY`` answer is bounded as one
    record) — instead of emitting a frame the protocol layer itself
    forbids.  Error records are bounded too (messages are truncated to
    :data:`ERROR_MESSAGE_CAP`).
    """
    error = 1 + _COUNT.size + ERROR_MESSAGE_CAP
    if isinstance(count, (int, np.integer)):
        return 1 + _COUNT.size + requests * max(_QREC_HEAD + 8 * (count + 1) + _QREC_TAIL, error)
    records = np.maximum(_QREC_HEAD + 8 * (np.asarray(count) + 1) + _QREC_TAIL, error)
    return 1 + _COUNT.size + int(records.sum())


#: Per-record error messages inside MULTI_QUERY responses are truncated
#: to this many UTF-8 bytes so the response bound holds for any key size.
ERROR_MESSAGE_CAP = 512


def pack_multi_query(requests) -> bytes:
    """One ``MULTI_QUERY`` request body from ``(key, kind, points)`` triples.

    ``kind`` is a wire code (:data:`KIND_QUANTILES` / :data:`KIND_RANKS` /
    :data:`KIND_CDF`) or its :data:`QUERY_KINDS` name.  The generic
    encoder — mixed keys, kinds, and point counts; uniform single-key
    batches should go through :func:`build_query_frames` instead.

    The ``kind + count + points`` suffix of a record is encoded once and
    reused while consecutive requests carry the same ``points`` object
    and an equal ``kind`` — the dashboard shape, many keys asking one
    fractions list — so such a frame costs one key encoding per request.
    """
    items = list(requests)
    if not items:
        raise ServiceError("MULTI_QUERY needs at least one (key, kind, points) request")
    parts = [bytes([OP_MULTI_QUERY]), _COUNT.pack(len(items))]
    last_points = last_kind = suffix = None
    for key, kind, points in items:
        parts.append(pack_key(key))
        if suffix is None or points is not last_points or kind != last_kind:
            suffix = bytes([kind_code(kind)]) + pack_values(points)
            last_points, last_kind = points, kind
        parts.append(suffix)
    body = b"".join(parts)
    if len(body) > MAX_FRAME:
        raise ServiceError(f"MULTI_QUERY body of {len(body)} bytes exceeds MAX_FRAME")
    return body


def unpack_multi_query(body, offset: int = 1):
    """Decode a ``MULTI_QUERY`` body into ``[(key, kind, points_view), ...]``.

    Point arrays are zero-copy views into ``body``.  One pass with the
    record layout inlined (no helper call per record); truncation or
    trailing garbage raises :class:`~repro.errors.ServiceError` naming
    the offending request.
    """
    try:
        (requests,) = _COUNT.unpack_from(body, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated MULTI_QUERY request count: {exc}") from exc
    offset += _COUNT.size
    if requests == 0:
        raise ServiceError("MULTI_QUERY declares zero requests")
    size = len(body)
    key_length, value_count = _KEYLEN.unpack_from, _COUNT.unpack_from
    out = []
    for index in range(requests):
        try:
            (length,) = key_length(body, offset)
            start = offset + _KEYLEN.size
            kind_at = start + length
            (count,) = value_count(body, kind_at + 1)
            first = kind_at + 1 + _COUNT.size
            end = first + 8 * count
            if end > size:
                raise struct.error("truncated values")
            key = str(body[start:kind_at], "utf-8")
        except (struct.error, UnicodeDecodeError):
            _raise_record_error(body, offset, index)
        out.append((key, body[kind_at], np.frombuffer(body, WIRE_DTYPE, count, first)))
        offset = end
    if offset != size:
        raise ServiceError(
            f"{size - offset} trailing bytes after MULTI_QUERY request {requests - 1}"
        )
    return out


def _raise_record_error(body, offset: int, index: int):
    """Raise the precise error for the malformed ``MULTI_QUERY`` request
    ``index`` at ``offset``, re-read with the checked helpers."""
    try:
        key_end = unpack_key(body, offset)[1]
        if key_end >= len(body):
            raise ServiceError("truncated kind byte")
        unpack_values(body, key_end + 1)
    except ServiceError as exc:
        raise ServiceError(f"MULTI_QUERY request {index}: {exc}") from exc
    raise ServiceError(f"MULTI_QUERY request {index}: malformed record")


def build_query_frames(
    key: str,
    kind,
    points,
    *,
    frame_requests: int = 512,
    out: Optional[bytearray] = None,
):
    """Encode uniform query requests as consecutive ``MULTI_QUERY`` frames.

    ``points`` is a 2-D float64 array — one row per request, all against
    ``key`` with the same ``kind``.  Uniform records are fixed-stride, so
    the whole window is built vectorized: one record template tiled by a
    broadcast assignment, every point row written with a single 2-D slice
    assignment — no per-request packing, mirroring
    :func:`build_ingest_frames` on the write side.

    Returns ``(window, counts)`` — a :class:`memoryview` over the encoded
    frames and the per-frame request counts, in order.  Same ``out``
    scratch contract as :func:`build_ingest_frames`.
    """
    kind = kind_code(kind)
    pts = np.ascontiguousarray(points, dtype=WIRE_DTYPE)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise ServiceError(f"points must be a (requests, count) matrix, got ndim={pts.ndim}")
    nreq, count = pts.shape
    if nreq == 0 or count == 0:
        raise ServiceError("cannot frame an empty query batch")
    if frame_requests < 1:
        raise ServiceError(f"frame_requests must be >= 1, got {frame_requests}")
    raw_key = pack_key(key)
    rec_head = raw_key + bytes([int(kind)]) + _COUNT.pack(count)
    rec = len(rec_head) + 8 * count
    head = 1 + _COUNT.size  # opcode + request count
    per_frame = min(frame_requests, nreq)
    if (
        head + rec * per_frame > MAX_FRAME
        or query_response_bound(per_frame, count) > MAX_FRAME
    ):
        raise ServiceError(
            f"{frame_requests} requests of {count} points per frame exceeds "
            f"MAX_FRAME ({MAX_FRAME}) on the request or response side; "
            "lower frame_requests"
        )
    nframes = -(-nreq // frame_requests)
    total = nframes * (_LEN.size + head) + nreq * rec
    if out is None:
        buf = bytearray(total)
    else:
        buf = out
        if len(buf) < total:
            buf.extend(bytes(total - len(buf)))
    template = np.frombuffer(rec_head + bytes(8 * count), dtype=np.uint8)
    u8 = np.frombuffer(buf, dtype=np.uint8)
    counts = []
    offset = 0
    pos = 0
    while pos < nreq:
        take = min(frame_requests, nreq - pos)
        _LEN.pack_into(buf, offset, head + take * rec)
        offset += _LEN.size
        buf[offset] = OP_MULTI_QUERY
        _COUNT.pack_into(buf, offset + 1, take)
        offset += head
        mat = u8[offset : offset + take * rec].reshape(take, rec)
        mat[:] = template
        mat[:, len(rec_head) :] = pts[pos : pos + take].view(np.uint8)
        offset += take * rec
        pos += take
        counts.append(take)
    return memoryview(buf)[:offset], counts


def try_uniform_multi_query(body):
    """``(key, kind, points_matrix)`` for a uniform frame, else ``None``.

    A frame is uniform when every record shares the first record's key,
    kind, and point count — verified exactly, with one vectorized byte
    compare over the fixed-stride record headers (no per-request parse).
    The returned matrix is one contiguous ``(requests, count)`` float64
    copy of every point row.  Raises on a frame whose *first* record is
    malformed (the generic decoder would too).
    """
    try:
        (requests,) = _COUNT.unpack_from(body, 1)
    except struct.error as exc:
        raise ServiceError(f"truncated MULTI_QUERY request count: {exc}") from exc
    if requests == 0:
        raise ServiceError("MULTI_QUERY declares zero requests")
    base = 1 + _COUNT.size
    try:
        key, offset = unpack_key(body, base)
        if offset >= len(body):
            raise ServiceError("truncated kind byte")
        kind = body[offset]
        (count,) = _COUNT.unpack_from(body, offset + 1)
    except struct.error as exc:
        raise ServiceError(f"MULTI_QUERY request 0: {exc}") from exc
    hdr = (offset - base) + 1 + _COUNT.size
    rec = hdr + 8 * count
    if len(body) - base != requests * rec:
        return None
    u8 = np.frombuffer(body, dtype=np.uint8)
    mat = u8[base:].reshape(requests, rec)
    if requests > 1 and not (mat[1:, :hdr] == mat[0, :hdr]).all():
        return None
    pts = np.ascontiguousarray(mat[:, hdr:]).view(WIRE_DTYPE)
    return key, kind, pts


def pack_query_result(n: int, eps: float, values, retained: int) -> bytes:
    """One OK query payload: ``0, u64 n, f64 eps, values, u64 retained``.

    Doubles as the single ``QUERY``/``CDF``/``RANK`` response body and as
    one OK ``MULTI_QUERY`` record.
    """
    array = np.ascontiguousarray(values, dtype=WIRE_DTYPE).reshape(-1)
    return (
        b"\x00"
        + _N.pack(n)
        + _EPS.pack(eps)
        + _COUNT.pack(array.size)
        + array.tobytes()
        + _N.pack(retained)
    )


def unpack_query_result(payload, offset: int = 0):
    """Decode an OK query payload (after its status byte).

    Returns ``(n, eps, values_view, retained, new_offset)``; the values
    are a zero-copy view into ``payload``.
    """
    n, offset = unpack_n(payload, offset)
    try:
        (eps,) = _EPS.unpack_from(payload, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated error bound: {exc}") from exc
    values, offset = unpack_values(payload, offset + _EPS.size)
    retained, offset = unpack_n(payload, offset)
    return n, float(eps), values, retained, offset


def _packed_scalar(codec: struct.Struct, value) -> bytes:
    """``value`` packed when it is a Python scalar; zeros for a column,
    which :func:`encode_uniform_query_response` writes afterwards."""
    return codec.pack(value) if isinstance(value, (int, float)) else bytes(codec.size)


def encode_uniform_query_response(n, eps, values, retained) -> bytearray:
    """A whole-frame ``MULTI_QUERY`` response of fixed-stride OK records.

    ``values`` is the ``(requests, count)`` float64 answer matrix, one row
    per request; ``n``/``eps``/``retained`` are per-row columns (the
    many-key frame: each key brings its own) or Python scalars shared by
    every row (the single-key uniform frame).  Every record has the same
    length, so the response is one record template (scalars packed in)
    tiled over the frame, then one vectorized write per column —
    byte-identical to joining one :func:`pack_query_result` per row.
    """
    array = np.ascontiguousarray(values, dtype=WIRE_DTYPE)
    if array.ndim != 2:
        raise ServiceError(f"uniform response needs a 2-D matrix, got ndim={array.ndim}")
    requests, count = array.shape
    rec = _QREC_HEAD + 8 * count + _QREC_TAIL
    head = 1 + _COUNT.size
    body = bytearray(head + requests * rec)
    _COUNT.pack_into(body, 1, requests)
    template = (
        b"\x00"
        + _packed_scalar(_N, n)
        + _packed_scalar(_EPS, eps)
        + _COUNT.pack(count)
        + bytes(8 * count)
        + _packed_scalar(_N, retained)
    )
    mat = np.frombuffer(body, dtype=np.uint8)[head:].reshape(requests, rec)
    mat[:] = np.frombuffer(template, dtype=np.uint8)
    fields = ((1, _N, n), (1 + _N.size, _EPS, eps), (rec - _QREC_TAIL, _N, retained))
    for at, codec, value in fields:
        if not isinstance(value, (int, float)):  # a column (a numpy scalar broadcasts)
            column = np.asarray(value, dtype=codec.format).reshape(-1, 1)
            mat[:, at : at + codec.size] = column.view(np.uint8)
    mat[:, _QREC_HEAD : rec - _QREC_TAIL] = array.view(np.uint8)
    return body


def decode_uniform_query_response(payload, expected_requests: int):
    """``(n, eps, values_matrix, retained)`` for a fixed-stride OK response.

    The inverse of :func:`encode_uniform_query_response`: verifies with
    vectorized compares that every record is OK and carries the first
    record's value count — by induction each record then starts where
    the per-record decoder would start it — and extracts the columns:
    ``n`` and ``retained`` as ``uint64`` arrays, ``eps`` as a float64
    array and the value rows as one contiguous ``(requests, count)``
    matrix, all copies, so the result survives receive-scratch reuse.
    Returns ``None`` when the response is not fixed-stride (some record
    failed, answer lengths differ, or the length does not add up);
    callers fall back to the per-record decoder.  Raises on a response
    whose declared request count disagrees with ``expected_requests``.
    """
    try:
        (requests,) = _COUNT.unpack_from(payload, 0)
    except struct.error as exc:
        raise ServiceError(f"truncated MULTI_QUERY response: {exc}") from exc
    if requests != expected_requests:
        raise ServiceError(
            f"MULTI_QUERY response covers {requests} requests, expected {expected_requests}"
        )
    base = _COUNT.size
    count_at = _QREC_HEAD - _COUNT.size
    try:
        (count,) = _COUNT.unpack_from(payload, base + count_at)
    except struct.error:
        return None
    rec = _QREC_HEAD + 8 * count + _QREC_TAIL
    if requests == 0 or len(payload) - base != requests * rec:
        return None
    mat = np.frombuffer(payload, dtype=np.uint8)[base:].reshape(requests, rec)
    if mat[:, 0].any():
        return None
    heads = np.ascontiguousarray(mat[:, :_QREC_HEAD])
    if (heads[:, count_at:] != heads[0, count_at:]).any():
        return None
    eps_at = 1 + _N.size
    n = heads[:, 1:eps_at].copy().view(_N.format).reshape(-1)
    eps = heads[:, eps_at:count_at].copy().view(WIRE_DTYPE).reshape(-1)
    retained = np.ascontiguousarray(mat[:, rec - _QREC_TAIL :]).view(_N.format).reshape(-1)
    values = np.ascontiguousarray(mat[:, _QREC_HEAD : rec - _QREC_TAIL]).view(WIRE_DTYPE)
    return n, eps, values, retained


def pack_topology(map_json: Optional[str] = None) -> bytes:
    """A ``TOPOLOGY`` request body: fetch (no argument) or install."""
    if map_json is None:
        return bytes([OP_TOPOLOGY, TOPOLOGY_GET])
    body = bytes([OP_TOPOLOGY, TOPOLOGY_SET]) + pack_blob(map_json.encode("utf-8"))
    if len(body) > MAX_FRAME:
        raise ServiceError(f"TOPOLOGY body of {len(body)} bytes exceeds MAX_FRAME")
    return body


def unpack_topology(body) -> Tuple[int, Optional[str]]:
    """Decode a ``TOPOLOGY`` body into ``(mode, map_json_or_None)``."""
    if len(body) < 2:
        raise ServiceError("truncated TOPOLOGY mode byte")
    mode = body[1]
    if mode == TOPOLOGY_GET:
        if len(body) != 2:
            raise ServiceError(f"{len(body) - 2} trailing bytes after TOPOLOGY fetch")
        return mode, None
    if mode != TOPOLOGY_SET:
        raise ServiceError(f"unknown TOPOLOGY mode {mode}")
    blob, offset = unpack_blob(body, 2)
    if offset != len(body):
        raise ServiceError(f"{len(body) - offset} trailing bytes after TOPOLOGY document")
    try:
        return mode, blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ServiceError(f"TOPOLOGY document is not valid UTF-8: {exc}") from exc


def pack_migrate_push(key: str, bundle: bytes) -> bytes:
    """A ``MIGRATE_PUSH`` body: the key + its MB1 migration bundle."""
    body = bytes([OP_MIGRATE_PUSH]) + pack_key(key) + pack_blob(bundle)
    if len(body) > MAX_FRAME:
        raise ServiceError(f"MIGRATE_PUSH body of {len(body)} bytes exceeds MAX_FRAME")
    return body


def unpack_migrate_push(body, offset: int = 1) -> Tuple[str, bytes]:
    """Decode a ``MIGRATE_PUSH`` body into ``(key, bundle)``."""
    key, offset = unpack_key(body, offset)
    bundle, offset = unpack_blob(body, offset)
    if offset != len(body):
        raise ServiceError(f"{len(body) - offset} trailing bytes after MIGRATE_PUSH bundle")
    return key, bundle


def pack_migrate(mode: int, key: str = "", *, freeze: bool = False) -> bytes:
    """A ``MIGRATE`` control body (``KEYS`` takes no key)."""
    if mode == MIGRATE_KEYS:
        return bytes([OP_MIGRATE, MIGRATE_KEYS])
    if mode == MIGRATE_DRAIN:
        return bytes([OP_MIGRATE, MIGRATE_DRAIN, 1 if freeze else 0]) + pack_key(key)
    if mode not in (MIGRATE_BEGIN, MIGRATE_COMMIT, MIGRATE_ABORT):
        raise ServiceError(f"unknown MIGRATE mode {mode}")
    return bytes([OP_MIGRATE, mode]) + pack_key(key)


def unpack_migrate(body) -> Tuple[int, bool, str]:
    """Decode a ``MIGRATE`` body into ``(mode, freeze, key)``."""
    if len(body) < 2:
        raise ServiceError("truncated MIGRATE mode byte")
    mode = body[1]
    offset = 2
    freeze = False
    if mode == MIGRATE_KEYS:
        if len(body) != 2:
            raise ServiceError(f"{len(body) - 2} trailing bytes after MIGRATE keys request")
        return mode, False, ""
    if mode == MIGRATE_DRAIN:
        if len(body) < 3:
            raise ServiceError("truncated MIGRATE drain freeze flag")
        freeze = bool(body[2])
        offset = 3
    elif mode not in (MIGRATE_BEGIN, MIGRATE_COMMIT, MIGRATE_ABORT):
        raise ServiceError(f"unknown MIGRATE mode {mode}")
    key, offset = unpack_key(body, offset)
    if offset != len(body):
        raise ServiceError(f"{len(body) - offset} trailing bytes after MIGRATE key")
    if not key:
        raise ServiceError("MIGRATE needs a non-empty key")
    return mode, freeze, key


def pack_keys_response(keys) -> bytes:
    """An OK ``MIGRATE`` KEYS payload: every key the node holds state for."""
    parts = [b"\x00", _COUNT.pack(len(keys))]
    parts.extend(pack_key(key) for key in keys)
    body = b"".join(parts)
    if len(body) > MAX_FRAME:
        raise ServiceError(f"KEYS response of {len(body)} bytes exceeds MAX_FRAME")
    return body


def unpack_keys_response(payload) -> List[str]:
    """The key list of an OK ``KEYS`` payload (after its status byte)."""
    try:
        (count,) = _COUNT.unpack_from(payload, 0)
    except struct.error as exc:
        raise ServiceError(f"truncated KEYS count: {exc}") from exc
    offset = _COUNT.size
    keys = []
    for _ in range(count):
        key, offset = unpack_key(payload, offset)
        keys.append(key)
    if offset != len(payload):
        raise ServiceError(f"{len(payload) - offset} trailing bytes after KEYS list")
    return keys


#: MB1 magic: the migration bundle format tag (versioned like FRQ1/FRW1).
_MB1_MAGIC = b"MB1\x00"


def pack_migration_bundle(
    n: int,
    sketch: Optional[bytes],
    marks,
    window: Optional[bytes] = None,
) -> bytes:
    """One key's migratable state as an ``MB1`` bundle.

    ``n`` is the key's lifetime total, ``sketch`` its FRQ1 payload (absent
    for a purely windowed key), ``marks`` the per-session high-water marks
    ``{session_id: mark}`` for this key (so exactly-once dedup survives the
    move), ``window`` its FRW1 ring bundle when the key has windowed state.
    """
    parts = [_MB1_MAGIC, _N.pack(n)]
    if sketch is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(pack_blob(sketch))
    items = sorted(marks.items()) if hasattr(marks, "items") else sorted(marks)
    parts.append(_COUNT.pack(len(items)))
    for sid, mark in items:
        parts.append(pack_key(sid))
        parts.append(_N.pack(int(mark)))
    if window is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(pack_blob(window))
    bundle = b"".join(parts)
    if len(bundle) > MAX_FRAME:
        raise ServiceError(f"migration bundle of {len(bundle)} bytes exceeds MAX_FRAME")
    return bundle


def unpack_migration_bundle(bundle):
    """Decode an ``MB1`` bundle into ``(n, sketch, marks, window)``."""
    if bytes(bundle[: len(_MB1_MAGIC)]) != _MB1_MAGIC:
        raise ServiceError("migration bundle does not start with the MB1 magic")
    n, offset = unpack_n(bundle, len(_MB1_MAGIC))
    sketch = None
    if offset >= len(bundle):
        raise ServiceError("truncated MB1 sketch flag")
    if bundle[offset]:
        sketch, offset = unpack_blob(bundle, offset + 1)
    else:
        offset += 1
    try:
        (count,) = _COUNT.unpack_from(bundle, offset)
    except struct.error as exc:
        raise ServiceError(f"truncated MB1 mark count: {exc}") from exc
    offset += _COUNT.size
    marks = {}
    for _ in range(count):
        sid, offset = unpack_key(bundle, offset)
        mark, offset = unpack_n(bundle, offset)
        marks[sid] = mark
    window = None
    if offset >= len(bundle):
        raise ServiceError("truncated MB1 window flag")
    if bundle[offset]:
        window, offset = unpack_blob(bundle, offset + 1)
    else:
        offset += 1
    if offset != len(bundle):
        raise ServiceError(f"{len(bundle) - offset} trailing bytes after MB1 window")
    return n, sketch, marks, window


def pack_drain_response(frozen: bool) -> bytes:
    """An OK ``MIGRATE`` DRAIN body: the status and the key's freeze state."""
    return b"\x00\x01" if frozen else b"\x00\x00"


def unpack_drain_response(payload) -> bool:
    """The freeze state of an OK DRAIN payload (after its status)."""
    if len(payload) != 1:
        raise ServiceError(f"DRAIN response of {len(payload)} bytes, expected 1")
    return bool(payload[0])


def wrong_topology_body(message: str, map_json: str) -> bytes:
    """A ``STATUS_WRONG_TOPOLOGY`` response body: message + map blobs."""
    return (
        bytes([STATUS_WRONG_TOPOLOGY])
        + pack_blob(message.encode("utf-8"))
        + pack_blob(map_json.encode("utf-8"))
    )


def error_body(status: int, message: str) -> bytes:
    """A response body carrying an error status and its message."""
    return bytes([status]) + message.encode("utf-8")


def raise_for_status(body) -> bytes:
    """Split a response body into its payload, raising on error statuses.

    Accepts any buffer (``bytes`` or a scratch-backed ``memoryview``).
    Returns the body after the status byte.  Raises
    :class:`~repro.errors.ServiceError` carrying the server's message (and
    a ``status`` attribute) for any non-OK status.
    """
    if not len(body):
        raise ServiceError("empty response frame")
    status = body[0]
    if status == STATUS_OK:
        return body[1:]
    if status == STATUS_WRONG_TOPOLOGY:
        try:
            msg_blob, offset = unpack_blob(body, 1)
            map_blob, _ = unpack_blob(body, offset)
            message = msg_blob.decode("utf-8", errors="replace")
            map_json = map_blob.decode("utf-8", errors="replace")
        except ServiceError:
            message = bytes(body[1:]).decode("utf-8", errors="replace")
            map_json = ""
        exc = WrongTopologyError(message or "stale topology", map_json)
        exc.status = status
        raise exc
    message = bytes(body[1:]).decode("utf-8", errors="replace") or f"status {status}"
    exc = ServiceError(message)
    exc.status = status
    raise exc


def read_frame_sync(sock, *, scratch: Optional[bytearray] = None):
    """Read one frame body from a blocking socket (the sync client's path).

    Reads via ``recv_into`` — the body lands in one preallocated buffer
    (no per-chunk allocations, no join).  Pass a reusable ``scratch``
    ``bytearray`` to skip even that allocation: the return value is then a
    :class:`memoryview` into ``scratch``, valid until the next call that
    reuses it.  Without ``scratch`` the return type stays ``bytes``.

    Raises:
        TransportError: On EOF mid-frame or an oversized length prefix
            (the stream is dead either way: the caller must drop it).
        ConnectionError: If the peer closed before any byte arrived.
    """
    header = bytearray(_LEN.size)
    _recv_into_exact(sock, memoryview(header), eof_ok=True)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise TransportError(f"peer announced a {length}-byte frame (cap {MAX_FRAME})")
    if scratch is None:
        body = bytearray(length)
        _recv_into_exact(sock, memoryview(body), eof_ok=False)
        return bytes(body)
    if len(scratch) < length:
        scratch.extend(bytes(length - len(scratch)))
    view = memoryview(scratch)[:length]
    _recv_into_exact(sock, view, eof_ok=False)
    return view


def _recv_into_exact(sock, view: memoryview, *, eof_ok: bool) -> None:
    """Fill ``view`` from ``sock`` exactly, without intermediate copies."""
    total = len(view)
    got = 0
    while got < total:
        received = sock.recv_into(view[got:])
        if not received:
            if eof_ok and got == 0:
                raise ConnectionError("connection closed")
            raise TransportError(
                f"connection closed {total - got} bytes into a {total}-byte read"
            )
        got += received


class FrameReader:
    """Buffered frame reader over a blocking socket.

    One ``recv_into`` pulls everything the kernel has buffered — under
    pipelining that is a whole window of acks — and successive
    :meth:`read_frame` calls peel frames off without further syscalls.
    Frame bodies are returned as :class:`memoryview`\\ s into the internal
    buffer, valid until the next call (callers decode immediately; anything
    retained must be copied).
    """

    __slots__ = ("_sock", "_buf", "_rpos", "_wpos")

    def __init__(self, sock, *, initial: int = 1 << 16) -> None:
        self._sock = sock
        self._buf = bytearray(initial)
        self._rpos = 0
        self._wpos = 0

    def read_frame(self) -> memoryview:
        """One frame body (EOF/oversize semantics of :func:`read_frame_sync`)."""
        header = self._take(_LEN.size, eof_ok=True)
        (length,) = _LEN.unpack_from(header, 0)
        header.release()
        if length > MAX_FRAME:
            raise TransportError(f"peer announced a {length}-byte frame (cap {MAX_FRAME})")
        return self._take(length, eof_ok=False)

    def _take(self, count: int, *, eof_ok: bool) -> memoryview:
        buf = self._buf
        while self._wpos - self._rpos < count:
            if len(buf) - self._wpos < max(count - (self._wpos - self._rpos), 4096):
                pending = self._wpos - self._rpos
                if pending and self._rpos:
                    buf[:pending] = bytes(memoryview(buf)[self._rpos : self._wpos])
                self._rpos, self._wpos = 0, pending
                if len(buf) - pending < count - pending:
                    # Replace (not resize) so earlier views stay valid.
                    grown = bytearray(max(len(buf) * 2, count + pending))
                    grown[:pending] = memoryview(buf)[:pending]
                    self._buf = buf = grown
            received = self._sock.recv_into(memoryview(buf)[self._wpos :])
            if not received:
                if eof_ok and self._wpos == self._rpos:
                    raise ConnectionError("connection closed")
                raise TransportError(
                    f"connection closed {count - (self._wpos - self._rpos)} bytes "
                    f"into a {count}-byte read"
                )
            self._wpos += received
        view = memoryview(buf)[self._rpos : self._rpos + count]
        self._rpos += count
        if self._rpos == self._wpos:
            self._rpos = self._wpos = 0
        return view
