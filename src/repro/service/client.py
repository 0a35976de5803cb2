"""Clients for the quantile service: one operation core, two drivers.

Every operation is written once, in :class:`_ClientCore`, as a generator
that does no I/O: it yields ``(callable, *args)`` commands — open a
connection, send a frame or window, read a frame, sleep, call a public
method — and gets each result sent (or its exception thrown) back in.
The core holds all client logic: request encoding and decoding, HELLO
and sequence reservation, retry with ``RETRY_LATER`` backoff, the one
window pump behind ``ingest_stream``/``query_stream`` (reconnect and
rewind, shed drain), the ``ingest_one`` buffers, ``subscribe``'s cursor,
and the closed check: any operation on a closed client raises
:class:`~repro.errors.TransportError` and opens no socket.

The drivers only open connections and run commands.
:class:`QuantileClient` uses blocking sockets (a window leaves in one
zero-copy ``sendall``; a buffered reader drains a window of acks per
``recv``).  :class:`AsyncQuantileClient` uses asyncio streams and maps
their timeouts and EOFs into the sync driver's exception family, so
both make the same retry decisions.  Tasks sharing one
:class:`AsyncQuantileClient` take turns, one operation at a time, and an
exchange abandoned midway (a timeout, a cancellation) drops the
connection: a reply is never read as the answer to a later request.

A non-OK status raises :class:`~repro.errors.ServiceError` carrying the
server's message and ``status``; transport failures raise the
``ConnectionError`` family (``TimeoutError`` on a stall).

Example::

    from repro.service import QuantileClient

    with QuantileClient(port=7379) as client:
        client.ingest_stream("tenant-a/latency", latencies)   # pipelined
        result = client.query("tenant-a/latency", [0.5, 0.99])
        p99 = result.quantiles[1]
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import time
from collections import deque
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServiceError, TransportError
from repro.service import protocol as wire
from repro.service.resilience import RetryPolicy
from repro.windowed import parse_duration

__all__ = [
    "QueryResult",
    "BatchQueryResult",
    "BucketEvent",
    "QuantileClient",
    "AsyncQuantileClient",
]

#: Exceptions that mean "the connection is gone".  Note
#: :class:`~repro.errors.TransportError` subclasses ``ConnectionError``,
#: so mid-frame EOFs land here too; a timeout is a ``TimeoutError``, an
#: ``OSError``, so a retry policy's timeout drives the same reconnect
#: path.  The async driver maps its stream errors into this family.
_TRANSPORT_ERRORS = (ConnectionError, OSError)


def _new_session_id() -> str:
    """A fresh exactly-once session id (random; uniqueness is all that
    matters — the server keys its dedup table on it)."""
    return "c-" + os.urandom(8).hex()

#: ``ingest_one`` flushes a key's buffer at this many staged values.
DEFAULT_BATCH = 8192

#: ``ingest_stream`` defaults: values per frame / frames in flight.
DEFAULT_FRAME_VALUES = 8192
DEFAULT_WINDOW = 32

#: ``query_stream`` defaults: requests per MULTI_QUERY frame / frames in
#: flight.  Queries are answered from the cached index in microseconds,
#: so frames amortize framing and the window only needs to hide one RTT.
DEFAULT_FRAME_REQUESTS = 512
DEFAULT_QUERY_WINDOW = 8


class QueryResult(NamedTuple):
    """One QUERY/CDF/RANK answer: ``n``, a-priori eps, values, retained.

    ``quantiles`` holds whatever the request asked for — quantile values,
    rank estimates (as exact float64), or CDF masses; :attr:`values` is
    the kind-neutral alias.  ``num_retained`` is the server sketch's
    retained-item count (the response footer), there so dashboards can
    watch summary size without a separate STATS round trip.
    """

    n: int
    error_bound: float
    quantiles: np.ndarray
    num_retained: int = 0

    @property
    def values(self) -> np.ndarray:
        """Kind-neutral alias for :attr:`quantiles`."""
        return self.quantiles


class BatchQueryResult(NamedTuple):
    """A ``query_stream`` answer: one matrix row per request.

    ``values[i]`` answers request ``i`` (for ``kind="cdf"`` each row has
    one extra trailing ``1.0`` mass).  ``n`` / ``error_bound`` /
    ``num_retained`` describe the key as of the **last** frame (between
    frames a concurrent writer may advance the key; within one frame the
    server is atomic).
    """

    n: int
    error_bound: float
    values: np.ndarray
    num_retained: int = 0


class BucketEvent(NamedTuple):
    """One closed window bucket, as pushed to a subscriber.

    ``values`` holds the bucket's quantiles at the subscription's
    fractions; ``[start, end)`` are the bucket's wall-clock bounds and
    ``index`` its ring index (``floor(start / bucket_seconds)``) — the
    resume cursor for :meth:`QuantileClient.subscribe`.
    """

    index: int
    start: float
    end: float
    n: int
    error_bound: float
    values: np.ndarray


def _decode_bucket_event(payload, offset: int = 0) -> BucketEvent:
    index, start, end, n, eps, values, _ = wire.unpack_bucket_event(payload, offset)
    # Copy: the payload may live in a reusable receive scratch buffer.
    return BucketEvent(index, start, end, n, eps, np.array(values))


def _resolve_horizon(start, end, last, now) -> Tuple[float, float]:
    """``[start, end)`` wall-clock bounds from explicit bounds or ``last``.

    ``last`` is a trailing duration (``"5m"``, ``300``, ``"1h30m"``)
    anchored at ``now`` (default: the client's wall clock) — the
    dashboard shape.  Explicit ``start``/``end`` and ``last`` are
    mutually exclusive.
    """
    if last is not None:
        if start is not None or end is not None:
            raise ServiceError("pass either start/end or last=, not both")
        anchor = float(now) if now is not None else time.time()
        return anchor - parse_duration(last), anchor
    if start is None:
        raise ServiceError("query_horizon needs start= (with optional end=) or last=")
    if end is None:
        end = float(now) if now is not None else time.time()
    return float(start), float(end)


def _decode_query_response(payload) -> QueryResult:
    n, eps, values, retained, end = wire.unpack_query_result(payload, 0)
    if end != len(payload):
        raise ServiceError(f"{len(payload) - end} trailing bytes after a query response")
    # Copy: the payload may live in a reusable receive scratch buffer.
    return QueryResult(n, eps, np.array(values), retained)


def _decode_multi_query_list(payload, *, expected: int, base_index: int = 0):
    """Decode a ``MULTI_QUERY`` response into per-request results.

    Returns a list (one entry per request, in order) of
    :class:`QueryResult` for OK records and :class:`ServiceError` —
    carrying ``status`` and ``request_index`` — for failed ones, so one
    bad key surfaces next to its neighbours' answers instead of masking
    them.  A response of at least
    :data:`~repro.service.protocol.FIXED_STRIDE_MIN_REQUESTS` OK records
    of one answer length is decoded column-wise in one pass.
    """
    if expected >= wire.FIXED_STRIDE_MIN_REQUESTS:
        columns = wire.decode_uniform_query_response(payload, expected)
        if columns is not None:
            n, eps, values, retained = columns
            return list(map(QueryResult, n.tolist(), eps.tolist(), values, retained.tolist()))
    try:
        (count,) = wire._COUNT.unpack_from(payload, 0)
    except Exception as exc:  # struct.error
        raise ServiceError(f"truncated MULTI_QUERY response: {exc}") from exc
    if count != expected:
        raise ServiceError(f"MULTI_QUERY response covers {count} requests, expected {expected}")
    offset = wire._COUNT.size
    out: List[object] = []
    for index in range(count):
        if offset >= len(payload):
            raise ServiceError(f"truncated MULTI_QUERY response record {index}")
        status = payload[offset]
        offset += 1
        if status == wire.STATUS_OK:
            n, eps, values, retained, offset = wire.unpack_query_result(payload, offset)
            out.append(QueryResult(n, eps, np.array(values), retained))
        else:
            blob, offset = wire.unpack_blob(payload, offset)
            exc = ServiceError(blob.decode("utf-8", errors="replace") or f"status {status}")
            exc.status = status
            exc.request_index = base_index + index
            out.append(exc)
    if offset != len(payload):
        raise ServiceError(
            f"{len(payload) - offset} trailing bytes after MULTI_QUERY response record {count - 1}"
        )
    return out


def _normalize_query_request(request):
    """``(key, points)`` or ``(key, kind, points)`` -> ``(key, kind, points)``."""
    if len(request) == 2:
        key, points = request
        return key, "quantiles", points
    if len(request) == 3:
        return request
    raise ServiceError(
        f"query requests are (key, points) or (key, kind, points) tuples, "
        f"got {len(request)} elements"
    )


class _WindowedStream:
    """The I/O-agnostic send-window state machine of the pipelined paths.

    Shared by :class:`_IngestStream` and :class:`_QueryStream`, which the
    core's one window pump drives: owns the in-flight frame accounting
    and error collection so reads and writes pipeline through the same
    discipline and the stream entry points differ only in what a frame
    means.  Drive it with :meth:`next_window` (a :class:`memoryview` to
    send, or ``None`` when the window is full / the data is exhausted),
    feed every received response body to :meth:`ack`, and call
    :meth:`finish` once :attr:`done`.
    """

    __slots__ = ("_window", "_scratch", "_outstanding", "_errors", "_position", "_total")

    def __init__(self, total: int, window: int, scratch: bytearray) -> None:
        if window < 1:
            raise ServiceError(f"window must be >= 1, got {window}")
        self._window = window
        self._scratch = scratch
        self._outstanding: deque = deque()
        self._errors: List[ServiceError] = []
        self._position = 0
        self._total = total

    @property
    def done(self) -> bool:
        return self._position >= self._total and not self._outstanding

    @property
    def outstanding(self) -> int:
        """Frames sent but not yet acknowledged."""
        return len(self._outstanding)

    def next_window(self):
        """The next window of encoded frames to send, or ``None`` to read
        an ack first.  The view aliases the reusable scratch: release it
        (and be done sending) before the next call."""
        room = self._window - len(self._outstanding)
        if room <= 0 or self._position >= self._total:
            return None
        return self._fill(room)

    def ack(self, body) -> None:
        """Consume one response body for the oldest in-flight frame."""
        self._consume(body, self._outstanding.popleft())

    def _raise_errors(self) -> None:
        if self._errors:
            first = self._errors[0]
            first.errors = self._errors
            raise first


class _IngestStream(_WindowedStream):
    """The core of ``ingest_stream``: frame building + error-ack attribution.

    With ``start_seq`` set the frames are ``SEQ_INGEST`` (exactly-once):
    frame ``i`` always carries sequence ``start_seq + i``, and because
    frame boundaries are a pure function of ``frame_values`` and the
    slice offset, a :meth:`rewind` replays byte-identical frames with
    identical sequence numbers — which is what lets the server's session
    table deduplicate them.  ``RETRY_LATER`` acks are collected in
    :attr:`shed` (instead of the error list) for the pump to rewind and
    back off; without ``start_seq`` they are plain error acks, because
    auto-rewinding unsequenced frames could double-apply ones the server
    already counted.
    """

    __slots__ = ("_key", "_array", "_frame_values", "_frame_index", "last_n",
                 "_start_seq", "shed", "num_frames")

    def __init__(self, key: str, values, frame_values: int, window: int, scratch: bytearray):
        array = np.ascontiguousarray(values, dtype=wire.WIRE_DTYPE).reshape(-1)
        if array.size == 0:
            raise ServiceError("empty ingest stream")
        super().__init__(int(array.size), window, scratch)
        self._array = array
        self._frame_values = frame_values
        self._key = key
        self._frame_index = 0
        self.last_n = 0
        #: Sequence of frame 0 when sequenced (set by the caller).
        self._start_seq: Optional[int] = None
        #: Tokens of frames the server shed with RETRY_LATER (seq mode).
        self.shed: List[tuple] = []
        self.num_frames = -(-int(array.size) // int(frame_values))

    def _fill(self, room: int):
        take = min(room * self._frame_values, self._total - self._position)
        start_seq = (
            None if self._start_seq is None else self._start_seq + self._frame_index
        )
        view, counts = wire.build_ingest_frames(
            self._key,
            self._array[self._position : self._position + take],
            frame_values=self._frame_values,
            out=self._scratch,
            start_seq=start_seq,
        )
        for count in counts:
            self._outstanding.append((self._frame_index, self._position, count))
            self._frame_index += 1
            self._position += count
        return view

    def rewind(self) -> bool:
        """Reset to the oldest frame not positively acknowledged.

        After a reconnect (everything in flight is of unknown fate) or a
        shed drain (everything from the first shed frame on was refused),
        replaying from here re-sends byte-identical frames; the session
        table applies each exactly once.  Returns ``False`` when there is
        nothing to replay.
        """
        token = self.shed[0] if self.shed else (
            self._outstanding[0] if self._outstanding else None
        )
        if token is None:
            return False
        index, position, _count = token
        self._frame_index = index
        self._position = position
        self._outstanding.clear()
        self.shed.clear()
        return True

    def _consume(self, body, token) -> None:
        index, value_offset, count = token
        try:
            payload = wire.raise_for_status(body)
            self.last_n, _ = wire.unpack_n(payload, 0)
        except ServiceError as exc:
            if (
                self._start_seq is not None
                and getattr(exc, "status", None) == wire.STATUS_RETRY_LATER
            ):
                self.shed.append(token)
                return
            exc.batch_index = index
            exc.value_offset = value_offset
            exc.count = count
            self._errors.append(exc)

    def finish(self) -> int:
        """The key's final ``n`` — or the first failed frame's error,
        carrying every failure in ``.errors``."""
        self._raise_errors()
        return self.last_n


class _QueryStream(_WindowedStream):
    """The core of ``query_stream``: windows of uniform ``MULTI_QUERY`` frames.

    One row of the points matrix per request; frames are built vectorized
    (:func:`~repro.service.protocol.build_query_frames`) and answers land
    by row into one preallocated result matrix — the fixed-stride
    decoder reads a whole frame with vectorized compares and column
    copies, so neither side loops per request.
    """

    __slots__ = ("_key", "_kind", "_points", "_frame_requests", "_values", "_n", "_eps", "_retained")

    #: Reads are never shed, so the pump never drains and rewinds them.
    shed = ()

    def __init__(self, key: str, kind, points, frame_requests: int, window: int, scratch: bytearray):
        kind = wire.kind_code(kind)
        pts = np.ascontiguousarray(points, dtype=wire.WIRE_DTYPE)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.size == 0:
            raise ServiceError("empty query stream")
        if frame_requests < 1:
            raise ServiceError(f"frame_requests must be >= 1, got {frame_requests}")
        super().__init__(int(pts.shape[0]), window, scratch)
        self._key = key
        self._kind = kind
        self._points = pts
        self._frame_requests = frame_requests
        width = pts.shape[1] + 1 if kind == wire.KIND_CDF else pts.shape[1]
        self._values = np.empty((pts.shape[0], width), dtype=np.float64)
        self._n = 0
        self._eps = 0.0
        self._retained = 0

    def _fill(self, room: int):
        take = min(room * self._frame_requests, self._total - self._position)
        view, counts = wire.build_query_frames(
            self._key,
            self._kind,
            self._points[self._position : self._position + take],
            frame_requests=self._frame_requests,
            out=self._scratch,
        )
        for count in counts:
            self._outstanding.append((self._position, count))
            self._position += count
        return view

    def rewind(self) -> bool:
        """Reset to the oldest unanswered request row (reads are
        idempotent, so replaying after a reconnect is always safe)."""
        if not self._outstanding:
            return False
        start, _count = self._outstanding[0]
        self._position = start
        self._outstanding.clear()
        return True

    def _consume(self, body, token) -> None:
        start, count = token
        try:
            payload = wire.raise_for_status(body)
        except ServiceError as exc:
            # The whole frame was refused (decode error): attribute it to
            # its first request; ``count`` says how many rows it covered.
            exc.request_index = start
            exc.count = count
            self._errors.append(exc)
            return
        fast = wire.decode_uniform_query_response(payload, count)
        if fast is not None:
            n, eps, values, retained = fast
            if values.shape[1] != self._values.shape[1]:
                raise ServiceError(
                    f"response rows carry {values.shape[1]} values, "
                    f"expected {self._values.shape[1]}"
                )
            self._values[start : start + count] = values
            self._n, self._eps, self._retained = int(n[-1]), float(eps[-1]), int(retained[-1])
            return
        for index, entry in enumerate(
            _decode_multi_query_list(payload, expected=count, base_index=start)
        ):
            if isinstance(entry, ServiceError):
                self._errors.append(entry)
            else:
                self._values[start + index] = entry.quantiles
                self._n, self._eps, self._retained = entry.n, entry.error_bound, entry.num_retained

    def finish(self) -> BatchQueryResult:
        """The stacked answers — or the first failed request's error,
        carrying every failure in ``.errors`` (each with ``request_index``)."""
        self._raise_errors()
        return BatchQueryResult(self._n, self._eps, self._values, self._retained)


def _decode_multi_response(payload) -> List[int]:
    """A multi ack (``u32`` group count, one ``u64`` n per group) -> the ns."""
    try:
        (groups,) = wire._COUNT.unpack_from(payload, 0)
    except Exception as exc:  # struct.error
        raise ServiceError(f"truncated MULTI_INGEST response: {exc}") from exc
    expected = wire._COUNT.size + wire._N.size * groups
    if len(payload) != expected:
        raise ServiceError(
            f"MULTI_INGEST response of {len(payload)} bytes for {groups} groups "
            f"(expected {expected})"
        )
    return np.frombuffer(payload, "<u8", groups, wire._COUNT.size).tolist()


# -- request bodies and response payloads of the single-frame calls -------


def _pack_keyed(opcode: int, key: str, tail: bytes = b"") -> bytes:
    """``opcode key [tail]``: the classic single-key request layout."""
    return bytes([opcode]) + wire.pack_key(key) + tail


def _pack_points(opcode: int, key: str, points) -> bytes:
    """An ``INGEST``/``QUERY``/``CDF``/``RANK`` body: a key and values."""
    return _pack_keyed(opcode, key, wire.pack_values(points))


def _decode_n(payload) -> int:
    return wire.unpack_n(payload, 0)[0]


def _decode_blob(payload) -> bytes:
    return wire.unpack_blob(payload, 0)[0]


def _decode_text(payload) -> str:
    return _decode_blob(payload).decode("utf-8")


def _decode_json(payload) -> dict:
    return json.loads(_decode_text(payload))


def _decode_fetch(payload) -> Tuple[int, bytes]:
    n, offset = wire.unpack_n(payload, 0)
    return n, wire.unpack_blob(payload, offset)[0]


def _decode_health(payload) -> dict:
    return json.loads(wire.unpack_health_response(payload)[1])


def _decode_count(payload) -> int:
    return int.from_bytes(payload[:4], "little")


def _decode_nothing(payload) -> None:
    return None


def _decode_group_totals(items, payload) -> Dict[str, int]:
    return {key: n for (key, _values), n in zip(items, _decode_multi_response(payload))}


class _ClientCore:
    """Every client operation, written once and free of I/O.

    Operations are generators yielding ``(callable, *args)`` commands: the
    driver's ``_open``/``_sleep``, a connection's ``send``/``read``/
    ``exchange`` (send a frame, read the reply), or a public method.  Closing a connection never blocks, so the core calls
    ``close()``/``untimed()`` on it directly.  A driver supplies ``_run``
    (an operation's result: a value, or an awaitable), ``_events`` (the
    subscription generator), ``_open`` and ``_sleep``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        batch_size: int,
        timeout: Optional[float],
        retry: Optional[RetryPolicy],
        session: Optional[str],
    ) -> None:
        self.host = host
        self.port = port
        self.batch_size = batch_size
        self._buffers: Dict[str, List[float]] = {}
        #: Reusable encode scratch (zero allocations per window once warm).
        self._tx = bytearray()
        self._retry = retry
        self._retry_state = retry.start() if retry is not None else None
        if retry is not None and timeout is None:
            timeout = retry.timeout
        self._timeout = timeout
        self.session_id = session if session is not None else (
            _new_session_id() if retry is not None else None
        )
        #: True once the server granted the exactly-once session.
        self.exactly_once = False
        self._next_seq = 1
        self._closed = False
        self._conn = None

    # -- connection and session bookkeeping ----------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise TransportError("client connection is closed")

    def _connect(self):
        """Open the connection and negotiate the exactly-once session.  An
        old server answers HELLO with ``BAD_REQUEST``: the client then runs
        without exactly-once (only idempotent reads retry)."""
        self._conn = conn = yield (self._open,)
        if self.session_id is None:
            return
        try:
            try:
                payload = wire.raise_for_status(
                    (yield (conn.exchange, wire.encode_frame(wire.pack_hello(self.session_id))))
                )
            except ServiceError as exc:
                if (
                    isinstance(exc, _TRANSPORT_ERRORS)
                    or getattr(exc, "status", None) != wire.STATUS_BAD_REQUEST
                ):
                    raise
                self.exactly_once = False
                return
            granted, high_water = wire.unpack_hello_response(payload)
        except BaseException:
            # A connection whose HELLO never completed must not survive:
            # reusing it would send sequenced frames into a session the
            # server never opened.  (Reachable when the network eats the
            # HELLO exchange without severing TCP.)
            self._drop()
            raise
        self.exactly_once = bool(granted & wire.FLAG_EXACTLY_ONCE)
        # Resuming a session: never reuse a sequence number the server
        # has already seen (it would be silently deduplicated).
        if high_water >= self._next_seq:
            self._next_seq = high_water + 1

    def _ensure_connected(self):
        """Refuse a closed client, then connect lazily if needed (a
        failed connect under a retry policy backs off and retries)."""
        self._check_open()
        if self._conn is None:
            try:
                yield from self._connect()
            except _TRANSPORT_ERRORS as exc:
                if self._retry is None:
                    raise
                yield from self._reconnect(exc)

    def _drop(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def _reconnect(self, cause: Optional[BaseException] = None):
        """Reconnect (and re-HELLO) with backoff; spends retry budget."""
        self._drop()
        state = self._retry_state
        attempt = 0
        while True:
            state.spend(cause)
            yield (self._sleep, state.delay(attempt))
            attempt += 1
            try:
                yield from self._connect()
                return
            except _TRANSPORT_ERRORS as exc:
                cause = exc
                if attempt > self._retry.retries:
                    raise

    def _reserve_seq(self, frames: int = 1) -> int:
        """Claim ``frames`` consecutive sequence numbers (never reused —
        even a failed operation's numbers may have reached the server)."""
        seq = self._next_seq
        self._next_seq = seq + frames
        return seq

    # -- the operation core --------------------------------------------

    def _request_op(self, body: bytes, idempotent=False, decode=None, once=False):
        """One request/response under the retry policy (``once``: one try),
        its payload passed through ``decode`` when given.

        Transport errors reconnect + resend only ``idempotent`` bodies
        (reads, or sequenced ingest the server deduplicates);
        ``RETRY_LATER`` always backs off + resends (a shed frame was not
        applied).
        """
        if self._closed or self._conn is None:
            yield from self._ensure_connected()
        retry = None if once else self._retry
        frame = wire.encode_frame(body)
        attempt = 0
        while True:
            try:
                payload = wire.raise_for_status((yield (self._conn.exchange, frame)))
                return payload if decode is None else decode(payload)
            except _TRANSPORT_ERRORS as exc:
                # The reply may still arrive (a timeout): drop the
                # connection so it can never answer a later request.
                self._drop()
                if retry is None or not idempotent:
                    raise
                yield from self._reconnect(exc)
            except ServiceError as exc:
                if (
                    retry is None
                    or getattr(exc, "status", None) != wire.STATUS_RETRY_LATER
                    or attempt >= retry.retries
                ):
                    raise
                self._retry_state.spend(exc)
                yield (self._sleep, self._retry_state.delay(attempt))
                attempt += 1

    def _call(self, decode, body: bytes, *, idempotent: bool = True):
        return self._run(self._request_op(body, idempotent, decode))

    def _sequenced(self, decode, pack_seq, pack_plain, *args):
        """An ingest request: sequenced (so safely retried) once the
        session is granted, else plain and never resent."""
        if self._closed or self._conn is None:
            yield from self._ensure_connected()
        sequenced = self.exactly_once
        if sequenced:
            body = pack_seq(self._reserve_seq(), *args)
        else:
            body = pack_plain(*args)
        return (yield from self._request_op(body, sequenced, decode))

    def _pump(self, stream, resilient: bool):
        """Drive a windowed stream to its result.  When ``resilient``,
        transport errors reconnect, rewind to the oldest frame of unknown
        fate, and resend (the frames are sequenced, or are reads).  A
        ``RETRY_LATER`` ack stops new sends, drains the in-flight acks
        (the server's shed floor sheds them all), rewinds, and backs off.
        """
        shed_attempt = 0
        while not stream.done:
            try:
                if stream.shed:
                    if stream.outstanding:
                        stream.ack((yield (self._conn.read,)))
                        continue
                    if shed_attempt >= self._retry.retries:
                        raise ServiceError(
                            f"server still shedding after {shed_attempt} retries"
                        )
                    stream.rewind()
                    self._retry_state.spend()
                    yield (self._sleep, self._retry_state.delay(shed_attempt))
                    shed_attempt += 1
                    continue
                window_view = stream.next_window()
                if window_view is None:
                    stream.ack((yield (self._conn.read,)))
                    continue
                try:
                    yield (self._conn.send, window_view)
                finally:
                    window_view.release()  # free the scratch for reuse
            except _TRANSPORT_ERRORS as exc:
                if not resilient:
                    self._drop()  # in-flight acks must not answer a later request
                    raise
                yield from self._reconnect(exc)
                stream.rewind()
        return stream.finish()

    def _ingest_stream(self, key, values, frame_values, window):
        yield from self._ensure_connected()
        stream = _IngestStream(key, values, frame_values, window, self._tx)
        resilient = self.exactly_once and self._retry is not None
        if resilient:
            stream._start_seq = self._reserve_seq(stream.num_frames)
        return (yield from self._pump(stream, resilient))

    def _query_stream(self, key, kind, points, frame_requests, window):
        yield from self._ensure_connected()
        stream = _QueryStream(key, kind, points, frame_requests, window, self._tx)
        # Reads are idempotent: replay is always safe, no session needed.
        return (yield from self._pump(stream, self._retry is not None))

    def _ship(self, key: str, values: List[float]):
        """Send a detached buffer through the public ``ingest``.  On
        failure it is merged back, not assigned: another task may have
        started a fresh buffer for the key during the call, and
        overwriting it would lose those values."""
        try:
            yield (self.ingest, key, values)
        except BaseException:
            values.extend(self._buffers.pop(key, []))
            self._buffers[key] = values
            raise

    def _ingest_one(self, key: str, value: float):
        self._check_open()
        buffer = self._buffers.setdefault(key, [])
        buffer.append(float(value))
        if len(buffer) >= self.batch_size:
            del self._buffers[key]
            yield from self._ship(key, buffer)

    def _flush(self):
        self._check_open()
        for key in list(self._buffers):
            values = self._buffers.pop(key, None)
            if values:
                yield from self._ship(key, values)

    def _close(self):
        if self._closed:
            return
        try:
            if self._conn is not None:
                yield from self._flush()
        finally:
            self._closed = True
            self._drop()

    # -- raw requests (the cluster clients build their own bodies) -----

    def _request(self, body: bytes, *, idempotent: bool = False):
        return self._run(self._request_op(body, idempotent))

    def _request_once(self, body: bytes):
        return self._run(self._request_op(body, once=True))

    # -- ingestion -----------------------------------------------------

    def ingest(self, key: str, values):
        """Ship one batch; returns the key's total ``n`` on the server."""
        return self._run(self._sequenced(
            _decode_n, wire.pack_seq_ingest, partial(_pack_points, wire.OP_INGEST), key, values
        ))

    def ingest_stream(
        self,
        key: str,
        values,
        *,
        frame_values: int = DEFAULT_FRAME_VALUES,
        window: int = DEFAULT_WINDOW,
    ):
        """Pipelined ingest: stream ``values`` as many in-flight frames.

        Up to ``window`` frames ride the wire before the first ack is
        awaited, so throughput is bounded by bandwidth + server work, not
        by round trips; each window is encoded into one reusable buffer
        and sent at once, and the server coalesces each tick's frames into
        single sketch/WAL batches.  Returns the key's total ``n``.

        Error acks raise :class:`~repro.errors.ServiceError` for the
        *first* failed frame, with ``batch_index``, ``value_offset``,
        ``count`` and ``errors`` (every failed frame) attributes; later
        frames are still processed, so a caller can retry exactly the
        failed slices.  With an exactly-once session the frames are
        sequenced: a dropped connection replays every unacknowledged frame
        (the server deduplicates), and ``RETRY_LATER`` acks drain the
        window, rewind to the first shed frame, back off, and resume.
        """
        return self._run(self._ingest_stream(key, values, frame_values, window))

    def ingest_multi(self, batches):
        """Ship several keys' batches in ONE ``MULTI_INGEST`` frame.

        ``batches`` is a mapping (or ``(key, values)`` pairs); returns
        ``{key: n_after}`` (a repeated key reports its total after its
        *last* group).  One round trip for the lot:

        * An empty or NaN batch, or an unroutable key, rejects the whole
          frame before anything is applied.
        * Otherwise every group applies in order, each as its own WAL
          record, and the ack waits until all are durable.
        * Under exactly-once the frame carries one sequence number: a
          replay applies nothing and acks current counts, and a shed
          frame (``RETRY_LATER``) moved no mark, so its retry applies once.
        * A group that fails to apply (say, a corrupt spilled snapshot)
          fails the frame with its error while the other groups apply;
          only the failed keys' marks roll back, so a retry applies
          exactly what is missing.
        """
        items = list(batches.items()) if hasattr(batches, "items") else list(batches)
        return self._run(self._sequenced(
            partial(_decode_group_totals, items),
            wire.pack_seq_multi_ingest,
            wire.pack_multi_ingest,
            items,
        ))

    def ingest_one(self, key: str, value: float):
        """Buffer one value; a full buffer ships as a single batch.

        Same contract as :meth:`flush`: if shipping fails, the batch is
        re-attached to the buffer so a retry cannot silently lose it.
        """
        return self._run(self._ingest_one(key, value))

    def flush(self):
        """Ship every buffered ``ingest_one`` value.  On a failure the
        failing key's values are re-attached (merged with any staged
        meanwhile) and the rest stay buffered, so the caller can retry."""
        return self._run(self._flush())

    def merge(self, key: str, sketch_or_bytes):
        """Union a local sketch (or its ``FRQ1`` payload) into a server key."""
        if not isinstance(sketch_or_bytes, (bytes, bytearray, memoryview)):
            sketch_or_bytes = sketch_or_bytes.to_bytes()
        body = _pack_keyed(wire.OP_MERGE, key, wire.pack_blob(bytes(sketch_or_bytes)))
        return self._call(_decode_n, body, idempotent=False)

    def fetch(self, key: str):
        """``(n, FRQ1 payload)`` for ``key`` — the anti-entropy read path
        (decode with :meth:`repro.fast.FastReqSketch.from_bytes`)."""
        return self._call(_decode_fetch, _pack_keyed(wire.OP_FETCH, key))

    # -- windowed quantiles --------------------------------------------

    def ingest_windowed(self, key: str, timestamps, values):
        """Ship timestamped values into ``key``'s window rings.

        ``timestamps`` (epoch seconds) and ``values`` are parallel
        arrays; one call is one **batch** — the server's lateness window
        is judged per batch, so values that arrive together are admitted
        together.  Returns the key's lifetime accepted count (finest
        ring), which is also the duplicate-ack value under exactly-once.
        """
        return self._run(self._sequenced(
            _decode_n, wire.pack_seq_window_ingest, wire.pack_window_ingest,
            key, timestamps, values,
        ))

    def query_horizon(
        self,
        key: str,
        points: Sequence[float] = (0.5, 0.9, 0.99),
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
        last=None,
        kind: str = "quantiles",
        resolution: float = 0.0,
        now: Optional[float] = None,
    ):
        """Query the merge of every bucket overlapping a time horizon.

        Bounds come either from ``start``/``end`` (epoch seconds; ``end``
        defaults to now) or from ``last`` — a trailing duration such as
        ``"5m"`` or ``"1h30m"`` — never both.  ``resolution`` picks the
        ring (``0.0`` = finest); ``kind`` is ``"quantiles"`` / ``"ranks"``
        / ``"cdf"`` as in :meth:`query_many`.  The answer is exactly what
        a fresh ``merge_many`` over the retained buckets would give
        (full mergeability: same a-priori error bound as one sketch over
        the horizon's values).  Returns a :class:`QueryResult`.
        """
        lo, hi = _resolve_horizon(start, end, last, now)
        body = wire.pack_window_query(key, kind, resolution, lo, hi, points)
        return self._call(_decode_query_response, body)

    def subscribe(
        self,
        key: str,
        fractions: Sequence[float] = (0.5, 0.99),
        *,
        resolution: float = 0.0,
        resume_from: int = 0,
    ):
        """Live bucket-close stream: one :class:`BucketEvent` per closed
        window bucket, oldest first, forever (an async generator on
        :class:`AsyncQuantileClient`).

        Uses a **dedicated** push connection.  The ack replays retained
        closed buckets from ``resume_from`` before any live push; with a
        retry policy a dropped connection resumes from the cursor, and
        each bucket index is yielded at most once per generator.  Close
        the generator to unsubscribe.
        """
        return self._events(_Subscription(self, key, fractions, resolution, resume_from))

    # -- queries -------------------------------------------------------

    def query(self, key: str, fractions: Sequence[float]):
        """Quantiles of ``key`` at ``fractions``, as a :class:`QueryResult`."""
        return self._call(_decode_query_response, _pack_points(wire.OP_QUERY, key, fractions))

    def quantile(self, key: str, q: float):
        return self._call(
            lambda payload: float(_decode_query_response(payload).quantiles[0]),
            _pack_points(wire.OP_QUERY, key, [q]),
        )

    def cdf(self, key: str, split_points: Sequence[float]):
        return self._call(_decode_query_response, _pack_points(wire.OP_CDF, key, split_points))

    def rank(self, key: str, values: Sequence[float]):
        """Estimated ranks of ``values`` (as exact float64 integers)."""
        return self._call(_decode_query_response, _pack_points(wire.OP_RANK, key, values))

    def query_many(self, requests):
        """Ship many read requests in ONE ``MULTI_QUERY`` frame.

        ``requests`` is an iterable of ``(key, points)`` (quantiles) or
        ``(key, kind, points)`` tuples, ``kind`` one of ``"quantiles"`` /
        ``"ranks"`` / ``"cdf"``.  Returns one entry per request, in
        order: a :class:`QueryResult`, or a
        :class:`~repro.errors.ServiceError` (with ``status`` and
        ``request_index``) for requests that failed — a missing key
        never fails its neighbours.  One round trip for the whole batch.
        """
        items = [_normalize_query_request(request) for request in requests]
        return self._call(
            partial(_decode_multi_query_list, expected=len(items)),
            wire.pack_multi_query(items),
        )

    def query_stream(
        self,
        key: str,
        points,
        *,
        kind: str = "quantiles",
        frame_requests: int = DEFAULT_FRAME_REQUESTS,
        window: int = DEFAULT_QUERY_WINDOW,
    ):
        """Pipelined reads: one request per row of ``points``.

        The read-side mirror of :meth:`ingest_stream` (same window pump):
        up to ``window`` ``MULTI_QUERY`` frames of ``frame_requests``
        uniform requests ride the wire at once, encoded and decoded
        vectorized end to end.  ``window=1`` degrades to batched round
        trips, the shape for a single dashboard refresh.  Returns a
        :class:`BatchQueryResult` whose ``values[i]`` answers
        ``points[i]``; failed requests raise the first one's
        :class:`~repro.errors.ServiceError` (``request_index``,
        ``errors``).
        """
        return self._run(self._query_stream(key, kind, points, frame_requests, window))

    # -- operations ----------------------------------------------------

    def stats(self, key: Optional[str] = None):
        return self._call(_decode_json, _pack_keyed(wire.OP_STATS, key or ""))

    def snapshot(self):
        """Force a full checkpoint; returns the number of keys written."""
        return self._call(_decode_count, bytes([wire.OP_SNAPSHOT]))

    def ping(self):
        """Server liveness + version string."""
        return self._call(_decode_text, bytes([wire.OP_PING]))

    def health(self):
        """The server's readiness: ``state`` (``ready`` / ``overloaded``
        / ``draining``) plus operational detail (open connections, WAL
        queue depth, shed counts)."""
        return self._call(_decode_health, wire.pack_health())

    # -- topology & live migration (the reshard control surface) -------

    def topology(self):
        """The node's installed topology as JSON (``""`` when none)."""
        return self._call(_decode_text, wire.pack_topology())

    def set_topology(self, map_json: str):
        """Install a topology on the node; returns the installed JSON.
        Idempotent (an older or equal map is a no-op), so safe to retry."""
        return self._call(_decode_text, wire.pack_topology(map_json))

    def migrate_keys(self):
        """Every key the node holds state for (plain or windowed)."""
        return self._call(wire.unpack_keys_response, wire.pack_migrate(wire.MIGRATE_KEYS))

    def migrate_begin(self, key: str):
        """Capture ``key``'s MB1 bundle and start its migration."""
        return self._call(_decode_blob, wire.pack_migrate(wire.MIGRATE_BEGIN, key))

    def migrate_drain(self, key: str, *, freeze: bool = False) -> bool:
        """Whether ``key`` is frozen, after freezing it when ``freeze``;
        also the coordinator's heartbeat for a freeze.  Idempotent."""
        return self._call(
            wire.unpack_drain_response,
            wire.pack_migrate(wire.MIGRATE_DRAIN, key, freeze=freeze),
        )

    def migrate_commit(self, key: str):
        """End ``key``'s migration on this (source) node.  Idempotent."""
        return self._call(_decode_nothing, wire.pack_migrate(wire.MIGRATE_COMMIT, key))

    def migrate_abort(self, key: str):
        """Abandon ``key``'s migration; the node stays authoritative."""
        return self._call(_decode_nothing, wire.pack_migrate(wire.MIGRATE_ABORT, key))

    def migrate_push(self, key: str, bundle: bytes):
        """Install an MB1 bundle as ``key``'s state on this (destination)
        node; returns the resulting ``n``.  REPLACE semantics server-side
        make a retried push idempotent, so transport retries are safe."""
        return self._call(_decode_n, wire.pack_migrate_push(key, bundle))

    def close(self):
        """Flush buffered values and close the connection (idempotent)."""
        return self._run(self._close())


class _Subscription:
    """``subscribe``'s state across reconnects: its own connection, the
    resume cursor, and the events decoded but not yet handed out.  Events
    are filtered as they arrive, so each bucket index is handed out at
    most once, however often the stream reconnects."""

    __slots__ = ("_client", "_request", "_next_index", "_attempt", "_conn", "_pending")

    def __init__(self, client: _ClientCore, key, fractions, resolution, resume_from) -> None:
        self._client = client
        self._request = (key, resolution, [float(f) for f in fractions])
        self._next_index = int(resume_from)
        self._attempt = 0
        self._conn = None
        self._pending: deque = deque()

    def next_event(self):
        """Operation: the next :class:`BucketEvent`, subscribing (again,
        from the cursor, under a retry policy) whenever there is no
        connection."""
        client = self._client
        while not self._pending:
            if self._conn is None:
                client._check_open()
            try:
                if self._conn is None:
                    yield from self._subscribe()
                else:
                    self._admit(_decode_bucket_event(
                        wire.raise_for_status((yield (self._conn.read,)))
                    ))
            except _TRANSPORT_ERRORS as exc:
                self.close()
                if client._retry is None:
                    raise
                client._retry_state.spend(exc)
                yield (client._sleep, client._retry_state.delay(self._attempt))
                self._attempt += 1
        return self._pending.popleft()

    def _subscribe(self):
        key, resolution, fractions = self._request
        self._conn = conn = yield (self._client._open,)
        request = wire.pack_subscribe(key, resolution, self._next_index, fractions)
        payload = wire.raise_for_status((yield (conn.exchange, wire.encode_frame(request))))
        _resolved, cursor, encoded_events = wire.unpack_subscribe_response(payload)
        self._attempt = 0
        for encoded in encoded_events:  # the catch-up replay
            self._admit(_decode_bucket_event(encoded))
        self._next_index = max(self._next_index, cursor)
        # Live pushes can be arbitrarily far apart: block forever (the
        # request timeout only covered connect + ack).
        conn.untimed()

    def _admit(self, event: BucketEvent) -> None:
        if event.index >= self._next_index:
            self._next_index = event.index + 1
            self._pending.append(event)

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()


# -- the blocking driver ---------------------------------------------------


class _SocketConnection:
    """One blocking TCP connection (the sync driver's transport)."""

    __slots__ = ("_sock", "send", "read")

    def __init__(self, host: str, port: int, timeout: Optional[float]) -> None:
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            # A large send buffer lets a whole pipeline window enter the
            # kernel in one sendall, so the stream never stalls on acks.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 21)
        except OSError:  # pragma: no cover - platform quirk, not fatal
            pass
        self._sock = sock
        #: Zero-copy: a window view is sent straight from the scratch.
        self.send = sock.sendall
        #: Buffered reader: one recv drains a whole window of acks.
        self.read = wire.FrameReader(sock).read_frame

    def exchange(self, frame: bytes):
        self._sock.sendall(frame)
        return self.read()

    def untimed(self) -> None:
        self._sock.settimeout(None)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close never matters
            pass


class QuantileClient(_ClientCore):
    """Blocking client over one TCP connection.

    Args:
        host, port: Server address.
        batch_size: ``ingest_one`` buffer size per key.
        timeout: Socket timeout in seconds (``None`` defers to the retry
            policy's timeout, or blocks forever without one).
        retry: A :class:`~repro.service.resilience.RetryPolicy` enabling
            automatic reconnect + replay.  Reads (idempotent) are always
            retried; ingest is retried only once an exactly-once session
            is negotiated (see ``session``) — against an old server that
            refuses ``HELLO`` the client degrades to retrying reads only.
            ``STATUS_RETRY_LATER`` responses back off and resend.
        session: Exactly-once session id.  Auto-generated when a retry
            policy is given; pass an explicit id to resume a previous
            client's session (the server's high-water marks then suppress
            any frames it already counted).  Must not be shared by two
            live clients — frame sequence numbers are per session.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7379,
        *,
        batch_size: int = DEFAULT_BATCH,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        session: Optional[str] = None,
    ) -> None:
        super().__init__(host, port, batch_size, timeout, retry, session)
        self._run(self._connect())

    _sleep = staticmethod(time.sleep)

    def _open(self) -> _SocketConnection:
        return _SocketConnection(self.host, self.port, self._timeout)

    @staticmethod
    def _run(op):
        """Run a core operation to completion, blocking."""
        value = error = None
        while True:
            try:
                command = op.send(value) if error is None else op.throw(error)
            except StopIteration as stop:
                return stop.value
            try:
                value = command[0](*command[1:])
                error = None
            except BaseException as exc:
                value, error = None, exc

    def _events(self, subscription):
        try:
            while True:
                yield self._run(subscription.next_event())
        finally:
            subscription.close()

    def __enter__(self) -> "QuantileClient":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None:
            # The connection may be mid-frame; don't try to flush over it.
            self._buffers = {}
        self.close()


# -- the asyncio driver ----------------------------------------------------


async def _timed(awaitable, timeout: Optional[float]):
    """Await with an optional timeout.  Raises the builtin ``TimeoutError``
    (an ``OSError``): before Python 3.11 ``asyncio.TimeoutError`` was a
    separate class that would escape the core's transport handling."""
    if timeout is None:
        return await awaitable
    try:
        return await asyncio.wait_for(awaitable, timeout)
    except asyncio.TimeoutError as exc:
        raise TimeoutError(f"no progress within {timeout}s") from exc


class _StreamConnection:
    """One asyncio stream connection (the async driver's transport).  Reads
    apply the frame cap and the timeout and report EOF as the sync reader
    does: ``ConnectionError`` between frames, ``TransportError`` inside."""

    __slots__ = ("_reader", "_writer", "_timeout")

    def __init__(self, reader, writer, timeout: Optional[float]) -> None:
        self._reader = reader
        self._writer = writer
        self._timeout = timeout

    async def send(self, data) -> None:
        # bytes(): the transport may buffer past this call, and a view
        # aliases the client's reusable scratch.
        self._writer.write(bytes(data))
        await self._writer.drain()

    async def read(self) -> bytes:
        return await _timed(self._read_frame(), self._timeout)

    async def exchange(self, frame: bytes) -> bytes:
        await self.send(frame)
        return await self.read()

    async def _read_frame(self) -> bytes:
        header = b""
        try:
            header = await self._reader.readexactly(4)
            length = int.from_bytes(header, "little")
            if length > wire.MAX_FRAME:
                raise TransportError(
                    f"peer announced a {length}-byte frame (cap {wire.MAX_FRAME})"
                )
            return await self._reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            if not header and not exc.partial:
                raise ConnectionError("connection closed") from exc
            raise TransportError("connection closed inside a frame") from exc

    def untimed(self) -> None:
        self._timeout = None

    def close(self) -> None:
        try:
            self._writer.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass

    async def wait_closed(self) -> None:
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


class AsyncQuantileClient(_ClientCore):
    """Asyncio client over one TCP connection (same surface, ``await``-ed).

    Construct then ``await connect()`` (or connect on first use), or use
    it as an async context manager; a retry policy's timeout bounds
    connects and reads::

        async with AsyncQuantileClient(port=7379) as client:
            await client.ingest("key", values)
            result = await client.query("key", [0.5, 0.99])
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7379,
        *,
        batch_size: int = DEFAULT_BATCH,
        retry: Optional[RetryPolicy] = None,
        session: Optional[str] = None,
    ) -> None:
        super().__init__(host, port, batch_size, None, retry, session)
        self._lock = asyncio.Lock()
        self._holder = None

    _sleep = staticmethod(asyncio.sleep)

    async def _open(self) -> _StreamConnection:
        reader, writer = await _timed(
            asyncio.open_connection(self.host, self.port), self._timeout
        )
        return _StreamConnection(reader, writer, self._timeout)

    @staticmethod
    async def _drive(op):
        """Run a core operation to completion on the event loop."""
        value = error = None
        while True:
            try:
                command = op.send(value) if error is None else op.throw(error)
            except StopIteration as stop:
                return stop.value
            try:
                value = await command[0](*command[1:])
                error = None
            except BaseException as exc:
                value, error = None, exc

    async def _run(self, op):
        """Run a core operation with the connection to itself: tasks
        sharing the client take turns, so no task reads another's reply.
        A command that calls back into a public method (``flush`` ships
        through ``ingest``) runs inside the turn its task already holds.
        A cancelled operation may leave a reply in flight, so it drops
        the connection."""
        task = asyncio.current_task()
        if self._holder is task:
            return await self._drive(op)
        async with self._lock:
            self._holder = task
            try:
                return await self._drive(op)
            except asyncio.CancelledError:
                self._drop()
                raise
            finally:
                self._holder = None

    async def _events(self, subscription):
        # The subscription owns its own connection: no turn needed.
        try:
            while True:
                yield await self._drive(subscription.next_event())
        finally:
            subscription.close()

    async def connect(self) -> "AsyncQuantileClient":
        self._check_open()
        if self._conn is None:
            await self._run(self._connect())
        return self

    async def close(self) -> None:
        """Flush buffered values and close the connection (idempotent)."""
        conn = self._conn
        try:
            await self._run(self._close())
        finally:
            if conn is not None:
                await conn.wait_closed()

    async def __aenter__(self) -> "AsyncQuantileClient":
        return await self.connect()

    async def __aexit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None:
            self._buffers = {}
        await self.close()
