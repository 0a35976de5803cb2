"""Clients for the quantile service (sync sockets and asyncio).

Both clients speak the framed protocol of :mod:`repro.service.protocol`
and expose the same surface: ``ingest`` ships a batch straight into the
server's ``update_many`` path, ``ingest_stream`` pipelines a large batch
as a **window** of in-flight frames (no per-frame round trip — the lever
that closes the service/engine throughput gap), ``ingest_multi`` packs
several keys' batches into one ``MULTI_INGEST`` frame (fan-in),
``ingest_one`` buffers scalars per key and auto-flushes full batches
(batching is THE lever for socket throughput — one frame per value would
spend everything on framing), ``query``/``cdf``/``rank`` read quantiles,
CDF masses, and rank estimates, ``query_many`` packs many keys' reads
into one ``MULTI_QUERY`` frame (per-request statuses: a missing key
never fails the batch), ``query_stream`` pipelines windows of uniform
query frames — the read-side mirror of ``ingest_stream``, sharing its
windowing state machine, with vectorized encode/decode on both sides —
``merge`` ships a locally built sketch's ``FRQ1`` payload for
server-side union (the distributed-edge pattern), and ``stats`` /
``snapshot`` / ``ping`` cover operations.

Error handling: a non-OK response status raises
:class:`~repro.errors.ServiceError` carrying the server's message (and a
``status`` attribute); transport failures surface as the usual
``ConnectionError`` family.  ``ingest_stream`` maps error acks back to
the offending frame: the raised error carries ``batch_index`` /
``value_offset`` / ``count`` attributes plus an ``errors`` list when
several frames failed (frames already in flight behind a failed one are
still processed independently by the server).

Example::

    from repro.service import QuantileClient

    with QuantileClient(port=7379) as client:
        client.ingest_stream("tenant-a/latency", latencies)   # pipelined
        result = client.query("tenant-a/latency", [0.5, 0.99])
        p99 = result.quantiles[1]
"""

from __future__ import annotations

import os
import socket
import time
from collections import deque
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

#: Exceptions that mean "the connection is gone" (sync client).  Note
#: :class:`~repro.errors.TransportError` subclasses ``ConnectionError``,
#: so mid-frame EOFs land here too; ``socket.timeout`` is an ``OSError``,
#: so a retry policy's timeout drives the same reconnect path.
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
    n, eps, values, retained, _ = wire.unpack_query_result(payload, 0)
    # Copy: the payload may live in a reusable receive scratch buffer.
    return QueryResult(n, eps, np.array(values), retained)


def _decode_multi_query_list(payload, *, expected: int, base_index: int = 0):
    """Decode a ``MULTI_QUERY`` response into per-request results.

    Returns a list (one entry per request, in order) of
    :class:`QueryResult` for OK records and :class:`ServiceError` —
    carrying ``status`` and ``request_index`` — for failed ones, so one
    bad key surfaces next to its neighbours' answers instead of masking
    them.
    """
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

    Shared by :class:`_IngestStream` and :class:`_QueryStream` (and thus
    by the sync and async clients): owns the in-flight frame accounting
    and error collection so reads and writes pipeline through the same
    discipline and the four stream entry points differ only in how bytes
    move and what a frame means.  Drive it with :meth:`next_window` (a
    :class:`memoryview` to send, or ``None`` when the window is full /
    the data is exhausted), feed every received response body to
    :meth:`ack`, and call :meth:`finish` once :attr:`done`.
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

    def __init__(
        self,
        key: str,
        values,
        frame_values: int,
        window: int,
        scratch: bytearray,
        *,
        start_seq: Optional[int] = None,
    ):
        array = np.ascontiguousarray(values, dtype=wire.WIRE_DTYPE).reshape(-1)
        if array.size == 0:
            raise ServiceError("empty ingest stream")
        super().__init__(int(array.size), window, scratch)
        self._array = array
        self._frame_values = frame_values
        self._key = key
        self._frame_index = 0
        self.last_n = 0
        self._start_seq = start_seq
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
    by row into one preallocated result matrix — the uniform-response
    fast path decodes a whole frame with two vectorized compares and one
    matrix copy, so neither side loops per request.
    """

    __slots__ = ("_key", "_kind", "_points", "_frame_requests", "_values", "_n", "_eps", "_retained")

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
            self._n, self._eps, self._retained = n, eps, retained
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
    try:
        (groups,) = wire._COUNT.unpack_from(payload, 0)
    except Exception as exc:  # struct.error
        raise ServiceError(f"truncated MULTI_INGEST response: {exc}") from exc
    offset = wire._COUNT.size
    totals = []
    for _ in range(groups):
        n, offset = wire.unpack_n(payload, offset)
        totals.append(n)
    return totals


class _RequestEncoder:
    """Request-body builders shared by both clients."""

    @staticmethod
    def ingest(key: str, values) -> bytes:
        return bytes([wire.OP_INGEST]) + wire.pack_key(key) + wire.pack_values(values)

    @staticmethod
    def query(key: str, fractions) -> bytes:
        return bytes([wire.OP_QUERY]) + wire.pack_key(key) + wire.pack_values(fractions)

    @staticmethod
    def cdf(key: str, points) -> bytes:
        return bytes([wire.OP_CDF]) + wire.pack_key(key) + wire.pack_values(points)

    @staticmethod
    def rank(key: str, values) -> bytes:
        return bytes([wire.OP_RANK]) + wire.pack_key(key) + wire.pack_values(values)

    @staticmethod
    def merge(key: str, payload: bytes) -> bytes:
        return bytes([wire.OP_MERGE]) + wire.pack_key(key) + wire.pack_blob(payload)

    @staticmethod
    def stats(key: Optional[str]) -> bytes:
        return bytes([wire.OP_STATS]) + wire.pack_key(key or "")

    @staticmethod
    def fetch(key: str) -> bytes:
        return bytes([wire.OP_FETCH]) + wire.pack_key(key)

    @staticmethod
    def snapshot() -> bytes:
        return bytes([wire.OP_SNAPSHOT])

    @staticmethod
    def ping() -> bytes:
        return bytes([wire.OP_PING])


def _merge_payload(sketch_or_bytes) -> bytes:
    if isinstance(sketch_or_bytes, (bytes, bytearray, memoryview)):
        return bytes(sketch_or_bytes)
    return sketch_or_bytes.to_bytes()


class QuantileClient:
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
        self._sock: Optional[socket.socket] = None
        self._frames = None
        self._open_connection()

    # -- connection lifecycle ------------------------------------------

    def _open_connection(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            # A large send buffer lets a whole pipeline window enter the
            # kernel in one sendall, so the stream never stalls on acks.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 21)
        except OSError:  # pragma: no cover - platform quirk, not fatal
            pass
        self._sock = sock
        #: Buffered reader: one recv drains a whole window of acks.
        self._frames = wire.FrameReader(sock)
        if self.session_id is not None:
            try:
                self._hello()
            except BaseException:
                # A connection whose HELLO never completed must not
                # survive: reusing it would send sequenced frames into a
                # session the server never opened.  (Reachable when the
                # network eats the HELLO exchange without severing TCP.)
                self._drop_connection()
                raise

    def _hello(self) -> None:
        """Negotiate the exactly-once session on a fresh connection.

        An old server answers the unknown opcode with ``BAD_REQUEST``;
        the client then runs without exactly-once (ingest retries are
        unsafe and disabled, idempotent reads still retry).
        """
        self._sock.sendall(wire.encode_frame(wire.pack_hello(self.session_id)))
        try:
            payload = wire.raise_for_status(self._frames.read_frame())
        except ServiceError as exc:
            if (
                not isinstance(exc, _TRANSPORT_ERRORS)
                and getattr(exc, "status", None) == wire.STATUS_BAD_REQUEST
            ):
                self.exactly_once = False
                return
            raise
        granted, high_water = wire.unpack_hello_response(payload)
        self.exactly_once = bool(granted & wire.FLAG_EXACTLY_ONCE)
        # Resuming a session: never reuse a sequence number the server
        # has already seen (it would be silently deduplicated).
        if high_water >= self._next_seq:
            self._next_seq = high_water + 1

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
        self._sock = None
        self._frames = None

    def _reconnect(self, cause: Optional[BaseException] = None) -> None:
        """Reconnect (and re-HELLO) with backoff; spends retry budget."""
        self._drop_connection()
        state = self._retry_state
        attempt = 0
        while True:
            state.spend(cause)
            time.sleep(state.delay(attempt))
            attempt += 1
            try:
                self._open_connection()
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

    def _request_once(self, body: bytes):
        if self._sock is None:
            raise TransportError("client connection is closed")
        self._sock.sendall(wire.encode_frame(body))
        return wire.raise_for_status(self._frames.read_frame())

    def _request(self, body: bytes, *, idempotent: bool = False):
        """One request/response, with the retry policy applied.

        Transport errors reconnect + resend only for ``idempotent``
        bodies (reads, or sequenced ingest the server deduplicates);
        ``RETRY_LATER`` answers always back off + resend — the server
        guarantees a shed frame was not applied.
        """
        if self._retry is None:
            return self._request_once(body)
        attempt = 0
        while True:
            try:
                if self._sock is None:
                    self._open_connection()
                return self._request_once(body)
            except _TRANSPORT_ERRORS as exc:
                self._drop_connection()
                if not idempotent:
                    raise
                self._reconnect(exc)
            except ServiceError as exc:
                if (
                    getattr(exc, "status", None) != wire.STATUS_RETRY_LATER
                    or attempt >= self._retry.retries
                ):
                    raise
                self._retry_state.spend(exc)
                time.sleep(self._retry_state.delay(attempt))
                attempt += 1

    # -- ingestion -----------------------------------------------------

    def ingest(self, key: str, values) -> int:
        """Ship one batch; returns the key's total ``n`` on the server."""
        if self.exactly_once:
            body = wire.pack_seq_ingest(self._reserve_seq(), key, values)
            payload = self._request(body, idempotent=True)
        else:
            payload = self._request(_RequestEncoder.ingest(key, values))
        n, _ = wire.unpack_n(payload, 0)
        return n

    def ingest_stream(
        self,
        key: str,
        values,
        *,
        frame_values: int = DEFAULT_FRAME_VALUES,
        window: int = DEFAULT_WINDOW,
    ) -> int:
        """Pipelined ingest: stream ``values`` as many in-flight frames.

        Up to ``window`` frames ride the wire before the first ack is
        awaited, so throughput is bounded by bandwidth + server work, not
        by round trips; each window is encoded into one reusable buffer
        and shipped with a single ``sendall``.  The server coalesces the
        frames it receives per event-loop tick into single sketch/WAL
        batches, so larger windows also amortize compaction.

        Returns the key's total ``n`` after the last frame.  On error
        acks, raises :class:`~repro.errors.ServiceError` for the *first*
        offending frame with ``batch_index`` (frame number), ``value_offset``
        (index of its first value in ``values``), ``count``, and
        ``errors`` (every failed frame) attributes — frames after a failed
        one are still processed by the server, so a caller can retry
        exactly the failed slices.

        With an exactly-once session (``retry=`` + negotiated ``HELLO``)
        the frames are sequenced: a dropped connection reconnects and
        replays every unacknowledged frame (the server deduplicates any
        it already counted), and ``RETRY_LATER`` acks drain the window,
        rewind to the first shed frame, back off, and resume.
        """
        if self.exactly_once and self._retry is not None:
            stream = _IngestStream(key, values, frame_values, window, self._tx)
            stream._start_seq = self._reserve_seq(stream.num_frames)
            return self._pump_resilient(stream, shed_retries=True)
        stream = _IngestStream(key, values, frame_values, window, self._tx)
        while not stream.done:
            window_view = stream.next_window()
            if window_view is not None:
                try:
                    self._sock.sendall(window_view)
                finally:
                    window_view.release()  # free the scratch for reuse
            else:
                stream.ack(self._frames.read_frame())
        return stream.finish()

    def _pump_resilient(self, stream, *, shed_retries: bool):
        """Drive a windowed stream with reconnect-and-replay.

        Transport errors reconnect, rewind to the oldest frame of unknown
        fate, and resend (safe: the frames are sequenced, or are reads).
        With ``shed_retries`` a ``RETRY_LATER`` ack stops new sends,
        drains the remaining in-flight acks (the server's shed floor
        guarantees they were all shed too), rewinds, and backs off.
        """
        shed_attempt = 0
        while not stream.done:
            try:
                if shed_retries and stream.shed:
                    if stream.outstanding:
                        stream.ack(self._frames.read_frame())
                        continue
                    if shed_attempt >= self._retry.retries:
                        raise ServiceError(
                            f"server still shedding after {shed_attempt} retries"
                        )
                    stream.rewind()
                    self._retry_state.spend()
                    time.sleep(self._retry_state.delay(shed_attempt))
                    shed_attempt += 1
                    continue
                window_view = stream.next_window()
                if window_view is not None:
                    try:
                        self._sock.sendall(window_view)
                    finally:
                        window_view.release()
                else:
                    stream.ack(self._frames.read_frame())
            except _TRANSPORT_ERRORS as exc:
                self._reconnect(exc)
                stream.rewind()
        return stream.finish()

    def ingest_multi(self, batches) -> Dict[str, int]:
        """Ship several keys' batches in ONE ``MULTI_INGEST`` frame.

        ``batches`` is a mapping (or ``(key, values)`` pairs); returns
        ``{key: n_after}`` (for a repeated key, the total after its *last*
        group — the server acks each group with the key's cumulative ``n``).
        The contract, one round trip for the lot:

        * An empty or NaN batch, or an unroutable key, rejects the whole
          frame (``BAD_REQUEST`` naming the group, or the redirect) before
          anything is applied.
        * Otherwise every group is applied in order, each as its own WAL
          record, and the ack is released once they are all durable.
        * With an exactly-once session the frame carries one sequence
          number: a replay acks each already-applied key with its current
          ``n`` and applies nothing, and a shed frame (``RETRY_LATER``:
          draining, overloaded, degraded or frozen for a cutover) moved no
          mark, so the retry applies it exactly once.
        * If a group fails to apply (a spilled key whose snapshot is
          corrupt), the other keys' groups still apply and the frame
          answers with that group's error.  With a session, only the
          failed keys' marks roll back, so the retry applies exactly what
          is missing and acks the rest as already applied.
        """
        items = list(batches.items()) if hasattr(batches, "items") else list(batches)
        if self.exactly_once:
            body = wire.pack_seq_multi_ingest(self._reserve_seq(), items)
            payload = self._request(body, idempotent=True)
        else:
            payload = self._request(wire.pack_multi_ingest(items))
        totals = _decode_multi_response(payload)
        return {key: n for (key, _values), n in zip(items, totals)}

    def ingest_one(self, key: str, value: float) -> None:
        """Buffer one value; a full buffer ships as a single batch.

        Same contract as :meth:`flush`: if shipping fails, the batch is
        re-attached to the buffer so a retry cannot silently lose it.
        """
        buffer = self._buffers.setdefault(key, [])
        buffer.append(float(value))
        if len(buffer) >= self.batch_size:
            del self._buffers[key]
            try:
                self.ingest(key, buffer)
            except BaseException:
                self._buffers[key] = buffer
                raise

    def flush(self) -> None:
        """Ship every buffered ``ingest_one`` value.

        Each key's buffer is detached only once its batch is accepted; on
        a failure the failing key's values are re-attached and the rest
        stay buffered, so nothing is silently lost and the caller can
        retry.
        """
        for key in list(self._buffers):
            values = self._buffers.pop(key)
            if not values:
                continue
            try:
                self.ingest(key, values)
            except BaseException:
                self._buffers[key] = values
                raise

    def merge(self, key: str, sketch_or_bytes) -> int:
        """Union a local sketch (or its ``FRQ1`` payload) into a server key."""
        payload = self._request(_RequestEncoder.merge(key, _merge_payload(sketch_or_bytes)))
        n, _ = wire.unpack_n(payload, 0)
        return n

    def fetch(self, key: str) -> Tuple[int, bytes]:
        """``(n, FRQ1 payload)`` for ``key`` — the anti-entropy read path.

        The payload decodes with
        :meth:`repro.fast.FastReqSketch.from_bytes` and embeds unchanged
        in a :meth:`merge` call against any compatible service.
        """
        payload = self._request(_RequestEncoder.fetch(key), idempotent=True)
        n, offset = wire.unpack_n(payload, 0)
        blob, _ = wire.unpack_blob(payload, offset)
        return n, bytes(blob)

    # -- windowed quantiles --------------------------------------------

    def ingest_windowed(self, key: str, timestamps, values) -> int:
        """Ship timestamped values into ``key``'s window rings.

        ``timestamps`` (epoch seconds) and ``values`` are parallel
        arrays; one call is one **batch** — the server's lateness window
        is judged per batch, so values that arrive together are admitted
        together.  Returns the key's lifetime accepted count (finest
        ring), which is also the duplicate-ack value under exactly-once.
        """
        if self.exactly_once:
            body = wire.pack_seq_window_ingest(self._reserve_seq(), key, timestamps, values)
            payload = self._request(body, idempotent=True)
        else:
            payload = self._request(wire.pack_window_ingest(key, timestamps, values))
        n, _ = wire.unpack_n(payload, 0)
        return n

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
    ) -> QueryResult:
        """Query the merge of every bucket overlapping a time horizon.

        Bounds come either from ``start``/``end`` (epoch seconds; ``end``
        defaults to now) or from ``last`` — a trailing duration such as
        ``"5m"`` or ``"1h30m"`` — never both.  ``resolution`` picks the
        ring (``0.0`` = finest); ``kind`` is ``"quantiles"`` / ``"ranks"``
        / ``"cdf"`` as in :meth:`query_many`.  The answer is exactly what
        a fresh ``merge_many`` over the retained buckets would give
        (full mergeability: same a-priori error bound as one sketch over
        the horizon's values).
        """
        lo, hi = _resolve_horizon(start, end, last, now)
        payload = self._request(
            wire.pack_window_query(key, kind, resolution, lo, hi, points),
            idempotent=True,
        )
        return _decode_query_response(payload)

    def subscribe(
        self,
        key: str,
        fractions: Sequence[float] = (0.5, 0.99),
        *,
        resolution: float = 0.0,
        resume_from: int = 0,
    ):
        """Live bucket-close stream: yields one :class:`BucketEvent` per
        closed window bucket, oldest first, forever.

        Opens a **dedicated** connection (after the SUBSCRIBE ack the
        server turns it into a push stream).  The ack replays retained
        closed buckets from ``resume_from`` before any live push, and the
        client tracks the next expected index across reconnects — with a
        retry policy a dropped connection resumes from the cursor and
        duplicate replays are filtered, so each bucket index is yielded
        at most once per generator.  Close the generator to unsubscribe.
        """
        fractions = [float(f) for f in fractions]
        next_index = int(resume_from)
        attempt = 0
        while True:
            sock = None
            try:
                sock = socket.create_connection((self.host, self.port), timeout=self._timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                frames = wire.FrameReader(sock)
                sock.sendall(
                    wire.encode_frame(
                        wire.pack_subscribe(key, resolution, next_index, fractions)
                    )
                )
                payload = wire.raise_for_status(frames.read_frame())
                _resolved, cursor, encoded_events = wire.unpack_subscribe_response(payload)
                attempt = 0
                for encoded in encoded_events:
                    event = _decode_bucket_event(encoded)
                    if event.index < next_index:
                        continue
                    next_index = event.index + 1
                    yield event
                next_index = max(next_index, cursor)
                # Live pushes can be arbitrarily far apart: block forever
                # (the request timeout only covered connect + ack).
                sock.settimeout(None)
                while True:
                    payload = wire.raise_for_status(frames.read_frame())
                    event = _decode_bucket_event(payload)
                    if event.index < next_index:
                        continue
                    next_index = event.index + 1
                    yield event
            except _TRANSPORT_ERRORS as exc:
                if self._retry is None:
                    raise
                self._retry_state.spend(exc)
                time.sleep(self._retry_state.delay(attempt))
                attempt += 1
            finally:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:  # pragma: no cover - close never matters
                        pass

    # -- queries -------------------------------------------------------

    def query(self, key: str, fractions: Sequence[float]) -> QueryResult:
        return _decode_query_response(
            self._request(_RequestEncoder.query(key, fractions), idempotent=True)
        )

    def quantile(self, key: str, q: float) -> float:
        return float(self.query(key, [q]).quantiles[0])

    def cdf(self, key: str, split_points: Sequence[float]) -> QueryResult:
        return _decode_query_response(
            self._request(_RequestEncoder.cdf(key, split_points), idempotent=True)
        )

    def rank(self, key: str, values: Sequence[float]) -> QueryResult:
        """Estimated ranks of ``values`` (as exact float64 integers)."""
        return _decode_query_response(
            self._request(_RequestEncoder.rank(key, values), idempotent=True)
        )

    def query_many(self, requests) -> List[object]:
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
        payload = self._request(wire.pack_multi_query(items), idempotent=True)
        return _decode_multi_query_list(payload, expected=len(items))

    def query_stream(
        self,
        key: str,
        points,
        *,
        kind: str = "quantiles",
        frame_requests: int = DEFAULT_FRAME_REQUESTS,
        window: int = DEFAULT_QUERY_WINDOW,
    ) -> BatchQueryResult:
        """Pipelined reads: one request per row of ``points``.

        The read-side mirror of :meth:`ingest_stream` (same windowing
        machinery): up to ``window`` ``MULTI_QUERY`` frames of
        ``frame_requests`` uniform requests ride the wire before the
        first response is awaited, so read throughput is bounded by
        bandwidth + server work, not round trips.  Frames encode and
        decode vectorized end to end (no per-request loop on either
        side).  With ``window=1`` this degrades to batched round trips —
        one frame at a time — which is the right shape for a single
        dashboard refresh.

        Returns a :class:`BatchQueryResult` whose ``values[i]`` answers
        ``points[i]``.  Per-request error responses raise
        :class:`~repro.errors.ServiceError` for the first failed request
        with ``request_index`` and an ``errors`` list carrying the rest.
        """
        stream = _QueryStream(key, kind, points, frame_requests, window, self._tx)
        if self._retry is not None:
            # Reads are idempotent: reconnect-and-replay is always safe,
            # no session needed.
            return self._pump_resilient(stream, shed_retries=False)
        while not stream.done:
            window_view = stream.next_window()
            if window_view is not None:
                try:
                    self._sock.sendall(window_view)
                finally:
                    window_view.release()  # free the scratch for reuse
            else:
                stream.ack(self._frames.read_frame())
        return stream.finish()

    # -- operations ----------------------------------------------------

    def stats(self, key: Optional[str] = None) -> dict:
        import json

        blob, _ = wire.unpack_blob(
            self._request(_RequestEncoder.stats(key), idempotent=True), 0
        )
        return json.loads(blob.decode("utf-8"))

    def snapshot(self) -> int:
        """Force a full checkpoint; returns the number of keys written."""
        payload = self._request(_RequestEncoder.snapshot(), idempotent=True)
        return int.from_bytes(payload[:4], "little")

    def ping(self) -> str:
        """Server liveness + version string."""
        blob, _ = wire.unpack_blob(self._request(_RequestEncoder.ping(), idempotent=True), 0)
        return blob.decode("utf-8")

    def health(self) -> dict:
        """The server's readiness: ``state`` (``ready`` / ``overloaded``
        / ``draining``) plus operational detail (open connections, WAL
        queue depth, shed counts)."""
        import json

        payload = self._request(wire.pack_health(), idempotent=True)
        _state, blob = wire.unpack_health_response(payload)
        return json.loads(blob.decode("utf-8"))

    # -- topology & live migration (the reshard control surface) -------

    def topology(self) -> str:
        """The node's installed topology as JSON (``""`` when none)."""
        blob, _ = wire.unpack_blob(
            self._request(wire.pack_topology(), idempotent=True), 0
        )
        return blob.decode("utf-8")

    def set_topology(self, map_json: str) -> str:
        """Install a topology on the node; returns the installed JSON.

        Idempotent (re-installing the same or an older map than the one
        already installed is a no-op server-side), so it is safe to retry.
        """
        blob, _ = wire.unpack_blob(
            self._request(wire.pack_topology(map_json), idempotent=True), 0
        )
        return blob.decode("utf-8")

    def migrate_keys(self) -> List[str]:
        """Every key the node holds state for (plain or windowed)."""
        payload = self._request(wire.pack_migrate(wire.MIGRATE_KEYS), idempotent=True)
        return wire.unpack_keys_response(payload)

    def migrate_begin(self, key: str) -> bytes:
        """Capture ``key``'s MB1 bundle and put it into forwarding state."""
        payload = self._request(
            wire.pack_migrate(wire.MIGRATE_BEGIN, key), idempotent=True
        )
        blob, _ = wire.unpack_blob(payload, 0)
        return bytes(blob)

    def migrate_drain(self, key: str, *, freeze: bool = False):
        """``(frozen, entries)`` — collect ``key``'s forwarded writes.

        Not retried on transport errors: a resend after an indeterminate
        outcome could silently skip a buffer the first attempt already
        cleared; the coordinator handles the failure explicitly.
        """
        payload = self._request(
            wire.pack_migrate(wire.MIGRATE_DRAIN, key, freeze=freeze)
        )
        return wire.unpack_drain_response(payload)

    def migrate_commit(self, key: str) -> None:
        """End ``key``'s migration on this (source) node.  Idempotent."""
        self._request(wire.pack_migrate(wire.MIGRATE_COMMIT, key), idempotent=True)

    def migrate_abort(self, key: str) -> None:
        """Abandon ``key``'s migration; the node stays authoritative."""
        self._request(wire.pack_migrate(wire.MIGRATE_ABORT, key), idempotent=True)

    def migrate_push(self, key: str, bundle: bytes) -> int:
        """Install an MB1 bundle as ``key``'s state on this (destination)
        node; returns the resulting ``n``.  REPLACE semantics server-side
        make a retried push idempotent, so transport retries are safe."""
        payload = self._request(wire.pack_migrate_push(key, bundle), idempotent=True)
        n, _ = wire.unpack_n(payload, 0)
        return n

    def close(self) -> None:
        """Flush buffered values and close the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._sock is not None:
                self.flush()
        finally:
            self._drop_connection()

    def __enter__(self) -> "QuantileClient":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None:
            # The connection may be mid-frame; don't try to flush over it.
            self._buffers = {}
        self.close()


class AsyncQuantileClient:
    """Asyncio client over one TCP connection (same surface, ``await``-ed).

    Construct then ``await connect()``, or use it as an async context
    manager::

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
        self.host = host
        self.port = port
        self.batch_size = batch_size
        self._buffers: Dict[str, List[float]] = {}
        self._reader = None
        self._writer = None
        self._retry = retry
        self._retry_state = retry.start() if retry is not None else None
        self.session_id = session if session is not None else (
            _new_session_id() if retry is not None else None
        )
        self.exactly_once = False
        self._next_seq = 1
        self._closed = False

    #: Exceptions that mean "the connection is gone" (async client): the
    #: sync family plus the stream reader's mid-frame EOFs
    #: (``IncompleteReadError`` subclasses ``EOFError``).  A wait_for
    #: timeout raises ``TimeoutError``, an ``OSError`` since 3.10.
    _ASYNC_TRANSPORT_ERRORS = (ConnectionError, OSError, EOFError)

    async def connect(self) -> "AsyncQuantileClient":
        import asyncio

        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        if self.session_id is not None:
            try:
                await self._hello()
            except BaseException:
                # Same rule as the sync client: a connection whose HELLO
                # never completed must not survive to carry sequenced
                # frames into a session the server never opened.
                self._drop_connection()
                raise
        return self

    async def _hello(self) -> None:
        """Negotiate the exactly-once session (old servers answer the
        unknown opcode with ``BAD_REQUEST``; we degrade gracefully)."""
        self._writer.write(wire.encode_frame(wire.pack_hello(self.session_id)))
        await self._writer.drain()
        try:
            payload = wire.raise_for_status(await self._read_frame())
        except ServiceError as exc:
            if (
                not isinstance(exc, self._ASYNC_TRANSPORT_ERRORS)
                and getattr(exc, "status", None) == wire.STATUS_BAD_REQUEST
            ):
                self.exactly_once = False
                return
            raise
        granted, high_water = wire.unpack_hello_response(payload)
        self.exactly_once = bool(granted & wire.FLAG_EXACTLY_ONCE)
        if high_water >= self._next_seq:
            self._next_seq = high_water + 1

    def _drop_connection(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        self._writer = None
        self._reader = None

    async def _reconnect(self, cause: Optional[BaseException] = None) -> None:
        """Reconnect (and re-HELLO) with backoff; spends retry budget."""
        import asyncio

        self._drop_connection()
        state = self._retry_state
        attempt = 0
        while True:
            state.spend(cause)
            await asyncio.sleep(state.delay(attempt))
            attempt += 1
            try:
                await self.connect()
                return
            except self._ASYNC_TRANSPORT_ERRORS as exc:
                cause = exc
                if attempt > self._retry.retries:
                    raise

    def _reserve_seq(self, frames: int = 1) -> int:
        seq = self._next_seq
        self._next_seq = seq + frames
        return seq

    async def _read_frame(self) -> bytes:
        """One frame body off the stream (shared by requests and acks).

        With a retry policy carrying a timeout, a stalled read times out
        (and the caller's retry path reconnects) instead of hanging.
        """
        import asyncio

        if self._retry is not None and self._retry.timeout is not None:
            return await asyncio.wait_for(self._read_frame_raw(), self._retry.timeout)
        return await self._read_frame_raw()

    async def _read_frame_raw(self) -> bytes:
        header = await self._reader.readexactly(4)
        length = int.from_bytes(header, "little")
        if length > wire.MAX_FRAME:
            raise ServiceError(f"peer announced a {length}-byte frame (cap {wire.MAX_FRAME})")
        return await self._reader.readexactly(length)

    async def _request_once(self, body: bytes) -> bytes:
        if self._writer is None:
            await self.connect()
        self._writer.write(wire.encode_frame(body))
        await self._writer.drain()
        return wire.raise_for_status(await self._read_frame())

    async def _request(self, body: bytes, *, idempotent: bool = False) -> bytes:
        """One request/response with the retry policy applied (same
        contract as :meth:`QuantileClient._request`)."""
        import asyncio

        if self._retry is None:
            return await self._request_once(body)
        attempt = 0
        while True:
            try:
                return await self._request_once(body)
            except self._ASYNC_TRANSPORT_ERRORS as exc:
                self._drop_connection()
                if not idempotent:
                    raise
                await self._reconnect(exc)
            except ServiceError as exc:
                if (
                    getattr(exc, "status", None) != wire.STATUS_RETRY_LATER
                    or attempt >= self._retry.retries
                ):
                    raise
                self._retry_state.spend(exc)
                await asyncio.sleep(self._retry_state.delay(attempt))
                attempt += 1

    async def ingest(self, key: str, values) -> int:
        if self.exactly_once:
            body = wire.pack_seq_ingest(self._reserve_seq(), key, values)
            payload = await self._request(body, idempotent=True)
        else:
            payload = await self._request(_RequestEncoder.ingest(key, values))
        n, _ = wire.unpack_n(payload, 0)
        return n

    async def ingest_stream(
        self,
        key: str,
        values,
        *,
        frame_values: int = DEFAULT_FRAME_VALUES,
        window: int = DEFAULT_WINDOW,
    ) -> int:
        """Pipelined ingest (same contract as
        :meth:`QuantileClient.ingest_stream`): up to ``window`` frames in
        flight, one buffer build + one write per window, error acks mapped
        back to the offending frame via ``batch_index``/``value_offset``.
        The windowing/attribution state machine is shared with the sync
        client (:class:`_IngestStream`); only the I/O differs.  With an
        exactly-once session, dropped connections replay unacknowledged
        frames and ``RETRY_LATER`` acks rewind + back off, exactly as in
        the sync client."""
        if self._writer is None:
            await self.connect()
        stream = _IngestStream(key, values, frame_values, window, bytearray())
        if self.exactly_once and self._retry is not None:
            stream._start_seq = self._reserve_seq(stream.num_frames)
            return await self._pump_resilient(stream, shed_retries=True)
        while not stream.done:
            window_view = stream.next_window()
            if window_view is not None:
                try:
                    # bytes(): the transport may buffer past this tick,
                    # and the view aliases the reusable scratch.
                    self._writer.write(bytes(window_view))
                finally:
                    window_view.release()
                await self._writer.drain()
            else:
                stream.ack(await self._read_frame())
        return stream.finish()

    async def _pump_resilient(self, stream, *, shed_retries: bool):
        """Async twin of :meth:`QuantileClient._pump_resilient`."""
        import asyncio

        shed_attempt = 0
        while not stream.done:
            try:
                if shed_retries and stream.shed:
                    if stream.outstanding:
                        stream.ack(await self._read_frame())
                        continue
                    if shed_attempt >= self._retry.retries:
                        raise ServiceError(
                            f"server still shedding after {shed_attempt} retries"
                        )
                    stream.rewind()
                    self._retry_state.spend()
                    await asyncio.sleep(self._retry_state.delay(shed_attempt))
                    shed_attempt += 1
                    continue
                window_view = stream.next_window()
                if window_view is not None:
                    try:
                        self._writer.write(bytes(window_view))
                    finally:
                        window_view.release()
                    await self._writer.drain()
                else:
                    stream.ack(await self._read_frame())
            except self._ASYNC_TRANSPORT_ERRORS as exc:
                await self._reconnect(exc)
                stream.rewind()
        return stream.finish()

    async def ingest_multi(self, batches) -> Dict[str, int]:
        """One ``MULTI_INGEST`` frame for several keys' batches (see
        :meth:`QuantileClient.ingest_multi`)."""
        items = list(batches.items()) if hasattr(batches, "items") else list(batches)
        if self.exactly_once:
            body = wire.pack_seq_multi_ingest(self._reserve_seq(), items)
            payload = await self._request(body, idempotent=True)
        else:
            payload = await self._request(wire.pack_multi_ingest(items))
        totals = _decode_multi_response(payload)
        return {key: n for (key, _values), n in zip(items, totals)}

    async def ingest_one(self, key: str, value: float) -> None:
        """Buffer one value (same keep-on-failure contract as
        :meth:`QuantileClient.ingest_one`).

        On failure the batch is *merged* back, not assigned: another task
        may have started a fresh buffer for the key while ``ingest`` was
        awaiting, and overwriting it would lose those values.
        """
        buffer = self._buffers.setdefault(key, [])
        buffer.append(float(value))
        if len(buffer) >= self.batch_size:
            del self._buffers[key]
            try:
                await self.ingest(key, buffer)
            except BaseException:
                buffer.extend(self._buffers.pop(key, []))
                self._buffers[key] = buffer
                raise

    async def flush(self) -> None:
        """Ship every buffered value (same keep-on-failure contract as
        :meth:`QuantileClient.flush`; values staged by other tasks during
        the await are merged, not overwritten)."""
        for key in list(self._buffers):
            values = self._buffers.pop(key)
            if not values:
                continue
            try:
                await self.ingest(key, values)
            except BaseException:
                values.extend(self._buffers.pop(key, []))
                self._buffers[key] = values
                raise

    async def merge(self, key: str, sketch_or_bytes) -> int:
        payload = await self._request(
            _RequestEncoder.merge(key, _merge_payload(sketch_or_bytes))
        )
        n, _ = wire.unpack_n(payload, 0)
        return n

    async def fetch(self, key: str) -> Tuple[int, bytes]:
        """``(n, FRQ1 payload)`` for ``key`` (see
        :meth:`QuantileClient.fetch`)."""
        payload = await self._request(_RequestEncoder.fetch(key), idempotent=True)
        n, offset = wire.unpack_n(payload, 0)
        blob, _ = wire.unpack_blob(payload, offset)
        return n, bytes(blob)

    async def ingest_windowed(self, key: str, timestamps, values) -> int:
        """Timestamped ingest into ``key``'s window rings (see
        :meth:`QuantileClient.ingest_windowed`)."""
        if self.exactly_once:
            body = wire.pack_seq_window_ingest(self._reserve_seq(), key, timestamps, values)
            payload = await self._request(body, idempotent=True)
        else:
            payload = await self._request(wire.pack_window_ingest(key, timestamps, values))
        n, _ = wire.unpack_n(payload, 0)
        return n

    async def query_horizon(
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
    ) -> QueryResult:
        """Merge-on-query over a time horizon (see
        :meth:`QuantileClient.query_horizon`)."""
        lo, hi = _resolve_horizon(start, end, last, now)
        payload = await self._request(
            wire.pack_window_query(key, kind, resolution, lo, hi, points),
            idempotent=True,
        )
        return _decode_query_response(payload)

    async def subscribe(
        self,
        key: str,
        fractions: Sequence[float] = (0.5, 0.99),
        *,
        resolution: float = 0.0,
        resume_from: int = 0,
    ):
        """Async bucket-close stream (same contract as
        :meth:`QuantileClient.subscribe`): a dedicated push connection,
        catch-up replay before live events, at-most-once per index across
        reconnects."""
        import asyncio

        fractions = [float(f) for f in fractions]
        next_index = int(resume_from)
        attempt = 0
        while True:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
                writer.write(
                    wire.encode_frame(
                        wire.pack_subscribe(key, resolution, next_index, fractions)
                    )
                )
                await writer.drain()
                header = await reader.readexactly(4)
                payload = wire.raise_for_status(
                    await reader.readexactly(int.from_bytes(header, "little"))
                )
                _resolved, cursor, encoded_events = wire.unpack_subscribe_response(payload)
                attempt = 0
                for encoded in encoded_events:
                    event = _decode_bucket_event(encoded)
                    if event.index < next_index:
                        continue
                    next_index = event.index + 1
                    yield event
                next_index = max(next_index, cursor)
                while True:
                    header = await reader.readexactly(4)
                    payload = wire.raise_for_status(
                        await reader.readexactly(int.from_bytes(header, "little"))
                    )
                    event = _decode_bucket_event(payload)
                    if event.index < next_index:
                        continue
                    next_index = event.index + 1
                    yield event
            except self._ASYNC_TRANSPORT_ERRORS as exc:
                if self._retry is None:
                    raise
                self._retry_state.spend(exc)
                await asyncio.sleep(self._retry_state.delay(attempt))
                attempt += 1
            finally:
                if writer is not None:
                    writer.close()

    async def query(self, key: str, fractions: Sequence[float]) -> QueryResult:
        return _decode_query_response(
            await self._request(_RequestEncoder.query(key, fractions), idempotent=True)
        )

    async def quantile(self, key: str, q: float) -> float:
        return float((await self.query(key, [q])).quantiles[0])

    async def cdf(self, key: str, split_points: Sequence[float]) -> QueryResult:
        return _decode_query_response(
            await self._request(_RequestEncoder.cdf(key, split_points), idempotent=True)
        )

    async def rank(self, key: str, values: Sequence[float]) -> QueryResult:
        """Estimated ranks of ``values`` (as exact float64 integers)."""
        return _decode_query_response(
            await self._request(_RequestEncoder.rank(key, values), idempotent=True)
        )

    async def query_many(self, requests) -> List[object]:
        """One ``MULTI_QUERY`` frame for many read requests (see
        :meth:`QuantileClient.query_many`)."""
        items = [_normalize_query_request(request) for request in requests]
        payload = await self._request(wire.pack_multi_query(items), idempotent=True)
        return _decode_multi_query_list(payload, expected=len(items))

    async def query_stream(
        self,
        key: str,
        points,
        *,
        kind: str = "quantiles",
        frame_requests: int = DEFAULT_FRAME_REQUESTS,
        window: int = DEFAULT_QUERY_WINDOW,
    ) -> BatchQueryResult:
        """Pipelined reads (same contract as
        :meth:`QuantileClient.query_stream`); the windowing state machine
        is shared with the sync client and ``ingest_stream``."""
        if self._writer is None:
            await self.connect()
        stream = _QueryStream(key, kind, points, frame_requests, window, bytearray())
        if self._retry is not None:
            return await self._pump_resilient(stream, shed_retries=False)
        while not stream.done:
            window_view = stream.next_window()
            if window_view is not None:
                try:
                    # bytes(): the transport may buffer past this tick,
                    # and the view aliases the reusable scratch.
                    self._writer.write(bytes(window_view))
                finally:
                    window_view.release()
                await self._writer.drain()
            else:
                stream.ack(await self._read_frame())
        return stream.finish()

    async def stats(self, key: Optional[str] = None) -> dict:
        import json

        blob, _ = wire.unpack_blob(
            await self._request(_RequestEncoder.stats(key), idempotent=True), 0
        )
        return json.loads(blob.decode("utf-8"))

    async def snapshot(self) -> int:
        payload = await self._request(_RequestEncoder.snapshot(), idempotent=True)
        return int.from_bytes(payload[:4], "little")

    async def ping(self) -> str:
        blob, _ = wire.unpack_blob(
            await self._request(_RequestEncoder.ping(), idempotent=True), 0
        )
        return blob.decode("utf-8")

    async def health(self) -> dict:
        """The server's readiness state + operational detail (see
        :meth:`QuantileClient.health`)."""
        import json

        payload = await self._request(wire.pack_health(), idempotent=True)
        _state, blob = wire.unpack_health_response(payload)
        return json.loads(blob.decode("utf-8"))

    # -- topology & live migration (async twin of QuantileClient) ------

    async def topology(self) -> str:
        blob, _ = wire.unpack_blob(
            await self._request(wire.pack_topology(), idempotent=True), 0
        )
        return blob.decode("utf-8")

    async def set_topology(self, map_json: str) -> str:
        blob, _ = wire.unpack_blob(
            await self._request(wire.pack_topology(map_json), idempotent=True), 0
        )
        return blob.decode("utf-8")

    async def migrate_keys(self) -> List[str]:
        payload = await self._request(
            wire.pack_migrate(wire.MIGRATE_KEYS), idempotent=True
        )
        return wire.unpack_keys_response(payload)

    async def migrate_begin(self, key: str) -> bytes:
        payload = await self._request(
            wire.pack_migrate(wire.MIGRATE_BEGIN, key), idempotent=True
        )
        blob, _ = wire.unpack_blob(payload, 0)
        return bytes(blob)

    async def migrate_drain(self, key: str, *, freeze: bool = False):
        payload = await self._request(
            wire.pack_migrate(wire.MIGRATE_DRAIN, key, freeze=freeze)
        )
        return wire.unpack_drain_response(payload)

    async def migrate_commit(self, key: str) -> None:
        await self._request(
            wire.pack_migrate(wire.MIGRATE_COMMIT, key), idempotent=True
        )

    async def migrate_abort(self, key: str) -> None:
        await self._request(
            wire.pack_migrate(wire.MIGRATE_ABORT, key), idempotent=True
        )

    async def migrate_push(self, key: str, bundle: bytes) -> int:
        payload = await self._request(
            wire.pack_migrate_push(key, bundle), idempotent=True
        )
        n, _ = wire.unpack_n(payload, 0)
        return n

    async def close(self) -> None:
        """Flush buffered values and close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            try:
                await self.flush()
            finally:
                writer = self._writer
                self._writer = None
                self._reader = None
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                    pass

    async def __aenter__(self) -> "AsyncQuantileClient":
        return await self.connect()

    async def __aexit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None:
            self._buffers = {}
        await self.close()
