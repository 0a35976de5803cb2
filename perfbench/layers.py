"""Spans and the in-process, layer-by-layer replay of a workload.

The traced run replays the socket run's ops in this process through every
layer the server runs: the client's codec (``repro.service.protocol``),
the server front (the connection protocol object and dispatcher of
``QuantileServer``, fed the request bytes through asyncio's
``get_buffer``/``buffer_updated`` hooks, with an in-memory transport in
place of the socket), the ``QuantileService`` with its group-commit WAL,
the ``SketchStore``, the windowed plane and the ``FastReqSketch`` engine.
Only the socket, the kernel and the event loop are not replayed.

Spans are recorded here, around calls into those layers (the program
itself is not instrumented): an object's method or a module function is
swapped for a wrapper for the duration of the replay and restored
afterwards.  Each span keeps its parent, so a layer's *self time* is its
span time minus the time of the spans nested in it.
"""

from __future__ import annotations

import json
import queue
import struct
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List

from workloads import (
    QUANTILES,
    READ_OPS,
    STREAM_FRAME_VALUES,
    WRITE_OPS,
    op_requests,
    op_values,
)

_LEN = struct.Struct("<I")

#: Span name -> the per-layer self-time metric it feeds.
SELF_METRICS = {
    "protocol.encode": "protocol.encode_s",
    "protocol.decode": "protocol.decode_s",
    "service.ingest": "service.ingest_self_s",
    "service.query": "service.query_self_s",
    "store.update_many": "store.update_many_self_s",
    "store.query": "store.query_self_s",
    "windowed.ingest": "windowed.ingest_self_s",
    "windowed.query": "windowed.query_self_s",
    "fast.update_many": "fast.update_many_self_s",
    "fast.query": "fast.query_self_s",
    "fast.merge_many": "fast.merge_many_self_s",
    "persistence.wal": "persistence.wal_self_s",
    "persistence.snapshot": "persistence.snapshot_self_s",
    "server.front": "server.front_self_s",
    "request": "trace.unattributed_s",
}

#: ``repro.service.protocol`` functions recorded as codec spans.  The
#: server's per-group ack encoding (``pack_n``) is left in the server front:
#: one span per group would cost more than the call it times.
PROTOCOL_SPANS = {
    "protocol.encode": (
        "encode_frame", "pack_hello", "pack_hello_response", "pack_seq_multi_ingest",
        "build_ingest_frames", "pack_seq_window_ingest", "pack_multi_query",
        "pack_window_query", "pack_query_result", "encode_uniform_query_response",
    ),
    "protocol.decode": (
        "raise_for_status", "unpack_hello", "unpack_hello_response", "unpack_seq",
        "unpack_key", "unpack_values", "unpack_n", "unpack_multi_ingest",
        "unpack_window_ingest", "unpack_window_query", "try_uniform_multi_query",
        "unpack_multi_query", "unpack_query_result",
    ),
}


class Tracer:
    """Nested spans kept in memory; self time aggregated as they close.

    Raw spans are ``(id, parent, request, name index, start ns, end ns)``
    tuples.  Only the first ``limit`` of the run are kept for the span
    file, because storing one costs about as much as timing it; the
    self-time totals cover every span.
    """

    def __init__(self, limit: int = 20_000) -> None:
        self.limit = limit
        self.names = list(SELF_METRICS)
        self.self_ns = [0] * len(self.names)
        self.values = 0  # values fed to FastReqSketch.update_many
        #: [spans opened, requests (root spans) opened, root span ns]
        self.counts = [0, 0, 0]
        self._child: List[int] = []  # child time of each open span
        self._open: List[int] = []  # id of each open span
        self._open_names: List[int] = []  # name index of each open span
        self.raw: List[tuple] = []

    @property
    def root_ns(self) -> int:
        return self.counts[2]

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call.  A call made
        inside a span of the same name records none: its time is that
        span's self time either way."""
        index = self.names.index(name)
        child, open_ids, self_ns = self._child, self._open, self.self_ns
        open_names = self._open_names
        counts, raw, limit = self.counts, self.raw, self.limit
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if open_names and open_names[-1] == index:
                return fn(*args, **kwargs)
            counts[0] += 1
            span_id = counts[0]
            if open_ids:
                parent = open_ids[-1]
            else:
                parent = 0
                counts[1] += 1
            child.append(0)
            open_ids.append(span_id)
            open_names.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                total = end - start
                self_ns[index] += total - child.pop()
                open_ids.pop()
                open_names.pop()
                if child:
                    child[-1] += total
                else:
                    counts[2] += total
                if span_id <= limit:
                    raw.append((span_id, parent, counts[1], index, start, end))

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside one span (for calls not worth a wrapper)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def self_seconds(self) -> Dict[str, float]:
        return {
            SELF_METRICS[name]: ns / 1e9 for name, ns in zip(self.names, self.self_ns)
        }

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span_id, parent, request, index, start, end in self.raw:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": self.names[index], "start_ns": start, "end_ns": end,
                }) + "\n")


class _Untraced:
    """The tracer interface with no recording (the untraced replay)."""

    @staticmethod
    def span(_name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@contextmanager
def _layer_spans(tracer: Tracer, service):
    """Swap each layer's entry points for span-recording wrappers."""
    from repro.fast import FastReqSketch
    from repro.service import protocol as wire

    instance_targets = [
        (service, "ingest_batches", "service.ingest"),
        (service, "window_ingest", "service.ingest"),
        (service, "query_points", "service.query"),
        (service, "query_batch", "service.query"),
        (service, "window_query", "service.query"),
        (service.store, "update_many", "store.update_many"),
        (service.store, "get", "store.query"),
        (service.store, "evaluate", "store.query"),
        (service.store, "query_batch", "store.query"),
        (service.windows, "validate", "windowed.ingest"),
        (service.windows, "ingest", "windowed.ingest"),
        (service.windows, "horizon", "windowed.query"),
        (service.wal, "append", "persistence.wal"),
        (service, "commit_ticket", "persistence.wal"),
        (service.snapshots, "save", "persistence.snapshot"),
        (service.snapshots, "load", "persistence.snapshot"),
    ]
    class_targets = [
        ("quantiles", "fast.query"),
        ("ranks", "fast.query"),
        ("cdf", "fast.query"),
        ("merge_many", "fast.merge_many"),
    ]
    originals = {name: FastReqSketch.__dict__[name] for name, _ in class_targets}
    originals["update_many"] = FastReqSketch.__dict__["update_many"]
    traced_update_many = tracer.wrap("fast.update_many", originals["update_many"])
    codec = {
        attr: getattr(wire, attr) for names in PROTOCOL_SPANS.values() for attr in names
    }

    def counted_update_many(sketch, items):
        tracer.values += len(items)
        return traced_update_many(sketch, items)

    try:
        for obj, attr, name in instance_targets:
            setattr(obj, attr, tracer.wrap(name, getattr(obj, attr)))
        for attr, name in class_targets:
            setattr(FastReqSketch, attr, tracer.wrap(name, originals[attr]))
        FastReqSketch.update_many = counted_update_many
        for name, attrs in PROTOCOL_SPANS.items():
            for attr in attrs:
                setattr(wire, attr, tracer.wrap(name, codec[attr]))
        yield
    finally:
        for obj, attr, _name in instance_targets:
            obj.__dict__.pop(attr, None)
        for attr, original in originals.items():
            setattr(FastReqSketch, attr, original)
        for attr, original in codec.items():
            setattr(wire, attr, original)


def _open_service(workload, data_dir: Path):
    from repro.service import QuantileService

    return QuantileService(
        str(data_dir), k=32, hra=True, seed=0, group_commit=True, **workload.options
    )


class _Transport:
    """The socket's place under the server's connection: collects responses."""

    def __init__(self) -> None:
        self.out = bytearray()

    def write(self, data) -> None:
        self.out += data

    def get_extra_info(self, _name, default=None):
        return default

    def close(self) -> None:
        pass

    abort = pause_reading = resume_reading = close


class _Loop:
    """The event loop's place for the server's connection: the WAL writer
    thread's ``call_soon_threadsafe`` (a commit releasing acks) queues the
    callback for the replaying thread."""

    def __init__(self) -> None:
        self.ready: "queue.Queue" = queue.Queue()

    def call_soon_threadsafe(self, fn, *args) -> None:
        self.ready.put((fn, args))


def _complete_frames(buffer) -> int:
    count = offset = 0
    while offset + _LEN.size <= len(buffer):
        (length,) = _LEN.unpack_from(buffer, offset)
        if offset + _LEN.size + length > len(buffer):
            break
        count += 1
        offset += _LEN.size + length
    return count


def _split_frames(window) -> List[memoryview]:
    """Length-prefixed frames -> their bodies."""
    view = memoryview(window)
    bodies, offset = [], 0
    while offset < len(view):
        (length,) = _LEN.unpack_from(view, offset)
        bodies.append(view[offset + _LEN.size : offset + _LEN.size + length])
        offset += _LEN.size + length
    return bodies


class _Replayer:
    """Runs ops as the client and the server do, minus the socket.

    Request bodies are built with the client's encoders and handed to a
    ``QuantileServer`` connection the way asyncio hands it socket bytes;
    responses are read back from the in-memory transport once the group
    commit that gates them is done, and decoded with the client's decoders.
    """

    SESSION = "perfbench-replay"

    def __init__(self, service, tracer) -> None:
        from repro.service import client
        from repro.service import protocol as wire
        from repro.service.server import QuantileServer, _Connection

        self.wire = wire
        self.client = client
        self.t = tracer
        self.server = QuantileServer(service, port=0)
        self.loop = self.server._loop = _Loop()
        self.transport = _Transport()
        self.conn = _Connection(self.server)
        self.conn.connection_made(self.transport)
        self.seq = 1
        self.ingest_bytes = 0
        self.read_bytes = 0
        (hello,) = self._round_trip(wire.encode_frame(wire.pack_hello(self.SESSION)), 1)
        granted, _high_water = wire.unpack_hello_response(wire.raise_for_status(hello))
        if not granted:
            raise RuntimeError("the replayed server refused the exactly-once session")

    def run(self, op) -> None:
        getattr(self, "_" + op[0])(*op[1:])

    def _deliver(self, data) -> None:
        """Hand ``data`` to the connection as the socket would: each recv
        fills the buffer the connection offers."""
        conn, view, offset = self.conn, memoryview(data), 0
        while offset < len(view):
            buffer = conn.get_buffer(-1)
            size = min(len(buffer), len(view) - offset)
            buffer[:size] = view[offset : offset + size]
            buffer.release()
            offset += size
            conn.buffer_updated(size)

    def _round_trip(self, window, frames: int) -> List[memoryview]:
        """Deliver a window of request frames; return the ``frames``
        response bodies, once the commits that gate them are done."""
        t, out = self.t, self.transport.out
        t.span("server.front", self._deliver, window)
        while _complete_frames(out) < frames:
            fn, args = t.span("persistence.wal", self.loop.ready.get, timeout=60)
            t.span("server.front", fn, *args)
        responses = _split_frames(bytes(out))
        out.clear()
        return responses

    def _call(self, body) -> memoryview:
        """One request frame -> its response payload (status checked)."""
        frame = self.wire.encode_frame(body)
        (response,) = self._round_trip(frame, 1)
        return self.wire.raise_for_status(response)

    def _multi(self, groups) -> None:
        wire, t = self.wire, self.t
        body = wire.pack_seq_multi_ingest(self._reserve(1), groups)
        self.ingest_bytes += len(body)
        t.span("protocol.decode", self.client._decode_multi_response, self._call(body))

    def _stream(self, key, values) -> None:
        wire = self.wire
        start = self.seq
        window, counts = wire.build_ingest_frames(
            key, values, frame_values=STREAM_FRAME_VALUES, start_seq=start
        )
        self._reserve(len(counts))
        self.ingest_bytes += len(window)
        for response in self._round_trip(bytes(window), len(counts)):
            wire.unpack_n(wire.raise_for_status(response), 0)

    def _window(self, key, timestamps, values) -> None:
        wire = self.wire
        body = wire.pack_seq_window_ingest(self._reserve(1), key, timestamps, values)
        self.ingest_bytes += len(body)
        wire.unpack_n(self._call(body), 0)

    def _query(self, requests) -> None:
        body = self.wire.pack_multi_query(requests)
        payload = self._call(body)
        self.t.span(
            "protocol.decode", self.client._decode_multi_query_list, payload,
            expected=len(requests),
        )
        self.read_bytes += len(body) + len(payload)

    def _horizon(self, key, start, end) -> None:
        body = self.wire.pack_window_query(key, "quantiles", 0.0, start, end, QUANTILES)
        payload = self._call(body)
        self.t.span("protocol.decode", self.client._decode_query_response, payload)
        self.read_bytes += len(body) + len(payload)

    def _checkpoint(self) -> None:
        self._call(bytes([self.wire.OP_SNAPSHOT]))

    def _reserve(self, frames: int) -> int:
        seq, self.seq = self.seq, self.seq + frames
        return seq


def replay(workload, data_dir: Path, clock, cold_ops=(), extra_ops=(), tracer=None) -> dict:
    """Replay ``workload`` in process; time (and optionally trace) its steps,
    then run ``cold_ops`` untimed and time ``extra_ops`` (the reads a
    workload times after its steps).

    The populate ops run first, untimed and untraced.  Returns the summed
    op time of the measured ops in reference seconds, ``scale`` (the
    clock's scale over the measured ops, for the tracer's wall-clock
    self times), codec byte counts and, for the untraced replay,
    ``replay_s``: the time to reopen the service on the data dir it left
    behind (snapshot load + WAL replay, no checkpoint).
    """
    service = _open_service(workload, data_dir)
    traced = tracer is not None
    replayer = _Replayer(service, tracer if traced else _Untraced)
    # Generated step by step, as the socket run does, not held all at once.
    steps = (op for index in range(workload.steps) for op in workload.step(index))
    values = requests = 0
    ops_s = 0.0

    def measure(ops) -> None:
        nonlocal values, requests, ops_s
        with _layer_spans(tracer, service) if traced else nullcontext():
            for op in ops:
                if op[0] in READ_OPS:
                    requests += op_requests(op)
                elif op[0] in WRITE_OPS:
                    values += op_values(op)
                clock.tick()
                if traced:
                    tracer.span("request", replayer.run, op)
                else:
                    began = time.perf_counter()
                    replayer.run(op)
                    ops_s += time.perf_counter() - began

    try:
        for op in workload.populate():
            replayer.run(op)
        service.wal_barrier()
        clock.probe()
        phase_began = time.perf_counter()
        measure(steps)
        for op in cold_ops:
            replayer.run(op)
        measure(extra_ops)
        clock.probe()
        scale = clock.scale(phase_began, time.perf_counter() - phase_began)
        service.wal_barrier()
    finally:
        service.close(snapshot=False)
    out = {
        "ops_s": (tracer.root_ns / 1e9 if traced else ops_s) * scale,
        "scale": scale,
        "bytes_per_value": replayer.ingest_bytes / max(1, values),
        "bytes_per_request": replayer.read_bytes / max(1, requests),
    }
    if not traced:
        reopened, out["replay_s"] = clock.timed(lambda: _open_service(workload, data_dir))
        reopened.close(snapshot=False)
    return out
