"""Driver parity: one scenario list through both service clients.

``QuantileClient`` (blocking sockets) and ``AsyncQuantileClient``
(asyncio) are thin drivers over one operation core, so every scenario
here runs once per driver and must give the same answers and raise the
same exceptions.  The async client is driven through :class:`_Blocking`,
which runs each awaitable on a private event loop, so one scenario body
serves both.
"""

from __future__ import annotations

import asyncio
import inspect
import socket
import struct
import threading

import numpy as np
import pytest

from repro.errors import ServiceError, TransportError
from repro.service import protocol as wire
from repro.service.client import AsyncQuantileClient, QuantileClient
from repro.service.faultproxy import FaultProxy, ScriptedFaults
from repro.service.resilience import RetryPolicy
from repro.service.server import QuantileService, ServerThread

KEY = "lat"


def _values(count, seed=0):
    return np.random.default_rng(seed).standard_normal(count)


def _policy(**overrides):
    base = dict(timeout=2.0, retries=10, backoff=0.01, backoff_max=0.05, seed=3)
    base.update(overrides)
    return RetryPolicy(**base)


class _Blocking:
    """An ``AsyncQuantileClient`` behind blocking calls: every awaitable a
    method returns runs to completion on the wrapper's event loop, and
    ``subscribe``'s async generator becomes a plain iterator."""

    def __init__(self, loop, client) -> None:
        self._loop = loop
        self._client = client

    def __getattr__(self, name):
        attr = getattr(self._client, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            result = attr(*args, **kwargs)
            if inspect.isasyncgen(result):
                return _BlockingEvents(self._loop, result)
            if inspect.isawaitable(result):
                return self._loop.run_until_complete(result)
            return result

        return call


class _BlockingEvents:
    def __init__(self, loop, agen) -> None:
        self._loop = loop
        self._agen = agen

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return self._loop.run_until_complete(self._agen.__anext__())
        except StopAsyncIteration:
            raise StopIteration from None

    def close(self) -> None:
        self._loop.run_until_complete(self._agen.aclose())


@pytest.fixture(params=["sync", "async"])
def connect(request):
    """``connect(port, **kwargs)`` -> a connected client of either driver."""
    loop = asyncio.new_event_loop() if request.param == "async" else None
    opened = []

    def factory(port, **kwargs):
        if loop is None:
            client = QuantileClient(port=port, **kwargs)
        else:
            client = _Blocking(loop, AsyncQuantileClient(port=port, **kwargs))
            client.connect()
        opened.append(client)
        return client

    yield factory
    for client in opened:
        try:
            client.close()
        except Exception:
            pass
    if loop is not None:
        loop.close()


def _windowed_service():
    return QuantileService(
        None, window_resolutions=(10.0,), window_retention=32, window_lateness=0.0, seed=0
    )


class _ShedFirst:
    """An overload policy that sheds its first ``count`` evaluations."""

    def __init__(self, count):
        self.left = count

    def should_shed(self, *, wal_queue_depth, buffer_bytes=0):
        if self.left > 0:
            self.left -= 1
            return True
        return False


# ----------------------------------------------------------------------
# The scenario list
# ----------------------------------------------------------------------


class TestScenarios:
    def test_ingest_and_point_reads(self, connect):
        values = _values(2000)
        with ServerThread(QuantileService(None)) as running:
            client = connect(running.port)
            assert client.ingest(KEY, values) == 2000
            result = client.query(KEY, [0.0, 1.0])
            assert result.n == 2000
            assert list(result.quantiles) == [values.min(), values.max()]
            assert client.quantile(KEY, 1.0) == values.max()
            assert client.cdf(KEY, [0.0]).quantiles[-1] == 1.0
            assert client.rank(KEY, [values.max()]).quantiles[0] == 2000.0
            assert client.stats(KEY)["n"] == 2000
            assert client.fetch(KEY)[0] == 2000
            assert isinstance(client.ping(), str)
            assert client.health()["state"] == "ready"

    def test_exactly_once_stream_survives_sever_after(self, connect):
        values = _values(1000, seed=1)
        service = QuantileService(None)
        with ServerThread(service) as running:
            with FaultProxy(
                running.port, schedule=ScriptedFaults({3: "sever_after"})
            ) as proxy:
                client = connect(proxy.port, retry=_policy())
                assert client.exactly_once
                n = client.ingest_stream(KEY, values, frame_values=100, window=4)
                client.close()
        assert n == 1000
        assert int(service.store.key_stats(KEY)["n"]) == 1000

    def test_ingest_multi(self, connect):
        with ServerThread(QuantileService(None)) as running:
            client = connect(running.port, retry=_policy())
            totals = client.ingest_multi({"a": [1.0, 2.0], "b": [3.0]})
            assert totals == {"a": 2, "b": 1}
            assert client.ingest_multi([("a", [4.0]), ("c", [5.0])]) == {"a": 3, "c": 1}

    def test_windowed_ingest_and_horizon(self, connect):
        with ServerThread(_windowed_service()) as running:
            client = connect(running.port, retry=_policy())
            ts = 1000.0 + np.arange(50)
            assert client.ingest_windowed(KEY, ts, np.arange(50.0)) == 50
            result = client.query_horizon(KEY, [0.0, 1.0], start=1000.0, end=1050.0)
            assert result.n == 50
            assert list(result.quantiles) == [0.0, 49.0]

    def test_query_many_keeps_per_request_errors(self, connect):
        with ServerThread(QuantileService(None)) as running:
            client = connect(running.port)
            client.ingest(KEY, _values(100))
            answers = client.query_many([(KEY, [0.5]), ("ghost", "ranks", [1.0])])
            assert answers[0].n == 100
            assert isinstance(answers[1], ServiceError)
            assert answers[1].status == wire.STATUS_UNKNOWN_KEY
            assert answers[1].request_index == 1

    def test_query_stream(self, connect):
        values = _values(3000, seed=2)
        with ServerThread(QuantileService(None)) as running:
            client = connect(running.port, retry=_policy())
            client.ingest(KEY, values)
            points = np.tile([0.0, 1.0], (40, 1))
            batch = client.query_stream(KEY, points, frame_requests=8, window=2)
            assert batch.n == 3000
            assert batch.values.shape == (40, 2)
            assert (batch.values[:, 1] == values.max()).all()

    def test_subscribe_catch_up_from_cursor(self, connect):
        with ServerThread(_windowed_service()) as running:
            client = connect(running.port)
            client.ingest_windowed(KEY, 1000.0 + np.arange(50), np.arange(50.0))
            events = client.subscribe(KEY, [0.0, 1.0], resume_from=101)
            try:
                caught_up = [next(events) for _ in range(3)]
            finally:
                events.close()
            assert [event.index for event in caught_up] == [101, 102, 103]
            assert list(caught_up[0].values) == [10.0, 19.0]

    def test_retry_later_sheds_rewind_and_count_once(self, connect):
        values = _values(3000, seed=4)
        service = QuantileService(None)
        with ServerThread(service, overload=_ShedFirst(3)) as running:
            client = connect(running.port, retry=_policy(retries=30, budget=500))
            assert client.exactly_once
            assert client.ingest_stream(KEY, values, frame_values=256, window=4) == 3000
            assert running.server.shed_count > 0
        assert int(service.store.key_stats(KEY)["n"]) == 3000

    def test_ingest_one_buffers_and_flushes(self, connect):
        with ServerThread(QuantileService(None)) as running:
            client = connect(running.port, batch_size=4)
            for value in range(10):
                client.ingest_one(KEY, float(value))
            assert client.stats(KEY)["n"] == 8  # two full buffers shipped
            client.flush()
            assert client.stats(KEY)["n"] == 10


# ----------------------------------------------------------------------
# Parity fixes
# ----------------------------------------------------------------------


class TestClosedClient:
    def test_every_operation_raises_and_opens_nothing(self, connect):
        service = _windowed_service()
        with ServerThread(service) as running:
            client = connect(running.port)
            client.ingest(KEY, _values(10))
            client.close()
            connections = running.server.connections
            calls = [
                lambda: client.ingest(KEY, [1.0]),
                lambda: client.ingest_stream(KEY, [1.0, 2.0]),
                lambda: client.ingest_multi({KEY: [1.0]}),
                lambda: client.ingest_windowed(KEY, [1000.0], [1.0]),
                lambda: client.ingest_one(KEY, 1.0),
                lambda: client.query(KEY, [0.5]),
                lambda: client.query_many([(KEY, [0.5])]),
                lambda: client.query_stream(KEY, [[0.5]]),
                lambda: client.query_horizon(KEY, [0.5], start=0.0, end=1.0),
                lambda: next(client.subscribe(KEY, [0.5])),
                lambda: client.stats(),
                lambda: client.topology(),
            ]
            for call in calls:
                with pytest.raises(TransportError, match="client connection is closed"):
                    call()
            client.close()  # still idempotent
            assert running.server.connections == connections
        assert int(service.store.key_stats(KEY)["n"]) == 10


def _serve(handler):
    """A one-shot fake server: ``handler(conn)`` runs per connection on a
    daemon thread.  Returns the listening socket (close it when done)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def accept_loop():
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return
            threading.Thread(target=handler, args=(conn,), daemon=True).start()

    threading.Thread(target=accept_loop, daemon=True).start()
    return listener


class TestUntrustedPeers:
    def test_subscribe_refuses_oversized_push_frame(self, connect):
        def handler(conn):
            with conn:
                try:
                    wire.read_frame_sync(conn)  # the SUBSCRIBE request
                except (ConnectionError, ServiceError):
                    return
                conn.sendall(struct.pack("<I", wire.MAX_FRAME + 1))
                # Hold the connection briefly: a client that trusts the
                # header waits for a body that never comes.
                conn.settimeout(2.0)
                try:
                    conn.recv(1)
                except OSError:
                    pass

        listener = _serve(handler)
        try:
            client = connect(listener.getsockname()[1])
            events = client.subscribe(KEY, [0.5])
            with pytest.raises(ServiceError, match="peer announced"):
                next(events)
        finally:
            listener.close()

    def test_over_cap_announcement_drops_the_connection(self, connect):
        """The body of an over-cap frame stays unread, so the stream is
        dead: the next call must reconnect, not decode those bytes."""
        connections = []

        def handler(conn):
            connections.append(conn)
            first = len(connections) == 1
            with conn:
                while True:
                    try:
                        wire.read_frame_sync(conn)
                    except (ConnectionError, ServiceError, OSError):
                        return
                    if first:
                        first = False
                        # The unread "body" happens to read as a whole frame.
                        stale = wire.encode_frame(b"\x00" + wire.pack_blob(b"stale"))
                        reply = struct.pack("<I", wire.MAX_FRAME + 1) + stale
                    else:
                        reply = wire.encode_frame(b"\x00" + wire.pack_blob(b"fresh"))
                    try:
                        conn.sendall(reply)
                    except OSError:
                        return

        listener = _serve(handler)
        try:
            client = connect(listener.getsockname()[1])
            with pytest.raises(TransportError, match="peer announced"):
                client.ping()
            assert client.ping() == "fresh"
        finally:
            listener.close()
        assert len(connections) == 2

    def test_stalled_server_times_out_alike(self, connect):
        """A listener that accepts and never answers: the HELLO read times
        out, and both drivers raise the same class."""
        stop = threading.Event()

        def handler(conn):
            with conn:
                stop.wait(10)

        listener = _serve(handler)
        try:
            with pytest.raises(Exception) as excinfo:
                connect(listener.getsockname()[1], retry=_policy(timeout=0.2, retries=1))
        finally:
            stop.set()
            listener.close()
        assert type(excinfo.value) is TimeoutError

    def test_stalled_read_under_retry_reconnects_then_times_out(self, connect):
        """After a granted HELLO, a read that stalls reconnects (the retry
        path) and the final failure is the same class on both drivers."""
        stop = threading.Event()
        hellos = []

        def handler(conn):
            with conn:
                try:
                    wire.read_frame_sync(conn)
                except (ConnectionError, ServiceError):
                    return
                hellos.append(1)
                if len(hellos) == 1:
                    granted = wire.pack_hello_response(wire.FLAG_EXACTLY_ONCE, 0)
                    conn.sendall(wire.encode_frame(granted))
                stop.wait(10)

        listener = _serve(handler)
        try:
            client = connect(listener.getsockname()[1], retry=_policy(timeout=0.2, retries=1))
            assert client.exactly_once
            with pytest.raises(Exception) as excinfo:
                client.query(KEY, [0.5])
        finally:
            stop.set()
            listener.close()
        assert type(excinfo.value) is TimeoutError
        assert len(hellos) >= 2  # the stalled read reconnected first


# ----------------------------------------------------------------------
# One answer per request
# ----------------------------------------------------------------------


class TestOneAnswerPerRequest:
    """Each request reads its own reply: tasks sharing one
    ``AsyncQuantileClient`` take turns on its connection, and an exchange
    abandoned midway drops the connection, so no reply is left behind to
    be read as a later request's."""

    def test_gathered_operations_each_get_their_own_answer(self):
        async def scenario(port):
            async with AsyncQuantileClient(port=port, retry=_policy(), batch_size=3) as client:
                await client.ingest("a", [1.0])
                await client.ingest("b", _values(100))
                for value in (1.0, 2.0):
                    await client.ingest_one("c", value)
                answers = await asyncio.gather(
                    client.query("a", [0.5]),
                    client.query("b", [0.5]),
                    client.ingest_stream("d", _values(50), frame_values=10, window=2),
                    client.ingest_one("c", 3.0),  # ships through ingest
                    client.flush(),
                    client.query("a", [0.5]),
                    client.stats("b"),
                )
                after = await client.query("a", [0.5])
                return answers, after, (await client.stats("c"))["n"]

        with ServerThread(QuantileService(None)) as running:
            answers, after, c_count = asyncio.run(scenario(running.port))
        assert [answers[0].n, answers[1].n, answers[2], answers[5].n] == [1, 100, 50, 1]
        assert answers[6]["n"] == 100
        assert after.n == 1
        assert c_count == 3

    def test_cancelled_exchange_leaves_no_stale_answer(self):
        """A request cancelled while its response is in flight must not
        leave that response to answer the next request."""

        async def scenario(port):
            client = AsyncQuantileClient(port=port)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(client.ping(), 0.1)
                await asyncio.sleep(0.4)  # the slow answer has arrived by now
                return await client.ping()
            finally:
                await client.close()

        listener = _slow_first_answer()
        try:
            answer = asyncio.run(scenario(listener.getsockname()[1]))
        finally:
            listener.close()
        assert answer == "pong-2"

    def test_timed_out_exchange_leaves_no_stale_answer(self):
        """The same for a read timeout without a retry policy (blocking
        driver: its socket timeout)."""
        listener = _slow_first_answer()
        try:
            client = QuantileClient(port=listener.getsockname()[1], timeout=0.1)
            with pytest.raises(TimeoutError):
                client.ping()
            threading.Event().wait(0.4)  # the slow answer has arrived by now
            answer = client.ping()
            client.close()
        finally:
            listener.close()
        assert answer == "pong-2"


def _slow_first_answer():
    """A fake server answering every request ``pong-<i>`` (``i`` counted
    across connections), the first one after 0.3 s."""
    requests = []

    def handler(conn):
        with conn:
            while True:
                try:
                    wire.read_frame_sync(conn)
                except (ConnectionError, ServiceError, OSError):
                    return
                requests.append(1)
                if len(requests) == 1:
                    threading.Event().wait(0.3)
                text = f"pong-{len(requests)}".encode()
                try:
                    conn.sendall(wire.encode_frame(bytes([wire.STATUS_OK]) + wire.pack_blob(text)))
                except OSError:
                    return

    return _serve(handler)
