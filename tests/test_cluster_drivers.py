"""Driver parity: one scenario list through both cluster clients.

``ClusterClient`` (ring-order fan-out) and ``AsyncClusterClient``
(``asyncio.gather`` fan-out) are thin drivers over one replication core,
so every scenario here runs once per driver against real nodes and must
give the same answers.  The async client is driven through
:class:`_Blocking`, which runs each awaitable on a private event loop,
so one scenario body serves both.
"""

from __future__ import annotations

import asyncio
import inspect
import shutil
import socket
import threading

import numpy as np
import pytest

from repro.cluster import AsyncClusterClient, ClusterClient, ClusterMap
from repro.errors import ClusterError, ServiceError
from repro.service import protocol as wire
from repro.service.client import AsyncQuantileClient, QuantileClient
from repro.service.resilience import RetryPolicy
from repro.service.server import QuantileService, ServerThread

KEY = "lat"


def _values(count, seed=0):
    return np.random.default_rng(seed).standard_normal(count)


def _policy(**overrides):
    base = dict(timeout=2.0, retries=2, backoff=0.01, backoff_max=0.05, seed=1)
    base.update(overrides)
    return RetryPolicy(**base)


class _Blocking:
    """An ``AsyncClusterClient`` behind blocking calls: every awaitable a
    method returns runs to completion on the wrapper's event loop, and a
    returned per-node client is wrapped the same way."""

    def __init__(self, loop, target) -> None:
        self._loop = loop
        self._target = target

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            result = attr(*args, **kwargs)
            if inspect.isawaitable(result):
                result = self._loop.run_until_complete(result)
            if isinstance(result, AsyncQuantileClient):
                return _Blocking(self._loop, result)
            return result

        return call


@pytest.fixture(params=["sync", "async"])
def connect(request):
    """``connect(ring, **kwargs)`` -> a cluster client of either driver."""
    loop = asyncio.new_event_loop() if request.param == "async" else None
    opened = []

    def factory(ring, **kwargs):
        kwargs.setdefault("retry", _policy())
        if loop is None:
            client = ClusterClient(ring, **kwargs)
        else:
            client = _Blocking(loop, AsyncClusterClient(ring, **kwargs))
        opened.append(client)
        return client

    yield factory
    for client in opened:
        client.close()
    if loop is not None:
        loop.close()


def _service(path, node_id):
    return QuantileService(
        path, node_id=node_id, window_resolutions=(10.0,), window_retention=32
    )


@pytest.fixture
def trio(tmp_path):
    """Three durable windowed nodes + their topology map (R=2)."""
    threads = {
        node_id: ServerThread(_service(tmp_path / node_id, node_id))
        for node_id in ("a", "b", "c")
    }
    ring = ClusterMap(
        [(node_id, "127.0.0.1", thread.port) for node_id, thread in threads.items()],
        replication=2,
    )
    yield threads, ring
    for thread in threads.values():
        thread.stop(snapshot=False)


def _restart(threads, tmp_path, node_id, port):
    threads[node_id] = ServerThread(_service(tmp_path / node_id, node_id), port=port)


def _shedding_node():
    """A fake node: grants HELLO, answers every other request
    ``RETRY_LATER``.  Returns the listening socket (close when done)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def handler(conn):
        with conn:
            while True:
                try:
                    body = wire.read_frame_sync(conn)
                except (ConnectionError, ServiceError, OSError):
                    return
                if body[0] == wire.OP_HELLO:
                    reply = wire.pack_hello_response(wire.FLAG_EXACTLY_ONCE, 0)
                else:
                    reply = wire.error_body(wire.STATUS_RETRY_LATER, "shedding")
                try:
                    conn.sendall(wire.encode_frame(reply))
                except OSError:
                    return

    def accept_loop():
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return
            threading.Thread(target=handler, args=(conn,), daemon=True).start()

    threading.Thread(target=accept_loop, daemon=True).start()
    return listener


class TestReplicatedWrites:
    def test_down_replica_is_hinted_then_replayed(self, connect, trio, tmp_path):
        threads, ring = trio
        data = _values(1500)
        client = connect(ring, retry=_policy(timeout=0.4), probe_interval=0.05)
        assert client.ingest(KEY, data[:1000]) == 1000
        victim = ring.replicas(KEY)[1].node_id
        port = threads[victim].port
        threads[victim].stop(snapshot=False)
        assert client.ingest_stream(KEY, data[1000:], frame_values=250) == 1500
        assert client.hint_depths()[victim] == 2
        assert client.hinted_writes == 2
        _restart(threads, tmp_path, victim, port)
        assert client.flush_hints() == {}
        assert client.key_counts(KEY) == {node.node_id: 1500 for node in ring.replicas(KEY)}
        assert client.stats()["write_acks"] == 3

    def test_windowed_write_is_hinted_then_replayed(self, connect, trio, tmp_path):
        threads, ring = trio
        client = connect(ring, retry=_policy(timeout=0.4), probe_interval=0.05)
        assert client.ingest_windowed(KEY, 1000.0 + np.arange(50), _values(50, seed=1)) == 50
        victim = ring.replicas(KEY)[1].node_id
        port = threads[victim].port
        threads[victim].stop(snapshot=False)
        assert client.ingest_windowed(KEY, 1050.0 + np.arange(50), _values(50, seed=2)) == 100
        assert client.hint_depths()[victim] == 1
        _restart(threads, tmp_path, victim, port)
        assert client.flush_hints() == {}
        for node in ring.replicas(KEY):
            answer = client.node_client(node.node_id).query_horizon(
                KEY, [0.5], start=1000.0, end=1100.0
            )
            assert answer.n == 100

    def test_shedding_replica_is_hinted_and_reads_fail_over(self, connect, trio):
        threads, _ring = trio
        listener = _shedding_node()
        try:
            ring = ClusterMap(
                [("a", "127.0.0.1", threads["a"].port), ("s", *listener.getsockname())],
                replication=2,
            )
            key = next(
                f"key-{index}" for index in range(256)
                if ring.replicas(f"key-{index}")[0].node_id == "s"
            )
            client = connect(ring)
            assert client.ingest(key, _values(300)) == 300
            assert client.hint_depths()["s"] == 1
            assert client.query(key, [0.5]).n == 300
            assert client.read_failovers >= 1
            assert client.stats()["nodes_marked_down"] == 0  # shed, not down
        finally:
            listener.close()

    def test_replica_refusing_connections_is_hinted(self, connect, trio):
        """A node that turns connections away with ``RETRY_LATER``
        (draining, or at its connection limit) is down for now: the write
        is hinted and acked by its peer, and reads fail over."""
        threads, _ring = trio
        refusing = ServerThread(QuantileService(None, node_id="r"), max_connections=0)
        try:
            ring = ClusterMap(
                [("a", "127.0.0.1", threads["a"].port), ("r", "127.0.0.1", refusing.port)],
                replication=2,
            )
            client = connect(ring, probe_interval=10.0)
            assert client.ingest(KEY, _values(40)) == 40
            assert client.hint_depths()["r"] == 1
            assert client.query(KEY, [0.5]).n == 40
            assert client.health()["r"] is None
        finally:
            refusing.stop(snapshot=False)

    def test_wrong_topology_reroutes_without_a_double_write(self, connect, tmp_path):
        threads = {
            node_id: ServerThread(_service(tmp_path / node_id, node_id))
            for node_id in ("a", "b", "c")
        }
        try:
            nodes = [(node_id, "127.0.0.1", thread.port) for node_id, thread in threads.items()]
            old = ClusterMap(nodes[:2], replication=2)
            new = old.with_node(nodes[2])
            key = next(
                f"key-{index}" for index in range(256)
                if {n.node_id for n in new.replicas(f"key-{index}")} == {"a", "c"}
            )
            for thread in threads.values():
                with QuantileClient(port=thread.port) as node:
                    node.set_topology(new.to_json())
            client = connect(old)
            assert client.ingest(key, _values(400)) == 400
            assert client.topology_refreshes == 1
            assert client.map.version == new.version
            assert client.key_counts(key) == {"a": 400, "c": 400}
            assert threads["b"].service.current_n(key) == 0
            assert client.query(key, [0.5]).n == 400
        finally:
            for thread in threads.values():
                thread.stop(snapshot=False)


class TestReads:
    def test_unknown_key_fails_over_to_a_replica_that_has_it(self, connect, trio):
        _threads, ring = trio
        client = connect(ring)
        holder = ring.replicas("solo")[1].node_id
        client.node_client(holder).ingest("solo", _values(30))
        assert client.query("solo", [0.5]).n == 30
        with pytest.raises(ServiceError) as excinfo:
            client.query("nowhere", [0.5])
        assert excinfo.value.status == wire.STATUS_UNKNOWN_KEY
        assert not isinstance(excinfo.value, ClusterError)

    def test_every_replica_down_names_the_replicas(self, connect, trio):
        threads, ring = trio
        client = connect(ring, retry=_policy(timeout=0.3, retries=0), probe_interval=10.0)
        client.ingest(KEY, _values(10))
        for node in ring.replicas(KEY):
            threads[node.node_id].stop(snapshot=False)
        with pytest.raises(ClusterError) as excinfo:
            client.query(KEY, [0.5])
        for node in ring.replicas(KEY):
            assert node.node_id in str(excinfo.value)


class TestAmnesia:
    def test_wiped_replica_abandons_its_hints(self, connect, trio, tmp_path):
        threads, ring = trio
        client = connect(ring, retry=_policy(timeout=0.4), probe_interval=0.05)
        client.ingest(KEY, _values(100))
        victim = ring.replicas(KEY)[1].node_id
        port = threads[victim].port
        threads[victim].stop(snapshot=False)
        shutil.rmtree(tmp_path / victim)
        client.ingest(KEY, _values(50, seed=1))
        assert client.hint_depths()[victim] == 1
        _restart(threads, tmp_path, victim, port)
        assert client.flush_hints() == {}
        node = next(n for n in client.stats()["nodes"] if n["node_id"] == victim)
        assert node["dropped_hints"] == 1
        counts = client.key_counts(KEY)
        assert counts[victim] == 0  # a replayed suffix would have made it 50
        assert max(counts.values()) == 150


class TestIntrospection:
    def test_health_key_counts_and_stats_shapes(self, connect, trio):
        threads, ring = trio
        client = connect(ring, retry=_policy(timeout=0.3, retries=0), probe_interval=10.0)
        client.ingest(KEY, _values(20))
        health = client.health()
        assert set(health) == {"a", "b", "c"}
        assert all(detail["state"] == "ready" for detail in health.values())
        down = ring.replicas(KEY)[1].node_id
        threads[down].stop(snapshot=False)
        assert client.health()[down] is None
        counts = client.key_counts(KEY)
        assert counts == {node.node_id: (None if node.node_id == down else 20) for node in ring.replicas(KEY)}
        assert client.node_client(down) is None
        stats = client.stats()
        assert set(stats) == {
            "topology_version", "replication", "nodes", "keys_seen", "write_acks",
            "read_failovers", "hinted_writes", "nodes_marked_down", "topology_refreshes",
        }
        assert stats["keys_seen"] == 1 and stats["write_acks"] == 1
        assert stats["nodes_marked_down"] == 1
        assert {node["node_id"] for node in stats["nodes"]} == {"a", "b", "c"}
