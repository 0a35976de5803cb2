"""Windowed plane over the wire: WINDOW_INGEST / WINDOW_QUERY /
SUBSCRIBE / SEQ_WINDOW_INGEST against a live server, plus the cluster
client's replicated windowed writes and failover horizon reads."""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterClient, ClusterMap
from repro.errors import ServiceError, WrongTopologyError
from repro.service import AsyncQuantileClient, QuantileClient
from repro.service import protocol as wire
from repro.service.resilience import RetryPolicy
from repro.service.server import QuantileService, ServerThread

KEY = "lat"
FRACTIONS = [0.0, 0.5, 0.99, 1.0]


def _values(count, seed=0):
    return np.random.default_rng(seed).standard_normal(count)


def _service(**overrides):
    kw = dict(
        window_resolutions=(10.0,), window_retention=32, window_lateness=0.0, seed=0
    )
    kw.update(overrides)
    return QuantileService(None, **kw)


def _policy(**overrides):
    base = dict(timeout=2.0, retries=2, backoff=0.01, backoff_max=0.05, seed=1)
    base.update(overrides)
    return RetryPolicy(**base)


# ----------------------------------------------------------------------
# Ingest + horizon query round trip
# ----------------------------------------------------------------------


class TestWindowedRoundTrip:
    def test_wire_answers_match_in_process(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                ts = 1000.0 + np.arange(500) * 0.1
                assert client.ingest_windowed(KEY, ts, _values(500)) == 500
                result = client.query_horizon(KEY, FRACTIONS, start=1000.0, end=1050.0)
                assert result.n == 500
                expected = service.window_query(
                    KEY, "quantiles", 0.0, 1000.0, 1050.0, np.asarray(FRACTIONS)
                )
                assert np.array_equal(result.quantiles, expected[2])
                assert result.error_bound == expected[1]

    def test_last_duration_and_kinds(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                ts = 1000.0 + np.arange(200) * 0.2
                client.ingest_windowed(KEY, ts, np.arange(200.0))
                # `last` anchors at the caller-supplied `now`.
                result = client.query_horizon(KEY, [0.5], last="40s", now=1040.0)
                assert result.n == 200
                ranks = client.query_horizon(
                    KEY, [199.0], kind="ranks", start=1000.0, end=1040.0
                )
                assert ranks.quantiles[0] == 200.0
                with pytest.raises(ServiceError):
                    client.query_horizon(KEY, [0.5], start=1000.0, end=1040.0, last="5m")
                with pytest.raises(ServiceError):
                    client.query_horizon(KEY, [0.5])  # no bounds at all

    def test_errors_map_to_statuses(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.query_horizon("never", [0.5], start=0.0, end=1.0)
                assert excinfo.value.status == wire.STATUS_UNKNOWN_KEY
                client.ingest_windowed(KEY, [1005.0], [1.0])
                with pytest.raises(ServiceError):  # unconfigured resolution
                    client.query_horizon(
                        KEY, [0.5], start=1000.0, end=1010.0, resolution=30.0
                    )
                with pytest.raises(ServiceError):  # empty horizon
                    client.query_horizon(KEY, [0.5], start=0.0, end=10.0)
                with pytest.raises(ServiceError):  # malformed batch
                    client.ingest_windowed(KEY, [1.0, 2.0], [1.0])

    @pytest.mark.parametrize("start, end", [(-1.7e308, 1011.0), (1000.0, float("inf"))])
    def test_bound_without_an_int64_bucket_is_a_bad_request(self, start, end):
        service = _service(window_resolutions=(0.5,))
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                client.ingest_windowed(KEY, [1005.0], [1.0])
                with pytest.raises(ServiceError, match="bucket index") as excinfo:
                    client.query_horizon(KEY, [0.5], start=start, end=end)
                assert excinfo.value.status == wire.STATUS_BAD_REQUEST
                result = client.query_horizon(KEY, [0.5], start=1000.0, end=1010.0)
                assert result.n == 1

    def test_stats_and_health_surface_windowed_state(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                ts = 1000.0 + np.arange(50)
                client.ingest_windowed(KEY, ts, _values(50))
                client.query_horizon(KEY, [0.5], start=1000.0, end=1050.0)
                stats = client.stats()
                windowed = stats["windowed"]
                assert windowed["keys"] == 1
                assert windowed["buckets"] == 5
                assert windowed["active_subscriptions"] == 0
                assert stats["op_counts"]["window_ingest"] == 1
                assert stats["op_counts"]["window_query"] == 1
                health = client.health()
                assert health["windowed_keys"] == 1
                assert health["active_subscriptions"] == 0


# ----------------------------------------------------------------------
# Exactly-once windowed ingest
# ----------------------------------------------------------------------


class TestExactlyOnceWindowed:
    def test_duplicate_seq_frame_acks_without_reapplying(self):
        service = _service()
        with ServerThread(service) as running:
            client = QuantileClient(port=running.port, retry=_policy())
            try:
                assert client.exactly_once
                assert client.ingest_windowed(KEY, [1005.0, 1006.0], [1.0, 2.0]) == 2
                # Replay the next frame verbatim: the second send must be
                # deduped — same ack, no double-count.
                body = wire.pack_seq_window_ingest(
                    client._reserve_seq(), KEY, [1007.0], [3.0]
                )
                first = client._request(body, idempotent=True)
                second = client._request(body, idempotent=True)
                assert first == second
                assert wire.unpack_n(first, 0)[0] == 3
                assert service.windows.ring(KEY).n == 3
            finally:
                client.close()

    def test_plain_client_uses_unsequenced_opcode(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:  # no retry policy
                assert not client.exactly_once
                assert client.ingest_windowed(KEY, [1005.0], [1.0]) == 1
                assert service.windows.ring(KEY).n == 1


# ----------------------------------------------------------------------
# SUBSCRIBE: catch-up, live pushes, cursors
# ----------------------------------------------------------------------


class TestSubscribe:
    def test_catch_up_then_live_push(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as writer:
                ts = 1000.0 + np.arange(50)  # closes buckets 100..103
                writer.ingest_windowed(KEY, ts, np.arange(50.0))
                events = writer.subscribe(KEY, [0.0, 1.0])
                try:
                    caught_up = [next(events) for _ in range(4)]
                    assert [e.index for e in caught_up] == [100, 101, 102, 103]
                    first = caught_up[0]
                    assert (first.start, first.end) == (1000.0, 1010.0)
                    assert first.n == 10
                    assert list(first.values) == [0.0, 9.0]
                    assert first.error_bound > 0
                    # Advance the watermark: bucket 104 closes and is
                    # pushed to the already-connected subscriber.
                    writer.ingest_windowed(KEY, [1055.0], [99.0])
                    live = next(events)
                    assert live.index == 104
                    assert live.n == 10
                finally:
                    events.close()

    def test_resume_from_skips_already_seen(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                client.ingest_windowed(KEY, 1000.0 + np.arange(50), _values(50))
                events = client.subscribe(KEY, [0.5], resume_from=102)
                try:
                    assert [next(events).index for _ in range(2)] == [102, 103]
                finally:
                    events.close()

    def test_subscriber_count_tracks_connections(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                client.ingest_windowed(KEY, [1005.0], [1.0])
                events = client.subscribe(KEY, [0.5])
                # The generator connects lazily; the ack arrives once the
                # first next() runs — closing an unclosed bucket set means
                # the catch-up is empty, so prod the stream via stats.
                assert client.stats()["windowed"]["active_subscriptions"] == 0
                writer_ts = [1015.0]
                started = events.__next__  # bind before ingest
                client.ingest_windowed(KEY, writer_ts, [2.0])
                event = started()
                assert event.index == 100
                assert client.stats()["windowed"]["active_subscriptions"] == 1
                events.close()
                # The server notices the dropped connection asynchronously.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if client.stats()["windowed"]["active_subscriptions"] == 0:
                        break
                    time.sleep(0.01)
                assert client.stats()["windowed"]["active_subscriptions"] == 0
                assert service.windows.ring(KEY).n == 2

    def test_subscribe_before_first_write_gets_the_later_push(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                events = client.subscribe(KEY, [0.5])
                received = []
                reader = threading.Thread(target=lambda: received.append(next(events)))
                reader.start()
                deadline = time.monotonic() + 5.0
                while client.stats()["windowed"]["active_subscriptions"] == 0:
                    assert time.monotonic() < deadline, "subscription never registered"
                    time.sleep(0.01)
                assert service.windows.keys() == []  # subscribing made no rings
                client.ingest_windowed(KEY, [1005.0], [1.0])
                client.ingest_windowed(KEY, [1015.0], [2.0])  # closes bucket 100
                reader.join(timeout=5.0)
                assert not reader.is_alive(), "the bucket-close push never arrived"
                events.close()
        assert [(event.index, event.n) for event in received] == [(100, 1)]

    def test_subscribe_to_an_unknown_key_leaves_no_state(self, tmp_path):
        service = QuantileService(tmp_path, window_resolutions=(10.0,), seed=0)
        with ServerThread(service, snapshot_interval=None) as running:
            with QuantileClient(port=running.port) as subscriber:
                # The ack comes straight back: an empty catch-up.
                ack = subscriber._request_once(wire.pack_subscribe("ghost", 0.0, 0, [0.5]))
                assert wire.unpack_subscribe_response(ack)[1:] == (0, [])
                with QuantileClient(port=running.port) as client:
                    assert client.stats()["windowed"]["active_subscriptions"] == 1
                    assert "ghost" not in client.migrate_keys()
                    client.snapshot()
        assert service.windows.keys() == []
        recovered = QuantileService(tmp_path, window_resolutions=(10.0,), seed=0)
        try:
            assert recovered.windows.keys() == []
        finally:
            recovered.close(snapshot=False)

    def test_subscribe_redirects_an_unowned_key(self):
        ring = ClusterMap(
            [("a", "127.0.0.1", 7001), ("b", "127.0.0.1", 7002)], replication=1
        )
        unowned = next(f"k{i}" for i in range(100) if ring.primary(f"k{i}").node_id == "b")
        service = _service(node_id="a")
        service.install_topology(ring.to_json())
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                with pytest.raises(WrongTopologyError) as excinfo:
                    client._request_once(wire.pack_subscribe(unowned, 0.0, 0, [0.5]))
                assert ClusterMap.from_json(excinfo.value.map_json) == ring
                assert client.stats()["windowed"]["active_subscriptions"] == 0

    def test_subscribe_unknown_resolution_rejected(self):
        service = _service()
        with ServerThread(service) as running:
            with QuantileClient(port=running.port) as client:
                client.ingest_windowed(KEY, [1005.0], [1.0])
                events = client.subscribe(KEY, [0.5], resolution=30.0)
                with pytest.raises(ServiceError):
                    next(events)
                events.close()


# ----------------------------------------------------------------------
# Async client parity
# ----------------------------------------------------------------------


class TestAsyncWindowed:
    def test_async_ingest_query_subscribe(self):
        service = _service()

        async def scenario(port):
            client = AsyncQuantileClient(port=port)
            await client.connect()
            try:
                ts = 1000.0 + np.arange(50)
                assert await client.ingest_windowed(KEY, ts, np.arange(50.0)) == 50
                result = await client.query_horizon(
                    KEY, [0.0, 1.0], start=1000.0, end=1050.0
                )
                assert result.n == 50
                events = client.subscribe(KEY, [0.5])
                caught_up = []
                async for event in events:
                    caught_up.append(event.index)
                    if len(caught_up) == 4:
                        break
                await events.aclose()
                assert caught_up == [100, 101, 102, 103]
                return result
            finally:
                await client.close()

        with ServerThread(service) as running:
            result = asyncio.run(scenario(running.port))
        expected = service.window_query(
            KEY, "quantiles", 0.0, 1000.0, 1050.0, np.array([0.0, 1.0])
        )
        assert np.array_equal(result.quantiles, expected[2])


# ----------------------------------------------------------------------
# Cluster client: replicated windowed writes, failover horizon reads
# ----------------------------------------------------------------------


@pytest.fixture
def trio(tmp_path):
    threads = {
        node_id: ServerThread(
            QuantileService(
                tmp_path / node_id,
                node_id=node_id,
                window_resolutions=(10.0,),
                window_retention=32,
            )
        )
        for node_id in ("a", "b", "c")
    }
    ring = ClusterMap(
        [(node_id, "127.0.0.1", thread.port) for node_id, thread in threads.items()],
        replication=2,
    )
    yield threads, ring
    for thread in threads.values():
        thread.stop(snapshot=False)


class TestClusterWindowed:
    def test_windowed_write_lands_on_every_replica(self, trio):
        threads, ring = trio
        ts = 1000.0 + np.arange(200) * 0.2
        with ClusterClient(ring, retry=_policy()) as client:
            assert client.ingest_windowed(KEY, ts, _values(200)) == 200
        replica_ids = {node.node_id for node in ring.replicas(KEY)}
        for node_id, thread in threads.items():
            service = thread.service
            if node_id in replica_ids:
                assert service.windows.ring(KEY).n == 200
            else:
                assert KEY not in service.windows

    def test_horizon_read_fails_over(self, trio):
        threads, ring = trio
        ts = 1000.0 + np.arange(300) * 0.1
        with ClusterClient(
            ring, retry=_policy(timeout=0.5), probe_interval=10.0
        ) as client:
            client.ingest_windowed(KEY, ts, _values(300))
            primary = ring.replicas(KEY)[0].node_id
            threads[primary].stop(snapshot=False)
            result = client.query_horizon(KEY, [0.5], start=1000.0, end=1030.0)
            assert result.n == 300
            assert client.read_failovers >= 1

    def test_down_replica_converges_via_windowed_hints(self, trio, tmp_path):
        threads, ring = trio
        with ClusterClient(
            ring, retry=_policy(timeout=0.4), probe_interval=0.05
        ) as client:
            client.ingest_windowed(KEY, 1000.0 + np.arange(50), _values(50, seed=1))
            victim = ring.replicas(KEY)[1].node_id
            port = threads[victim].port
            threads[victim].stop(snapshot=False)
            client.ingest_windowed(
                KEY, 1050.0 + np.arange(50), _values(50, seed=2)
            )  # hinted
            assert client.hinted_writes > 0
            threads[victim] = ServerThread(
                QuantileService(
                    tmp_path / victim,
                    node_id=victim,
                    window_resolutions=(10.0,),
                    window_retention=32,
                ),
                port=port,
            )
            assert client.flush_hints() == {}
            for node in ring.replicas(KEY):
                assert threads[node.node_id].service.windows.ring(KEY).n == 100
