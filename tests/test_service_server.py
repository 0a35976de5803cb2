"""Tests for the asyncio quantile server, protocol, and clients.

The acceptance scenario lives in ``TestAcceptance``: ingest >= 100k values
across >= 100 keys over a real localhost socket, query the median and p99
within the sketch's a-priori error bound, then kill the server (no final
checkpoint) and restart it from the same ``data_dir`` — WAL + snapshot
recovery must reproduce the exact same answers.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service import (
    AsyncQuantileClient,
    QuantileClient,
    QuantileService,
    ServerThread,
)
from repro.service import protocol as wire


@pytest.fixture()
def harness():
    started = []

    def start(service: QuantileService, **kwargs) -> ServerThread:
        running = ServerThread(service, **kwargs)
        started.append(running)
        return running

    yield start
    for running in started:
        try:
            running.stop(snapshot=False)
        except Exception:
            pass


@pytest.fixture()
def rng():
    return np.random.default_rng(616)


class TestAcceptance:
    """The PR's end-to-end bar: socket ingest at scale + crash recovery.

    Parametrized over both WAL modes: synchronous appends and the
    off-loop group-commit writer with per-commit fsync — recovery must be
    bit-exact either way (acks gate on the commit ticket, so everything
    the client saw acknowledged is replayable).
    """

    NUM_KEYS = 100
    PER_KEY = 1000  # 100 keys x 1000 values = 100k values over the socket

    @pytest.mark.parametrize(
        "wal_mode",
        [{"group_commit": False}, {"group_commit": True, "fsync": True}],
        ids=["sync-wal", "group-commit-fsync"],
    )
    def test_ingest_query_kill_restart(self, tmp_path, harness, rng, wal_mode):
        streams = {
            f"tenant-{i:03d}/latency": np.sort(rng.lognormal(0.0, 1.0, self.PER_KEY))
            for i in range(self.NUM_KEYS)
        }

        running = harness(QuantileService(tmp_path, k=32, **wal_mode))
        with QuantileClient(port=running.port) as client:
            total = 0
            for key, stream in streams.items():
                # Two batches per key so every key exercises batch framing.
                client.ingest(key, stream[: self.PER_KEY // 2])
                total = client.ingest(key, stream[self.PER_KEY // 2 :])
            assert total == self.PER_KEY

            # Snapshot half the keyspace mid-run: recovery must stitch
            # snapshots and the WAL tail together.
            keys = list(streams)
            assert client.snapshot() == self.NUM_KEYS
            for key in keys[: self.NUM_KEYS // 2]:
                extra = rng.lognormal(0.0, 1.0, 200)
                streams[key] = np.sort(np.concatenate([streams[key], extra]))
                client.ingest(key, extra)  # WAL-only tail on snapshotted keys

            # Accuracy: the estimate's true normalized rank must sit within
            # the sketch's a-priori eps of the requested fraction.
            before = {}
            for key in keys:
                result = client.query(key, [0.5, 0.99])
                sorted_stream = streams[key]
                n = len(sorted_stream)
                assert result.n == n
                for fraction, estimate in zip([0.5, 0.99], result.quantiles):
                    true_rank = np.searchsorted(sorted_stream, estimate, side="right")
                    assert abs(true_rank / n - fraction) <= result.error_bound
                before[key] = result.quantiles

            stats = client.stats()
            assert stats["ingested_values"] >= self.NUM_KEYS * self.PER_KEY
            assert stats["keys"] == self.NUM_KEYS

        running.stop(snapshot=False)  # kill: no goodbye checkpoint

        revived = harness(QuantileService(tmp_path, k=32, **wal_mode))
        with QuantileClient(port=revived.port) as client:
            assert client.stats()["keys"] == self.NUM_KEYS
            for key, expected in before.items():
                after = client.query(key, [0.5, 0.99])
                assert np.array_equal(after.quantiles, expected), key
                assert after.n == len(streams[key])
        revived.stop()


class TestServerThread:
    def test_start_failure_surfaces(self):
        # Occupy a port first: binding it again fails, and the constructor
        # must report that instead of hanging or leaking a started thread.
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            with pytest.raises(ServiceError, match="failed to start"):
                ServerThread(QuantileService(None), port=blocker.getsockname()[1])
        finally:
            blocker.close()

    def test_stop_is_idempotent(self):
        running = ServerThread(QuantileService(None))
        running.stop()
        running.stop()  # second call is a no-op


class TestProtocol:
    def test_ping(self, harness):
        from repro import __version__

        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            assert client.ping() == __version__

    def test_unknown_key_status(self, harness):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.query("ghost", [0.5])
            assert excinfo.value.status == wire.STATUS_UNKNOWN_KEY

    def test_nan_ingest_rejected_connection_survives(self, harness, rng):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError, match="NaN"):
                client.ingest("k", [1.0, float("nan")])
            # The connection must remain usable after an application error.
            assert client.ingest("k", rng.random(10)) == 10

    def test_empty_batch_rejected(self, harness):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError, match="empty"):
                client.ingest("k", [])

    def test_empty_key_rejected_for_ingest_and_merge(self, harness, rng):
        """'' means server-wide to STATS, so it must never become a key."""
        from repro import FastReqSketch

        donor = FastReqSketch(32, seed=3)
        donor.update_many(rng.random(100))
        running = harness(QuantileService(None, k=32))
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError, match="reserved") as excinfo:
                client.ingest("", [1.0, 2.0])
            assert excinfo.value.status == wire.STATUS_BAD_REQUEST
            with pytest.raises(ServiceError, match="reserved"):
                client.merge("", donor)
            # The empty key still addresses server-wide stats.
            assert client.stats()["keys"] == 0

    def test_internal_error_answered_and_connection_survives(self, harness, rng):
        """A non-ReproError inside a handler must produce an error response,
        not a silently dropped connection."""
        running = harness(QuantileService(None))

        def boom(groups, **kwargs):
            raise RuntimeError("disk on fire")

        # Every ingest opcode reaches the store through ingest_groups.
        running.service.ingest_groups = boom
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError, match="internal error.*disk on fire") as excinfo:
                client.ingest("k", [1.0])
            assert excinfo.value.status == wire.STATUS_ERROR
            assert isinstance(client.ping(), str)  # connection still usable

    def test_unknown_opcode(self, harness):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client._request(b"\xee")
            assert excinfo.value.status == wire.STATUS_BAD_REQUEST

    def test_truncated_request_body(self, harness):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            body = bytes([wire.OP_INGEST]) + wire.pack_key("k") + b"\x10\x00\x00\x00"
            with pytest.raises(ServiceError) as excinfo:
                client._request(body)
            assert excinfo.value.status == wire.STATUS_BAD_REQUEST

    def test_oversized_frame_header_closes_connection(self, harness):
        running = harness(QuantileService(None))
        sock = socket.create_connection(("127.0.0.1", running.port), timeout=5)
        try:
            sock.sendall(struct.pack("<I", wire.MAX_FRAME + 1))
            body = wire.read_frame_sync(sock)
            with pytest.raises(ServiceError, match="exceeds"):
                wire.raise_for_status(body)
            assert sock.recv(1) == b""  # server hung up
        finally:
            sock.close()

    def test_values_roundtrip_arbitrary_floats(self, harness):
        running = harness(QuantileService(None))
        values = [0.0, -1.5, 1e308, -1e-300, 3.141592653589793]
        with QuantileClient(port=running.port) as client:
            client.ingest("k", values)
            result = client.query("k", [0.0, 1.0])
            assert result.quantiles[0] == min(values)
            assert result.quantiles[1] == max(values)


class TestCommands:
    def test_merge_over_socket(self, harness, rng):
        from repro import FastReqSketch

        running = harness(QuantileService(None, k=32))
        edge = FastReqSketch(32, seed=5)
        edge.update_many(rng.random(4000))
        with QuantileClient(port=running.port) as client:
            client.ingest("union", rng.random(1000))
            assert client.merge("union", edge) == 5000
            assert client.merge("fresh", edge.to_bytes()) == 4000
            result = client.query("union", [0.5])
            assert 0.4 < result.quantiles[0] < 0.6

    def test_merge_wrong_geometry_rejected(self, harness, rng):
        from repro import FastReqSketch

        running = harness(QuantileService(None, k=32))
        donor = FastReqSketch(64, seed=5)
        donor.update_many(rng.random(100))
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError, match="k=64"):
                client.merge("k", donor)

    def test_cdf_over_socket(self, harness, rng):
        running = harness(QuantileService(None, k=32))
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(5000))
            result = client.cdf("k", [0.25, 0.5, 0.75])
            masses = result.quantiles
            assert len(masses) == 4
            assert masses[-1] == 1.0
            assert np.all(np.diff(masses) >= 0)
            assert abs(masses[1] - 0.5) <= result.error_bound

    def test_key_stats_over_socket(self, harness, rng):
        running = harness(QuantileService(None, k=32))
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(1000))
            stats = client.stats("k")
            assert stats["n"] == 1000
            assert stats["resident"] is True
            with pytest.raises(ServiceError):
                client.stats("ghost")

    def test_client_side_batching(self, harness, rng):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port, batch_size=100) as client:
            for value in rng.random(250):
                client.ingest_one("k", value)
            # Two full buffers shipped; 50 still staged client-side.
            assert client.stats("k")["n"] == 200
            client.flush()
            assert client.stats("k")["n"] == 250

    def test_flush_failure_preserves_unsent_buffers(self, harness, rng):
        """One key's rejected batch must not lose other keys' buffers."""
        running = harness(QuantileService(None))
        client = QuantileClient(port=running.port, batch_size=1000)
        client.ingest_one("bad", float("nan"))  # rejected server-side
        client.ingest_one("good", 1.5)
        with pytest.raises(ServiceError, match="NaN"):
            client.flush()
        # Both buffers survive: the failed one for a retry, the unsent one
        # untouched; dropping the bad value lets the rest deliver.
        assert set(client._buffers) == {"bad", "good"}
        del client._buffers["bad"]
        client.flush()
        assert client.stats("good")["n"] == 1
        client.close()

    def test_ingest_one_flushed_on_close(self, harness, rng):
        running = harness(QuantileService(None))
        client = QuantileClient(port=running.port)
        for value in rng.random(7):
            client.ingest_one("k", value)
        client.close()
        with QuantileClient(port=running.port) as probe:
            assert probe.stats("k")["n"] == 7

    def test_snapshot_command(self, tmp_path, harness, rng):
        running = harness(QuantileService(tmp_path, k=32))
        with QuantileClient(port=running.port) as client:
            client.ingest("a", rng.random(100))
            client.ingest("b", rng.random(100))
            assert client.snapshot() == 2
            assert (tmp_path / "wal.log").stat().st_size == 0


class TestMemoryBudgetOverSocket:
    def test_eviction_and_reload_through_queries(self, tmp_path, harness, rng):
        service = QuantileService(tmp_path, k=32, memory_budget=2000)
        running = harness(service)
        streams = {f"k{i}": rng.random(2500) for i in range(5)}
        with QuantileClient(port=running.port) as client:
            for key, stream in streams.items():
                client.ingest(key, stream)
            stats = client.stats()
            assert stats["spilled"] > 0
            for key in streams:  # spilled keys answer transparently
                result = client.query(key, [0.5])
                assert result.n == 2500


class TestAsyncClient:
    def test_async_roundtrip(self, harness, rng):
        running = harness(QuantileService(None, k=32))
        stream = rng.random(3000)

        async def scenario():
            async with AsyncQuantileClient(port=running.port) as client:
                assert await client.ingest("k", stream) == 3000
                for value in stream[:50]:
                    await client.ingest_one("k2", value)
                await client.flush()
                result = await client.query("k", [0.5])
                cdf = await client.cdf("k", [0.5])
                stats = await client.stats()
                version = await client.ping()
                return result, cdf, stats, version

        result, cdf, stats, version = asyncio.run(scenario())
        assert result.n == 3000
        assert 0.4 < result.quantiles[0] < 0.6
        assert cdf.quantiles[-1] == 1.0
        assert stats["keys"] == 2
        assert isinstance(version, str)

    def test_async_ingest_one_failure_merges_concurrent_buffer(self):
        """A failed ship must re-attach by merging: values another task
        staged for the same key during the await must not be overwritten."""

        async def scenario():
            client = AsyncQuantileClient(batch_size=2)

            async def failing_ingest(key, values):
                # Simulate a concurrent task staging a value mid-await.
                client._buffers.setdefault(key, []).append(99.0)
                raise ConnectionError("transport down")

            client.ingest = failing_ingest
            await client.ingest_one("k", 1.0)
            with pytest.raises(ConnectionError):
                await client.ingest_one("k", 2.0)
            return client._buffers["k"]

        assert asyncio.run(scenario()) == [1.0, 2.0, 99.0]

    def test_async_error_status(self, harness):
        running = harness(QuantileService(None))

        async def scenario():
            async with AsyncQuantileClient(port=running.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    await client.query("ghost", [0.5])
                return excinfo.value.status

        assert asyncio.run(scenario()) == wire.STATUS_UNKNOWN_KEY


class TestConcurrency:
    def test_parallel_clients_disjoint_keys(self, harness, rng):
        running = harness(QuantileService(None, k=32))
        errors = []

        def worker(worker_id: int) -> None:
            try:
                data = np.random.default_rng(worker_id).random(2000)
                with QuantileClient(port=running.port) as client:
                    for start in range(0, 2000, 500):
                        client.ingest(f"w{worker_id}", data[start : start + 500])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        with QuantileClient(port=running.port) as client:
            for i in range(8):
                assert client.query(f"w{i}", [0.5]).n == 2000

    def test_interleaved_ingest_same_key(self, harness, rng):
        """Frames from many connections interleave; totals must conserve."""
        running = harness(QuantileService(None, k=32))

        def worker(seed: int) -> None:
            data = np.random.default_rng(seed).random(1000)
            with QuantileClient(port=running.port) as client:
                for start in range(0, 1000, 100):
                    client.ingest("shared", data[start : start + 100])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        with QuantileClient(port=running.port) as client:
            assert client.query("shared", [0.5]).n == 4000


class TestPeriodicSnapshots:
    def test_background_checkpoint_fires(self, tmp_path, harness, rng):
        service = QuantileService(tmp_path, k=32)
        running = harness(service, snapshot_interval=0.05)
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(500))
            deadline = time.time() + 5
            snapshot_dir = tmp_path / "snapshots"
            while time.time() < deadline:
                if snapshot_dir.exists() and list(snapshot_dir.glob("*.frq1")):
                    break
                time.sleep(0.02)
            else:  # pragma: no cover - timing guard
                pytest.fail("periodic snapshot never fired")
        running.stop(snapshot=False)

        recovered = QuantileService(tmp_path, k=32)
        assert recovered.store.get("k").n == 500
        recovered.close()
