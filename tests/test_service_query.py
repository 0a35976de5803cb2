"""Tests for the vectorized query plane (RANK, MULTI_QUERY, read clients).

Covers the read-side mirror of the pipelined ingest work: the uniform
``MULTI_QUERY`` frame builder and its exact uniformity detection, the
per-record response statuses (one bad key never fails a batch), the
``RANK`` opcode and the ``num_retained`` response footer, server-side
per-frame key reuse, queries against spilled keys riding the index path,
the query-index / op-count STATS counters, and the pipelined
``query_stream`` clients (sync + async) with per-request error
attribution.
"""

from __future__ import annotations

import asyncio
import socket
from functools import partial

import numpy as np
import pytest

from repro.cluster import ClusterMap
from repro.errors import ServiceError
from repro.service import (
    AsyncQuantileClient,
    QuantileClient,
    QuantileService,
    ServerThread,
)
from repro.service import protocol as wire
from repro.service.client import _decode_multi_query_list, _decode_query_response
from repro.service.server import QuantileServer


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
    return np.random.default_rng(31337)


class TestMultiQueryWire:
    def test_uniform_frames_round_trip(self, rng):
        points = rng.random((100, 3))
        window, counts = wire.build_query_frames("k", "quantiles", points, frame_requests=32)
        assert counts == [32, 32, 32, 4]
        blob = bytes(window)
        offset = 0
        rows = []
        for count in counts:
            (length,) = wire._LEN.unpack_from(blob, offset)
            body = blob[offset + 4 : offset + 4 + length]
            offset += 4 + length
            assert body[0] == wire.OP_MULTI_QUERY
            uniform = wire.try_uniform_multi_query(body)
            assert uniform is not None
            key, kind, matrix = uniform
            assert key == "k" and kind == wire.KIND_QUANTILES
            assert matrix.shape == (count, 3)
            rows.append(matrix)
            # The generic decoder must agree record for record.
            generic = wire.unpack_multi_query(body)
            assert len(generic) == count
            for (gkey, gkind, gpoints), row in zip(generic, matrix):
                assert gkey == "k" and gkind == wire.KIND_QUANTILES
                assert np.array_equal(np.asarray(gpoints), row)
        assert offset == len(blob)
        assert np.array_equal(np.vstack(rows), points)

    def test_mixed_frame_is_not_uniform(self):
        body = wire.pack_multi_query(
            [("a", "quantiles", [0.5]), ("b", "quantiles", [0.5])]
        )
        assert wire.try_uniform_multi_query(body) is None
        body = wire.pack_multi_query(
            [("a", "quantiles", [0.5]), ("a", "ranks", [0.5])]
        )
        assert wire.try_uniform_multi_query(body) is None
        body = wire.pack_multi_query(
            [("a", "quantiles", [0.5]), ("a", "quantiles", [0.5, 0.9])]
        )
        assert wire.try_uniform_multi_query(body) is None

    def test_truncation_raises_everywhere(self):
        body = wire.pack_multi_query(
            [("key-one", "quantiles", [0.5, 0.9]), ("key-two", "ranks", [1.0])]
        )
        for cut in range(1, len(body)):
            with pytest.raises(ServiceError):
                wire.unpack_multi_query(body[:cut])
        with pytest.raises(ServiceError, match="trailing"):
            wire.unpack_multi_query(body + b"\x00")
        with pytest.raises(ServiceError, match="zero requests"):
            wire.unpack_multi_query(bytes([wire.OP_MULTI_QUERY]) + b"\x00\x00\x00\x00")

    def test_bad_kind_rejected_at_pack_time(self):
        with pytest.raises(ServiceError, match="unknown query kind"):
            wire.pack_multi_query([("k", "median", [0.5])])
        with pytest.raises(ServiceError, match="kind"):
            wire.pack_multi_query([("k", 300, [0.5])])

    def test_uniform_response_round_trip(self, rng):
        values = rng.random((17, 4))
        body = wire.encode_uniform_query_response(1234, 0.05, values, 99)
        payload = wire.raise_for_status(bytes(body))
        decoded = wire.decode_uniform_query_response(payload, 17)
        assert decoded is not None
        n, eps, matrix, retained = decoded
        # Scalars broadcast on encode; decode returns per-row columns.
        assert n.tolist() == [1234] * 17
        assert eps.tolist() == [0.05] * 17
        assert retained.tolist() == [99] * 17
        assert np.array_equal(matrix, values)
        with pytest.raises(ServiceError, match="expected 3"):
            wire.decode_uniform_query_response(payload, 3)

    def test_response_with_error_record_is_not_uniform(self):
        ok = wire.pack_query_result(10, 0.1, [1.0], 5)
        err = b"\x02" + wire.pack_blob(b"unknown key")
        payload = wire._COUNT.pack(2) + err + ok
        assert wire.decode_uniform_query_response(payload, 2) is None


class TestServerQueryPlane:
    def test_rank_op_and_retained_footer(self, harness, rng):
        service = QuantileService(None)
        running = harness(service)
        data = rng.random(20_000)
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("k", data)
            sketch = service.store.get("k")
            result = client.rank("k", [0.25, 0.5, 2.0])
            expected = np.asarray(sketch.ranks([0.25, 0.5, 2.0]), dtype=np.float64)
            assert np.array_equal(result.quantiles, expected)
            assert result.values is result.quantiles
            assert result.n == 20_000
            assert result.num_retained == sketch.num_retained
            assert result.quantiles[2] == 20_000.0  # past the max
            # QUERY and CDF carry the footer too.
            assert client.query("k", [0.5]).num_retained == sketch.num_retained
            assert client.cdf("k", [0.5]).num_retained == sketch.num_retained

    def test_uniform_and_generic_paths_agree(self, harness, rng):
        service = QuantileService(None)
        running = harness(service)
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(10_000))
            points = np.tile(np.array([0.1, 0.5, 0.99]), (8, 1))
            # Uniform path (one key, one kind, one count)...
            uniform = client.query_stream("k", points, frame_requests=8, window=1)
            # ... versus the generic per-request loop (mixed kinds force it).
            mixed = client.query_many(
                [("k", "quantiles", row) for row in points] + [("k", "ranks", [0.5])]
            )
            for row, result in zip(uniform.values, mixed[:-1]):
                assert np.array_equal(row, result.quantiles)
                assert result.n == uniform.n
                assert result.num_retained == uniform.num_retained

    def test_one_missing_key_does_not_fail_the_batch(self, harness, rng):
        service = QuantileService(None)
        running = harness(service)
        with QuantileClient(port=running.port) as client:
            client.ingest("present", rng.random(1_000))
            results = client.query_many(
                [
                    ("present", [0.5]),
                    ("ghost", [0.5]),
                    ("present", "cdf", [0.5]),
                    ("present", 7, [0.5]),  # numeric kind the server rejects
                ]
            )
            assert results[0].n == 1_000
            assert isinstance(results[1], ServiceError)
            assert results[1].status == wire.STATUS_UNKNOWN_KEY
            assert results[1].request_index == 1
            assert results[2].quantiles[-1] == 1.0
            assert isinstance(results[3], ServiceError)
            assert results[3].status == wire.STATUS_BAD_REQUEST

    def test_uniform_frame_against_missing_key_attributes_per_request(
        self, harness, rng
    ):
        service = QuantileService(None)
        running = harness(service)
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(100))
            with pytest.raises(ServiceError) as excinfo:
                client.query_stream("ghost", np.tile([0.5], (20, 1)), frame_requests=8)
            exc = excinfo.value
            assert exc.status == wire.STATUS_UNKNOWN_KEY
            assert exc.request_index == 0
            assert len(exc.errors) == 20  # every request answered with its error
            # The connection survives error responses.
            assert client.query("k", [0.5]).n == 100

    def test_spilled_key_query_reloads_and_hits_index(self, harness, rng, tmp_path):
        service = QuantileService(tmp_path, k=32, memory_budget=600)
        running = harness(service)
        with QuantileClient(port=running.port) as client:
            for index in range(4):
                client.ingest(f"key/{index}", rng.random(4_096))
            stats = client.stats()
            assert stats["spilled"] > 0
            spilled = set(service.store.spilled_keys)
            target = sorted(spilled)[0]
            loads = service.store.load_count
            sketch_expected = None
            # First read transparently reloads; repeats hit the rebuilt index.
            first = client.query_stream(target, np.tile([0.5, 0.99], (50, 1)), window=1)
            assert service.store.load_count == loads + 1
            sketch_expected = service.store.get(target).quantiles(np.array([0.5, 0.99]))
            assert np.array_equal(first.values[0], sketch_expected)
            before = service.store.query_index_stats()
            again = client.query_stream(target, np.tile([0.5, 0.99], (50, 1)), window=1)
            assert np.array_equal(again.values[-1], sketch_expected)
            after = service.store.query_index_stats()
            assert after["hits"] > before["hits"]
            assert after["rebuilds"] == before["rebuilds"]  # no re-spill, no rebuild

    def test_stats_reports_query_plane_counters(self, harness, rng):
        service = QuantileService(None)
        running = harness(service)
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(1_000))
            client.query("k", [0.5])
            client.rank("k", [0.5])
            client.query_many([("k", [0.5]), ("k", "ranks", [0.2])])
            client.query_stream("k", np.tile([0.5], (32, 1)), frame_requests=16)
            stats = client.stats()
            ops = stats["op_counts"]
            assert ops["query"] == 1
            assert ops["rank"] == 1
            assert ops["multi_query"] == 3  # query_many + two stream frames
            assert stats["query_count"] == 1 + 1 + 2 + 32
            index = stats["query_index"]
            assert index["rebuilds"] >= 1
            assert index["hits"] >= 4
            assert index["misses"] == index["rebuilds"]

    def test_wire_answers_survive_crash_recovery(self, harness, rng, tmp_path):
        service = QuantileService(tmp_path, k=32, group_commit=True)
        running = harness(service)
        data = rng.random(15_000)
        fractions = np.linspace(0.01, 0.99, 25)
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("k", data)
            before = client.query_stream("k", np.tile(fractions, (10, 1)), window=1)
        running.stop(snapshot=False)  # crash: WAL-only state

        recovered = QuantileService(tmp_path, k=32)
        restarted = harness(recovered)
        with QuantileClient(port=restarted.port) as client:
            after = client.query_stream("k", np.tile(fractions, (10, 1)), window=1)
            assert after.n == before.n
            assert after.error_bound == before.error_bound
            assert after.num_retained == before.num_retained
            assert np.array_equal(after.values, before.values)

    def test_oversized_response_refused_with_connection_intact(self, harness, rng):
        """A request frame under MAX_FRAME can imply a response over it
        (an OK record outweighs its request record): the server must
        refuse with a small error frame, never emit an illegal frame."""
        service = QuantileService(None)
        running = harness(service)
        requests = [("k", "quantiles", [0.5])] * 140_000  # ~2.4MB request
        assert wire.query_response_bound(140_000, 1) > wire.MAX_FRAME
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(1_000))
            with pytest.raises(ServiceError, match="split the batch") as excinfo:
                client.query_many(requests)
            assert excinfo.value.status == wire.STATUS_BAD_REQUEST
            # The connection survives and keeps answering.
            assert client.query("k", [0.5]).n == 1_000

    #: A small frame cap (every layer reads ``MAX_FRAME`` at call time),
    #: so each read below fits its request under it by a few bytes and
    #: its answer over it, in kilobytes instead of 64 MiB.
    SMALL_CAP = 4092

    @pytest.mark.parametrize("read", ["query", "cdf", "rank", "window-cdf"])
    def test_every_read_opcode_refuses_an_over_cap_response(self, harness, monkeypatch, read):
        monkeypatch.setattr(wire, "MAX_FRAME", self.SMALL_CAP)
        service = QuantileService(None, window_resolutions=(10.0,), seed=0)
        running = harness(service)
        with QuantileClient(port=running.port) as client:
            client.ingest("k", np.arange(100.0))
            client.ingest_windowed("k", np.full(100, 1000.0), np.arange(100.0))
            if read == "window-cdf":
                # 33 request bytes around the points; the answer has 37.
                points = np.arange((self.SMALL_CAP - 33) // 8, dtype=float)
                body = wire.pack_window_query("k", "cdf", 0.0, 1000.0, 1010.0, points)
                answer = 37 + 8 * points.size
                call = partial(
                    client.query_horizon, "k", points, start=1000.0, end=1010.0, kind="cdf"
                )
            else:
                # 8 request bytes around the points; the answer has 29
                # (one more point for a CDF's final mass).
                points = np.linspace(0.0, 1.0, (self.SMALL_CAP - 8) // 8)
                op = {"query": wire.OP_QUERY, "cdf": wire.OP_CDF, "rank": wire.OP_RANK}[read]
                body = bytes([op]) + wire.pack_key("k") + wire.pack_values(points)
                answer = 29 + 8 * (points.size + (read == "cdf"))
                call = partial(getattr(client, read), "k", points)
            assert len(body) <= self.SMALL_CAP < answer
            with pytest.raises(ServiceError, match="split the batch") as excinfo:
                call()
            assert excinfo.value.status == wire.STATUS_BAD_REQUEST
            # The same connection keeps answering.
            assert client.query("k", [0.5]).n == 100
            assert client.stats()["connections"] == 1
        assert service.query_count == 1

    def test_query_stream_preflights_oversized_frames_client_side(self, harness, rng):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(100))
            with pytest.raises(ServiceError, match="lower frame_requests"):
                client.query_stream(
                    "k", np.tile([0.5], (200_000, 1)), frame_requests=200_000
                )

    def test_raw_multi_query_frame_decode_error_is_bad_request(self, harness):
        running = harness(QuantileService(None))
        body = bytes([wire.OP_MULTI_QUERY]) + b"\x02\x00\x00\x00" + b"\x01"  # truncated
        sock = socket.create_connection(("127.0.0.1", running.port), timeout=10)
        try:
            sock.sendall(wire.encode_frame(body))
            with pytest.raises(ServiceError) as excinfo:
                wire.raise_for_status(wire.read_frame_sync(sock))
            assert excinfo.value.status == wire.STATUS_BAD_REQUEST
        finally:
            sock.close()


class TestAsyncQueryPlane:
    def test_async_surface_matches_sync(self, harness, rng):
        service = QuantileService(None)
        running = harness(service)
        data = rng.random(8_192)

        async def scenario():
            async with AsyncQuantileClient(port=running.port) as client:
                await client.ingest("k", data)
                rank = await client.rank("k", [0.5])
                many = await client.query_many([("k", [0.5, 0.99]), ("ghost", [0.5])])
                stream = await client.query_stream(
                    "k", np.tile([0.5, 0.99], (40, 1)), frame_requests=16, window=2
                )
                return rank, many, stream

        rank, many, stream = asyncio.run(scenario())
        sketch = service.store.get("k")
        assert rank.quantiles[0] == float(sketch.rank(0.5))
        assert rank.num_retained == sketch.num_retained
        assert np.array_equal(many[0].quantiles, sketch.quantiles(np.array([0.5, 0.99])))
        assert isinstance(many[1], ServiceError) and many[1].request_index == 1
        assert stream.values.shape == (40, 2)
        assert np.array_equal(stream.values[0], many[0].quantiles)

    def test_async_stream_error_attribution(self, harness, rng):
        running = harness(QuantileService(None))

        async def scenario():
            async with AsyncQuantileClient(port=running.port) as client:
                await client.ingest("k", rng.random(100))
                with pytest.raises(ServiceError) as excinfo:
                    await client.query_stream("ghost", np.tile([0.5], (12, 1)), window=2)
                return excinfo.value

        exc = asyncio.run(scenario())
        assert exc.request_index == 0
        assert len(exc.errors) == 12


class TestQueryStreamShapes:
    def test_cdf_rows_gain_the_final_mass(self, harness, rng):
        service = QuantileService(None)
        running = harness(service)
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(5_000))
            points = np.tile(np.array([0.2, 0.5, 0.8]), (6, 1))
            result = client.query_stream("k", points, kind="cdf", window=1)
            assert result.values.shape == (6, 4)
            sketch = service.store.get("k")
            expected = sketch.cdf(np.array([0.2, 0.5, 0.8]))
            for row in result.values:
                assert np.array_equal(row, expected)

    def test_1d_points_are_one_request(self, harness, rng):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(1_000))
            result = client.query_stream("k", np.array([0.5, 0.9]))
            assert result.values.shape == (1, 2)

    def test_empty_stream_rejected(self, harness):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError, match="empty query stream"):
                client.query_stream("k", np.empty((0, 2)))

    def test_invalid_fraction_attributes_to_its_request(self, harness, rng):
        """A bad row in a uniform frame falls back to the per-request loop:
        good rows still answer, the bad one carries its own status."""
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            client.ingest("k", rng.random(1_000))
            points = np.tile([0.5], (5, 1)).astype(float)
            points[3, 0] = 1.5  # out of [0, 1]
            with pytest.raises(ServiceError) as excinfo:
                client.query_stream("k", points, window=1)
            exc = excinfo.value
            assert exc.request_index == 3
            assert len(exc.errors) == 1  # ONLY the offending request failed


#: The dashboard's per-key read (tail quantiles, as a monitor asks them).
DASH_FRACTIONS = np.array([0.5, 0.9, 0.99, 0.999])


def _signature(result):
    """Every byte a read record carries: n, eps, values, retained footer."""
    return (result.n, result.error_bound, result.quantiles.tobytes(), result.num_retained)


def _fresh_answer(service, key, kind, points):
    """``key``'s answer from a cache-free clone of the server's state."""
    from repro.fast import FastReqSketch

    fresh = FastReqSketch.from_bytes(service.store.payload(key))
    values = getattr(fresh, kind)(np.asarray(points, dtype=np.float64))
    return np.asarray(values, dtype=np.float64).tobytes()


class TestAnswerMemoOverTheWire:
    """Repeated reads are answered from the engine's answer memo; a key's
    answers may change only when that key's state changes."""

    def test_nan_record_is_bad_request_and_neighbours_answer(self, harness, rng):
        service = QuantileService(None)
        running = harness(service)
        with QuantileClient(port=running.port) as client:
            client.ingest("a", rng.random(2_000))
            client.ingest("b", rng.random(2_000))
            for _ in range(2):  # the second pass reads through the memo
                results = client.query_many(
                    [
                        ("a", DASH_FRACTIONS),
                        ("a", [np.nan, 0.5]),
                        ("b", "cdf", [0.5, np.nan]),
                        ("b", DASH_FRACTIONS),
                    ]
                )
                for index in (1, 2):
                    assert isinstance(results[index], ServiceError)
                    assert results[index].status == wire.STATUS_BAD_REQUEST
                    assert results[index].request_index == index
                for index, key in ((0, "a"), (3, "b")):
                    assert results[index].quantiles.tobytes() == _fresh_answer(
                        service, key, "quantiles", DASH_FRACTIONS
                    )
            # A NaN row inside a uniform cdf frame falls back per request.
            points = np.tile([0.25, 0.75], (4, 1))
            points[2, 1] = np.nan
            with pytest.raises(ServiceError) as excinfo:
                client.query_stream("a", points, kind="cdf", window=1)
            assert excinfo.value.request_index == 2
            assert excinfo.value.status == wire.STATUS_BAD_REQUEST
            assert len(excinfo.value.errors) == 1

    def test_dashboard_reads_change_only_for_mutated_keys(self, harness, rng, tmp_path):
        from repro.fast import FastReqSketch

        service = QuantileService(tmp_path, k=32, seed=0)
        running = harness(service)
        keys = [f"dash/svc{i:02d}" for i in range(24)]
        requests = [(key, DASH_FRACTIONS) for key in keys]
        requests += [(keys[5], "ranks", [0.25, 0.5]), (keys[6], "cdf", [0.3, 0.6])]
        with QuantileClient(port=running.port) as client:
            for index, key in enumerate(keys):
                client.ingest(key, rng.lognormal(1.0 + index / 10, 0.8, 3_000))
            first = [_signature(r) for r in client.query_many(requests)]
            hits = client.stats()["query_index"]["answer_hits"]
            assert [_signature(r) for r in client.query_many(requests)] == first
            # One memo hit per key's quantiles read; ranks/cdf are not memoized.
            assert client.stats()["query_index"]["answer_hits"] == hits + len(keys)

            ingested, spilled, merged, replaced = keys[0], keys[1], keys[2], keys[3]
            client.ingest(ingested, np.full(5_000, 1e6))
            service.store.spill(spilled)
            assert spilled in service.store.spilled_keys
            donor = FastReqSketch(32, seed=1)
            donor.update_many(np.full(4_000, 1e6))
            client.merge(merged, donor)
            replacement = FastReqSketch(32, seed=2)
            replacement.update_many(rng.random(3_000) * 1e6)
            client.migrate_push(
                replaced, wire.pack_migration_bundle(3_000, replacement.to_bytes(), {})
            )

            after = client.query_many(requests)
        touched = {ingested, spilled, merged, replaced}
        for (key, *_rest), before, result in zip(requests, first, after):
            if key not in touched:
                assert _signature(result) == before, key
        for key in touched:
            result = after[keys.index(key)]
            assert result.quantiles.tobytes() == _fresh_answer(
                service, key, "quantiles", DASH_FRACTIONS
            )
            assert result.num_retained == service.store.get(key).num_retained
        for key in (ingested, merged, replaced):  # these states really moved
            assert _signature(after[keys.index(key)]) != first[keys.index(key)]

    def test_single_key_reads_change_only_for_mutated_keys(self, harness, rng):
        from repro.fast import FastReqSketch

        service = QuantileService(None, k=32, seed=0)
        running = harness(service)
        keys = ["a", "b", "c", "d"]
        with QuantileClient(port=running.port) as client:
            for key in keys:
                client.ingest(key, rng.random(4_000))

            def read_all():
                return {
                    key: (
                        _signature(client.query(key, DASH_FRACTIONS)),
                        _signature(client.cdf(key, [0.2, 0.4, 0.8])),
                        _signature(client.rank(key, [0.1, 0.5, 2.0])),
                    )
                    for key in keys
                }

            before = read_all()
            assert read_all() == before
            client.ingest("a", rng.random(4_000) + 1.0)
            donor = FastReqSketch(32, seed=3)
            donor.update_many(rng.random(4_000) - 1.0)
            client.merge("b", donor)
            after = read_all()
        assert after["c"] == before["c"] and after["d"] == before["d"]
        for key in ("a", "b"):
            query, cdf, rank = after[key]
            assert query != before[key][0]
            assert query[2] == _fresh_answer(service, key, "quantiles", DASH_FRACTIONS)
            assert cdf[2] == _fresh_answer(service, key, "cdf", [0.2, 0.4, 0.8])
            assert rank[2] == _fresh_answer(service, key, "ranks", [0.1, 0.5, 2.0])


# ----------------------------------------------------------------------
# Many-key frames answered column-wise (fixed-stride response codec)
# ----------------------------------------------------------------------

N_FIXED = wire.FIXED_STRIDE_MIN_REQUESTS

#: Point sets per kind: ``cdf`` answers one value more than it asks.
KIND_POINTS = {
    "quantiles": (0.5, 0.9, 0.99, 0.999),
    "ranks": (0.5, 3.0, 20.0, 150.0),
    "cdf": (1.0, 5.0, 40.0),
}


def _many_key_service(keys=40, **kwargs):
    """A service whose keys all differ in ``n``, ``eps`` and retained count."""
    service = QuantileService(None, k=8, seed=0, **kwargs)
    rng = np.random.default_rng(5)
    for index in range(keys):
        service.store.update_many(f"key/{index}", rng.lognormal(2, 1, 40 * 2**(index % 9) + index))
    return service


def _per_record_response(service, requests):
    """The response the per-record encoder gives, each request answered alone."""
    parts = [b"\x00", wire._COUNT.pack(len(requests))]
    for key, kind, points in requests:
        try:
            result = service.query_points(key, kind, np.asarray(points, dtype=float))
        except Exception as exc:
            error = QuantileServer._error_response(exc)
            parts.append(bytes([error[0]]) + wire.pack_blob(bytes(error[1:])))
        else:
            parts.append(wire.pack_query_result(*result))
    return b"".join(parts)


@pytest.fixture()
def fixed_stride_calls(monkeypatch):
    """Counts calls of the fixed-stride encoder and decoder."""
    calls = {"encode": 0, "decode": 0}
    encode, decode = wire.encode_uniform_query_response, wire.decode_uniform_query_response

    def counted_encode(*args):
        calls["encode"] += 1
        return encode(*args)

    def counted_decode(*args):
        calls["decode"] += 1
        return decode(*args)

    monkeypatch.setattr(wire, "encode_uniform_query_response", counted_encode)
    monkeypatch.setattr(wire, "decode_uniform_query_response", counted_decode)
    return calls


class TestColumnWiseMultiQuery:
    @pytest.mark.parametrize("kind", sorted(KIND_POINTS))
    @pytest.mark.parametrize("size", [N_FIXED - 1, N_FIXED, 256])
    def test_response_bytes_match_the_per_record_encoding(self, kind, size, fixed_stride_calls):
        service = _many_key_service()
        points = KIND_POINTS[kind]
        requests = [(f"key/{index % 40}", kind, points) for index in range(size)]
        body = wire.pack_multi_query(requests)
        response = QuantileServer(service, port=0)._multi_query(body, False)
        assert response == _per_record_response(service, requests)
        assert fixed_stride_calls["encode"] == (size >= N_FIXED)
        results = _decode_multi_query_list(memoryview(response)[1:], expected=size)
        assert fixed_stride_calls["decode"] == (size >= N_FIXED)
        # The keys really differ in every per-record column.
        for column in ("n", "error_bound", "num_retained"):
            assert len({getattr(result, column) for result in results}) > 1
        for (key, _kind, _points), result in zip(requests, results):
            n, eps, values, retained = service.query_points(key, kind, np.asarray(points))
            assert (result.n, result.error_bound, result.num_retained) == (n, eps, retained)
            assert type(result.n) is int and type(result.num_retained) is int
            assert type(result.error_bound) is float
            assert result.quantiles.tobytes() == values.tobytes()

    def test_mixed_kinds_of_one_answer_length_stay_fixed_stride(self, fixed_stride_calls):
        service = _many_key_service()
        requests = [
            (f"key/{index}", "quantiles" if index % 2 else "cdf",
             KIND_POINTS["quantiles"] if index % 2 else KIND_POINTS["cdf"])
            for index in range(N_FIXED + 3)
        ]
        response = QuantileServer(service, port=0)._multi_query(
            wire.pack_multi_query(requests), False
        )
        assert response == _per_record_response(service, requests)
        assert fixed_stride_calls["encode"] == 1

    def test_mixed_answer_lengths_fall_back(self, fixed_stride_calls):
        service = _many_key_service()
        requests = [(f"key/{index}", "quantiles", (0.5, 0.9)) for index in range(N_FIXED + 3)]
        requests[7] = ("key/7", "quantiles", (0.5, 0.9, 0.99))
        response = QuantileServer(service, port=0)._multi_query(
            wire.pack_multi_query(requests), False
        )
        assert response == _per_record_response(service, requests)
        assert fixed_stride_calls["encode"] == 0
        results = _decode_multi_query_list(memoryview(response)[1:], expected=len(requests))
        assert [result.quantiles.size for result in results] == [2] * 7 + [3] + [2] * (N_FIXED - 5)

    def test_one_missing_key_falls_back_and_reports_its_index(self, fixed_stride_calls):
        service = _many_key_service()
        requests = [(f"key/{index}", "quantiles", KIND_POINTS["quantiles"]) for index in range(32)]
        requests[11] = ("ghost", "quantiles", KIND_POINTS["quantiles"])
        response = QuantileServer(service, port=0)._multi_query(
            wire.pack_multi_query(requests), False
        )
        assert response == _per_record_response(service, requests)
        assert fixed_stride_calls["encode"] == 0
        results = _decode_multi_query_list(memoryview(response)[1:], expected=32)
        for index, result in enumerate(results):
            if index == 11:
                assert isinstance(result, ServiceError)
                assert result.status == wire.STATUS_UNKNOWN_KEY
                assert result.request_index == 11
            else:
                assert result.n == service.store.get(f"key/{index}").n

    def test_one_unowned_key_on_a_routed_node_falls_back(self, tmp_path, fixed_stride_calls):
        service = QuantileService(tmp_path / "a", node_id="a", k=8, seed=0)
        ring = ClusterMap([("a", "127.0.0.1", 1), ("b", "127.0.0.1", 2)], replication=1)
        owned = [f"k{i}" for i in range(200) if ring.primary(f"k{i}").node_id == "a"][:N_FIXED]
        unowned = next(f"k{i}" for i in range(200) if ring.primary(f"k{i}").node_id == "b")
        rng = np.random.default_rng(3)
        for index, key in enumerate(owned + [unowned]):
            service.store.update_many(key, rng.random(100 + index))
        service.install_topology(ring.to_json())
        server = QuantileServer(service, port=0)
        try:
            points = KIND_POINTS["quantiles"]
            requests = [(key, "quantiles", points) for key in owned]
            # Every key owned: the frame is answered column-wise.
            response = server._dispatch(wire.pack_multi_query(requests))
            assert fixed_stride_calls["encode"] == 1
            results = _decode_multi_query_list(memoryview(response)[1:], expected=N_FIXED)
            assert [result.n for result in results] == [100 + i for i in range(N_FIXED)]
            requests.insert(5, (unowned, "quantiles", points))
            response = server._dispatch(wire.pack_multi_query(requests))
            assert fixed_stride_calls["encode"] == 1  # the fallback took this one
            results = _decode_multi_query_list(
                memoryview(response)[1:], expected=len(requests)
            )
            for index, result in enumerate(results):
                if index == 5:
                    assert isinstance(result, ServiceError)
                    assert result.status == wire.STATUS_WRONG_TOPOLOGY
                    assert result.request_index == 5
                else:
                    assert result.n == service.store.get(requests[index][0]).n
        finally:
            service.close(snapshot=False)

    @pytest.mark.parametrize("shape", ["error-record-of-ok-length", "counts-that-add-up"])
    def test_look_alike_responses_are_decoded_per_record(self, shape):
        """Records whose total length fits the fixed stride but whose
        statuses or counts differ must not be read column-wise.  Each
        shape passes one of the two checks and only the other catches it."""
        records = [wire.pack_query_result(100 + i, 0.01, [1.0, 2.0], 7) for i in range(N_FIXED)]
        if shape == "error-record-of-ok-length":
            # Where an OK record keeps its count, the message holds a 2.
            message = b"x" * 12 + wire._COUNT.pack(2)
            message += b"x" * (len(records[0]) - 5 - len(message))
            records[3] = b"\x02" + wire.pack_blob(message)
        else:
            # eps = 0.0 puts a zero byte where the stride expects row 4's status.
            records[3] = wire.pack_query_result(103, 0.0, [], 7)
            records[4] = wire.pack_query_result(104, 0.0, [1.0, 2.0, 3.0, 4.0], 7)
        payload = wire._COUNT.pack(N_FIXED) + b"".join(records)
        assert len(payload) == 4 + N_FIXED * len(records[0])
        assert wire.decode_uniform_query_response(payload, N_FIXED) is None
        results = _decode_multi_query_list(payload, expected=N_FIXED)
        if shape == "error-record-of-ok-length":
            assert isinstance(results[3], ServiceError) and results[3].request_index == 3
        else:
            assert [result.quantiles.size for result in results[2:6]] == [2, 0, 4, 2]
        assert [getattr(result, "n", None) for result in results[5:]] == [
            100 + i for i in range(5, N_FIXED)
        ]

    def test_decoded_results_survive_receive_buffer_reuse(self):
        service = _many_key_service()
        requests = [(f"key/{index}", "quantiles", KIND_POINTS["quantiles"]) for index in range(40)]
        response = QuantileServer(service, port=0)._multi_query(
            wire.pack_multi_query(requests), False
        )
        scratch = bytearray(response[1:])
        results = _decode_multi_query_list(memoryview(scratch), expected=40)
        saved = [_signature(result) for result in results]
        scratch[:] = b"\xff" * len(scratch)
        assert [_signature(result) for result in results] == saved

    def test_counters_match_the_per_request_path(self):
        frames = []
        rng = np.random.default_rng(9)
        for _ in range(6):
            frames.append([
                (f"key/{int(index)}", kind, KIND_POINTS[kind])
                for index, kind in zip(
                    rng.integers(0, 40, 64), rng.choice(sorted(KIND_POINTS), 64)
                )
            ])
        column = _many_key_service()
        server = QuantileServer(column, port=0)
        for requests in frames:
            server._multi_query(wire.pack_multi_query(requests), False)
        per_request = _many_key_service()
        for requests in frames:
            for key, kind, points in requests:
                per_request.query_points(key, kind, np.asarray(points, dtype=float))
        assert column.query_count == per_request.query_count == 6 * 64
        column_index = column.store.query_index_stats()
        per_index = per_request.store.query_index_stats()
        for counter in ("hits", "rebuilds", "answer_hits"):
            assert column_index[counter] == per_index[counter], counter
        assert column_index["answer_hits"] > 0

    def test_wire_round_trip_over_a_socket(self, harness, rng):
        service = QuantileService(None)
        running = harness(service)
        keys = [f"dash/{index}" for index in range(64)]
        with QuantileClient(port=running.port) as client:
            for index, key in enumerate(keys):
                client.ingest(key, rng.random(500 + index))
            fractions = [0.5, 0.9, 0.99]
            results = client.query_many([(key, fractions) for key in keys])
        for key, result in zip(keys, results):
            sketch = service.store.get(key)
            assert result.n == sketch.n
            assert result.num_retained == sketch.num_retained
            assert result.error_bound == sketch.error_bound()
            assert np.array_equal(result.quantiles, sketch.quantiles(np.array(fractions)))


SHARED_POINTS = [0.5, 0.9, 0.99]
POINT_ROWS = np.random.default_rng(2).random((6, 3))


class TestPackMultiQuerySuffixReuse:
    @staticmethod
    def _per_request(requests):
        parts = [bytes([wire.OP_MULTI_QUERY]), wire._COUNT.pack(len(requests))]
        for key, kind, points in requests:
            parts.append(wire.pack_key(key) + bytes([wire.kind_code(kind)]))
            parts.append(wire.pack_values(points))
        return b"".join(parts)

    @pytest.mark.parametrize(
        "requests",
        [
            [(f"k{i}", "quantiles", SHARED_POINTS) for i in range(6)],
            [(f"k{i}", "quantiles", [0.5, 0.9, 0.99]) for i in range(6)],
            [(f"k{i}", "ranks", row) for i, row in enumerate(POINT_ROWS)],
            [(f"k{i}", "ranks", POINT_ROWS[0]) for i in range(6)],
            [(f"k{i}", ("cdf", wire.KIND_CDF)[i % 2], SHARED_POINTS) for i in range(6)],
            [(f"k{i}", "quantiles" if i < 3 else "cdf", SHARED_POINTS) for i in range(6)],
            [(f"k{i}", (wire.KIND_QUANTILES, wire.KIND_RANKS)[i >= 3], SHARED_POINTS) for i in range(6)],
            [("k", "quantiles", SHARED_POINTS), ("k", "quantiles", [0.5]), ("k", "quantiles", SHARED_POINTS)],
        ],
        ids=[
            "shared-points", "equal-lists", "numpy-rows", "shared-numpy-row",
            "kind-names-and-codes", "kind-changes-midway", "kind-code-changes-midway",
            "points-change-and-return",
        ],
    )
    def test_bytes_match_per_request_packing(self, requests):
        assert wire.pack_multi_query(requests) == self._per_request(requests)


# ----------------------------------------------------------------------
# Read decoders refuse trailing bytes
# ----------------------------------------------------------------------


class TestReadDecodersRefuseTrailingBytes:
    #: One OK record, status byte first (a MULTI_QUERY record's layout).
    RECORD = wire.pack_query_result(10, 0.1, [1.0, 2.0], 5)

    @pytest.mark.parametrize(
        "payload, decode",
        [
            (RECORD[1:], _decode_query_response),
            (wire._COUNT.pack(1) + RECORD, partial(_decode_multi_query_list, expected=1)),
            (
                wire._COUNT.pack(N_FIXED) + RECORD * N_FIXED,
                partial(_decode_multi_query_list, expected=N_FIXED),
            ),
        ],
        ids=["query", "multi-query", "multi-query-fixed-stride"],
    )
    def test_client_side(self, payload, decode):
        decode(payload)  # well formed
        with pytest.raises(ServiceError, match="trailing"):
            decode(payload + b"garbage!")

    @pytest.mark.parametrize("op", [wire.OP_QUERY, wire.OP_CDF, wire.OP_RANK])
    def test_server_side(self, op):
        service = QuantileService(None)
        service.store.update_many("k", np.arange(1.0, 101.0))
        server = QuantileServer(service, port=0)
        body = bytes([op]) + wire.pack_key("k") + wire.pack_values([0.5, 0.75])
        assert server._dispatch(body)[0] == wire.STATUS_OK
        response = server._dispatch(body + b"garbage!")
        assert response[0] == wire.STATUS_BAD_REQUEST
        assert b"trailing" in response
