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
        assert (n, eps, retained) == (1234, 0.05, 99)
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
