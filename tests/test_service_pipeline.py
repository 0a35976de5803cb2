"""Tests for the pipelined ingest hot path and off-loop group-commit WAL.

Covers the service/engine throughput-gap work: zero-copy protocol helpers
(multi-frame encode, ``MULTI_INGEST``, buffered reads), the pipelined
client (windowed streaming, per-frame error attribution), server-side
batch coalescing (per-key staging, response ordering, bit-exact recovery
of coalesced WAL records), and the group-commit WAL (acks gated on
commits, crash in the commit window, barrier/truncate interplay).
"""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest

from repro.errors import ServiceError, SnapshotCorruptError
from repro.service import (
    GroupCommitWal,
    QuantileClient,
    QuantileServer,
    QuantileService,
    ServerThread,
    new_event_loop,
)
from repro.service import protocol as wire
from repro.service.persistence import (
    WAL_INGEST,
    WAL_SEQ_INGEST,
    WAL_SEQ_WINDOW_INGEST,
    WriteAheadLog,
    unpack_session_header,
)


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
    return np.random.default_rng(4242)


class TestFrameBuilder:
    def test_frames_decode_back_to_the_batch(self, rng):
        values = rng.random(10_000)
        window, counts = wire.build_ingest_frames("k", values, frame_values=4096)
        assert counts == [4096, 4096, 1808]
        blob = bytes(window)
        decoded = []
        offset = 0
        while offset < len(blob):
            (length,) = wire._LEN.unpack_from(blob, offset)
            body = blob[offset + 4 : offset + 4 + length]
            assert body[0] == wire.OP_INGEST
            key, key_end = wire.unpack_key(body, 1)
            assert key == "k"
            array, value_end = wire.unpack_values(body, key_end)
            assert value_end == len(body)
            decoded.append(np.array(array))
            offset += 4 + length
        assert np.array_equal(np.concatenate(decoded), values)

    def test_scratch_reuse_smaller_window(self, rng):
        scratch = bytearray()
        big, counts = wire.build_ingest_frames("k", rng.random(5000), out=scratch)
        big_len = len(big)
        big.release()
        small, counts = wire.build_ingest_frames("k", rng.random(10), out=scratch)
        assert len(small) < big_len
        assert len(scratch) >= big_len  # scratch never shrinks
        (length,) = wire._LEN.unpack_from(bytes(small), 0)
        assert length == len(small) - 4
        small.release()

    def test_empty_batch_refused(self):
        with pytest.raises(ServiceError, match="empty"):
            wire.build_ingest_frames("k", [])

    def test_frame_over_max_refused(self):
        with pytest.raises(ServiceError, match="MAX_FRAME"):
            wire.build_ingest_frames("k", [1.0], frame_values=wire.MAX_FRAME // 8 + 1)


class TestMultiIngestProtocol:
    def test_roundtrip(self, rng):
        batches = [("a", rng.random(7)), ("b", rng.random(3)), ("a", rng.random(2))]
        body = wire.pack_multi_ingest(batches)
        assert body[0] == wire.OP_MULTI_INGEST
        decoded = wire.unpack_multi_ingest(body)
        assert [key for key, _ in decoded] == ["a", "b", "a"]
        for (_, expected), (_, got) in zip(batches, decoded):
            assert np.array_equal(np.asarray(expected), np.array(got))

    def test_truncated_bodies_name_the_group(self, rng):
        body = wire.pack_multi_ingest([("k1", rng.random(4)), ("k2", rng.random(4))])
        # Any truncation must fail loudly as a ServiceError, never decode.
        for cut in range(1, len(body)):
            with pytest.raises(ServiceError):
                wire.unpack_multi_ingest(body[:cut])
        with pytest.raises(ServiceError, match="group 1"):
            wire.unpack_multi_ingest(body[:-3])

    def test_trailing_garbage_rejected(self, rng):
        body = wire.pack_multi_ingest([("k", rng.random(4))])
        with pytest.raises(ServiceError, match="trailing"):
            wire.unpack_multi_ingest(body + b"\x00")

    def test_zero_groups_rejected(self):
        with pytest.raises(ServiceError, match="zero groups"):
            wire.unpack_multi_ingest(bytes([wire.OP_MULTI_INGEST]) + b"\x00\x00\x00\x00")

    def test_fuzz_random_truncations_and_flips(self, rng):
        """Corrupted MULTI_INGEST bodies either decode or raise ServiceError —
        never crash with an arbitrary exception."""
        base = wire.pack_multi_ingest(
            [("fuzz", rng.random(16)), ("fuzz2", rng.random(5))]
        )
        for _ in range(200):
            corrupt = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                corrupt[int(rng.integers(0, len(corrupt)))] = int(rng.integers(0, 256))
            corrupt = bytes(corrupt[: int(rng.integers(5, len(corrupt) + 1))])
            try:
                wire.unpack_multi_ingest(corrupt)
            except ServiceError:
                pass


class TestMultiIngestOverSocket:
    def test_fan_in_one_round_trip(self, harness, rng):
        running = harness(QuantileService(None, k=32))
        streams = {f"tenant-{i}": rng.random(500) for i in range(5)}
        with QuantileClient(port=running.port) as client:
            totals = client.ingest_multi(streams)
            assert totals == {key: 500 for key in streams}
            for key, stream in streams.items():
                result = client.query(key, [0.0, 1.0])
                assert result.quantiles[0] == stream.min()
                assert result.quantiles[1] == stream.max()

    def test_repeated_key_acks_cumulative_totals(self, harness, rng):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            payload = client._request(
                wire.pack_multi_ingest([("k", rng.random(10)), ("k", rng.random(5))])
            )
            (groups,) = wire._COUNT.unpack_from(payload, 0)
            assert groups == 2
            first, offset = wire.unpack_n(payload, wire._COUNT.size)
            second, _ = wire.unpack_n(payload, offset)
            assert (first, second) == (10, 15)

    def test_bad_group_rejects_whole_frame_atomically(self, harness, rng):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError, match="group 1"):
                client.ingest_multi([("good", rng.random(4)), ("bad", [float("nan")])])
            # Nothing applied: the frame is all-or-nothing.
            assert client.stats()["keys"] == 0
            # Connection survives.
            assert client.ingest("good", rng.random(4)) == 4


class TestPipelinedClient:
    def test_stream_accurate_at_scale(self, harness, rng):
        values = np.sort(rng.random(50_000))
        running = harness(QuantileService(None, k=32, seed=7))
        with QuantileClient(port=running.port) as client:
            assert client.ingest_stream("k", values, frame_values=4096, window=8) == 50_000
            result = client.query("k", [0.1, 0.5, 0.9, 0.99])
        assert result.n == 50_000
        # The pipelined/coalesced path must honor the paper's guarantee:
        # each estimate's true normalized rank within eps of the fraction.
        for fraction, estimate in zip([0.1, 0.5, 0.9, 0.99], result.quantiles):
            true_rank = np.searchsorted(values, estimate, side="right")
            assert abs(true_rank / 50_000 - fraction) <= result.error_bound

    def test_error_attributed_to_offending_batch(self, harness, rng):
        running = harness(QuantileService(None))
        values = rng.random(40_000)
        bad_frame = 6
        values[bad_frame * 4096 + 17] = float("nan")
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError, match="NaN") as excinfo:
                client.ingest_stream("k", values, frame_values=4096, window=4)
            exc = excinfo.value
            assert exc.batch_index == bad_frame
            assert exc.value_offset == bad_frame * 4096
            assert exc.count == 4096
            assert len(exc.errors) == 1
            # Every clean frame was still applied (pipelining does not
            # abort in-flight work), so exactly one frame is missing.
            assert client.query("k", [0.5]).n == 40_000 - 4096
            # The connection stays usable for the retry of the bad slice.
            clean = np.nan_to_num(values[exc.value_offset : exc.value_offset + exc.count])
            client.ingest("k", clean)
            assert client.query("k", [0.5]).n == 40_000

    def test_multiple_bad_frames_all_reported(self, harness, rng):
        running = harness(QuantileService(None))
        values = rng.random(20_000)
        for frame in (1, 3):
            values[frame * 4096 + 5] = float("nan")
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.ingest_stream("k", values, frame_values=4096, window=2)
            assert [e.batch_index for e in excinfo.value.errors] == [1, 3]

    def test_empty_stream_rejected_client_side(self, harness):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            with pytest.raises(ServiceError, match="empty"):
                client.ingest_stream("k", [])

    def test_async_stream_and_multi(self, harness, rng):
        import asyncio

        from repro.service import AsyncQuantileClient

        running = harness(QuantileService(None, k=32))
        values = rng.random(30_000)

        async def scenario():
            async with AsyncQuantileClient(port=running.port) as client:
                n = await client.ingest_stream("k", values, frame_values=4096, window=8)
                totals = await client.ingest_multi({"m1": values[:100], "m2": values[:7]})
                result = await client.query("k", [0.5])
                return n, totals, result

        n, totals, result = asyncio.run(scenario())
        assert n == 30_000
        assert totals == {"m1": 100, "m2": 7}
        assert result.n == 30_000

    def test_async_stream_error_attribution(self, harness, rng):
        import asyncio

        from repro.service import AsyncQuantileClient

        running = harness(QuantileService(None))
        values = rng.random(12_000)
        values[4096 + 3] = float("nan")

        async def scenario():
            async with AsyncQuantileClient(port=running.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    await client.ingest_stream("k", values, frame_values=4096, window=3)
                return excinfo.value

        exc = asyncio.run(scenario())
        assert exc.batch_index == 1
        assert exc.value_offset == 4096


class TestCoalescing:
    def test_program_order_preserved_in_mixed_pipeline(self, harness, rng):
        """A raw pipeline of INGEST/QUERY/INGEST frames must see its own
        writes: the query answers with exactly the values sent before it."""
        running = harness(QuantileService(None))
        first = np.ascontiguousarray(rng.random(100))
        second = np.ascontiguousarray(rng.random(50))
        ingest1 = bytes([wire.OP_INGEST]) + wire.pack_key("k") + wire.pack_values(first)
        query = bytes([wire.OP_QUERY]) + wire.pack_key("k") + wire.pack_values([0.5])
        ingest2 = bytes([wire.OP_INGEST]) + wire.pack_key("k") + wire.pack_values(second)
        sock = socket.create_connection(("127.0.0.1", running.port), timeout=10)
        try:
            sock.sendall(
                wire.encode_frame(ingest1) + wire.encode_frame(query) + wire.encode_frame(ingest2)
            )
            ack1 = wire.raise_for_status(wire.read_frame_sync(sock))
            answer = wire.raise_for_status(wire.read_frame_sync(sock))
            ack2 = wire.raise_for_status(wire.read_frame_sync(sock))
        finally:
            sock.close()
        assert wire.unpack_n(ack1, 0)[0] == 100
        assert wire.unpack_n(answer, 0)[0] == 100  # query saw ONLY the first batch
        assert wire.unpack_n(ack2, 0)[0] == 150

    def test_coalesced_acks_are_cumulative(self, harness, rng):
        """Frames coalesced into one update_many still ack per frame with
        the right running totals."""
        running = harness(QuantileService(None))
        frames = [np.ascontiguousarray(rng.random(10 * (i + 1))) for i in range(4)]
        blob = b"".join(
            wire.encode_frame(
                bytes([wire.OP_INGEST]) + wire.pack_key("k") + wire.pack_values(frame)
            )
            for frame in frames
        )
        sock = socket.create_connection(("127.0.0.1", running.port), timeout=10)
        try:
            sock.sendall(blob)
            totals = [
                wire.unpack_n(wire.raise_for_status(wire.read_frame_sync(sock)), 0)[0]
                for _ in frames
            ]
        finally:
            sock.close()
        assert totals == [10, 30, 60, 100]

    def test_coalesced_recovery_is_bit_exact(self, tmp_path, harness, rng):
        """Kill after pipelined (coalesced) ingest; restart answers identically."""
        values = rng.random(60_000)
        running = harness(QuantileService(tmp_path, k=32))
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("k", values, frame_values=4096, window=16)
            before = client.query("k", [0.25, 0.5, 0.9, 0.99])
        running.stop(snapshot=False)  # crash: no goodbye checkpoint

        revived = QuantileService(tmp_path, k=32)
        sketch = revived.store.get("k")
        assert sketch.n == 60_000
        assert np.array_equal(
            sketch.quantiles([0.25, 0.5, 0.9, 0.99]), before.quantiles
        )
        revived.close()

    def test_op_counts_reported(self, harness, rng):
        running = harness(QuantileService(None))
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("k", rng.random(20_000), frame_values=4096, window=8)
            client.ingest_multi({"a": [1.0]})
            client.query("k", [0.5])
            stats = client.stats()
        assert stats["op_counts"]["ingest"] == 5
        assert stats["op_counts"]["multi_ingest"] == 1
        assert stats["op_counts"]["query"] == 1
        assert stats["op_counts"]["stats"] == 1
        assert stats["connections"] >= 1


class TestGroupCommit:
    def test_acked_batches_survive_kill(self, tmp_path, harness, rng):
        """fsync=True + group commit: every acknowledged frame must be
        replayable after a kill (the ack was gated on the commit)."""
        service = QuantileService(tmp_path, k=32, fsync=True, group_commit=True)
        running = harness(service)
        values = rng.random(30_000)
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("k", values, frame_values=2048, window=8)
            before = client.query("k", [0.5, 0.99])
        running.stop(snapshot=False)  # kill

        revived = QuantileService(tmp_path, k=32, fsync=True, group_commit=True)
        sketch = revived.store.get("k")
        assert sketch.n == 30_000
        assert np.array_equal(sketch.quantiles([0.5, 0.99]), before.quantiles)
        revived.close()

    def test_crash_in_commit_window_is_prefix_consistent(self, tmp_path, rng):
        """Records queued but never committed are absent after the crash;
        what survives is exactly a prefix of the append order, and replay
        reconstructs exactly that prefix."""
        service = QuantileService(tmp_path, k=32, fsync=True, group_commit=True)
        batches = [rng.random(100) for _ in range(20)]
        tickets = []
        for index, batch in enumerate(batches):
            service.ingest(f"key-{index % 3}", batch)
            tickets.append(service._last_ticket)
        acked = [ticket is not None and ticket.done() for ticket in tickets]
        service.wal._abandon()  # crash: the queued suffix is lost

        # Recovery must come up clean on whatever prefix survived.
        revived = QuantileService(tmp_path, k=32, fsync=True, group_commit=True)
        survived = list(revived.wal.replay())
        # The survivors are a strict prefix of the append order.
        assert [record.seq for record in survived] == list(
            range(1, len(survived) + 1)
        )
        # Every batch whose ticket resolved before the crash is in it.
        last_acked = max((i for i, ok in enumerate(acked) if ok), default=-1)
        assert len(survived) >= last_acked + 1
        # And the store state equals an oracle applying exactly that prefix.
        per_key_counts: dict = {}
        for record in survived:
            assert record.op == WAL_INGEST
            per_key_counts[record.key] = per_key_counts.get(record.key, 0) + len(
                record.payload
            ) // 8
        for key, count in per_key_counts.items():
            assert revived.store.get(key).n == count
        revived.close()

    def test_barrier_then_truncate_never_leaves_queued_records(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32, group_commit=True)
        for index in range(50):
            service.ingest("k", rng.random(10))
        assert service.snapshot_all() == 1
        # After the checkpoint the WAL is empty: nothing queued slipped
        # past the truncation (the barrier drained the writer first).
        assert service.wal.size_bytes == 0
        assert service.wal.queue_depth == 0
        service.ingest("k", rng.random(10))
        service.wal_barrier()
        assert service.wal.size_bytes > 0
        service.close()
        # Full recovery: snapshot + post-checkpoint tail.
        revived = QuantileService(tmp_path, k=32, group_commit=True)
        assert revived.store.get("k").n == 510
        revived.close()

    def test_group_commit_stats_surface(self, tmp_path, harness, rng):
        service = QuantileService(tmp_path, k=32, group_commit=True)
        running = harness(service)
        with QuantileClient(port=running.port) as client:
            client.ingest_stream("k", rng.random(20_000), frame_values=2048, window=16)
            stats = client.stats()
        assert "group_commit" in stats
        commit = stats["group_commit"]
        assert commit["commit_count"] >= 1
        assert commit["committed_records"] >= 1
        assert commit["max_commit_batch"] >= 1
        assert commit["mean_commit_ms"] >= 0.0
        assert stats["wal_queue_depth"] >= 0
        assert stats["wal_appends"] >= 1

    def test_closed_wal_refuses_appends(self, tmp_path):
        wal = GroupCommitWal(tmp_path / "wal.log")
        wal.append(WAL_INGEST, 1, "k", b"\x00" * 8)
        wal.close()
        with pytest.raises(ServiceError, match="closed"):
            wal.append(WAL_INGEST, 2, "k", b"\x00" * 8)

    def test_failed_commit_poisons_the_log(self, tmp_path):
        """A failed commit must fail its ticket AND refuse every later
        append: writing past a possibly-torn mid-file record would shadow
        acknowledged records from replay (the torn-tail healer only heals
        a *tail*)."""
        wal = GroupCommitWal(tmp_path / "wal.log")
        wal.barrier()

        def boom(*, fsync=None):
            raise OSError(28, "No space left on device")

        wal._inner.commit = boom
        ticket = wal.append(WAL_INGEST, 1, "k", b"\x00" * 8)
        with pytest.raises(OSError):
            ticket.result(timeout=10)
        with pytest.raises(ServiceError, match="poisoned"):
            wal.append(WAL_INGEST, 2, "k", b"\x00" * 8)
        wal.barrier()  # must not hang on a dead writer
        wal.close()

    def test_failed_commit_ticket_still_gates_acks(self, tmp_path, rng):
        """commit_ticket() must hand back a ticket that completed with an
        exception — mapping it to None would let the server send an OK
        ack for a record the WAL lost."""
        service = QuantileService(tmp_path, k=32, group_commit=True)
        service.wal.barrier()

        def boom(*, fsync=None):
            raise OSError(28, "No space left on device")

        service.wal._inner.commit = boom
        service.ingest("k", rng.random(10))
        ticket = service._last_ticket
        with pytest.raises(OSError):
            ticket.result(timeout=10)
        gated = service.commit_ticket()
        assert gated is ticket  # done-with-exception is still returned
        assert gated.exception() is not None
        service.close(snapshot=False)

    def test_group_commit_replay_matches_sync_wal(self, tmp_path, rng):
        """The two WAL modes must produce byte-identical logs for the
        same appends (group commit changes *when*, never *what*)."""
        sync_dir = tmp_path / "sync"
        group_dir = tmp_path / "group"
        payloads = [rng.random(50).tobytes() for _ in range(10)]
        sync_wal = WriteAheadLog(sync_dir / "wal.log")
        group_wal = GroupCommitWal(group_dir / "wal.log")
        for seq, payload in enumerate(payloads, start=1):
            sync_wal.append(WAL_INGEST, seq, "k", payload)
            group_wal.append(WAL_INGEST, seq, "k", payload)
        group_wal.barrier()
        sync_wal.close()
        group_wal.close()
        assert (sync_dir / "wal.log").read_bytes() == (group_dir / "wal.log").read_bytes()


class TestTornTailWithGroupCommit:
    def test_torn_tail_healed_on_reopen(self, tmp_path, rng):
        wal = GroupCommitWal(tmp_path / "wal.log")
        for seq in range(1, 6):
            wal.append(WAL_INGEST, seq, "k", rng.random(10).tobytes())
        wal.barrier()
        wal.close()
        size = (tmp_path / "wal.log").stat().st_size
        with open(tmp_path / "wal.log", "r+b") as handle:
            handle.truncate(size - 7)  # tear the final record
        healed = GroupCommitWal(tmp_path / "wal.log")
        assert healed.healed_bytes > 0
        assert len(list(healed.replay())) == 4
        healed.close()


class TestBufferedReader:
    def test_many_frames_one_recv(self):
        left, right = socket.socketpair()
        try:
            frames = [bytes([i]) * (i + 1) for i in range(20)]
            left.sendall(b"".join(wire.encode_frame(body) for body in frames))
            reader = wire.FrameReader(right, initial=16)  # force growth + compaction
            for expected in frames:
                assert bytes(reader.read_frame()) == expected
        finally:
            left.close()
            right.close()

    def test_oversized_header_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("<I", wire.MAX_FRAME + 1))
            reader = wire.FrameReader(right)
            with pytest.raises(ServiceError, match="cap"):
                reader.read_frame()
        finally:
            left.close()
            right.close()

    def test_eof_between_frames_is_connection_error(self):
        left, right = socket.socketpair()
        left.close()
        reader = wire.FrameReader(right)
        try:
            with pytest.raises(ConnectionError):
                reader.read_frame()
        finally:
            right.close()

    def test_eof_mid_frame_is_service_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("<I", 100) + b"partial")
            left.close()
            reader = wire.FrameReader(right)
            with pytest.raises(ServiceError, match="connection closed"):
                reader.read_frame()
        finally:
            right.close()


class TestUvloopPlumbing:
    def test_new_event_loop_falls_back_silently(self):
        # uvloop is not installed in this environment: the helper must
        # hand back a working stock loop without raising or warning.
        loop = new_event_loop(True)
        try:
            assert loop.run_until_complete(_async_one()) == 1
        finally:
            loop.close()
        loop = new_event_loop(False)
        try:
            assert loop.run_until_complete(_async_one()) == 1
        finally:
            loop.close()

    def test_server_thread_opt_out(self, harness):
        running = harness(QuantileService(None), use_uvloop=False)
        with QuantileClient(port=running.port) as client:
            assert isinstance(client.ping(), str)

    def test_cli_serve_flags_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--no-uvloop", "--no-group-commit"])
        assert args.no_uvloop is True
        assert args.no_group_commit is True


async def _async_one() -> int:
    return 1


class TestHalfClose:
    def test_acks_delivered_after_client_write_eof(self, tmp_path, harness, rng):
        """A client that shuts down its write side after a burst of
        frames must still receive every ack — including acks gated on a
        group commit — before the server hangs up."""
        service = QuantileService(tmp_path, k=32, fsync=True, group_commit=True)
        running = harness(service)
        frames = [np.ascontiguousarray(rng.random(100)) for _ in range(5)]
        blob = b"".join(
            wire.encode_frame(
                bytes([wire.OP_INGEST]) + wire.pack_key("k") + wire.pack_values(frame)
            )
            for frame in frames
        )
        sock = socket.create_connection(("127.0.0.1", running.port), timeout=10)
        try:
            sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)  # half-close: still reading
            totals = [
                wire.unpack_n(wire.raise_for_status(wire.read_frame_sync(sock)), 0)[0]
                for _ in frames
            ]
            assert totals == [100, 200, 300, 400, 500]
            assert sock.recv(1) == b""  # then the server hangs up
        finally:
            sock.close()


class TestOversizedFrameStillCloses:
    def test_error_response_then_close(self, harness):
        """The protocol-based server keeps the old contract: answer the
        oversized announcement with BAD_REQUEST, then hang up."""
        running = harness(QuantileService(None))
        sock = socket.create_connection(("127.0.0.1", running.port), timeout=5)
        try:
            sock.sendall(struct.pack("<I", wire.MAX_FRAME + 1))
            body = wire.read_frame_sync(sock)
            with pytest.raises(ServiceError, match="exceeds"):
                wire.raise_for_status(body)
            assert sock.recv(1) == b""
        finally:
            sock.close()


class _TickConn:
    """The connection state ``QuantileServer._process_frames`` reads."""

    def __init__(self) -> None:
        self.session_id = None
        self._tick_backlog = 0


def _tick(server, conn, bodies):
    """Dispatch ``bodies`` as ONE tick; returns the response bodies."""
    payload, _ticket = server._process_frames([memoryview(body) for body in bodies], conn)
    responses, offset = [], 0
    while offset < len(payload):
        (length,) = wire._LEN.unpack_from(payload, offset)
        offset += wire._LEN.size
        responses.append(bytes(payload[offset : offset + length]))
        offset += length
    return responses


def _n(body) -> int:
    return wire.unpack_n(wire.raise_for_status(body), 0)[0]


def _multi_acks(body):
    payload = wire.raise_for_status(body)
    (count,) = wire._COUNT.unpack_from(payload, 0)
    return np.frombuffer(payload, "<u8", count, wire._COUNT.size).tolist()


def _records(service):
    """Every WAL record as ``(op, key, session_or_None, payload floats)``."""
    out = []
    for record in service.wal.replay(strict=True):
        payload, session = record.payload, None
        if record.op in (WAL_SEQ_INGEST, WAL_SEQ_WINDOW_INGEST):
            sid, seq, offset = unpack_session_header(payload)
            payload, session = payload[offset:], (sid, seq)
        out.append((record.op, record.key, session, np.frombuffer(payload, "<f8").tolist()))
    return out


class TestTickPipeline:
    """One tick driven straight through ``_process_frames``: the WAL
    records, acks and shed accounting of the ingest pipeline."""

    @pytest.fixture()
    def tick(self, tmp_path):
        service = QuantileService(tmp_path)
        server = QuantileServer(service, overload=None)
        conn = _TickConn()
        assert _tick(server, conn, [wire.pack_hello("s1")])[0][0] == wire.STATUS_OK
        yield service, server, lambda bodies: _tick(server, conn, bodies)
        service.close(snapshot=False)

    def test_one_key_burst_logs_one_record_with_the_last_seq(self, tick, rng):
        service, _server, run = tick
        batches = [rng.random(10 * (i + 1)) for i in range(8)]
        responses = run(
            [wire.pack_seq_ingest(seq, "k", b) for seq, b in enumerate(batches, start=1)]
        )
        assert [_n(r) for r in responses] == np.cumsum([b.size for b in batches]).tolist()
        assert _records(service) == [
            (WAL_SEQ_INGEST, "k", ("s1", 8), np.concatenate(batches).tolist())
        ]

    def test_only_adjacent_frames_of_one_key_coalesce(self, tick, rng):
        service, _server, run = tick
        a1, a2, b, a3 = (rng.random(size) for size in (3, 4, 5, 6))
        responses = run(
            [
                wire.pack_seq_ingest(1, "A", a1),
                wire.pack_seq_ingest(2, "A", a2),
                wire.pack_seq_ingest(3, "B", b),
                wire.pack_seq_ingest(4, "A", a3),
            ]
        )
        assert [_n(r) for r in responses] == [3, 7, 5, 13]
        assert _records(service) == [
            (WAL_SEQ_INGEST, "A", ("s1", 2), np.concatenate([a1, a2]).tolist()),
            (WAL_SEQ_INGEST, "B", ("s1", 3), b.tolist()),
            (WAL_SEQ_INGEST, "A", ("s1", 4), a3.tolist()),
        ]

    def test_mixed_opcode_tick(self, tick, rng):
        """Every ingest flavour in one tick: acks, a duplicate group's ack,
        a query that sees exactly the earlier writes, and the WAL order."""
        service, _server, run = tick
        j = rng.random(7)
        assert _n(run([wire.pack_seq_ingest(3, "j", j)])[0]) == 7
        a, b, c, e = (rng.random(size) for size in (10, 20, 30, 40))
        now = time.time()
        ts, w = now + np.arange(5) * 1e-3, rng.random(5)
        responses = run(
            [
                bytes([wire.OP_INGEST]) + wire.pack_key("k") + wire.pack_values(a),
                wire.pack_seq_ingest(2, "k", b),
                wire.pack_seq_multi_ingest(3, [("k", c), ("j", rng.random(9))]),
                bytes([wire.OP_QUERY]) + wire.pack_key("k") + wire.pack_values([0.5]),
                wire.pack_seq_window_ingest(4, "w", ts, w),
                wire.pack_seq_ingest(5, "k", e),
            ]
        )
        assert _n(responses[0]) == 10
        assert _n(responses[1]) == 30
        assert _multi_acks(responses[2]) == [60, 7]  # j is a duplicate
        n, _eps, answer, _retained, _ = wire.unpack_query_result(
            wire.raise_for_status(responses[3])
        )
        reference = QuantileService(None)
        for batch in (a, b, c):
            reference.ingest("k", batch)
        assert n == 60
        assert answer.tolist() == reference.query("k", [0.5])[2].tolist()
        assert _n(responses[4]) == 5
        assert _n(responses[5]) == 100
        assert _records(service)[1:] == [
            (WAL_INGEST, "k", None, a.tolist()),
            (WAL_SEQ_INGEST, "k", ("s1", 2), b.tolist()),
            (WAL_SEQ_INGEST, "k", ("s1", 3), c.tolist()),
            (WAL_SEQ_WINDOW_INGEST, "w", ("s1", 4), ts.tolist() + w.tolist()),
            (WAL_SEQ_INGEST, "k", ("s1", 5), e.tolist()),
        ]
        assert service.current_n("j") == 7

    def test_every_frozen_ingest_frame_counts_one_shed(self, tick, rng):
        service, server, run = tick
        now = time.time()
        ts = now + np.arange(3) * 1e-3
        assert _n(run([wire.pack_seq_ingest(1, "k", rng.random(4))])[0]) == 4
        service.migrate_begin("k")
        service.migrate_drain("k", freeze=True)
        before = server.shed_count
        responses = run(
            [
                bytes([wire.OP_INGEST]) + wire.pack_key("k") + wire.pack_values([1.0]),
                wire.pack_seq_ingest(2, "k", [1.0]),
                wire.pack_multi_ingest([("k", [1.0])]),
                wire.pack_seq_multi_ingest(3, [("k", [1.0])]),
                wire.pack_window_ingest("k", ts, [1.0, 2.0, 3.0]),
                wire.pack_seq_window_ingest(4, "k", ts, [1.0, 2.0, 3.0]),
            ]
        )
        assert [r[0] for r in responses] == [wire.STATUS_RETRY_LATER] * 6
        assert server.shed_count - before == 6
        assert service.current_n("k") == 4

    def test_a_bad_frame_fails_alone(self, tick, rng):
        service, _server, run = tick
        a, b = rng.random(3), rng.random(4)
        responses = run(
            [
                wire.pack_seq_ingest(1, "k", a),
                wire.pack_seq_ingest(2, "k", [1.0, float("nan")]),
                bytes([wire.OP_INGEST]) + wire.pack_key("") + wire.pack_values([1.0]),
                wire.pack_seq_ingest(3, "k", b),
            ]
        )
        assert _n(responses[0]) == 3
        assert [responses[1][0], responses[2][0]] == [wire.STATUS_BAD_REQUEST] * 2
        assert _n(responses[3]) == 7
        assert _records(service) == [
            (WAL_SEQ_INGEST, "k", ("s1", 3), np.concatenate([a, b]).tolist())
        ]

    def test_failure_before_logging_reverts_every_group(self, tick, rng, monkeypatch):
        service, _server, run = tick

        def full_disk(records):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(service.wal, "append_many", full_disk)
        responses = run(
            [
                wire.pack_seq_ingest(1, "k", rng.random(3)),
                wire.pack_seq_multi_ingest(2, [("a", rng.random(2)), ("b", rng.random(2))]),
                bytes([wire.OP_INGEST]) + wire.pack_key("p") + wire.pack_values([1.0]),
            ]
        )
        assert [r[0] for r in responses] == [wire.STATUS_RETRY_LATER] * 3
        assert service.degraded
        assert [service.sessions.high_water("s1", key) for key in "kab"] == [0, 0, 0]
        assert [service.current_n(key) for key in "kabp"] == [0, 0, 0, 0]

    def test_failed_group_fails_only_its_frame(self, tick, rng, monkeypatch):
        service, _server, run = tick
        original = service.store.update_many

        def update_many(key, values):
            if key == "bad":
                raise SnapshotCorruptError("bad.frq", "bad snapshot")
            return original(key, values)

        monkeypatch.setattr(service.store, "update_many", update_many)
        responses = run(
            [
                wire.pack_seq_ingest(1, "a", rng.random(3)),
                wire.pack_seq_multi_ingest(2, [("bad", rng.random(2)), ("c", rng.random(5))]),
                wire.pack_seq_ingest(3, "d", rng.random(4)),
            ]
        )
        assert _n(responses[0]) == 3
        assert responses[1][0] == wire.STATUS_BAD_REQUEST
        assert _n(responses[2]) == 4
        marks = {key: service.sessions.high_water("s1", key) for key in ("a", "bad", "c", "d")}
        assert marks == {"a": 1, "bad": 0, "c": 2, "d": 3}
        assert service.current_n("c") == 5

    def test_windowed_frame_after_a_failed_group_of_its_key_sheds(self, tick, rng, monkeypatch):
        """The run flushes before the windowed frame is admitted, so the
        failed group's rollback (and pinned shed floor) reaches it: the
        frame sheds instead of applying under a mark that was rolled back."""
        service, _server, run = tick
        original = service.store.update_many

        def update_many(key, values):
            if key == "bad":
                raise SnapshotCorruptError("bad.frq", "bad snapshot")
            return original(key, values)

        monkeypatch.setattr(service.store, "update_many", update_many)
        ts = time.time() + np.arange(3) * 1e-3
        responses = run(
            [
                wire.pack_seq_ingest(1, "bad", rng.random(2)),
                wire.pack_seq_window_ingest(2, "bad", ts, rng.random(3)),
            ]
        )
        assert [r[0] for r in responses] == [wire.STATUS_BAD_REQUEST, wire.STATUS_RETRY_LATER]
        assert service.sessions.high_water("s1", "bad") == 0
        assert service.window_accepted("bad") == 0

    def test_shed_frame_with_a_duplicate_keeps_the_shed_floor(self, tick, rng):
        """A shed multi-key frame whose later key is a duplicate must leave
        the shed floor pinned: otherwise the next frame applies past the
        shed one and the shed frame's retry is deduplicated into an ack
        for values never counted."""
        service, server, run = tick
        assert _n(run([wire.pack_seq_ingest(10, "j", rng.random(2))])[0]) == 2
        k = rng.random(3)
        server.draining = True
        shed = run([wire.pack_seq_multi_ingest(6, [("k", k), ("j", rng.random(2))])])
        server.draining = False
        assert shed[0][0] == wire.STATUS_RETRY_LATER
        assert run([wire.pack_seq_ingest(7, "k", rng.random(4))])[0][0] == wire.STATUS_RETRY_LATER
        retry = run(
            [
                wire.pack_seq_multi_ingest(6, [("k", k), ("j", rng.random(2))]),
                wire.pack_seq_ingest(7, "k", rng.random(4)),
            ]
        )
        assert _multi_acks(retry[0]) == [3, 2]
        assert _n(retry[1]) == 7

    def test_redirected_retry_of_a_shed_frame_releases_the_shed_floor(self, tmp_path, rng):
        """A frame shed during a cutover freeze pins the session's shed
        floor; its retry, arriving after the commit, is redirected before
        admit.  The redirect must release the floor, or every later frame
        of the session sheds on this node for good."""
        from repro.cluster import ClusterMap

        one = ClusterMap([("a", "127.0.0.1", 1)], replication=1)
        two = one.with_node(("b", "127.0.0.1", 2))
        keys = [f"key-{index}" for index in range(64)]
        moved = next(key for key in keys if two.primary(key).node_id == "b")
        kept = next(key for key in keys if two.primary(key).node_id == "a")
        service = QuantileService(tmp_path, node_id="a")
        service.install_topology(one.to_json())
        server = QuantileServer(service, overload=None)
        conn = _TickConn()
        try:
            assert _tick(server, conn, [wire.pack_hello("s1")])[0][0] == wire.STATUS_OK
            assert _n(_tick(server, conn, [wire.pack_seq_ingest(1, moved, rng.random(3))])[0]) == 3
            service.migrate_begin(moved)
            service.migrate_drain(moved, freeze=True)
            shed = _tick(server, conn, [wire.pack_seq_ingest(2, moved, rng.random(2))])
            assert shed[0][0] == wire.STATUS_RETRY_LATER
            service.install_topology(two.to_json())
            service.migrate_commit(moved)
            retry = _tick(server, conn, [wire.pack_seq_ingest(2, moved, rng.random(2))])
            assert retry[0][0] == wire.STATUS_WRONG_TOPOLOGY
            assert _n(_tick(server, conn, [wire.pack_seq_ingest(3, kept, rng.random(4))])[0]) == 4
            assert service.sessions.high_water("s1", kept) == 3
        finally:
            service.close(snapshot=False)
