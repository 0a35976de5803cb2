"""Tests for frame-at-a-time multi-key ingest.

A ``MULTI_INGEST``/``SEQ_MULTI_INGEST`` frame is validated once, logged
with one WAL enqueue (one record per group) and applied through
``QuantileService.ingest_groups``.  Covers: direct-caller validation and
the single server-side scan, crash recovery of sequenced frames that
spill mid-frame (sync WAL and group commit), the exactly-once contract of
``SEQ_MULTI_INGEST`` over the socket, and WAL byte parity with per-group
``ingest`` calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError, ServiceError
from repro.service import QuantileClient, QuantileService, ServerThread
from repro.service import protocol as wire
from repro.service import server as server_module
from repro.service.client import _decode_multi_response
from repro.service.resilience import RetryPolicy
from repro.service.store import spill_filename

SID = "multi-ingest-test"


@pytest.fixture()
def rng():
    return np.random.default_rng(1717)


@pytest.fixture()
def running():
    started = []

    def start(service: QuantileService) -> ServerThread:
        thread = ServerThread(service)
        started.append(thread)
        return thread

    yield start
    for thread in started:
        try:
            thread.stop(snapshot=False)
        except Exception:
            pass


def _session_client(port: int) -> QuantileClient:
    """An exactly-once client that never retries on its own, so each
    request below is exactly one frame on the wire."""
    client = QuantileClient(port=port, retry=RetryPolicy(retries=0, seed=3), session=SID)
    assert client.exactly_once
    return client


def _send_seq_multi(client: QuantileClient, seq: int, groups):
    return _decode_multi_response(client._request_once(wire.pack_seq_multi_ingest(seq, groups)))


class TestMultiAckDecode:
    def test_acks_decode_in_order_as_ints(self):
        acks = [5, 7, 2**64 - 1]
        payload = wire._COUNT.pack(len(acks)) + np.asarray(acks, "<u8").tobytes()
        decoded = _decode_multi_response(memoryview(payload))
        assert decoded == acks
        assert all(type(n) is int for n in decoded)
        assert _decode_multi_response(wire._COUNT.pack(0)) == []

    def test_truncated_or_padded_ack_raises(self):
        payload = wire._COUNT.pack(3) + np.asarray([1, 2, 3], "<u8").tobytes()
        for cut in range(len(payload)):
            with pytest.raises(ServiceError, match="MULTI_INGEST response"):
                _decode_multi_response(payload[:cut])
        with pytest.raises(ServiceError, match="MULTI_INGEST response"):
            _decode_multi_response(payload + b"\x00")


class TestValidation:
    def test_direct_callers_reject_nan_and_empty(self, rng):
        service = QuantileService(None)
        with pytest.raises(InvalidParameterError, match="NaN"):
            service.ingest("k", [1.0, float("nan")])
        with pytest.raises(InvalidParameterError, match="empty"):
            service.ingest("k", [])
        with pytest.raises(InvalidParameterError, match="NaN"):
            service.ingest_batches("k", [np.array([float("nan")])])
        with pytest.raises(InvalidParameterError, match="NaN"):
            service.ingest_batches("k", [rng.random(3), np.array([2.0, float("nan")])])
        with pytest.raises(InvalidParameterError, match="empty"):
            service.ingest_batches("k", [np.empty(0)])
        with pytest.raises(InvalidParameterError, match="group 1: cannot insert NaN"):
            service.ingest_groups([("a", rng.random(2)), ("b", np.array([float("nan")]))])
        assert service.store.keys() == []
        assert service.ingest_batches("k", [rng.random(3)]) == 3

    @pytest.mark.parametrize("multi", [False, True])
    def test_server_scans_each_frame_once(self, running, rng, monkeypatch, multi):
        calls = []
        original = server_module._find_bad_batch

        def counting(batches):
            calls.append(len(batches))
            return original(batches)

        monkeypatch.setattr(server_module, "_find_bad_batch", counting)
        thread = running(QuantileService(None))
        with QuantileClient(port=thread.port) as client:
            if multi:
                client.ingest_multi([("a", rng.random(5)), ("b", rng.random(7))])
            else:
                client.ingest("a", rng.random(5))
        assert calls == ([2] if multi else [1])


class TestCrashRecovery:
    @pytest.mark.parametrize("group_commit", [False, True])
    def test_sequenced_frames_spilling_mid_frame_recover_exactly(
        self, tmp_path, rng, group_commit
    ):
        """Applying one group spills later groups' keys; each spill
        snapshot must cover only records already applied, or recovery
        skips an acked record."""
        keys = [f"fleet/{i:02d}" for i in range(64)]
        service = QuantileService(
            str(tmp_path), k=8, hra=True, seed=0, memory_budget=600, group_commit=group_commit
        )
        thread = ServerThread(service)
        acked = {}
        with QuantileClient(port=thread.port, retry=RetryPolicy(seed=11)) as client:
            assert client.exactly_once
            for _frame in range(12):
                acked.update(client.ingest_multi([(key, rng.random(40)) for key in keys]))
        assert service.store.spill_count > 0
        thread.stop(snapshot=False)
        recovered = QuantileService(
            str(tmp_path), k=8, hra=True, seed=0, memory_budget=600, group_commit=group_commit
        )
        try:
            assert acked == {key: 40 * 12 for key in keys}
            assert {key: recovered.current_n(key) for key in keys} == acked
        finally:
            recovered.close(snapshot=False)


class TestSeqMultiIngestExactlyOnce:
    def test_replayed_frame_acks_current_n_and_applies_nothing(self, running, rng):
        service = QuantileService(None)
        thread = running(service)
        with _session_client(thread.port) as client:
            groups = [("a", rng.random(4)), ("b", rng.random(6))]
            assert _send_seq_multi(client, 1, groups) == [4, 6]
            assert _send_seq_multi(client, 2, [("a", rng.random(3))]) == [7]
            # The replay of seq 1 is a duplicate for both keys.
            assert _send_seq_multi(client, 1, groups) == [7, 6]
            assert (service.current_n("a"), service.current_n("b")) == (7, 6)

    def test_repeated_key_gets_cumulative_acks(self, running, rng):
        service = QuantileService(None)
        thread = running(service)
        with _session_client(thread.port) as client:
            groups = [("k", rng.random(10)), ("j", rng.random(2)), ("k", rng.random(5))]
            assert _send_seq_multi(client, 1, groups) == [10, 2, 15]
            assert _send_seq_multi(client, 1, groups) == [15, 2, 15]
        assert service.current_n("k") == 15

    def test_nan_group_rejects_frame_and_moves_no_mark(self, running, rng):
        service = QuantileService(None)
        thread = running(service)
        good = [("a", rng.random(4)), ("b", rng.random(3))]
        bad = [good[0], ("b", np.array([1.0, float("nan")]))]
        with _session_client(thread.port) as client:
            with pytest.raises(ServiceError, match="SEQ_MULTI_INGEST group 1") as excinfo:
                _send_seq_multi(client, 1, bad)
            assert excinfo.value.status == wire.STATUS_BAD_REQUEST
            assert service.sessions.high_water(SID, "a") == 0
            assert service.sessions.high_water(SID, "b") == 0
            assert service.store.keys() == []
            # The corrected retry applies once; its replay applies nothing.
            assert _send_seq_multi(client, 1, good) == [4, 3]
            assert _send_seq_multi(client, 1, good) == [4, 3]
        assert service.sessions.high_water(SID, "a") == 1
        assert (service.current_n("a"), service.current_n("b")) == (4, 3)

    def test_draining_server_sheds_whole_frame(self, running, rng):
        service = QuantileService(None)
        thread = running(service)
        groups = [("a", rng.random(4)), ("b", rng.random(3))]
        with _session_client(thread.port) as client:
            assert _send_seq_multi(client, 1, [("a", rng.random(2))]) == [2]
            thread.server.draining = True
            with pytest.raises(ServiceError) as excinfo:
                _send_seq_multi(client, 2, groups)
            assert excinfo.value.status == wire.STATUS_RETRY_LATER
            assert service.sessions.high_water(SID, "a") == 1
            assert service.sessions.high_water(SID, "b") == 0
            assert (service.current_n("a"), service.current_n("b")) == (2, 0)
            thread.server.draining = False
            assert _send_seq_multi(client, 2, groups) == [6, 3]

    def test_failed_group_reverts_its_mark_and_the_retry_applies_it(self, tmp_path, rng):
        """A spilled key whose snapshot is corrupt fails its group after
        the frame was logged.  The other keys' groups apply; the failed
        key's later group is skipped and its mark rolls back, so the retry
        applies both of its groups instead of acking them as duplicates."""
        service = QuantileService(str(tmp_path), k=32, memory_budget=2000)
        for i in range(5):
            service.ingest(f"k{i}", rng.random(2500))
        victim = service.store.spilled_keys[0]
        path = tmp_path / "snapshots" / spill_filename(victim)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        groups = [
            ("k4", rng.random(10)),
            (victim, rng.random(7)),
            ("fresh", rng.random(5)),
            (victim, rng.random(3)),
        ]
        thread = ServerThread(service)
        with _session_client(thread.port) as client:
            with pytest.raises(ServiceError, match="spill target"):
                _send_seq_multi(client, 1, groups)
            assert service.sessions.high_water(SID, victim) == 0
            assert service.sessions.high_water(SID, "fresh") == 1
            assert (service.current_n("k4"), service.current_n("fresh")) == (2510, 5)
            assert victim not in service.store
            assert _send_seq_multi(client, 1, groups) == [2510, 7, 5, 10]
            assert _send_seq_multi(client, 1, groups) == [2510, 10, 5, 10]
        assert victim in service.quarantined_keys
        thread.stop()  # snapshot_all, then the WAL is truncated
        recovered = QuantileService(str(tmp_path), k=32, memory_budget=2000)
        try:
            assert recovered.current_n(victim) == 10
            assert (recovered.current_n("k4"), recovered.current_n("fresh")) == (2510, 5)
        finally:
            recovered.close(snapshot=False)

    def test_migrating_keys_buffer_each_group_and_a_frozen_key_sheds_the_frame(
        self, running, rng
    ):
        service = QuantileService(None)
        service.ingest("a", [1.0])
        service.ingest("b", [2.0])
        service.migrate_begin("a")
        thread = running(service)
        with _session_client(thread.port) as client:
            groups = [("a", rng.random(3)), ("b", rng.random(2)), ("a", rng.random(4))]
            assert _send_seq_multi(client, 1, groups) == [4, 3, 8]
            # One drain entry per applied group of the forwarding key.
            frozen, entries = service.migrate_drain("a", freeze=True)
            assert frozen and len(entries) == 2
            for body in (
                wire.pack_seq_multi_ingest(2, [("b", rng.random(2)), ("a", rng.random(1))]),
                wire.pack_multi_ingest([("b", rng.random(2)), ("a", rng.random(1))]),
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client._request_once(body)
                assert excinfo.value.status == wire.STATUS_RETRY_LATER
        assert service.sessions.high_water(SID, "b") == 1
        assert (service.current_n("a"), service.current_n("b")) == (8, 3)


class TestWalParity:
    def test_multi_frames_log_the_same_bytes_as_per_group_ingest(self, tmp_path, rng):
        frames = [
            [(f"key/{frame}/{g}", rng.random(int(rng.integers(1, 50)))) for g in range(8)]
            for frame in range(5)
        ]
        framed = QuantileService(str(tmp_path / "framed"))
        thread = ServerThread(framed)
        with _session_client(thread.port) as client:
            for seq, groups in enumerate(frames, start=1):
                assert _send_seq_multi(client, seq, groups) == [v.size for _k, v in groups]
        thread.stop(snapshot=False)

        direct = QuantileService(str(tmp_path / "direct"))
        for seq, groups in enumerate(frames, start=1):
            for key, values in groups:
                direct.ingest(key, values, session=(SID, seq))
        direct.close(snapshot=False)

        logged = (tmp_path / "framed" / "wal.log").read_bytes()
        assert logged == (tmp_path / "direct" / "wal.log").read_bytes()
        assert len(logged) > 0
