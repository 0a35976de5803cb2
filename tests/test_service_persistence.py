"""Tests for the WAL, snapshot store, and recovery (repro.service.persistence)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service import QuantileService, SnapshotStore, WriteAheadLog
from repro.service.persistence import WAL_INGEST, WAL_MERGE
from repro.service.store import spill_filename


@pytest.fixture()
def rng():
    return np.random.default_rng(515)


def batch_bytes(array) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path, rng):
        wal = WriteAheadLog(tmp_path / "wal.log")
        payloads = [batch_bytes(rng.random(50)), batch_bytes(rng.random(10))]
        wal.append(WAL_INGEST, 1, "alpha", payloads[0])
        wal.append(WAL_MERGE, 2, "βeta/metric", payloads[1])
        wal.close()

        records = list(WriteAheadLog(tmp_path / "wal.log").replay())
        assert [(r.op, r.seq, r.key) for r in records] == [
            (WAL_INGEST, 1, "alpha"),
            (WAL_MERGE, 2, "βeta/metric"),
        ]
        assert [r.payload for r in records] == payloads

    def test_replay_empty_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        assert list(wal.replay()) == []

    def test_torn_tail_healed_on_open(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WAL_INGEST, 1, "a", batch_bytes(rng.random(20)))
        wal.append(WAL_INGEST, 2, "b", batch_bytes(rng.random(20)))
        wal.close()
        # Simulate a crash mid-append: chop bytes off the last record.
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        wal = WriteAheadLog(path)
        assert wal.healed_bytes > 0  # the torn record was truncated away
        assert [r.seq for r in wal.replay()] == [1]
        assert list(wal.replay(strict=True))  # the healed log is pristine
        wal.close()

    def test_crc_corruption_healed_on_open(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WAL_INGEST, 1, "a", batch_bytes(rng.random(20)))
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        wal = WriteAheadLog(path)
        assert list(wal.replay()) == []
        assert wal.size_bytes == 0  # the corrupt record was truncated away
        wal.close()

    def test_strict_replay_detects_corruption(self, tmp_path, rng):
        """Strict mode flags tears/CRC damage that appear after open."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WAL_INGEST, 1, "a", batch_bytes(rng.random(20)))
        wal.append(WAL_INGEST, 2, "b", batch_bytes(rng.random(20)))
        # Corrupt beneath the live handle (opening healed a clean log, so
        # the damage is still present when replay walks the file).
        data = bytearray(path.read_bytes())
        torn = bytes(data[:-7])
        path.write_bytes(torn)
        assert [r.seq for r in wal.replay()] == [1]
        with pytest.raises(ServiceError, match="torn"):
            list(wal.replay(strict=True))
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ServiceError, match="CRC"):
            list(wal.replay(strict=True))
        wal.close()

    def test_append_after_torn_tail_is_replayable(self, tmp_path, rng):
        """Opening truncates a torn tail, so later appends are never shadowed."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WAL_INGEST, 1, "a", batch_bytes(rng.random(5)))
        wal.close()
        clean_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\xff\xff")  # torn garbage from a crash mid-append
        wal = WriteAheadLog(path)
        assert wal.healed_bytes == 2
        assert path.stat().st_size == clean_size
        wal.append(WAL_INGEST, 2, "b", batch_bytes(rng.random(5)))
        wal.close()
        assert [r.seq for r in WriteAheadLog(path).replay()] == [1, 2]

    def test_mid_file_corruption_refuses_to_open(self, tmp_path, rng):
        """Bit rot before the tail must not be 'healed' away: truncating at
        the damage would destroy every acknowledged record after it."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WAL_INGEST, 1, "a", batch_bytes(rng.random(20)))
        first_end = path.stat().st_size
        wal.append(WAL_INGEST, 2, "b", batch_bytes(rng.random(20)))
        wal.close()
        data = bytearray(path.read_bytes())
        data[first_end // 2] ^= 0xFF  # bit rot inside record 1's body
        path.write_bytes(bytes(data))
        with pytest.raises(ServiceError, match="mid-file"):
            WriteAheadLog(path)
        # The damaged file is untouched, available for offline repair.
        assert path.stat().st_size == len(data)

    def test_truncate(self, tmp_path, rng):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(WAL_INGEST, 1, "a", batch_bytes(rng.random(5)))
        assert wal.size_bytes > 0
        wal.truncate()
        assert wal.size_bytes == 0
        wal.append(WAL_INGEST, 2, "a", batch_bytes(rng.random(5)))
        assert [r.seq for r in wal.replay()] == [2]
        wal.close()

    def test_oversized_key_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(ServiceError, match="65535"):
            wal.append(WAL_INGEST, 1, "k" * 70_000, b"")
        wal.close()


class TestSnapshotStore:
    def test_save_load_roundtrip(self, tmp_path):
        snaps = SnapshotStore(tmp_path / "snapshots")
        snaps.save("tenant-a/latency", 17, b"PAYLOAD")
        assert snaps.load("tenant-a/latency") == (17, b"PAYLOAD")
        assert snaps.load("missing") is None

    def test_load_all_recovers_keys(self, tmp_path):
        snaps = SnapshotStore(tmp_path / "snapshots")
        keys = ["plain", "ünïcode/κλειδί", "with spaces and / slashes", "x" * 5000]
        for index, key in enumerate(keys):
            snaps.save(key, index, f"payload-{index}".encode())
        loaded = snaps.load_all()
        assert set(loaded) == set(keys)
        for index, key in enumerate(keys):
            assert loaded[key] == (index, f"payload-{index}".encode())

    def test_overwrite_is_atomic_replace(self, tmp_path):
        snaps = SnapshotStore(tmp_path / "snapshots")
        snaps.save("k", 1, b"old")
        snaps.save("k", 2, b"new")
        assert snaps.load("k") == (2, b"new")
        assert len(list((tmp_path / "snapshots").glob("*.frq1"))) == 1

    def test_corrupt_snapshot_raises(self, tmp_path):
        directory = tmp_path / "snapshots"
        directory.mkdir()
        (directory / ("ab" * 32 + ".frq1")).write_bytes(b"\x01")
        with pytest.raises(ServiceError, match="corrupt"):
            SnapshotStore(directory).load_all()


class TestServiceRecovery:
    """End-to-end durability through QuantileService (no sockets)."""

    def test_wal_only_recovery_is_bit_exact(self, tmp_path, rng):
        batches = [rng.random(1200) for _ in range(4)]
        service = QuantileService(tmp_path, k=32)
        for index, batch in enumerate(batches):
            service.ingest(f"key{index % 2}", batch)
        payload_before = {key: service.store.payload(key) for key in ("key0", "key1")}
        service.close(snapshot=False)  # crash: nothing snapshotted

        recovered = QuantileService(tmp_path, k=32)
        for key in ("key0", "key1"):
            assert recovered.store.payload(key) == payload_before[key]
        recovered.close()

    def test_snapshot_only_recovery_is_exact(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32)
        service.ingest("k", rng.random(5000))
        assert service.snapshot_all() == 1  # flushes the staged block
        answers = service.query("k", [0.1, 0.5, 0.9, 0.99])[2]
        assert service.wal.size_bytes == 0  # compacted
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, k=32)
        assert np.array_equal(recovered.query("k", [0.1, 0.5, 0.9, 0.99])[2], answers)
        recovered.close()

    def test_snapshot_plus_wal_tail_recovers_all_data(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32)
        service.ingest("k", rng.random(3000))
        service.snapshot_all()
        service.ingest("k", rng.random(2000) + 5.0)  # WAL-only tail
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, k=32)
        n, eps, quantiles, retained = recovered.query("k", [0.999])
        assert n == 5000
        assert retained > 0
        # The tail (values > 5) must be present: the top permille is ~6.
        assert quantiles[0] > 5.0
        recovered.close()

    def test_merge_records_replay(self, tmp_path, rng):
        from repro.fast import FastReqSketch

        donor = FastReqSketch(32, seed=8)
        donor.update_many(rng.random(2500))
        service = QuantileService(tmp_path, k=32)
        service.ingest("k", rng.random(1000))
        service.merge("k", donor.to_bytes())
        payload_before = service.store.payload("k")
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, k=32)
        assert recovered.store.payload("k") == payload_before
        assert recovered.store.get("k").n == 3500
        recovered.close()

    def test_incompatible_merge_rejected_before_wal(self, tmp_path, rng):
        """A donor the store cannot absorb must never reach the WAL.

        If it did, every restart would replay the unappliable record and
        recovery would fail forever.
        """
        from repro.fast import FastReqSketch

        donor = FastReqSketch(32, n_bound=10**6, seed=1)
        donor.update_many(rng.random(100))
        service = QuantileService(tmp_path, k=32)
        service.ingest("k", rng.random(100))
        with pytest.raises(ServiceError, match="n_bound"):
            service.merge("k", donor.to_bytes())
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, k=32)  # must not raise
        assert recovered.store.get("k").n == 100
        recovered.close()

    def test_recovery_with_memory_budget_spills(self, tmp_path, rng):
        """Replay must respect the budget (and spill through the snapshots)."""
        service = QuantileService(tmp_path, k=32, memory_budget=2000)
        totals = {}
        for index in range(5):
            key = f"key{index}"
            service.ingest(key, rng.random(2500))
            totals[key] = 2500
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, k=32, memory_budget=2000)
        assert len(recovered.store) == 5
        for key, total in totals.items():
            assert recovered.store.get(key).n == total
        recovered.close()

    @pytest.mark.parametrize("budget, spills", [(40_000, False), (30_000, True)])
    def test_crash_under_budget_recovers_bit_exact(self, tmp_path, budget, spills):
        """A budget's in-place checkpoints pin each flushed key's coins.

        300 Zipf(1.1) keys take 60 frames of 2000 values under a budget that
        only the in-place flush needs (40k) and one that also spills (30k),
        with a checkpoint after frame 40.  A flush made under global budget
        pressure cannot recur in replay, which starts from each key's last
        snapshot with fewer keys resident; only the snapshot-and-reseed
        makes the crash copy recover every key byte for byte.
        """
        import shutil

        keys = [f"tenant/{i:03d}" for i in range(300)]
        weights = np.arange(1, 301, dtype=np.float64) ** -1.1
        weights /= weights.sum()
        stream = np.random.default_rng(0)
        options = dict(k=8, hra=True, seed=0, memory_budget=budget)
        live = QuantileService(tmp_path / "live", **options)
        for frame in range(60):
            ids = np.sort(stream.choice(300, size=2000, p=weights), kind="stable")
            values = stream.lognormal(3.0, 1.0, 2000)
            bounds = np.concatenate(([0], np.flatnonzero(np.diff(ids)) + 1, [ids.size]))
            live.ingest_groups(
                [(keys[ids[lo]], values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
            )
            if frame == 39:
                live.snapshot_all()
        store = live.store
        assert store.flush_count > 0
        assert (store.spill_count > 0) is spills
        shutil.copytree(tmp_path / "live", tmp_path / "crash")
        resident = set(store.resident_keys)
        expected = {
            key: store.peek(key).to_bytes() if key in resident else live.snapshots.load(key)[1]
            for key in store.keys()
        }
        live.close(snapshot=False)

        recovered = QuantileService(tmp_path / "crash", **options)
        assert sorted(recovered.store.keys()) == sorted(expected)
        differ = [
            key for key, payload in expected.items() if recovered.store.payload(key) != payload
        ]
        assert differ == []
        recovered.close(snapshot=False)

    def test_snapshot_all_skips_clean_keys(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32)
        service.ingest("a", rng.random(100))
        service.ingest("b", rng.random(100))
        assert service.snapshot_all() == 2
        assert service.snapshot_all() == 0  # nothing dirty
        service.ingest("a", rng.random(100))
        assert service.snapshot_all() == 1  # only the dirty key
        service.close()

    def test_in_memory_service_has_no_durability(self, rng):
        service = QuantileService(None, k=32)
        service.ingest("k", rng.random(100))
        assert service.snapshot_all() == 0
        assert service.stats()["durable"] is False
        service.close()

    def test_in_memory_budget_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="data_dir"):
            QuantileService(None, memory_budget=100)

    def test_ingests_after_torn_tail_survive_second_crash(self, tmp_path, rng):
        """The review scenario: crash leaves a torn WAL tail, the restarted
        service acknowledges new ingests, then crashes again before any
        snapshot — the new records must still replay (the tear is truncated
        at startup, so they are not shadowed behind unreadable bytes)."""
        service = QuantileService(tmp_path, k=32)
        service.ingest("k", rng.random(500))
        service.close(snapshot=False)
        with open(tmp_path / "wal.log", "ab") as handle:
            handle.write(b"\x99" * 11)  # crash mid-append: torn garbage

        restarted = QuantileService(tmp_path, k=32)
        assert restarted.store.get("k").n == 500  # prefix replayed
        assert restarted.stats()["wal_healed_bytes"] == 11  # heal is visible
        restarted.ingest("k", rng.random(300))  # acknowledged post-restart
        restarted.close(snapshot=False)  # second crash, still no snapshot

        recovered = QuantileService(tmp_path, k=32)
        assert recovered.store.get("k").n == 800
        recovered.close()

    def test_fsync_checkpoint_roundtrip(self, tmp_path, rng):
        """fsync=True must flow through WAL appends, snapshot saves, and
        the checkpoint truncation without changing observable behavior."""
        service = QuantileService(tmp_path, k=32, fsync=True)
        assert service.snapshots.fsync is True
        service.ingest("k", rng.random(1000))
        answers = service.query("k", [0.5, 0.99])[2]
        assert service.snapshot_all() == 1
        assert service.wal.size_bytes == 0
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, k=32, fsync=True)
        assert np.array_equal(recovered.query("k", [0.5, 0.99])[2], answers)
        recovered.close()

    def test_sequence_numbers_survive_compaction(self, tmp_path, rng):
        """Seqs keep counting across truncations, so snapshots stay ordered."""
        service = QuantileService(tmp_path, k=32)
        service.ingest("k", rng.random(100))
        service.snapshot_all()
        first_seq = service._seq
        service.ingest("k", rng.random(100))
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, k=32)
        assert recovered._seq > first_seq
        assert recovered.store.get("k").n == 200
        recovered.close()


def _ingest(service, rng, frames, size, key="lat"):
    for _ in range(frames):
        service.ingest(key, rng.random(size))


def _checkpoint_by_snapshot_all(service, rng):
    assert service.snapshot_all() == 1


def _checkpoint_by_budget_rung_1(service, rng):
    store = service.store
    budget = store.memory_budget
    store.memory_budget = store.retained_items - 1
    _ingest(service, rng, 1, 10)  # over budget: flushes the staged block in place
    store.memory_budget = budget
    assert store.flush_count == 1 and store.spill_count == 0


def _checkpoint_by_spill_and_reload(service, rng):
    service.store.spill("lat")
    _ingest(service, rng, 1, 50)  # reloads the key
    assert service.store.load_count == 1


def _checkpoint_by_scrub_heal(service, rng):
    service.snapshot_all()
    _ingest(service, rng, 10, 50)
    path = service.snapshots.directory / spill_filename("lat")
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert service.scrub.scrub_once()["healed_resident"] == 1


class TestCheckpointRecoveryMatrix:
    """Every producer of a plain-key checkpoint pins the coins it saved with.

    A checkpoint saves the key's payload and re-seeds its coin stream from
    the snapshot's seq; recovery loads the payload and re-seeds the same
    way, so the WAL tail replays with the live coins.  A producer that
    saves without re-seeding leaves the live key on its old coins, and the
    crash copy recovers different bytes.
    """

    @pytest.mark.parametrize(
        "produce",
        [
            _checkpoint_by_snapshot_all,
            _checkpoint_by_budget_rung_1,
            _checkpoint_by_spill_and_reload,
            _checkpoint_by_scrub_heal,
        ],
        ids=["snapshot_all", "budget_rung_1", "spill_and_reload", "scrub_heal"],
    )
    def test_crash_after_checkpoint_recovers_bit_exact(self, tmp_path, produce):
        options = dict(k=8, seed=0, memory_budget=10**6)
        rng = np.random.default_rng(0)
        service = QuantileService(tmp_path, **options)
        _ingest(service, rng, 10, 50)
        assert service.store.key_stats("lat")["staged"] > 0
        produce(service, rng)
        _ingest(service, rng, 40, 300)
        expected = service.store.payload("lat")
        service.close(snapshot=False)

        recovered = QuantileService(tmp_path, **options)
        assert recovered.store.payload("lat") == expected
        recovered.close(snapshot=False)


def _read(service, read):
    """One read of the plain key ``lat`` or the windowed key ``win``."""
    if read == "query":
        service.query("lat", [0.5, 0.99])
    elif read == "query_batch":
        service.query_batch("lat", "quantiles", np.array([[0.5, 0.99]]))
    elif read == "query_points":  # one request of a MULTI_QUERY frame
        service.query_points("lat", "quantiles", np.array([0.5, 0.99]), {})
    elif read == "payload":  # FETCH
        service.payload("lat")
    elif read == "window_query":
        service.window_query("win", "quantiles", 0.0, 0.0, 1e6, np.array([0.5, 0.99]))
    else:  # a migration captured, then abandoned
        key = "lat" if read == "migrate_plain" else "win"
        service.migrate_begin(key)
        service.migrate_abort(key)


@pytest.mark.parametrize(
    "read",
    [
        "query",
        "query_batch",
        "query_points",
        "payload",
        "window_query",
        "migrate_plain",
        "migrate_windowed",
    ],
)
def test_reads_between_writes_recover_bit_exact(tmp_path, read):
    rng = np.random.default_rng(0)
    service = QuantileService(tmp_path, k=8, seed=0)
    for index in range(40):
        _ingest(service, rng, 1, 50)
        service.window_ingest("win", 1000.0 + 3 * index + rng.random(50), rng.random(50))
        if index % 7 == 6:
            _read(service, read)
    expected = service.store.payload("lat"), service.windows.payload("win")
    service.close(snapshot=False)

    recovered = QuantileService(tmp_path, k=8, seed=0)
    assert (recovered.store.payload("lat"), recovered.windows.payload("win")) == expected
    recovered.close(snapshot=False)
