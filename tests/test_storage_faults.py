"""Storage-fault plane units: disk fault injection, FRS1 snapshot
framing, background scrub + quarantine, and degraded read-only mode.

The deterministic fault layer (:mod:`repro.service.faultdisk`) slots in
beneath the WAL and snapshot stores via the ``io_layer`` hook, so every
scenario here is the real persistence code path with only the syscalls
lied to — same seed, same fault sequence, no real disk abuse needed.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.errors import ServiceError, SnapshotCorruptError
from repro.service import (
    FaultyDisk,
    QuantileService,
    ScriptedDiskFaults,
    SeededDiskFaults,
    SnapshotStore,
    WriteAheadLog,
    verify_wal_file,
)
from repro.service.faultdisk import DISK_PASS
from repro.service.persistence import WAL_INGEST, _SNAP_MAGIC
from repro.service.store import spill_filename


@pytest.fixture()
def rng():
    return np.random.default_rng(2021_06)


def batch_bytes(array) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


# ----------------------------------------------------------------------
# The fault layer itself
# ----------------------------------------------------------------------


class TestFaultyDisk:
    def test_scripted_write_fault_hits_exact_index(self, tmp_path):
        disk = FaultyDisk(ScriptedDiskFaults(writes={1: "enospc"}))
        with open(tmp_path / "f", "wb") as handle:
            assert disk.write(handle, b"first") == 5  # index 0 passes
            with pytest.raises(OSError) as err:
                disk.write(handle, b"second")  # index 1 faults
            assert err.value.errno != 0
            assert disk.write(handle, b"third") == 5  # index 2 passes
        assert disk.faults == {"enospc": 1}
        assert disk.op_counts()["write"] == 3

    def test_short_write_leaves_partial_bytes(self, tmp_path):
        disk = FaultyDisk(ScriptedDiskFaults(writes={0: ("short", 3)}))
        path = tmp_path / "f"
        with open(path, "wb") as handle:
            with pytest.raises(OSError):
                disk.write(handle, b"abcdef")
        assert path.read_bytes() == b"abc"  # the torn-write shape

    def test_bitflip_read_flips_one_bit(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"\x00" * 16)
        disk = FaultyDisk(ScriptedDiskFaults(reads={0: ("bitflip", 5)}))
        rotten = disk.read_bytes(path)
        assert rotten != b"\x00" * 16
        assert sum(bin(b).count("1") for b in rotten) == 1
        assert path.read_bytes() == b"\x00" * 16  # the file is untouched
        assert disk.read_bytes(path) == b"\x00" * 16  # next read passes

    def test_fill_is_sticky_until_free(self, tmp_path):
        disk = FaultyDisk()
        with open(tmp_path / "f", "wb") as handle:
            disk.write(handle, b"x")
            disk.fill()
            assert disk.full
            assert disk.disk_free(tmp_path) == 0
            with pytest.raises(OSError):
                disk.write(handle, b"y")
            with pytest.raises(OSError):
                disk.fsync(handle)
            disk.free(free_bytes=123_456)
            assert not disk.full
            assert disk.disk_free(tmp_path) == 123_456
            disk.write(handle, b"y")

    def test_seeded_schedule_is_deterministic(self):
        def sequence(seed):
            schedule = SeededDiskFaults(seed, enospc_rate=0.2, short_rate=0.1)
            return [schedule.action("write", i) for i in range(200)]

        first = sequence(42)
        assert first == sequence(42)
        assert first != sequence(43)
        assert any(a != DISK_PASS for a in first)  # rates actually fire

    def test_first_faultable_grace_window(self):
        schedule = SeededDiskFaults(7, enospc_rate=1.0, first_faultable=5)
        actions = [schedule.action("write", i) for i in range(8)]
        assert actions[:5] == [DISK_PASS] * 5
        assert actions[5:] == ["enospc"] * 3


# ----------------------------------------------------------------------
# FRS1 snapshot framing
# ----------------------------------------------------------------------


class TestSnapshotFraming:
    def test_roundtrip_carries_magic_and_crc(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("lat", 7, b"payload-bytes")
        path = tmp_path / spill_filename("lat")
        data = path.read_bytes()
        assert data.startswith(_SNAP_MAGIC)
        body = data[4:-4]
        assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(body)
        assert store.load("lat") == (7, b"payload-bytes")
        assert store.verify(path)[:2] == (7, "lat")

    def test_legacy_unframed_snapshot_still_loads(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("lat", 3, b"old-world")
        path = tmp_path / spill_filename("lat")
        data = path.read_bytes()
        path.write_bytes(data[4:-4])  # strip frame: the pre-FRS1 format
        assert store.load("lat") == (3, b"old-world")
        # Re-saving upgrades the file to the framed format.
        store.save("lat", 4, b"new-world")
        assert path.read_bytes().startswith(_SNAP_MAGIC)

    @pytest.mark.parametrize("offset", [4, 10, -5, -1])
    def test_any_flipped_bit_is_detected(self, tmp_path, offset):
        store = SnapshotStore(tmp_path)
        store.save("lat", 1, b"x" * 64)
        path = tmp_path / spill_filename("lat")
        data = bytearray(path.read_bytes())
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError):
            store.load("lat")
        with pytest.raises(SnapshotCorruptError):
            store.verify(path)

    def test_truncated_snapshot_is_detected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("lat", 1, b"x" * 64)
        path = tmp_path / spill_filename("lat")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SnapshotCorruptError):
            store.load("lat")

    def test_load_all_tolerates_corruption_with_hook(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("good", 1, b"fine")
        store.save("bad", 2, b"doomed")
        bad = tmp_path / spill_filename("bad")
        bad.write_bytes(b"FRS1 garbage that parses as nothing")
        # Without a hook, corruption aborts (the seed-era strictness).
        with pytest.raises(SnapshotCorruptError):
            store.load_all()
        seen = []
        loaded = store.load_all(on_corrupt=lambda path, exc: seen.append(path))
        assert set(loaded) == {"good"}
        assert seen == [bad]

    def test_iter_meta_tolerates_corruption_with_hook(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("good", 1, b"fine")
        (tmp_path / spill_filename("bad")).write_bytes(b"\x01\x02")
        seen = []
        metas = list(store.iter_meta(on_corrupt=lambda path, exc: seen.append(path)))
        assert [key for key, _seq in metas] == ["good"]
        assert len(seen) == 1


# ----------------------------------------------------------------------
# Background scrub + quarantine
# ----------------------------------------------------------------------


def _corrupt_snapshot(directory, key) -> None:
    path = directory / spill_filename(key)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class TestScrub:
    def test_clean_pass(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32)
        service.ingest("lat", rng.random(500))
        service.snapshot_all()
        report = service.scrub.scrub_once()
        assert report.clean
        assert report["snapshots_checked"] == 1
        assert report["wal_status"] == "clean"
        assert service.scrub.stats()["passes"] == 1
        service.close()

    def test_corrupt_resident_snapshot_self_heals(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32)
        service.ingest("lat", rng.random(500))
        service.snapshot_all()
        _corrupt_snapshot(tmp_path / "snapshots", "lat")
        report = service.scrub.scrub_once()
        assert report["corrupt_snapshots"] == 1
        assert report["healed_resident"] == 1
        assert service.quarantined_files == 1
        assert len(list((tmp_path / "quarantine").iterdir())) == 1
        # The rewritten snapshot verifies and still carries the state.
        assert service.snapshots.load("lat")[0] == service._applied_seq["lat"]
        assert service.scrub.scrub_once().clean
        service.close()

    def test_corrupt_spilled_snapshot_quarantines_and_forgets(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32, memory_budget=2000)
        for i in range(5):
            service.ingest(f"k{i}", rng.random(2500))
        spilled = service.store.spilled_keys
        assert spilled, "budget did not spill — adjust the test workload"
        victim = spilled[0]
        _corrupt_snapshot(tmp_path / "snapshots", victim)
        report = service.scrub.scrub_once()
        assert victim in report["forgotten_keys"]
        assert victim in service.quarantined_keys
        # The key now reads as unknown — exactly what cluster repair
        # heals byte-identically from a healthy replica.
        assert victim not in service.store
        assert service.current_n(victim) == 0
        with pytest.raises(KeyError):
            service.query(victim, [0.5])
        service.close()

    def test_spill_load_quarantines_on_access(self, tmp_path, rng):
        """Bit rot found by a *query* (not the scrub) takes the same path."""
        service = QuantileService(tmp_path, k=32, memory_budget=2000)
        for i in range(5):
            service.ingest(f"k{i}", rng.random(2500))
        victim = service.store.spilled_keys[0]
        _corrupt_snapshot(tmp_path / "snapshots", victim)
        with pytest.raises(ServiceError):
            service.query(victim, [0.5])  # this access fails...
        with pytest.raises(KeyError):
            service.query(victim, [0.5])  # ...and the key is forgotten
        assert victim in service.quarantined_keys
        service.close()

    def test_corrupt_windowed_snapshot_recovers_from_rings(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32, window_resolutions=(10.0,))
        ts = np.linspace(0.0, 99.0, 200)
        service.window_ingest("lat", ts, rng.random(200))
        service.snapshot_all()
        _corrupt_snapshot(tmp_path / "windows", "lat")
        report = service.scrub.scrub_once()
        assert report["corrupt_snapshots"] == 1
        # The cover point dropped, so the next checkpoint rewrites the
        # file from the in-memory rings.
        service.snapshot_all()
        assert service.window_snapshots.load("lat") is not None
        assert service.scrub.scrub_once().clean
        service.close()

    def test_orphan_corrupt_file_is_moved_aside(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32)
        service.ingest("lat", rng.random(100))
        service.snapshot_all()
        orphan = tmp_path / "snapshots" / spill_filename("nobody")
        orphan.write_bytes(b"FRS1 rot with no owning key")
        report = service.scrub.scrub_once()
        assert report["corrupt_snapshots"] == 1
        assert not orphan.exists()
        assert service.quarantined_files == 1
        service.close()

    def test_recovery_quarantines_unparsable_snapshot(self, tmp_path, rng):
        """A rotten file no longer aborts recovery (satellite: tolerant
        ``load_all``/``recover``) — it is quarantined and warned about."""
        service = QuantileService(tmp_path, k=32)
        service.ingest("good", rng.random(300))
        service.ingest("bad", rng.random(300))
        service.close()  # checkpoints both keys; WAL truncates
        # Structurally unparsable (truncated mid-head): recovery's meta
        # scan can't even read the key.  (Mid-payload rot passes the
        # head scan by design and is caught by load/scrub instead.)
        (tmp_path / "snapshots" / spill_filename("bad")).write_bytes(b"FRS1\x07")
        recovered = QuantileService(tmp_path, k=32)
        assert recovered.current_n("good") == 300
        assert recovered.quarantined_files == 1
        # 'bad' lost its only copy (nothing in the WAL past the
        # checkpoint): it reads as unknown, the repairable state.
        assert recovered.current_n("bad") == 0
        with pytest.raises(KeyError):
            recovered.query("bad", [0.5])
        recovered.close()


class TestWalScrub:
    def test_torn_tail_classified(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WAL_INGEST, 1, "a", batch_bytes(rng.random(50)))
        wal.append(WAL_INGEST, 2, "b", batch_bytes(rng.random(50)))
        wal.close()
        path.write_bytes(path.read_bytes()[:-7])
        assert verify_wal_file(path) == "torn_tail"

    def test_midfile_corruption_classified(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(WAL_INGEST, 1, "a", batch_bytes(rng.random(50)))
        wal.append(WAL_INGEST, 2, "b", batch_bytes(rng.random(50)))
        wal.close()
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # inside the first record: data follows the damage
        path.write_bytes(bytes(data))
        assert verify_wal_file(path) == "corrupt"

    def test_scrub_reports_live_wal_status(self, tmp_path, rng):
        service = QuantileService(tmp_path, k=32)
        service.ingest("lat", rng.random(500))
        report = service.scrub.scrub_once()
        assert report["wal_status"] == "clean"
        assert report["wal_records"] >= 1
        assert service.scrub.stats()["wal_status"] == "clean"
        service.close()


# ----------------------------------------------------------------------
# Degraded read-only mode
# ----------------------------------------------------------------------


class TestDegradedMode:
    def test_enospc_flips_read_only_and_space_return_heals(self, tmp_path, rng):
        from repro.errors import DegradedError

        disk = FaultyDisk()
        service = QuantileService(tmp_path, k=32, io_layer=disk, group_commit=False)
        service.ingest("lat", rng.random(500))
        disk.fill()
        with pytest.raises(DegradedError):
            service.ingest("lat", rng.random(100))
        assert service.degraded
        assert service.disk_free_bytes == 0
        # Reads keep serving the pre-fault state.
        assert service.current_n("lat") == 500
        assert 0.0 <= service.query("lat", [0.5])[2][0] <= 1.0
        # The degraded gate sheds before touching the poisoned WAL.
        with pytest.raises(DegradedError):
            service.ingest("lat", rng.random(100))
        # Space still gone: the exit probe refuses.
        assert service.try_exit_degraded() is False
        disk.free()
        assert service.try_exit_degraded() is True
        assert not service.degraded
        service.ingest("lat", rng.random(200))
        assert service.current_n("lat") == 700
        service.close()
        # Recovery agrees: only acked writes persisted, all of them did.
        recovered = QuantileService(tmp_path, k=32)
        assert recovered.current_n("lat") == 700
        recovered.close()

    def test_failed_append_assigns_no_sequence_gap(self, tmp_path, rng):
        from repro.errors import DegradedError

        disk = FaultyDisk()
        service = QuantileService(tmp_path, k=32, io_layer=disk, group_commit=False)
        service.ingest("lat", rng.random(100))
        seq_before = service._seq
        disk.fill()
        with pytest.raises(DegradedError):
            service.ingest("lat", rng.random(100))
        assert service._seq == seq_before  # the seq was handed back
        disk.free()
        assert service.try_exit_degraded()
        service.ingest("lat", rng.random(100))
        service.close()
        recovered = QuantileService(tmp_path, k=32)
        assert recovered.current_n("lat") == 200
        recovered.close()

    def test_group_commit_poison_enters_degraded_via_probe_path(self, tmp_path, rng):
        disk = FaultyDisk()
        service = QuantileService(tmp_path, k=32, io_layer=disk, group_commit=True)
        service.ingest("lat", rng.random(500))
        service.wal_barrier()
        disk.fill()
        service.ingest("lat", rng.random(100))  # queued; commit will fail
        service.wal_barrier()  # returns once the writer poisoned the log
        assert service.wal_failed  # what the server's probe watches
        # The poisoned log refuses every further append outright.
        with pytest.raises(ServiceError):
            service.ingest("lat", rng.random(10))
        service.enter_degraded("WAL poisoned (test probe)")
        disk.free()
        assert service.try_exit_degraded() is True
        service.ingest("lat", rng.random(100))
        service.wal_barrier()
        service.close()
        # The un-acked 100 values of the failed commit may or may not
        # appear — but nothing *acked* is ever lost, and the store is
        # consistent with its own log.
        recovered = QuantileService(tmp_path, k=32)
        assert recovered.current_n("lat") >= 600
        recovered.close()

    @pytest.mark.parametrize("group_commit", [False, True])
    def test_validation_error_does_not_degrade(self, tmp_path, rng, group_commit):
        service = QuantileService(tmp_path, k=32, group_commit=group_commit)
        with pytest.raises(ServiceError):
            service.ingest("x" * 70_000, rng.random(10))  # oversized key
        assert not service.degraded
        service.ingest("lat", rng.random(10))
        service.close()

    def test_snapshot_failure_during_degraded_exit_stays_degraded(self, tmp_path, rng):
        disk = FaultyDisk()
        service = QuantileService(tmp_path, k=32, io_layer=disk, group_commit=False)
        service.ingest("lat", rng.random(500))
        disk.fill()
        service.enter_degraded("test: disk full")
        # free() lifts ENOSPC but the next fsync faults: the exit's
        # checkpoint fails, so the service must stay degraded.
        disk.free()
        disk.schedule = ScriptedDiskFaults(writes={disk.op_counts()["write"]: "eio"})
        assert service.try_exit_degraded() is False
        assert service.degraded
        disk.schedule = ScriptedDiskFaults()
        assert service.try_exit_degraded() is True
        service.close()


# ----------------------------------------------------------------------
# Satellite: repeated kill + restart rounds each heal the torn tail
# ----------------------------------------------------------------------


class TestRepeatedCrashRestart:
    @pytest.mark.parametrize("fsync", [False, True])
    def test_five_rounds_of_torn_tails_heal_with_accounting(self, tmp_path, rng, fsync):
        """N successive crash/restart rounds: every round tears the WAL
        tail, every recovery heals exactly that tear (``wal_healed_bytes``
        accounting) and serves every previously acked value."""
        acked = 0
        for round_index in range(5):
            service = QuantileService(tmp_path, k=32, group_commit=False, fsync=fsync)
            assert service.current_n("lat") == acked if acked else True
            service.ingest("lat", rng.random(300))
            acked += 300
            service.close(snapshot=False)  # crash: no goodbye checkpoint
            # Tear the tail: a record the crash cut mid-append.  It was
            # never acked, so recovery may drop it — and must drop ONLY it.
            wal_path = tmp_path / "wal.log"
            torn = batch_bytes(rng.random(17))[: 40 + round_index]
            with open(wal_path, "ab") as handle:
                handle.write(struct.pack("<II", 4096, 0) + torn)
            recovered = QuantileService(tmp_path, k=32, group_commit=False)
            assert recovered.stats()["wal_healed_bytes"] == 8 + len(torn)
            assert recovered.current_n("lat") == acked
            assert verify_wal_file(wal_path) == "clean"
            recovered.close(snapshot=False)
