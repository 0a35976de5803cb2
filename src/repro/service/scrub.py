"""Background integrity scrub for the storage plane.

Checksums only help if somebody reads them: silent bit rot in a snapshot
that no query has touched stays silent until the day recovery needs the
file.  :class:`Scrubber` closes that window — it periodically re-reads
every retained snapshot (plain and windowed) against its ``FRS1`` CRC
footer and walks the WAL's record CRCs, so rot is found on the scrub
cadence instead of at the worst possible moment.

What a pass does per finding:

* **Corrupt snapshot, key resident** — the live sketch is authoritative;
  the rotten file is quarantined (moved to ``data_dir/quarantine/``) and
  immediately rewritten from memory at the key's applied sequence through
  :meth:`~repro.service.SketchStore.checkpoint`, which also re-pins the
  key's coins to the new snapshot.  Self-healing, no replica needed.
* **Corrupt snapshot, key spilled** — the file was the key's only local
  copy.  Quarantine + forget: the key now reads as unknown (``n == 0``),
  which is precisely the state cluster ``repair()`` heals *exactly* —
  FETCH the healthiest replica's FRQ1 payload and MERGE it into the
  empty key, restoring a byte-identical sketch (merging into nothing is
  a copy).  Standalone services keep the quarantined file for offline
  forensics; the key's data is what the bit rot destroyed.
* **Corrupt windowed snapshot** — quarantine the file and drop the
  key's windowed cover point, so the next checkpoint rewrites it from
  the in-memory rings (rings are always resident at runtime).
* **WAL damage** — detection only.  A torn *tail* is the expected shape
  of an in-flight append and is ignored; an unreadable record with data
  after its declared end is mid-file corruption, reported via counters
  (``wal_status="corrupt"``) and a rate-limited error — truncating there
  would destroy acknowledged records, so the heal is operator-driven
  (wipe + cluster re-fetch, or offline repair).

Counters are surfaced through ``STATS``/``HEALTH`` (``scrub`` block) and
``cluster-status``.  The server runs passes on ``--scrub-interval``;
:meth:`Scrubber.scrub_once` is synchronous and event-loop-owned (it
mutates service state), which is also what the tests call directly.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional

from repro.errors import SnapshotCorruptError
from repro.service.log import RateLimiter
from repro.service.log import logger as log
from repro.service.persistence import scan_wal
from repro.service.store import spill_filename

__all__ = ["Scrubber", "ScrubReport", "verify_wal_file"]


class ScrubReport(dict):
    """One pass's findings (a dict, so it JSON-serializes into STATS)."""

    @property
    def clean(self) -> bool:
        return not self["corrupt_snapshots"] and self["wal_status"] != "corrupt"


class Scrubber:
    """Owns scrub state for one :class:`~repro.service.QuantileService`."""

    def __init__(self, service) -> None:
        self.service = service
        self.passes = 0
        self.files_checked = 0
        self.corrupt_found = 0
        self.healed_resident = 0
        self.forgotten_keys = 0
        self.wal_status = "unchecked"
        self.last_pass_at: Optional[float] = None
        self.last_report: Optional[ScrubReport] = None
        self._wal_log = RateLimiter(30.0)

    def stats(self) -> Dict:
        """Lifetime counters for STATS/HEALTH reporting."""
        return {
            "passes": self.passes,
            "files_checked": self.files_checked,
            "corrupt_found": self.corrupt_found,
            "healed_resident": self.healed_resident,
            "forgotten_keys": self.forgotten_keys,
            "quarantined_files": self.service.quarantined_files,
            "wal_status": self.wal_status,
            "last_pass_at": self.last_pass_at,
        }

    # ------------------------------------------------------------------

    def scrub_once(self) -> ScrubReport:
        """One full integrity pass; returns the findings.

        Synchronous and mutating — call from the event loop (the server's
        scrub task does) or from a test with the service quiesced.
        """
        svc = self.service
        report = ScrubReport(
            snapshots_checked=0,
            corrupt_snapshots=0,
            healed_resident=0,
            forgotten_keys=[],
            wal_records=0,
            wal_status="skipped",
        )
        if svc.snapshots is not None:
            self._scrub_snapshots(svc.snapshots, report, windowed=False)
        if svc.window_snapshots is not None:
            self._scrub_snapshots(svc.window_snapshots, report, windowed=True)
        if svc.wal is not None:
            self._scrub_wal(report)
        self.passes += 1
        self.last_pass_at = time.time()
        self.last_report = report
        return report

    # ------------------------------------------------------------------

    def _scrub_snapshots(self, store, report: ScrubReport, *, windowed: bool) -> None:
        svc = self.service
        if not store.directory.exists():
            return
        # Filename -> key, so an unparsable file still maps back to the
        # key it held (snapshot names are key digests).
        known = list(svc.store.keys()) + (list(svc.windows.keys()) if windowed else [])
        by_name = {spill_filename(key): key for key in known}
        for path in sorted(store.directory.glob("*.frq1")):
            report["snapshots_checked"] += 1
            self.files_checked += 1
            try:
                store.verify(path)
                continue
            except SnapshotCorruptError as exc:
                corrupt = exc
            except OSError as exc:  # unreadable device block
                corrupt = SnapshotCorruptError(path, f"read failed: {exc}")
            report["corrupt_snapshots"] += 1
            self.corrupt_found += 1
            key = by_name.get(path.name)
            if windowed:
                svc._quarantine_corrupt_file(path, corrupt)
                if key is not None:
                    # Rings live in memory; dropping the cover point makes
                    # the next checkpoint rewrite the file from live state.
                    svc._window_snap_seq.pop(key, None)
                continue
            if key is not None and key in svc.store.resident_keys:
                # The live sketch is authoritative: quarantine the rot,
                # checkpoint the key from memory at the applied seq.
                svc._quarantine_corrupt_file(path, corrupt)
                try:
                    svc.store.checkpoint(key)
                    report["healed_resident"] += 1
                    self.healed_resident += 1
                except Exception as exc:  # degraded disk: heal next pass
                    log.warning("scrub could not rewrite snapshot for %r: %s", key, exc)
                continue
            if key is not None:
                # Spilled: the file was the only copy.  Quarantine +
                # forget → UNKNOWN_KEY → cluster repair re-fetches.
                svc.quarantine_snapshot(key, corrupt)
                report["forgotten_keys"].append(key)
                self.forgotten_keys += 1
            else:
                # An orphan file no known key maps to; just move it aside.
                svc._quarantine_corrupt_file(path, corrupt)

    def _scrub_wal(self, report: ScrubReport) -> None:
        """Walk the live WAL's CRCs from an independent read handle.

        A torn tail is an in-flight (or crash-torn) append — normal;
        mid-file corruption is reported (see :func:`scan_wal`).
        """
        path = Path(self.service.wal.path)
        scan = scan_wal(path)
        report["wal_records"] = scan.records
        report["wal_status"] = self.wal_status = scan.status
        if scan.status == "corrupt":
            should_emit, suppressed = self._wal_log.ready("wal_corrupt")
            if should_emit:
                log.error(
                    "scrub found mid-file WAL corruption at byte %d of %s "
                    "(%d bytes follow the unreadable record)%s — acknowledged "
                    "records may be unreplayable; on a cluster, wipe this "
                    "node's data dir and let repair re-fetch; standalone, "
                    "repair offline (replay(strict=True) locates the damage)",
                    scan.valid,
                    path,
                    scan.size - scan.valid,
                    f" [+{suppressed} suppressed]" if suppressed else "",
                )


def verify_wal_file(path) -> str:
    """Classify a WAL file: ``clean`` / ``torn_tail`` / ``corrupt``.

    The offline twin of the scrub's WAL walk, usable against a log no
    service has open (integrity audits in tests and tooling).
    """
    return scan_wal(path).status
