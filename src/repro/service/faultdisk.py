"""Deterministic disk-fault injection for the storage plane.

The persistence layer (:class:`~repro.service.persistence.WriteAheadLog`,
whose group-commit writer thread does all of the log's I/O, and
:class:`~repro.service.persistence.SnapshotStore`) performs every byte of
file I/O through an **io layer** — by default the pass-through
:class:`DiskIo` below.  :class:`FaultyDisk` is the chaos double: it
consults a deterministic schedule per operation and can

* raise ``ENOSPC`` or ``EIO`` on a write or fsync,
* truncate a write short (the torn-write shape: some bytes land, then
  the device fails),
* flip a bit on a read (silent bit rot, surfaced only by checksums),
* delay an fsync (a stalling device), and
* go **full** — a sticky ``ENOSPC`` on every write/fsync until
  :meth:`FaultyDisk.free`, the disk-pressure shape that drives the
  server's degraded read-only mode.

Determinism mirrors :mod:`repro.service.faultproxy`: a
:class:`SeededDiskFaults` schedule draws from ``random.Random(seed)``
only — same seed, same operation-level fault sequence — and a
:class:`ScriptedDiskFaults` schedule names the exact operation index to
fault, per operation kind.  Operation indices are per-kind monotonic
counters over the lifetime of the :class:`FaultyDisk` (the 3rd write is
``writes`` index 2 no matter which file it touched), so a test can say
"the 5th write hits ENOSPC" and mean exactly that.

Fault actions (strings or tuples):

* ``"pass"`` — perform the operation unchanged.
* ``"enospc"`` — raise ``OSError(ENOSPC)`` (writes/fsyncs/flushes).
* ``"eio"`` — raise ``OSError(EIO)`` (any operation).
* ``"fill"`` — like ``"enospc"``, but sticky: the disk stays full (every
  later write/flush/fsync fails) until :meth:`FaultyDisk.free`.
* ``("short", nbytes)`` — write only the first ``nbytes``, then raise
  ``ENOSPC`` (a torn write: partial data is on disk).
* ``("delay", seconds)`` — sleep, then perform the operation.
* ``("bitflip", offset)`` — reads only: flip one bit of the byte at
  ``offset % len(data)`` in the returned bytes (the file itself is
  untouched — rot as the reader sees it).

Usage::

    disk = FaultyDisk(schedule=ScriptedDiskFaults(writes={4: "fill"}))
    service = QuantileService(data_dir=tmp, io_layer=disk, ...)
    ...
    disk.free()   # space returns; the server exits degraded mode
"""

from __future__ import annotations

import errno
import os
import random
import shutil
import time
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = [
    "DiskIo",
    "FaultyDisk",
    "ScriptedDiskFaults",
    "SeededDiskFaults",
    "DISK_PASS",
]

DISK_PASS = "pass"

Action = Union[str, tuple]


class DiskIo:
    """The pass-through io layer: real file I/O, no faults.

    One module-level instance (:data:`DEFAULT_IO`) is shared by every
    persistence object that is not explicitly given a layer, so the hot
    path costs one attribute call over direct I/O.
    """

    def write(self, handle, data) -> int:
        """Write ``data`` to an open binary file object."""
        return handle.write(data)

    def flush(self, handle) -> None:
        """Flush a file object's userspace buffer to the OS."""
        handle.flush()

    def fsync(self, handle) -> None:
        """Force a file object's data to the platter."""
        os.fsync(handle.fileno())

    def read_bytes(self, path) -> bytes:
        """Read a whole file (snapshot loads go through here)."""
        return Path(path).read_bytes()

    def disk_free(self, path) -> Optional[int]:
        """Free bytes on the filesystem holding ``path`` (None: unknown)."""
        try:
            return shutil.disk_usage(path).free
        except OSError:
            return None


#: The shared no-fault layer (default for every persistence object).
DEFAULT_IO = DiskIo()


class ScriptedDiskFaults:
    """Explicit per-kind ``{operation_index: action}`` schedules.

    Args:
        writes: Faults for ``write`` operations (indices count every
            write through the layer, across all files).
        flushes: Faults for ``flush`` operations.
        fsyncs: Faults for ``fsync`` operations.
        reads: Faults for ``read_bytes`` operations.
    """

    def __init__(
        self,
        writes: Optional[Dict[int, Action]] = None,
        flushes: Optional[Dict[int, Action]] = None,
        fsyncs: Optional[Dict[int, Action]] = None,
        reads: Optional[Dict[int, Action]] = None,
    ) -> None:
        self._kinds = {
            "write": dict(writes or {}),
            "flush": dict(flushes or {}),
            "fsync": dict(fsyncs or {}),
            "read": dict(reads or {}),
        }

    def action(self, kind: str, index: int) -> Action:
        return self._kinds[kind].get(index, DISK_PASS)


class SeededDiskFaults:
    """A seeded random schedule: each operation independently draws.

    Args:
        seed: The RNG seed — same seed, same fault sequence.
        enospc_rate, eio_rate, short_rate: Per-write probabilities
            (evaluated in that order on one uniform draw).
        delay_rate: Per-fsync probability of a ``("delay", delay)``.
        bitflip_rate: Per-read probability of a single-bit flip at a
            seeded offset.
        delay: Seconds for a delay fault (kept small for fast suites).
        first_faultable: Per-kind operation index before which every
            operation passes — lets recovery/startup I/O through so
            faults land on steady-state traffic.
    """

    def __init__(
        self,
        seed: int,
        *,
        enospc_rate: float = 0.0,
        eio_rate: float = 0.0,
        short_rate: float = 0.0,
        delay_rate: float = 0.0,
        bitflip_rate: float = 0.0,
        delay: float = 0.002,
        first_faultable: int = 0,
    ) -> None:
        self._rng = random.Random(seed)
        self._delay = delay
        self._first = first_faultable
        self._write_bands = []
        edge = 0.0
        for rate, name in (
            (enospc_rate, "enospc"),
            (eio_rate, "eio"),
            (short_rate, "short"),
        ):
            edge += rate
            self._write_bands.append((edge, name))
        if edge > 1.0:
            raise ValueError(f"write fault rates sum to {edge} > 1")
        self._delay_rate = delay_rate
        self._bitflip_rate = bitflip_rate

    def action(self, kind: str, index: int) -> Action:
        # One draw pair per operation regardless of outcome, so the
        # schedule for operation k never depends on which faults fired.
        draw = self._rng.random()
        aux = self._rng.random()
        if index < self._first:
            return DISK_PASS
        if kind in ("write", "flush"):
            for edge, name in self._write_bands:
                if draw < edge:
                    if name == "short":
                        return ("short", 1 + int(aux * 8))
                    return name
            return DISK_PASS
        if kind == "fsync":
            if draw < self._delay_rate:
                return ("delay", self._delay)
            return DISK_PASS
        if kind == "read":
            if draw < self._bitflip_rate:
                return ("bitflip", int(aux * (1 << 20)))
            return DISK_PASS
        return DISK_PASS


def _enospc() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _eio() -> OSError:
    return OSError(errno.EIO, os.strerror(errno.EIO))


class FaultyDisk(DiskIo):
    """A :class:`DiskIo` that injects scheduled + manual faults.

    Besides the schedule, :meth:`fill`/:meth:`free` drive the sticky
    disk-full state by hand (what the ENOSPC chaos tests use to bound
    exactly when space vanishes and returns), and ``free_bytes`` pins
    the value :meth:`disk_free` reports — the degraded-mode exit probe
    reads it, so a test controls when "space came back" without filling
    a real filesystem.
    """

    def __init__(self, schedule=None, *, free_bytes: Optional[int] = None) -> None:
        self.schedule = schedule if schedule is not None else ScriptedDiskFaults()
        #: When set, :meth:`disk_free` reports this instead of the real fs.
        self.free_bytes = free_bytes
        self._full = False
        self._counts: Dict[str, int] = {"write": 0, "flush": 0, "fsync": 0, "read": 0}
        self.faults: Dict[str, int] = {}

    # -- manual disk-pressure control ----------------------------------

    def fill(self) -> None:
        """Disk full from now on: every write/flush/fsync raises ENOSPC."""
        self._full = True
        if self.free_bytes is None:
            self.free_bytes = 0
        else:
            self.free_bytes = 0

    def free(self, free_bytes: int = 1 << 30) -> None:
        """Space returns; writes succeed again and ``disk_free`` reports
        ``free_bytes``."""
        self._full = False
        self.free_bytes = free_bytes

    @property
    def full(self) -> bool:
        return self._full

    # -- schedule plumbing ---------------------------------------------

    def _next(self, kind: str) -> Action:
        index = self._counts[kind]
        self._counts[kind] = index + 1
        return self.schedule.action(kind, index)

    def _record(self, name: str) -> None:
        self.faults[name] = self.faults.get(name, 0) + 1

    def op_counts(self) -> Dict[str, int]:
        return dict(self._counts)

    # -- the faultable operations --------------------------------------

    def write(self, handle, data) -> int:
        action = self._next("write")
        if self._full:
            self._record("enospc")
            raise _enospc()
        if action == DISK_PASS:
            return handle.write(data)
        if action == "enospc":
            self._record("enospc")
            raise _enospc()
        if action == "eio":
            self._record("eio")
            raise _eio()
        if action == "fill":
            self._record("enospc")
            self.fill()
            raise _enospc()
        if action[0] == "short":
            cut = max(0, min(int(action[1]), len(data) - 1))
            if cut:
                handle.write(data[:cut])
            self._record("short")
            raise _enospc()
        if action[0] == "delay":
            time.sleep(action[1])
            return handle.write(data)
        raise ValueError(f"unknown write fault action {action!r}")

    def flush(self, handle) -> None:
        action = self._next("flush")
        if self._full:
            self._record("enospc")
            raise _enospc()
        if action == DISK_PASS:
            return handle.flush()
        if action == "enospc":
            self._record("enospc")
            raise _enospc()
        if action == "eio":
            self._record("eio")
            raise _eio()
        if action == "fill":
            self._record("enospc")
            self.fill()
            raise _enospc()
        if action[0] == "delay":
            time.sleep(action[1])
            return handle.flush()
        raise ValueError(f"unknown flush fault action {action!r}")

    def fsync(self, handle) -> None:
        action = self._next("fsync")
        if self._full:
            self._record("enospc")
            raise _enospc()
        if action == DISK_PASS:
            return os.fsync(handle.fileno())
        if action == "enospc":
            self._record("enospc")
            raise _enospc()
        if action == "eio":
            self._record("eio")
            raise _eio()
        if action == "fill":
            self._record("enospc")
            self.fill()
            raise _enospc()
        if action[0] == "delay":
            time.sleep(action[1])
            self._record("delay")
            return os.fsync(handle.fileno())
        raise ValueError(f"unknown fsync fault action {action!r}")

    def read_bytes(self, path) -> bytes:
        action = self._next("read")
        data = Path(path).read_bytes()
        if action == DISK_PASS:
            return data
        if action == "eio":
            self._record("eio")
            raise _eio()
        if action[0] == "bitflip" and data:
            self._record("bitflip")
            flipped = bytearray(data)
            flipped[int(action[1]) % len(data)] ^= 0x01
            return bytes(flipped)
        return data

    def disk_free(self, path) -> Optional[int]:
        if self.free_bytes is not None:
            return self.free_bytes
        return super().disk_free(path)
