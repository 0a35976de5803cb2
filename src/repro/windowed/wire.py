"""FRW1: the serialized form of a :class:`~repro.windowed.ring.WindowRing`.

Layered directly on FRQ1 (``repro.fast.wire``): an FRW1 blob is a small
ring header — geometry, watermark, lifetime counters — followed by each
live bucket's index and its FRQ1 payload verbatim.  The windowed
snapshot store persists one FRW1 *bundle* per key (all resolutions
concatenated), so ring recovery reuses the service's existing
``SnapshotStore`` atomic-rename machinery unchanged.

Format (little-endian):

``ring header``  ``<4sBBHIdddQQQI`` — magic ``b"FRW1"``, version, flags
(bit 0 = hra), reserved, retention, bucket_seconds, lateness, watermark
(NaN = no data yet), late_dropped, expired_buckets, accepted,
num_buckets.  Then per bucket: ``<qI`` (bucket index, payload length) +
FRQ1 bytes.

``bundle``  ``<I`` ring count, then per ring ``<dI`` (resolution
seconds, FRW1 length) + FRW1 bytes, ascending by resolution.

FRQ1 payloads do not carry RNG state, so :func:`unpack_ring` re-pins
each bucket's generator to its deterministic per-bucket seed; the
service then applies the snapshot-epoch reseed
(:meth:`WindowRing.reseed_epoch`) on both the save and load sides,
which is what makes snapshot + WAL-tail recovery bit-exact.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Optional

from repro.errors import SerializationError
from repro.fast import FastReqSketch

from .ring import WindowRing, mix_seed

__all__ = ["pack_ring", "unpack_ring", "pack_rings", "unpack_rings", "MAGIC"]

MAGIC = b"FRW1"
_VERSION = 1
_FLAG_HRA = 0x1

_RING_HEAD = struct.Struct("<4sBBHIdddQQQI")
_BUCKET_HEAD = struct.Struct("<qI")
_BUNDLE_COUNT = struct.Struct("<I")
_BUNDLE_RING = struct.Struct("<dI")


def pack_ring(ring: WindowRing) -> bytes:
    """Serialize one ring: header + every live bucket's FRQ1 payload.

    A pure read: ``to_bytes`` peeks at each bucket's staging block.  The
    service's snapshot pass flushes the buckets first (spending coins)
    and then epoch-reseeds them, on both the save and load sides, which is
    why live state and snapshot+tail recovery stay bit-identical.
    """
    buckets = ring.buckets()
    watermark = ring.watermark if ring.watermark is not None else math.nan
    parts = [
        _RING_HEAD.pack(
            MAGIC,
            _VERSION,
            _FLAG_HRA if ring.hra else 0,
            0,
            ring.retention,
            ring.bucket_seconds,
            ring.lateness,
            watermark,
            ring.late_dropped,
            ring.expired_buckets,
            ring.accepted,
            len(buckets),
        )
    ]
    for index, sketch in buckets:
        payload = sketch.to_bytes()
        parts.append(_BUCKET_HEAD.pack(index, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def unpack_ring(
    data: bytes,
    *,
    k: int = 32,
    seed: Optional[int] = None,
) -> WindowRing:
    """Rebuild a ring from FRW1 bytes.

    ``k``/``seed`` restore the ring's construction parameters (they are
    deliberately not persisted — the service re-derives them per key, so
    a reconfigured server never silently resurrects stale settings for
    *new* buckets).  hra and bucket geometry come from the payload.
    """
    view = memoryview(data)
    if len(view) < _RING_HEAD.size:
        raise SerializationError("FRW1 payload shorter than its header")
    (
        magic,
        version,
        flags,
        _reserved,
        retention,
        bucket_seconds,
        lateness,
        watermark,
        late_dropped,
        expired_buckets,
        accepted,
        num_buckets,
    ) = _RING_HEAD.unpack_from(view, 0)
    if magic != MAGIC:
        raise SerializationError(f"bad FRW1 magic {magic!r}")
    if version != _VERSION:
        raise SerializationError(f"unsupported FRW1 version {version}")
    hra = bool(flags & _FLAG_HRA)
    ring = WindowRing(
        bucket_seconds,
        retention=retention,
        lateness=lateness,
        k=k,
        hra=hra,
        seed=seed,
    )
    offset = _RING_HEAD.size
    for _ in range(num_buckets):
        if len(view) < offset + _BUCKET_HEAD.size:
            raise SerializationError("truncated FRW1 bucket header")
        index, payload_len = _BUCKET_HEAD.unpack_from(view, offset)
        offset += _BUCKET_HEAD.size
        if len(view) < offset + payload_len:
            raise SerializationError("truncated FRW1 bucket payload")
        sketch = FastReqSketch.from_bytes(view[offset : offset + payload_len])
        offset += payload_len
        # FRQ1 does not carry RNG state; pin the bucket back onto its
        # deterministic stream (the epoch reseed then layers on top).
        if seed is not None:
            sketch.reseed(mix_seed(seed, index))
        ring.restore_bucket(index, sketch)
    if offset != len(view):
        raise SerializationError("trailing bytes after FRW1 buckets")
    ring.restore_marks(
        watermark=None if math.isnan(watermark) else watermark,
        late_dropped=late_dropped,
        expired_buckets=expired_buckets,
        accepted=accepted,
    )
    return ring


def pack_rings(rings: Dict[float, WindowRing]) -> bytes:
    """Bundle one key's rings (every resolution) into a single payload."""
    parts = [_BUNDLE_COUNT.pack(len(rings))]
    for resolution in sorted(rings):
        blob = pack_ring(rings[resolution])
        parts.append(_BUNDLE_RING.pack(resolution, len(blob)))
        parts.append(blob)
    return b"".join(parts)


def unpack_rings(
    data: bytes,
    *,
    k: int = 32,
    seed: Optional[int] = None,
) -> Dict[float, WindowRing]:
    """Inverse of :func:`pack_rings`; ring seeds mix in the resolution."""
    view = memoryview(data)
    if len(view) < _BUNDLE_COUNT.size:
        raise SerializationError("FRW1 bundle shorter than its count header")
    (count,) = _BUNDLE_COUNT.unpack_from(view, 0)
    offset = _BUNDLE_COUNT.size
    rings: Dict[float, WindowRing] = {}
    for _ in range(count):
        if len(view) < offset + _BUNDLE_RING.size:
            raise SerializationError("truncated FRW1 bundle ring header")
        resolution, blob_len = _BUNDLE_RING.unpack_from(view, offset)
        offset += _BUNDLE_RING.size
        if len(view) < offset + blob_len:
            raise SerializationError("truncated FRW1 bundle ring payload")
        ring_seed = None if seed is None else mix_seed(seed, hash_resolution(resolution))
        rings[resolution] = unpack_ring(
            view[offset : offset + blob_len], k=k, seed=ring_seed
        )
        offset += blob_len
    if offset != len(view):
        raise SerializationError("trailing bytes after FRW1 bundle")
    return rings


def hash_resolution(resolution: float) -> int:
    """A stable integer handle for a resolution, for seed mixing."""
    return struct.unpack("<Q", struct.pack("<d", float(resolution)))[0]
