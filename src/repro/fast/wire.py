"""The ``FRQ1`` binary wire format for :class:`~repro.fast.FastReqSketch`.

This is the transport that lets fast-engine sketches cross process
boundaries — the sharded aggregation plane (:mod:`repro.shard`) ships
per-shard partial sketches back to the aggregator as these payloads and
unions them with ``merge_many``.  Design goals, in order: decode must be
near-free (level arrays are zero-copy ``np.frombuffer`` views into the
payload), the layout must be stable across versions (versioned header,
explicit little-endian), and corruption must fail loudly
(:class:`~repro.errors.SerializationError`, never a silently-wrong sketch).

Layout (all little-endian; the header is 48 bytes and every level block is
``24 + 8 * count`` bytes, so item arrays always start 8-byte aligned)::

    magic      4s   b"FRQ1"
    version    B    1
    flags      B    bit0: hra
    reserved   H    0
    k          I    section size
    n          Q    items summarized
    n_bound    Q    fixed-capacity stream bound (0 = auto growth)
    min, max   dd   extremes (meaningful only when n > 0)
    levels     I    number of compactor levels
    per level:
        state      Q   compaction-schedule state C
        inserted   Q   items ever inserted at this height
        count      Q   retained items
        items      count * d   sorted ascending

Decode validates the magic, version, ``k``, exact payload length, NaN-free
items and extremes, per-level sort order, and exact weight conservation
(``sum(count_h * 2**h) == n``) — a corrupted or truncated payload cannot
produce a quietly-wrong sketch.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Optional

import numpy as np

from repro.errors import InvalidParameterError, SerializationError

__all__ = [
    "MAGIC_FAST",
    "WIRE_VERSION",
    "WireSummary",
    "to_bytes",
    "from_bytes",
    "peek_header",
    "retained_in_payload",
]

MAGIC_FAST = b"FRQ1"
WIRE_VERSION = 1

_FLAG_HRA = 1

_HEADER = struct.Struct("<4sBBHIQQddI")
_LEVEL_HEAD = struct.Struct("<QQQ")

#: Decoded-but-unvalidated wire doubles; "<f8" pins the byte order so the
#: format (not the host) defines endianness.
_WIRE_DTYPE = np.dtype("<f8")


class WireSummary(NamedTuple):
    """The ``FRQ1`` header fields, decoded without touching the level data.

    ``min_item``/``max_item`` are meaningful only when ``n > 0`` (the
    encoder writes zeros for an empty sketch).
    """

    k: int
    hra: bool
    n: int
    n_bound: int
    min_item: float
    max_item: float
    num_levels: int


def peek_header(data) -> WireSummary:
    """Read an ``FRQ1`` payload's header without decoding its levels.

    The service plane's snapshot/spill files hold these payloads; stats and
    memory accounting over keys that are not resident need ``n`` and the
    sketch geometry but must not pay the full decode (or pin the payload's
    level memory).  Validates only the magic and version — a payload that
    passes here can still fail :func:`from_bytes`'s deep checks.

    Raises:
        SerializationError: On a bad magic, unknown version, or a payload
            shorter than the fixed header.
    """
    if bytes(data[:4]) != MAGIC_FAST:
        raise SerializationError(f"bad magic {bytes(data[:4])!r}; expected {MAGIC_FAST!r}")
    try:
        (
            _magic,
            version,
            flags,
            _reserved,
            k,
            n,
            n_bound,
            minimum,
            maximum,
            num_levels,
        ) = _HEADER.unpack_from(data, 0)
    except struct.error as exc:
        raise SerializationError(f"truncated header: {exc}") from exc
    if version != WIRE_VERSION:
        raise SerializationError(f"unsupported wire version {version}")
    return WireSummary(k, bool(flags & _FLAG_HRA), n, n_bound, minimum, maximum, num_levels)


def retained_in_payload(data, header: Optional[WireSummary] = None) -> int:
    """Retained-item count of an ``FRQ1`` payload, from its size alone.

    The layout is fixed-overhead (header + one level head per level +
    8 bytes per item), so the count needs no level decode.  Lives here so
    the arithmetic tracks the struct definitions it depends on.
    """
    if header is None:
        header = peek_header(data)
    items_bytes = len(data) - _HEADER.size - _LEVEL_HEAD.size * header.num_levels
    return max(0, items_bytes // _WIRE_DTYPE.itemsize)


def to_bytes(sketch) -> bytes:
    """Encode a :class:`~repro.fast.FastReqSketch` into ``FRQ1`` bytes.

    A read, like a query: the staging block is peeked, not drained, and
    its values are written as weight-1 level-0 items (see
    ``FastReqSketch._peek_levels``).  Each level's sorted run is written
    directly out of its numpy buffer — the only copies are numpy-internal
    consolidation, the staged sort and the final join.
    """
    levels, minimum, maximum = sketch._peek_levels()
    flags = _FLAG_HRA if sketch.hra else 0
    n = sketch.n
    if not n:
        minimum = maximum = 0.0
    parts = [
        _HEADER.pack(
            MAGIC_FAST,
            WIRE_VERSION,
            flags,
            0,
            sketch.k,
            n,
            sketch.n_bound or 0,
            minimum,
            maximum,
            len(levels),
        )
    ]
    for items, state, inserted in levels:
        items = np.ascontiguousarray(items, dtype=_WIRE_DTYPE)
        parts.append(_LEVEL_HEAD.pack(state, inserted, items.size))
        parts.append(items.data)
    return b"".join(parts)


def from_bytes(data, sketch_cls=None):
    """Decode ``FRQ1`` bytes into a :class:`~repro.fast.FastReqSketch`.

    Level arrays are read-only zero-copy views into ``data`` (the payload
    stays pinned while the sketch retains them; the engine never writes
    level arrays in place, so read-only views are safe).  The coin stream
    starts unseeded and is built at the first compaction
    (:meth:`~repro.fast.FastReqSketch.reseed` pins it).

    Raises:
        SerializationError: On a bad magic, unknown version, truncated or
            trailing bytes, NaN items/extremes, unsorted level runs, or a
            payload whose level weights do not sum to ``n``.
    """
    if sketch_cls is None:
        from repro.fast.engine import FastReqSketch as sketch_cls
    from repro.fast.engine import _FastLevel

    # Copy audit: `bytes` (and read-only views of it) decode fully
    # zero-copy — the header/level offsets are 8-byte aligned by layout,
    # so every `np.frombuffer` below is a view, and the isinstance fast
    # path skips even the memoryview probe on the dominant input type.
    # Only writable buffers (bytearray, recv_into pools) pay one snapshot
    # copy, because retaining views into a buffer the caller may reuse
    # would go silently wrong.
    if not isinstance(data, bytes) and memoryview(data).readonly is False:
        data = bytes(data)
    if bytes(data[:4]) != MAGIC_FAST:
        raise SerializationError(f"bad magic {bytes(data[:4])!r}; expected {MAGIC_FAST!r}")
    try:
        (
            _magic,
            version,
            flags,
            _reserved,
            k,
            n,
            n_bound,
            minimum,
            maximum,
            num_levels,
        ) = _HEADER.unpack_from(data, 0)
    except struct.error as exc:
        raise SerializationError(f"truncated header: {exc}") from exc
    if version != WIRE_VERSION:
        raise SerializationError(f"unsupported wire version {version}")
    try:
        sketch = sketch_cls(k, hra=bool(flags & _FLAG_HRA), n_bound=n_bound or None)
    except InvalidParameterError as exc:
        raise SerializationError(f"invalid parameters in payload: {exc}") from exc

    offset = _HEADER.size
    weight = 0
    for height in range(num_levels):
        try:
            state, inserted, count = _LEVEL_HEAD.unpack_from(data, offset)
        except struct.error as exc:
            raise SerializationError(f"truncated level {height} header: {exc}") from exc
        offset += _LEVEL_HEAD.size
        end = offset + 8 * count
        if end > len(data):
            raise SerializationError(
                f"truncated payload: level {height} declares {count} items "
                f"but only {len(data) - offset} bytes remain"
            )
        items = np.frombuffer(data, dtype=_WIRE_DTYPE, count=count, offset=offset)
        offset = end
        if count:
            if np.isnan(items).any():
                raise SerializationError(f"NaN item in level {height}")
            if count > 1 and (np.diff(items) < 0).any():
                raise SerializationError(f"level {height} items are not sorted")
        sketch._levels.append(_FastLevel(items, state, int(inserted)))
        weight += count << height
    if offset != len(data):
        raise SerializationError(f"{len(data) - offset} trailing bytes after sketch payload")
    if weight != n:
        raise SerializationError(
            f"weight conservation violated: levels sum to {weight}, header says n={n}"
        )
    sketch._n = n
    if n:
        if minimum != minimum or maximum != maximum:
            raise SerializationError("NaN min/max in payload")
        if not minimum <= maximum:
            raise SerializationError(f"min {minimum} > max {maximum} in payload")
        sketch._min = float(minimum)
        sketch._max = float(maximum)
    return sketch
