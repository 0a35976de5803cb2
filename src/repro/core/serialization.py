"""Binary serialization for REQ sketches over float64 items.

The format is a compact, versioned, struct-packed layout intended for
shipping sketches between processes in a distributed aggregation (the
Theorem 3 use case).  Arbitrary comparable Python items are supported via
``pickle`` (every sketch class is picklable); this module's explicit format
exists so that float streams — the overwhelmingly common case — do not pay
pickle's overhead or its trust requirements on the receiving side.

Two wire formats share this entry point, one per engine:

* ``REQ1`` (this module; layout below) — the reference
  :class:`~repro.core.req.ReqSketch`, all three parameter schemes.
* ``FRQ1`` (:mod:`repro.fast.wire`) — the numpy
  :class:`~repro.fast.FastReqSketch`, with zero-copy level decode.

:func:`serialize` dispatches on the sketch type and :func:`deserialize` on
the payload magic, so callers (the CLI, the sharded aggregation
plane) can persist either engine through one API.  Pass
``deserialize(data, engine=...)`` to convert across engines on decode —
e.g. a mixed fleet whose shards run the fast engine but whose aggregator
wants the reference engine's generic API.

``REQ1`` layout (little-endian)::

    magic    4s   b"REQ1"
    scheme   B    0=fixed 1=auto 2=theory
    hra      B    0/1
    coin     B    index into COIN_MODES
    flags    B    bit0: min/max present; bit1: eps present
    k        I    current section size
    n        Q    items summarized
    n_bound  Q    fixed-scheme bound (0 if unused)
    khat     d    theory-scheme base parameter (0.0 if unused)
    estimate Q    theory-scheme current estimate N (0 if unused)
    eps      d    construction eps (only if flags bit1)
    delta    d    failure probability
    min,max  dd   (only if flags bit0)
    levels   I    number of compactor levels
    per level:
        state    Q   compaction-schedule state C
        inserted Q   items ever inserted at this level
        flip     B   'alternate' coin phase
        count    I   retained items
        items    count * d
"""

from __future__ import annotations

import struct
from typing import Any, Optional

from repro.core.compactor import COIN_MODES, RelativeCompactor
from repro.core.params import TheoryParams
from repro.core.req import SCHEMES, ReqSketch
from repro.core.schedule import CompactionSchedule
from repro.errors import IncompatibleSketchesError, SerializationError

__all__ = ["serialize", "deserialize", "ENGINES", "MAGIC"]

MAGIC = b"REQ1"

_HEADER = struct.Struct("<4sBBBBIQQdQd")
_LEVEL_HEAD = struct.Struct("<QQBI")
_PAIR = struct.Struct("<dd")
_DOUBLE = struct.Struct("<d")


def serialize(sketch) -> bytes:
    """Encode a sketch into bytes (``REQ1`` or ``FRQ1`` per its engine).

    Accepts a float-item :class:`ReqSketch` or a
    :class:`~repro.fast.FastReqSketch`.

    Raises:
        SerializationError: If any retained item is not a float/int (use
            ``pickle`` for sketches over arbitrary comparable items).
    """
    to_bytes = getattr(sketch, "to_bytes", None)
    if to_bytes is not None:  # fast engine: FRQ1 wire format
        return to_bytes()
    flags = 0
    if sketch.n > 0:
        flags |= 1
    if sketch.eps is not None:
        flags |= 2
    khat = sketch._theory.khat if sketch._theory is not None else 0.0
    estimate = sketch._theory.estimate if sketch._theory is not None else 0
    parts = [
        _HEADER.pack(
            MAGIC,
            SCHEMES.index(sketch.scheme),
            int(sketch.hra),
            COIN_MODES.index(sketch._coin_mode),
            flags,
            sketch.k,
            sketch.n,
            sketch.n_bound or 0,
            khat,
            estimate,
            sketch.delta,
        )
    ]
    if flags & 2:
        parts.append(_DOUBLE.pack(float(sketch.eps)))
    if flags & 1:
        try:
            parts.append(_PAIR.pack(float(sketch.min_item), float(sketch.max_item)))
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                "binary serialization supports numeric items only; use pickle"
            ) from exc
    compactors = sketch.compactors()
    parts.append(struct.pack("<I", len(compactors)))
    for compactor in compactors:
        items = compactor.items()
        parts.append(
            _LEVEL_HEAD.pack(
                compactor.schedule.state,
                compactor.inserted,
                int(compactor._flip),
                len(items),
            )
        )
        try:
            parts.append(struct.pack(f"<{len(items)}d", *map(float, items)))
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                "binary serialization supports numeric items only; use pickle"
            ) from exc
    return b"".join(parts)


#: Engines :func:`deserialize` can decode into (``None`` = match the payload).
ENGINES = ("fast", "reference")


def deserialize(data: bytes, *, engine: Optional[str] = None):
    """Decode bytes produced by :func:`serialize` back into a sketch.

    The payload magic selects the decoder (``REQ1`` → :class:`ReqSketch`,
    ``FRQ1`` → :class:`~repro.fast.FastReqSketch`).  ``engine`` forces the
    result type instead, converting across engines when it does not match
    the payload:

    * ``engine="fast"`` on a ``REQ1`` payload rebuilds the levels in the
      fast engine (float items only; the ``theory`` scheme is rejected
      because the fast engine has no parameter ladder).
    * ``engine="reference"`` on an ``FRQ1`` payload rebuilds the levels as
      reference compactors (``auto`` scheme, or ``fixed`` when the payload
      carries an ``n_bound`` the stream still respects).

    Conversion preserves the retained items, per-level schedule states and
    insert counts exactly, so the merge guarantee class is unchanged.  The
    RNG is reinitialized unseeded: coin outcomes after deserialization are
    fresh randomness, which is exactly the semantics the analysis needs
    (independence across compactions).
    """
    if engine is not None and engine not in ENGINES:
        raise SerializationError(f"engine must be one of {ENGINES}, got {engine!r}")
    from repro.fast.wire import MAGIC_FAST

    if bytes(data[:4]) == MAGIC_FAST:
        from repro.fast import FastReqSketch

        fast = FastReqSketch.from_bytes(data)
        if engine == "reference":
            return _fast_to_reference(fast)
        return fast
    try:
        sketch = _deserialize(data)
    except (struct.error, IndexError, ValueError) as exc:
        raise SerializationError(f"malformed sketch bytes: {exc}") from exc
    if engine == "fast":
        return _reference_to_fast(sketch)
    return sketch


def _fast_to_reference(fast) -> ReqSketch:
    """Rebuild a fast-engine sketch as a reference :class:`ReqSketch`.

    Levels map one-to-one (items, schedule state, insert count).  The
    scheme is ``fixed`` when the payload's ``n_bound`` is still honored,
    else ``auto`` — both use the same section-size/capacity rule as the
    fast engine, so future updates continue the same trajectory.
    """
    fast.flush()
    if fast.n_bound is not None and fast.n <= fast.n_bound:
        sketch = ReqSketch(fast.k, n_bound=fast.n_bound, hra=fast.hra)
    else:
        sketch = ReqSketch(fast.k, hra=fast.hra)
    compactors = []
    for level in fast._levels:
        compactor = RelativeCompactor(sketch.k, hra=sketch.hra, rng=sketch._rng)
        compactor._buffer = [float(item) for item in level.consolidate()]
        compactor._sorted = True
        compactor.schedule = CompactionSchedule(level.schedule.state)
        compactor.inserted = level.inserted
        compactors.append(compactor)
    sketch._compactors = compactors
    sketch._n = fast.n
    if fast.n:
        sketch._min = fast.min_item
        sketch._max = fast.max_item
    sketch._coreset = None
    return sketch


def _reference_to_fast(sketch: ReqSketch):
    """Rebuild a reference sketch in the fast engine (float items only)."""
    from repro.fast import FastReqSketch

    if sketch.scheme == "theory":
        raise SerializationError(
            "theory-scheme payloads cannot decode into the fast engine "
            "(it has no Appendix D parameter ladder); use engine='reference'"
        )
    from repro.fast.engine import _FastLevel

    fast = FastReqSketch(sketch.k, hra=sketch.hra, n_bound=sketch.n_bound)
    try:
        levels, fast._n, fast._min, fast._max = fast._donor_state(sketch)
    except IncompatibleSketchesError as exc:
        raise SerializationError(str(exc)) from exc
    # Installed as-is, not merged: a merge would compact a level at or
    # over capacity (a payload encodes staged values into level 0).
    fast._levels = [_FastLevel(*level) for level in levels]
    return fast


def _deserialize(data: bytes) -> ReqSketch:
    offset = 0
    (
        magic,
        scheme_index,
        hra,
        coin_index,
        flags,
        k,
        n,
        n_bound,
        khat,
        estimate,
        delta,
    ) = _HEADER.unpack_from(data, offset)
    offset += _HEADER.size
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}; expected {MAGIC!r}")
    scheme = SCHEMES[scheme_index]
    coin_mode = COIN_MODES[coin_index]

    eps = None
    if flags & 2:
        (eps,) = _DOUBLE.unpack_from(data, offset)
        offset += _DOUBLE.size
    minimum = maximum = None
    if flags & 1:
        minimum, maximum = _PAIR.unpack_from(data, offset)
        offset += _PAIR.size

    kwargs: dict[str, Any] = {"scheme": scheme, "hra": bool(hra), "coin_mode": coin_mode}
    if scheme == "fixed":
        sketch = ReqSketch(k, n_bound=n_bound, eps=eps, delta=delta, **kwargs)
    elif scheme == "theory":
        sketch = ReqSketch(eps=eps, delta=delta, **kwargs)
        sketch._theory = TheoryParams.for_estimate(khat, estimate)
        sketch._k = sketch._theory.k
    else:
        sketch = ReqSketch(k, delta=delta, **kwargs)
        sketch.eps = eps

    (num_levels,) = struct.unpack_from("<I", data, offset)
    offset += 4
    compactors = []
    for _ in range(num_levels):
        state, inserted, flip, count = _LEVEL_HEAD.unpack_from(data, offset)
        offset += _LEVEL_HEAD.size
        items = list(struct.unpack_from(f"<{count}d", data, offset))
        offset += 8 * count
        compactor = RelativeCompactor(
            sketch.k, hra=sketch.hra, rng=sketch._rng, coin_mode=coin_mode
        )
        compactor._buffer = items
        compactor._sorted = True
        compactor.schedule = CompactionSchedule(state)
        compactor._flip = bool(flip)
        compactor.inserted = inserted
        compactors.append(compactor)
    if offset != len(data):
        raise SerializationError(f"{len(data) - offset} trailing bytes after sketch payload")

    sketch._compactors = compactors
    sketch._n = n
    sketch._min = minimum
    sketch._max = maximum
    sketch._coreset = None
    return sketch
