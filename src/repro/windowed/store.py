"""Per-key windowed state: a dict of keys, each a dict of resolution rings.

The :class:`WindowStore` is the windowed twin of the service's
``SketchStore``: it owns every key's rings, validates ingest batches,
fans each batch out to all configured resolutions, and exposes the
payload/restore/reseed hooks the durability layer drives.  It knows
nothing about sockets, WAL, or snapshots — ``QuantileService`` wires
those around it.

Every key gets one ring per configured resolution (bucket width).
``resolution=0.0`` in the query/subscribe APIs means "the finest
configured resolution" — the common case for `query --last 5m` style
reads.  Ring seeds derive from the store's per-key seed function
(normally ``SketchStore.derive_seed``) mixed with the resolution, so
windowed buckets and plain sketches draw from disjoint seed namespaces.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.fast import FastReqSketch

from .ring import ClosedBucket, WindowRing, _exact_index, mix_seed
from .wire import hash_resolution, pack_rings, unpack_rings

__all__ = ["WindowStore", "WindowEvent"]


class WindowEvent(Tuple):
    """``(resolution, index, start, end, sketch)`` — one closed bucket."""

    __slots__ = ()

    def __new__(cls, resolution: float, closed: ClosedBucket):
        return tuple.__new__(
            cls, (resolution, closed.index, closed.start, closed.end, closed.sketch)
        )

    @property
    def resolution(self) -> float:
        return self[0]

    @property
    def index(self) -> int:
        return self[1]

    @property
    def start(self) -> float:
        return self[2]

    @property
    def end(self) -> float:
        return self[3]

    @property
    def sketch(self) -> FastReqSketch:
        return self[4]


class WindowStore:
    """All windowed rings for one service instance.

    Args:
        resolutions: Bucket widths in seconds, e.g. ``(60.0, 3600.0)``.
        retention: Live bucket slots per ring.
        lateness: Out-of-order tolerance in seconds.
        k, hra: Per-bucket sketch parameters (match the plain store so
            plain and windowed answers share one accuracy story).
        seed_fn: ``key -> Optional[int]`` per-key base seed (normally
            ``SketchStore.derive_seed``); ``None`` = unseeded rings.
    """

    def __init__(
        self,
        *,
        resolutions: Sequence[float] = (60.0,),
        retention: int = 64,
        lateness: float = 0.0,
        k: int = 32,
        hra: bool = False,
        seed_fn: Optional[Callable[[str], Optional[int]]] = None,
    ) -> None:
        cleaned = sorted({float(r) for r in resolutions})
        if not cleaned:
            raise ServiceError("window store needs at least one resolution")
        if cleaned[0] <= 0:
            raise ServiceError(f"window resolutions must be > 0, got {cleaned[0]}")
        self.resolutions: Tuple[float, ...] = tuple(cleaned)
        self.retention = int(retention)
        self.lateness = float(lateness)
        self.k = k
        self.hra = hra
        self._seed_fn = seed_fn
        self._rings: Dict[str, Dict[float, WindowRing]] = {}

    # ------------------------------------------------------------------
    # Key / ring access
    # ------------------------------------------------------------------

    def _base_seed(self, key: str) -> Optional[int]:
        return None if self._seed_fn is None else self._seed_fn(key)

    def _new_rings(self, key: str) -> Dict[float, WindowRing]:
        base = self._base_seed(key)
        rings = {}
        for resolution in self.resolutions:
            seed = None if base is None else mix_seed(base, hash_resolution(resolution))
            rings[resolution] = WindowRing(
                resolution,
                retention=self.retention,
                lateness=self.lateness,
                k=self.k,
                hra=self.hra,
                seed=seed,
            )
        return rings

    def get(self, key: str, *, create: bool = False) -> Dict[float, WindowRing]:
        rings = self._rings.get(key)
        if rings is None:
            if not create:
                raise KeyError(key)
            rings = self._new_rings(key)
            self._rings[key] = rings
        return rings

    def ring(self, key: str, resolution: float = 0.0) -> WindowRing:
        """The key's ring at ``resolution`` (0.0 = finest configured)."""
        rings = self.get(key)
        if resolution == 0.0:
            return rings[self.resolutions[0]]
        ring = rings.get(float(resolution))
        if ring is None:
            raise ServiceError(
                f"no {resolution}s resolution for key {key!r} "
                f"(configured: {list(self.resolutions)})"
            )
        return ring

    def resolve(self, resolution: float) -> float:
        """Map the 0.0 sentinel / a configured width to a concrete one."""
        if resolution == 0.0:
            return self.resolutions[0]
        if float(resolution) not in self._resolution_set():
            raise ServiceError(
                f"unknown window resolution {resolution} "
                f"(configured: {list(self.resolutions)})"
            )
        return float(resolution)

    def _resolution_set(self):
        return set(self.resolutions)

    def keys(self) -> List[str]:
        return sorted(self._rings)

    def __contains__(self, key: str) -> bool:
        return key in self._rings

    # ------------------------------------------------------------------
    # Ingest / query
    # ------------------------------------------------------------------

    def validate(self, timestamps: np.ndarray, values: np.ndarray) -> None:
        """Reject malformed batches *before* any WAL append.

        Besides shape and NaN checks, the batch's latest timestamp must
        have a bucket index, ``t / width`` as an int64, at every configured
        resolution: the ring's watermark and bucket closes floor that
        quotient, so a batch whose maximum overflows it (``1.7e308`` on a
        0.5 s ring) would be logged and then fail its apply, on every
        replay too.  ``t / width`` is monotone in ``t``, so the batch's
        extremes stand for every value and no per-value pass runs.  The
        minimum only has to be finite: the ring's grouping path files a
        value whose quotient leaves the int64 range below (normally under
        the ring floor, where it is dropped), and logs holding such
        batches replay.
        """
        if timestamps.size != values.size:
            raise ServiceError(
                f"windowed batch length mismatch: {timestamps.size} timestamps "
                f"vs {values.size} values"
            )
        if values.size == 0:
            raise ServiceError("windowed ingest batch is empty")
        # min/max propagate NaN, so these two reductions also catch it.
        low = float(timestamps.min())
        high = float(timestamps.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ServiceError("windowed timestamps must be finite")
        # The finest width gives the largest quotient in magnitude.
        width = self.resolutions[0]
        if _exact_index(high, width) is None:
            raise ServiceError(
                f"windowed timestamp {high!r} has no int64 bucket index "
                f"at the {width}s resolution"
            )
        if np.isnan(values).any():
            raise ServiceError("windowed batch contains NaN")

    def ingest(
        self, key: str, timestamps, values, *, prevalidated: bool = False
    ) -> Tuple[int, List[WindowEvent]]:
        """Feed one batch to every resolution ring for ``key``.

        Returns ``(accepted_total, events)``: the finest ring's lifetime
        accepted counter (the windowed ingest ack — monotone per key, so
        exactly-once duplicate acks are consistent) and the buckets this
        batch closed across all resolutions.  ``prevalidated`` skips
        :meth:`validate` for a caller that already ran it on these very
        contiguous float64 arrays (the service, before its WAL append).
        """
        if prevalidated:
            ts, vals = timestamps, values
        else:
            ts = np.ascontiguousarray(timestamps, dtype=np.float64).reshape(-1)
            vals = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
            self.validate(ts, vals)
        rings = self.get(key, create=True)
        events: List[WindowEvent] = []
        for resolution in self.resolutions:
            _, closed = rings[resolution].ingest(ts, vals)
            events.extend(WindowEvent(resolution, c) for c in closed)
        return self.accepted(key), events

    def accepted(self, key: str) -> int:
        """Lifetime accepted count on the finest ring (duplicate acks)."""
        rings = self._rings.get(key)
        if rings is None:
            return 0
        return rings[self.resolutions[0]].accepted

    def horizon(
        self, key: str, start: float, end: float, resolution: float = 0.0
    ) -> FastReqSketch:
        """Merged sketch for ``[start, end)`` at one resolution."""
        return self.ring(key, resolution).horizon(start, end)

    # ------------------------------------------------------------------
    # Durability hooks
    # ------------------------------------------------------------------

    def payload(self, key: str) -> bytes:
        """FRW1 bundle covering every resolution of ``key`` (a pure read)."""
        return pack_rings(self.get(key))

    def flush(self, key: str) -> None:
        """Drain every bucket's staging block (a checkpoint, before :meth:`payload`)."""
        for ring in self.get(key).values():
            for _index, sketch in ring.buckets():
                sketch.flush()

    def restore(self, key: str, payload: bytes) -> None:
        """Install a key's rings from an FRW1 bundle (snapshot load).

        Resolutions present in the payload are restored verbatim;
        resolutions added to the config since the snapshot start empty.
        """
        restored = unpack_rings(payload, k=self.k, seed=self._base_seed(key))
        rings = self._new_rings(key)
        for resolution, ring in restored.items():
            rings[resolution] = ring
        self._rings[key] = rings

    def reseed_epoch(self, key: str, epoch: int) -> None:
        """Epoch-reseed every ring of ``key`` (snapshot save/load sides)."""
        rings = self._rings.get(key)
        if rings is None:
            return
        for ring in rings.values():
            ring.reseed_epoch(epoch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        buckets = 0
        expired = 0
        late = 0
        retained = 0
        for rings in self._rings.values():
            for ring in rings.values():
                buckets += ring.bucket_count
                expired += ring.expired_buckets
                late += ring.late_dropped
                retained += ring.num_retained
        return {
            "keys": len(self._rings),
            "buckets": buckets,
            "expired_buckets": expired,
            "late_dropped": late,
            "retained_items": retained,
            "resolutions": list(self.resolutions),
        }
