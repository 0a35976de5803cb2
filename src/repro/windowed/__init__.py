"""Windowed quantile plane: time-bucketed sketch rings as a service subsystem.

The paper's motivating workload — p50/p99/p99.9 of response times — is
in practice windowed ("p99 over the last 5 minutes"), and the REQ
sketch's full mergeability (Theorem 3) is what makes that cheap: one
small sketch per time bucket, and any horizon answered from the
weighted union of its buckets' retained items, never re-scanning data.  This package supplies the pieces the service plane
composes:

- :mod:`~repro.windowed.ring` — :class:`WindowRing`, the wall-clock
  bucketed ring with TTL retention, a bounded-lateness watermark, and
  read-only :class:`Horizon` answers over the buckets' union.
- :mod:`~repro.windowed.store` — :class:`WindowStore`, per-key
  multi-resolution ring state with validation and durability hooks.
- :mod:`~repro.windowed.wire` — FRW1, the ring snapshot format layered
  on FRQ1.
- :mod:`~repro.windowed.subscribe` — :class:`SubscriptionHub`,
  bookkeeping for the SUBSCRIBE server-push surface.
- :mod:`~repro.windowed.durations` — ``"5m"`` ⇄ seconds helpers for the
  CLI and clients.
"""

from .durations import format_duration, parse_duration
from .ring import ClosedBucket, Horizon, WindowRing, mix_seed
from .store import WindowEvent, WindowStore
from .subscribe import Subscription, SubscriptionHub
from .wire import pack_ring, pack_rings, unpack_ring, unpack_rings

__all__ = [
    "WindowRing",
    "Horizon",
    "ClosedBucket",
    "WindowStore",
    "WindowEvent",
    "Subscription",
    "SubscriptionHub",
    "mix_seed",
    "pack_ring",
    "unpack_ring",
    "pack_rings",
    "unpack_rings",
    "parse_duration",
    "format_duration",
]
