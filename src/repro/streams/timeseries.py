"""Time-evolving streams: drift and regime switches.

Windowed monitoring (the :mod:`repro.windowed` plane) is only
interesting when the distribution moves.  These generators produce streams
whose parameters change over time in controlled, seeded ways, so trend
and alert logic can be checked against known ground truth;
``examples/windowed_monitoring.py`` drives a live server with one.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

from repro.errors import InvalidParameterError

__all__ = ["drifting_lognormal", "regime_switching", "diurnal_cycle"]


def drifting_lognormal(
    n: int,
    seed: int = 0,
    *,
    start_median: float = 0.1,
    end_median: float = 0.4,
    sigma: float = 0.5,
) -> List[float]:
    """A lognormal stream whose median glides linearly over the stream.

    Models a service slowly degrading (or a cache warming up, reversed).
    """
    if n < 0:
        raise InvalidParameterError(f"stream length must be >= 0, got {n}")
    if start_median <= 0 or end_median <= 0:
        raise InvalidParameterError("medians must be positive")
    rng = random.Random(seed)
    values = []
    for index in range(n):
        frac = index / max(1, n - 1)
        median = start_median + frac * (end_median - start_median)
        values.append(rng.lognormvariate(math.log(median), sigma))
    return values


def regime_switching(
    n: int,
    seed: int = 0,
    *,
    medians: Sequence[float] = (0.1, 1.0, 0.1),
    sigma: float = 0.4,
) -> List[float]:
    """Piecewise-stationary stream: equal-length regimes at given medians.

    The classic incident shape: calm, outage, recovery.
    """
    if n < 0:
        raise InvalidParameterError(f"stream length must be >= 0, got {n}")
    if not medians or any(m <= 0 for m in medians):
        raise InvalidParameterError("medians must be a non-empty sequence of positives")
    rng = random.Random(seed)
    per_regime = max(1, n // len(medians))
    values = []
    for index in range(n):
        regime = min(len(medians) - 1, index // per_regime)
        values.append(rng.lognormvariate(math.log(medians[regime]), sigma))
    return values


def diurnal_cycle(
    n: int,
    seed: int = 0,
    *,
    cycles: int = 4,
    base_median: float = 0.15,
    swing: float = 0.5,
    sigma: float = 0.4,
) -> List[float]:
    """Sinusoidally modulated latencies: load-correlated daily cycles.

    ``swing`` is the peak-to-base multiplicative amplitude (0.5 = the
    median rises 50% at peak load).
    """
    if n < 0:
        raise InvalidParameterError(f"stream length must be >= 0, got {n}")
    if cycles < 1:
        raise InvalidParameterError(f"cycles must be >= 1, got {cycles}")
    if base_median <= 0 or swing < 0:
        raise InvalidParameterError("base_median must be positive and swing >= 0")
    rng = random.Random(seed)
    values = []
    for index in range(n):
        phase = 2.0 * math.pi * cycles * index / max(1, n)
        median = base_median * (1.0 + swing * (0.5 + 0.5 * math.sin(phase)))
        values.append(rng.lognormvariate(math.log(median), sigma))
    return values
