"""The paper's motivating workload: long-tailed web response times.

Section 1 motivates relative error with network latency monitoring, citing
Masson et al. [15]: for web response times "the 98.5th percentile can be as
small as 2 seconds while the 99.5th percentile can be as large as 20
seconds".  Production traces are not available offline, so this module
synthesizes a mixture calibrated to those two anchor points:

* ~98% of requests are "fast": lognormal around ~150 ms,
* ~2% are "slow": lognormal seconds-to-tens-of-seconds,

which puts the p98.5/p99.5 ratio close to the reported 2 s / 20 s and makes
all the interesting structure live in the top 1-2% of ranks — exactly the
regime where additive-error sketches lose and the multiplicative guarantee
matters.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.errors import InvalidParameterError

__all__ = ["latency_stream", "latency_bursty_stream", "SLOW_FRACTION"]

#: Fraction of requests drawn from the slow mixture component.
SLOW_FRACTION = 0.02

#: Fast component: lognormal with median ~150 ms.
_FAST_MU = math.log(0.15)
_FAST_SIGMA = 0.55

#: Slow component: lognormal with median ~6 s and a wide spread.  With the
#: 2% slow fraction, the mixture's 98.5th percentile sits near the slow
#: component's 25th percentile (~6 * exp(-0.674 * 1.6) ~ 2 s) and its 99.5th
#: percentile near the slow 75th percentile (~6 * exp(0.674 * 1.6) ~ 18 s),
#: matching the anchors the paper quotes from Masson et al. [15].
_SLOW_MU = math.log(6.0)
_SLOW_SIGMA = 1.6


def latency_stream(n: int, seed: int = 0) -> List[float]:
    """IID synthetic response times in seconds.

    Calibrated so that (for large ``n``) the 98.5th percentile is on the
    order of 1-3 s and the 99.5th percentile on the order of 10-30 s,
    mirroring the figures the paper quotes from [15].
    """
    if n < 0:
        raise InvalidParameterError(f"stream length must be >= 0, got {n}")
    rng = random.Random(seed)
    stream: List[float] = []
    for _ in range(n):
        if rng.random() < SLOW_FRACTION:
            stream.append(rng.lognormvariate(_SLOW_MU, _SLOW_SIGMA))
        else:
            stream.append(rng.lognormvariate(_FAST_MU, _FAST_SIGMA))
    return stream


def latency_bursty_stream(n: int, seed: int = 0, *, bursts: int = 5) -> List[float]:
    """Latencies with correlated slow *bursts* (outage-like episodes).

    Instead of IID slow requests, the slow mass arrives in ``bursts``
    contiguous episodes — the temporally clustered pattern real incidents
    produce, and a harder arrival order for order-sensitive summaries.
    """
    if n < 0:
        raise InvalidParameterError(f"stream length must be >= 0, got {n}")
    if bursts < 1:
        raise InvalidParameterError(f"bursts must be >= 1, got {bursts}")
    rng = random.Random(seed)
    slow_total = int(n * SLOW_FRACTION)
    per_burst = max(1, slow_total // bursts)
    burst_starts = sorted(rng.randrange(max(1, n - per_burst)) for _ in range(bursts))
    in_burst = [False] * n
    for start in burst_starts:
        for offset in range(per_burst):
            if start + offset < n:
                in_burst[start + offset] = True
    stream: List[float] = []
    for slow in in_burst:
        if slow:
            stream.append(rng.lognormvariate(_SLOW_MU, _SLOW_SIGMA))
        else:
            stream.append(rng.lognormvariate(_FAST_MU, _FAST_SIGMA))
    return stream
