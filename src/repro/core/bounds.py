"""Error-bound helpers tied to concrete sketch parameters.

Space-complexity *formulas* for all algorithms discussed in the paper's
Section 1.1 live in :mod:`repro.theory.bounds`; this module holds the
bound machinery a sketch user needs at query time:

* the a-priori accuracy ``eps`` implied by a section size (inverting Eq. 6),
* rank confidence intervals derived from the multiplicative guarantee,
* the variance bound of Lemma 12, usable as a sharper plug-in interval.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.core.params import buffer_size, eps_for_streaming_k
from repro.errors import InvalidParameterError

__all__ = [
    "a_priori_eps",
    "rank_interval",
    "lemma12_std_dev",
    "gaussian_rank_interval",
]


def a_priori_eps(k: int, n: int, delta: float = 0.05) -> float:
    """The multiplicative error targeted by section size ``k`` at length ``n``.

    Obtained by inverting Eq. (6); see
    :func:`repro.core.params.eps_for_streaming_k`.
    """
    return eps_for_streaming_k(k, n, delta)


def rank_interval(estimate: int, eps: float, n: int, *, hra: bool = False) -> Tuple[int, int]:
    """Confidence interval for the true rank given the (1 +/- eps) guarantee.

    From ``|estimate - R| <= eps * R`` it follows that
    ``R in [estimate / (1 + eps), estimate / (1 - eps)]`` (upper end clamped
    to ``n``; for ``eps >= 1`` the upper end is ``n``).

    A high-rank-accuracy sketch (``hra=True``) mirrors the order, so its
    guarantee is relative to ``n - R``: the interval is taken for the
    mirrored rank ``n - estimate`` and mapped back, within ``[0, n]``.
    """
    if hra:
        lower, upper = rank_interval(n - estimate, eps, n)
        return max(0, n - upper), min(n, n - lower)
    if estimate < 0:
        raise InvalidParameterError(f"rank estimate must be >= 0, got {estimate}")
    if eps <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    lower = int(math.floor(estimate / (1.0 + eps)))
    upper = n if eps >= 1.0 else min(n, int(math.ceil(estimate / (1.0 - eps))))
    return max(0, lower), upper


def lemma12_std_dev(rank: int, k: int, n: int) -> float:
    """Standard-deviation bound on ``Err(y)`` from Lemma 12.

    Lemma 12 bounds ``Var[Err(y)] <= 2^5 * R(y)^2 / (k * B)``; this returns
    the square root with ``B = 2 k ceil(log2(n / k))``.

    Args:
        rank: The (estimated or true) rank ``R(y)``.
        k: Section size of the sketch.
        n: Stream length (or its bound).
    """
    if rank < 0:
        raise InvalidParameterError(f"rank must be >= 0, got {rank}")
    b = buffer_size(k, max(n, 2 * k))
    return math.sqrt(32.0 * rank * rank / (k * b))


def gaussian_rank_interval(
    estimate: int, k: int, n: int, *, num_std_devs: float = 2.0
) -> Tuple[int, int]:
    """Plug-in interval using the sub-Gaussian variance bound of Lemma 12.

    Sharper than :func:`rank_interval` for moderate confidence levels: the
    error is sub-Gaussian with standard deviation at most
    :func:`lemma12_std_dev`, so ``estimate +/- z * sigma`` is a valid
    ``1 - 2 exp(-z^2/2)`` interval (Fact 9).

    Args:
        estimate: The sketch's rank estimate.
        k: Section size of the sketch.
        n: Stream length.
        num_std_devs: The ``z`` multiplier (2.0 ~ 95%, 3.0 ~ 99.7%).
    """
    sigma = lemma12_std_dev(estimate, k, n)
    spread = num_std_devs * sigma
    lower = max(0, int(math.floor(estimate - spread)))
    upper = min(n, int(math.ceil(estimate + spread)))
    return lower, upper
