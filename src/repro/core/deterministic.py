"""The deterministic instantiation of the REQ sketch (Appendix C).

Appendix C observes that with the section size of Eq. (15) and a failure
probability ``delta < exp(-eps * n)``, the quantity ``H'(y)`` is zero and the
whole error analysis holds *for every outcome of the coin flips*.  Fixing the
coins therefore yields a deterministic, comparison-based streaming algorithm
storing ``O(eps^-1 * log^3(eps n))`` items — matching the best known
deterministic bound, due to Zhang and Wang [21].

This module packages that instantiation.  It doubles as our runnable
"Zhang-Wang class" baseline for the space experiments: the paper itself
endorses this construction as matching [21]'s guarantee, so no separate
merge-and-prune reimplementation is needed to compare the deterministic
O(eps^-1 log^3) class against the randomized O(eps^-1 log^1.5) sketch.
"""

from __future__ import annotations

from repro.core.params import deterministic_k
from repro.core.req import ReqSketch
from repro.errors import InvalidParameterError

__all__ = ["DeterministicReqSketch"]


class DeterministicReqSketch(ReqSketch):
    """Deterministic relative-error quantile sketch (Appendix C limit).

    The guarantee ``|rank(y) - R(y)| <= eps * R(y)`` holds for *every* input
    and every query — no failure probability — at the cost of
    ``O(eps^-1 * log^3(eps n))`` space.

    Args:
        eps: Multiplicative error bound (deterministic).
        n_bound: Upper bound on the stream length (required: Eq. 15's
            deterministic regime sizes ``k`` by ``log2(eps * n)``).
        hra: High-rank-accuracy mode.
        coin_mode: Any fixed-coin strategy is valid per Appendix C;
            ``alternate`` is the default because it avoids the systematic
            one-sided drift of always-even/always-odd while remaining fully
            deterministic.
    """

    def __init__(
        self,
        eps: float,
        n_bound: int,
        *,
        hra: bool = False,
        coin_mode: str = "alternate",
    ) -> None:
        if coin_mode == "random":
            raise InvalidParameterError(
                "DeterministicReqSketch requires a deterministic coin_mode "
                "('even', 'odd' or 'alternate')"
            )
        k = deterministic_k(eps, n_bound)
        super().__init__(
            k,
            n_bound=n_bound,
            scheme="fixed",
            hra=hra,
            seed=0,
            coin_mode=coin_mode,
        )
        self.eps = eps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "HRA" if self.hra else "LRA"
        return (
            f"DeterministicReqSketch(eps={self.eps}, k={self.k}, {mode}, "
            f"n={self.n}/{self.n_bound}, retained={self.num_retained})"
        )
