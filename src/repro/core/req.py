"""The REQ sketch: Algorithms 2 (streaming) and 3 (merge) of the paper.

:class:`ReqSketch` stacks relative-compactors: level ``h`` receives the
output stream of level ``h-1`` and its retained items carry weight ``2**h``.
With roughly ``log2(eps * n)`` levels the sketch answers rank queries with
multiplicative error ``(1 +/- eps)`` using
``O(eps^-1 * log^1.5(eps*n) * sqrt(log 1/delta))`` retained items
(Theorems 1 and 3).

Three parameterization *schemes* are provided; all share the same compactor
mechanics and differ only in how the section size ``k`` and buffer capacity
``B`` evolve:

``fixed``
    The Section 2-4 algorithm: ``k`` and an upper bound on ``n`` are known in
    advance, ``B = 2 k ceil(log2(n/k))`` is constant, and exceeding the bound
    raises :class:`~repro.errors.StreamLengthExceededError` (Theorem 14).

``auto``
    The practical variant suggested in footnote 9: ``k`` is fixed and each
    level's capacity grows as ``2 k ceil(log2(inserted_h / k))`` with the
    items it has actually seen, so no bound on ``n`` is needed.  This matches
    the behavior of the authors' reference implementation and of Apache
    DataSketches' ReqSketch.

``theory``
    The fully mergeable algorithm of Appendix D: the invariant parameter is
    ``k_hat = eps^-1 sqrt(ln 1/delta)`` (Eq. 26); the current input-size
    estimate ``N`` starts at ``N_0 = ceil(2^8 k_hat)`` and squares whenever
    exceeded, with *special compactions* flushing each buffer to half before
    parameters change (Algorithm 3).  This scheme carries the Theorem 3
    guarantee under arbitrary merge trees.

Accuracy sides: ``hra=False`` (default) is the paper's presentation — the
error at rank ``R(y)`` is at most ``eps * R(y)``, so *low* ranks are sharp.
``hra=True`` reverses the comparator as described in Section 1, making
*high* ranks (p99, p999, ...) sharp, which is what latency monitoring needs.
"""

from __future__ import annotations

import math
import random
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.bounds import rank_interval
from repro.core.compactor import COIN_MODES, RelativeCompactor
from repro.core.estimator import WeightedCoreset
from repro.core.params import (
    TheoryParams,
    buffer_size,
    eps_for_streaming_k,
    streaming_k,
    validate_eps_delta,
)
from repro.errors import (
    EmptySketchError,
    IncompatibleSketchesError,
    InvalidParameterError,
    StreamLengthExceededError,
)

__all__ = ["ReqSketch", "SCHEMES"]

#: The three parameterization schemes described in the module docstring.
SCHEMES = ("fixed", "auto", "theory")

_DEFAULT_K = 32


def _is_nan(item: Any) -> bool:
    return isinstance(item, float) and math.isnan(item)


class ReqSketch:
    """Relative-error streaming quantiles sketch.

    Construction (pick one):

    * ``ReqSketch(k=...)`` — the practical ``auto`` scheme.
    * ``ReqSketch(k=..., n_bound=...)`` or ``ReqSketch(eps=..., n_bound=...)``
      — the known-``n`` ``fixed`` scheme (``k`` derived via Eq. 6 when only
      ``eps`` is given).
    * ``ReqSketch(eps=..., delta=...)`` — the fully mergeable ``theory``
      scheme of Appendix D.

    Args:
        k: Section size (even integer >= 2).
        eps: Target multiplicative error.
        delta: Target per-query failure probability (default 0.05).
        n_bound: Known upper bound on the stream length (``fixed`` scheme).
        scheme: Explicit scheme selection; inferred from the other arguments
            when omitted.
        hra: High-rank-accuracy mode (see module docstring).
        seed: Seed for the compaction coins; fixes the full behavior.
        coin_mode: Coin strategy, see
            :data:`repro.core.compactor.COIN_MODES`.
    """

    def __init__(
        self,
        k: Optional[int] = None,
        *,
        eps: Optional[float] = None,
        delta: float = 0.05,
        n_bound: Optional[int] = None,
        scheme: Optional[str] = None,
        hra: bool = False,
        seed: Optional[int] = None,
        coin_mode: str = "random",
    ) -> None:
        if coin_mode not in COIN_MODES:
            raise InvalidParameterError(f"coin_mode must be one of {COIN_MODES}, got {coin_mode!r}")
        scheme = self._infer_scheme(k, eps, n_bound, scheme)
        self.scheme = scheme
        self.hra = bool(hra)
        self.delta = delta
        self._rng = random.Random(seed)
        self._seed = seed
        self._coin_mode = coin_mode
        self._compactors: List[RelativeCompactor] = []
        self._n = 0
        self._min: Any = None
        self._max: Any = None
        self._coreset: Optional[WeightedCoreset] = None

        self._theory: Optional[TheoryParams] = None
        self._n_bound: Optional[int] = None
        if scheme == "theory":
            if eps is None:
                raise InvalidParameterError("the theory scheme requires eps")
            validate_eps_delta(eps, delta)
            self.eps = eps
            self._theory = TheoryParams.from_accuracy(eps, delta)
            self._k = self._theory.k
        elif scheme == "fixed":
            if n_bound is None or n_bound < 1:
                raise InvalidParameterError("the fixed scheme requires a positive n_bound")
            if k is None:
                if eps is None:
                    raise InvalidParameterError("the fixed scheme requires k or eps")
                validate_eps_delta(eps, delta)
                k = streaming_k(eps, delta, n_bound)
            self._check_k(k)
            self._k = k
            self._n_bound = n_bound
            self.eps = eps if eps is not None else eps_for_streaming_k(k, n_bound, delta)
        else:  # auto
            if k is None:
                k = _DEFAULT_K
            self._check_k(k)
            self._k = k
            self.eps = eps  # may be None; resolvable per-n via error_bound()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_theorem1(
        cls,
        eps: float,
        delta: float,
        n_bound: int,
        *,
        hra: bool = False,
        seed: Optional[int] = None,
    ) -> "ReqSketch":
        """The Theorem 14 configuration: known ``n``, ``k`` per Eq. (6).

        Space: ``O(eps^-1 log^1.5(eps n) sqrt(ln 1/delta))`` items;
        a fixed query fails its ``(1 +/- eps)`` bound w.p. < ``3 delta``.
        """
        return cls(eps=eps, delta=delta, n_bound=n_bound, scheme="fixed", hra=hra, seed=seed)

    @classmethod
    def from_theorem2(
        cls,
        eps: float,
        delta: float,
        n_bound: int,
        *,
        hra: bool = False,
        seed: Optional[int] = None,
    ) -> "ReqSketch":
        """The Theorem 17 (Appendix C) configuration: ``k`` per Eq. (15).

        Space: ``O(eps^-1 log^2(eps n) log log(1/delta))`` items — the
        better choice for extremely small ``delta``
        (``delta <= 1/(eps n)^Omega(1)``).
        """
        from repro.core.params import appendix_c_k

        k = appendix_c_k(eps, delta)
        sketch = cls(k, n_bound=n_bound, scheme="fixed", hra=hra, seed=seed)
        sketch.eps = eps
        sketch.delta = delta
        return sketch

    @staticmethod
    def _infer_scheme(
        k: Optional[int], eps: Optional[float], n_bound: Optional[int], scheme: Optional[str]
    ) -> str:
        if scheme is not None:
            if scheme not in SCHEMES:
                raise InvalidParameterError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
            return scheme
        if n_bound is not None:
            return "fixed"
        if eps is not None and k is None:
            return "theory"
        return "auto"

    @staticmethod
    def _check_k(k: int) -> None:
        if not isinstance(k, int) or k < 2 or k % 2 != 0:
            raise InvalidParameterError(f"k must be an even integer >= 2, got {k!r}")

    def _new_compactor(self) -> RelativeCompactor:
        return RelativeCompactor(self._k, hra=self.hra, rng=self._rng, coin_mode=self._coin_mode)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Current section size (may shrink along the theory-scheme ladder)."""
        return self._k

    @property
    def n(self) -> int:
        """Number of stream items summarized so far."""
        return self._n

    @property
    def n_bound(self) -> Optional[int]:
        """The fixed scheme's stream-length bound (``None`` otherwise)."""
        return self._n_bound

    @property
    def estimate(self) -> Optional[int]:
        """The theory scheme's current input-size estimate ``N`` (else ``None``)."""
        return self._theory.estimate if self._theory is not None else None

    @property
    def is_empty(self) -> bool:
        return self._n == 0

    @property
    def num_levels(self) -> int:
        """Number of relative-compactors currently allocated."""
        return len(self._compactors)

    @property
    def num_retained(self) -> int:
        """Total number of items stored across all levels (the space cost)."""
        return sum(len(c) for c in self._compactors)

    @property
    def min_item(self) -> Any:
        if self._n == 0:
            raise EmptySketchError("min_item on an empty sketch")
        return self._min

    @property
    def max_item(self) -> Any:
        if self._n == 0:
            raise EmptySketchError("max_item on an empty sketch")
        return self._max

    def compactors(self) -> List[RelativeCompactor]:
        """The internal levels, index = level ``h`` (weight ``2**h``)."""
        return list(self._compactors)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "HRA" if self.hra else "LRA"
        return (
            f"ReqSketch(scheme={self.scheme!r}, k={self._k}, {mode}, n={self._n}, "
            f"levels={self.num_levels}, retained={self.num_retained})"
        )

    # ------------------------------------------------------------------
    # Capacity policy
    # ------------------------------------------------------------------

    def _capacity(self, level: int) -> int:
        """Buffer capacity ``B`` for a level under the active scheme."""
        if self.scheme == "theory":
            assert self._theory is not None
            return self._theory.buffer
        if self.scheme == "fixed":
            assert self._n_bound is not None
            return buffer_size(self._k, self._n_bound)
        # auto: grow with the items this level has actually seen, the
        # footnote-9 variant of B = 2k ceil(log2(n_h / k)).
        inserted = max(1, self._compactors[level].inserted)
        sections = max(1, math.ceil(math.log2(max(2.0, inserted / self._k))))
        return 2 * self._k * sections

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, item: Any) -> None:
        """Insert one stream item.

        Raises:
            StreamLengthExceededError: In the ``fixed`` scheme, when the
                declared bound would be exceeded.
            InvalidParameterError: If the item is a float NaN (NaN breaks the
                total order the algorithm requires).
        """
        if _is_nan(item):
            raise InvalidParameterError("cannot insert NaN: items must form a total order")
        if self.scheme == "fixed" and self._n + 1 > (self._n_bound or 0):
            raise StreamLengthExceededError(
                f"fixed-scheme sketch bound n_bound={self._n_bound} exceeded"
            )
        if self.scheme == "theory":
            self._grow_if_needed(self._n + 1)
        if not self._compactors:
            self._compactors.append(self._new_compactor())
        self._compactors[0].append(item)
        self._n += 1
        if self._min is None or item < self._min:
            self._min = item
        if self._max is None or self._max < item:
            self._max = item
        self._compress()
        self._coreset = None

    def update_many(self, items: Iterable[Any]) -> None:
        """Insert an iterable of items (order is preserved)."""
        for item in items:
            self.update(item)

    def update_weighted(self, item: Any, weight: int) -> None:
        """Insert one item carrying an integer weight >= 1.

        The weight is decomposed into its binary digits and the item is
        placed directly into the compactor level matching each set bit —
        semantically identical to merging in a sketch that summarized
        ``weight`` adjacent copies of ``item``.  Weight conservation stays
        exact; the error guarantee is the merge guarantee (Theorem 3).

        Raises:
            InvalidParameterError: For non-positive or non-integer weights
                or NaN items.
            StreamLengthExceededError: In the ``fixed`` scheme if the bound
                would be exceeded.
        """
        if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
            raise InvalidParameterError(f"weight must be an integer >= 1, got {weight!r}")
        if _is_nan(item):
            raise InvalidParameterError("cannot insert NaN: items must form a total order")
        if weight == 1:
            self.update(item)
            return
        if self.scheme == "fixed" and self._n + weight > (self._n_bound or 0):
            raise StreamLengthExceededError(
                f"fixed-scheme sketch bound n_bound={self._n_bound} exceeded"
            )
        if self.scheme == "theory":
            self._grow_if_needed(self._n + weight)
        for level in range(weight.bit_length()):
            if weight & (1 << level):
                while len(self._compactors) <= level:
                    self._compactors.append(self._new_compactor())
                self._compactors[level].append(item)
        self._n += weight
        if self._min is None or item < self._min:
            self._min = item
        if self._max is None or self._max < item:
            self._max = item
        self._compress()
        self._coreset = None

    def _compress(self) -> None:
        """Run scheduled compactions bottom-up until every level fits.

        During a merge this is the loop of Algorithm 3 (lines 22-24); the
        paper shows one compaction per level suffices there, but the ``auto``
        scheme's capacities depend on per-level insert counts, so we sweep
        until quiescent.
        """
        level = 0
        while level < len(self._compactors):
            compactor = self._compactors[level]
            capacity = self._capacity(level)
            while len(compactor) >= capacity:
                before = len(compactor)
                promoted = compactor.compact(compactor.scheduled_protect_count(capacity))
                if len(compactor) == before:
                    break
                if promoted:
                    if level + 1 == len(self._compactors):
                        self._compactors.append(self._new_compactor())
                    self._compactors[level + 1].extend(promoted)
                capacity = self._capacity(level)
            level += 1

    # ------------------------------------------------------------------
    # Theory-scheme growth (estimate ladder + special compactions)
    # ------------------------------------------------------------------

    def _grow_if_needed(self, new_n: int) -> None:
        assert self._theory is not None
        while self._theory.estimate < new_n:
            self._special_compaction()
            self._theory = self._theory.grown()
            self._adopt_section_size(self._theory.k)

    def _special_compaction(self) -> None:
        """Flush each level (except the top) down to ``B/2`` items.

        Algorithm 3's ``SpecialCompaction``: performed just before the
        parameters change so that the analysis can treat buffers as
        half-empty at every ladder step.
        """
        assert self._theory is not None
        half = self._theory.buffer // 2
        for level in range(len(self._compactors) - 1):
            promoted = self._compactors[level].compact(half)
            if promoted:
                self._compactors[level + 1].extend(promoted)
        # Promotions may create overflow at the (old) top level; the regular
        # compression pass restores the invariant under the *new* parameters
        # after the caller swaps them in.
        self._coreset = None

    def _adopt_section_size(self, k: int) -> None:
        if k != self._k:
            self._k = k
            self._compactors = [c.with_section_size(k) for c in self._compactors]
        self._compress()

    # ------------------------------------------------------------------
    # Merging (Algorithm 3)
    # ------------------------------------------------------------------

    def merge(self, other: "ReqSketch") -> "ReqSketch":
        """Merge another sketch into this one; ``other`` is left unchanged.

        Implements Algorithm 3 for the ``theory`` scheme and the analogous
        concatenate-OR-compact operation for ``fixed``/``auto``.  Returns
        ``self`` for chaining.

        Raises:
            IncompatibleSketchesError: If schemes, accuracy modes, or base
                parameters differ (see the class docstring).
        """
        self._check_mergeable(other)
        if other.is_empty:
            return self
        if self.is_empty and self.scheme != "fixed":
            # Cheap path: adopt the other's state wholesale.
            self._adopt_state_from(other)
            return self

        new_n = self._n + other._n
        if self.scheme == "fixed":
            assert self._n_bound is not None
            if new_n > self._n_bound:
                raise StreamLengthExceededError(
                    f"merged size {new_n} exceeds fixed bound {self._n_bound}"
                )

        source = other
        if self.scheme == "theory":
            assert self._theory is not None and other._theory is not None
            # Algorithm 3 requires the target to be the sketch with more
            # levels; if ours has fewer, adopt a copy of the other as target
            # and treat our previous state as the source.
            if other.num_levels > self.num_levels:
                source = self._snapshot()
                self._adopt_state_from(other)
            if self._theory.estimate < new_n:
                self._special_compaction()
                self._theory = self._theory.grown()
                self._adopt_section_size(self._theory.k)
            if source._theory is not None and source._theory.estimate < self._theory.estimate:
                source = source._snapshot()
                source._special_compaction()

        self._absorb_levels(source)
        self._n = new_n
        if source._min is not None and (self._min is None or source._min < self._min):
            self._min = source._min
        if source._max is not None and (self._max is None or self._max < source._max):
            self._max = source._max
        self._compress()
        self._coreset = None
        return self

    @classmethod
    def merged(cls, left: "ReqSketch", right: "ReqSketch") -> "ReqSketch":
        """Pure merge: returns a new sketch, leaving both inputs unchanged."""
        result = left._snapshot()
        result.merge(right)
        return result

    def _check_mergeable(self, other: "ReqSketch") -> None:
        if not isinstance(other, ReqSketch):
            raise IncompatibleSketchesError(f"cannot merge ReqSketch with {type(other).__name__}")
        if other.scheme != self.scheme:
            raise IncompatibleSketchesError(
                f"cannot merge schemes {self.scheme!r} and {other.scheme!r}"
            )
        if other.hra != self.hra:
            raise IncompatibleSketchesError("cannot merge HRA and LRA sketches")
        if self.scheme == "theory":
            assert self._theory is not None and other._theory is not None
            if not math.isclose(self._theory.khat, other._theory.khat, rel_tol=1e-9):
                raise IncompatibleSketchesError(
                    f"theory-scheme sketches must share k_hat "
                    f"({self._theory.khat} != {other._theory.khat})"
                )
        elif self._k != other._k:
            raise IncompatibleSketchesError(f"section sizes differ: {self._k} != {other._k}")

    def _snapshot(self) -> "ReqSketch":
        """A deep copy sharing only the RNG (used to keep merges pure)."""
        clone = object.__new__(ReqSketch)
        clone.scheme = self.scheme
        clone.hra = self.hra
        clone.delta = self.delta
        clone.eps = self.eps
        clone._rng = self._rng
        clone._seed = self._seed
        clone._coin_mode = self._coin_mode
        clone._compactors = [c.copy() for c in self._compactors]
        clone._n = self._n
        clone._min = self._min
        clone._max = self._max
        clone._coreset = None
        clone._theory = self._theory
        clone._n_bound = self._n_bound
        clone._k = self._k
        return clone

    def _adopt_state_from(self, other: "ReqSketch") -> None:
        donor = other._snapshot()
        self._compactors = donor._compactors
        self._n = donor._n
        self._min = donor._min
        self._max = donor._max
        self._theory = donor._theory
        self._k = donor._k
        self._coreset = None

    def _absorb_levels(self, source: "ReqSketch") -> None:
        """Concatenate buffers and OR states level-wise (Algorithm 3, 13-21)."""
        while len(self._compactors) < len(source._compactors):
            self._compactors.append(self._new_compactor())
        for level, their in enumerate(source._compactors):
            self._compactors[level].absorb(their)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _ensure_coreset(self) -> WeightedCoreset:
        if self._coreset is None:
            self._coreset = WeightedCoreset.from_levels(
                (compactor.items(), 1 << level)
                for level, compactor in enumerate(self._compactors)
            )
        return self._coreset

    def rank(self, item: Any, *, inclusive: bool = True) -> int:
        """Estimated rank ``R(item)`` — the number of stream items <= item.

        With probability ``1 - delta`` the estimate satisfies
        ``|rank(item) - R(item)| <= eps * R(item)`` (LRA; for HRA the
        guarantee applies to the complementary rank ``n - R(item)``).
        """
        if self._n == 0:
            raise EmptySketchError("rank on an empty sketch")
        return self._ensure_coreset().rank(item, inclusive=inclusive)

    def normalized_rank(self, item: Any, *, inclusive: bool = True) -> float:
        """Estimated rank scaled into ``[0, 1]``."""
        return self.rank(item, inclusive=inclusive) / self._n

    def ranks(self, items: Sequence[Any], *, inclusive: bool = True) -> List[int]:
        """Batch rank queries (amortizes the coreset construction)."""
        if self._n == 0:
            raise EmptySketchError("ranks on an empty sketch")
        return self._ensure_coreset().ranks(items, inclusive=inclusive)

    def quantile(self, q: float) -> Any:
        """Item at normalized rank ``q``; ``q=0``/``q=1`` are exact min/max."""
        if self._n == 0:
            raise EmptySketchError("quantile on an empty sketch")
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"quantile fraction must be in [0, 1], got {q}")
        if q <= 0.0:
            return self._min
        if q >= 1.0:
            return self._max
        return self._ensure_coreset().quantile(q)

    def quantiles(self, fractions: Sequence[float]) -> List[Any]:
        """Vector version of :meth:`quantile`."""
        return [self.quantile(q) for q in fractions]

    def cdf(self, split_points: Sequence[Any], *, inclusive: bool = True) -> List[float]:
        """Estimated CDF at the split points (see ``WeightedCoreset.cdf``)."""
        if self._n == 0:
            raise EmptySketchError("cdf on an empty sketch")
        return self._ensure_coreset().cdf(split_points, inclusive=inclusive)

    def pmf(self, split_points: Sequence[Any], *, inclusive: bool = True) -> List[float]:
        """Estimated histogram between split points (see ``WeightedCoreset.pmf``)."""
        if self._n == 0:
            raise EmptySketchError("pmf on an empty sketch")
        return self._ensure_coreset().pmf(split_points, inclusive=inclusive)

    def items_and_weights(self) -> Iterator[Tuple[Any, int]]:
        """Iterate over retained ``(item, weight)`` pairs, ascending."""
        return iter(self._ensure_coreset().pairs())

    def summary(self) -> dict:
        """A monitoring-friendly digest of the sketch's state and estimates.

        Returns a dict with the stream length, space usage, and the common
        operational percentiles (p50/p90/p99/p999) plus min/max.
        """
        if self._n == 0:
            return {"n": 0, "num_retained": 0, "num_levels": 0}
        return {
            "n": self._n,
            "num_retained": self.num_retained,
            "num_levels": self.num_levels,
            "k": self._k,
            "scheme": self.scheme,
            "hra": self.hra,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    # ------------------------------------------------------------------
    # Error bounds
    # ------------------------------------------------------------------

    def error_bound(self, *, delta: Optional[float] = None) -> float:
        """A-priori multiplicative error ``eps`` this sketch targets.

        For the ``theory``/``fixed`` schemes this is the construction-time
        ``eps``; for ``auto`` it is obtained by inverting Eq. (6) at the
        current stream length.
        """
        delta = self.delta if delta is None else delta
        if self.eps is not None:
            return self.eps
        n = max(2, self._n)
        return eps_for_streaming_k(self._k, n, delta)

    def rank_bounds(self, item: Any, *, delta: Optional[float] = None) -> Tuple[int, int]:
        """(lower, upper) bounds on the true rank, from the (1 +/- eps) bound
        (relative to ``n - R`` under HRA; see
        :func:`~repro.core.bounds.rank_interval`)."""
        return rank_interval(self.rank(item), self.error_bound(delta=delta), self._n, hra=self.hra)
