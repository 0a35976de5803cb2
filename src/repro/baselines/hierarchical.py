"""Hierarchical bottom-k sampling — the Zhang et al. [22] class baseline.

The paper's main quantitative comparison in Section 1 is against the
randomized multiplicative-error sketch of Zhang, Lin, Xu, Korn and Wang
(ICDE 2006), which stores ``O(eps^-2 log(eps^2 n))`` items — quadratic in
``1/eps`` where REQ is linear.  We realize this class with a transparent
structure achieving the same space and guarantee mechanism:

* Each item independently receives a geometric *sampling level*
  ``G ~ Geometric(1/2)`` (number of leading coin heads).
* Level ``j`` retains the ``capacity`` lowest-ranked items among those with
  ``G >= j`` — i.e. a bottom-k sample of a rate-``2^-j`` subsample.
* A rank query for ``y`` is answered at the finest level not *saturated* at
  ``y`` (a level is saturated when ``y`` exceeds its largest retained item
  while the level is full): the count of retained items ``<= y`` times
  ``2^j``.

With ``capacity = c / eps^2``, the level answering a query holds
``Theta(eps^-2)`` sampled items below ``y``, and binomial concentration
gives ``(1 +/- eps)`` relative error — the same argument class as [22],
with levels growing as ``log(eps^2 n)``.  The structure is fully mergeable
(concatenate levels, re-prune), which the merge experiments exploit.

In HRA mode the levels keep the *top*-k instead, mirroring
:class:`repro.core.req.ReqSketch`'s accuracy sides.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Any, List, Optional

from repro.baselines.base import QuantileSketch
from repro.errors import IncompatibleSketchesError, InvalidParameterError

__all__ = ["HierarchicalSamplingSketch"]


class _BoundedSample:
    """A bottom-k (or top-k in HRA mode) sample kept as a sorted list."""

    __slots__ = ("capacity", "hra", "items")

    def __init__(self, capacity: int, hra: bool) -> None:
        self.capacity = capacity
        self.hra = hra
        self.items: List[Any] = []

    def offer(self, item: Any) -> None:
        if len(self.items) < self.capacity:
            bisect.insort(self.items, item)
            return
        if self.hra:
            # Keep the largest `capacity` items.
            if self.items[0] < item:
                self.items.pop(0)
                bisect.insort(self.items, item)
        else:
            # Keep the smallest `capacity` items.
            if item < self.items[-1]:
                self.items.pop()
                bisect.insort(self.items, item)

    @property
    def full(self) -> bool:
        return len(self.items) >= self.capacity

    def saturated_at(self, item: Any, inclusive: bool) -> bool:
        """Whether the sample may be missing mass on the queried side."""
        if not self.full:
            return False
        if self.hra:
            boundary = self.items[0]
            return item < boundary or (not inclusive and not boundary < item)
        boundary = self.items[-1]
        return boundary < item or (inclusive and not item < boundary)


class HierarchicalSamplingSketch(QuantileSketch):
    """Multiplicative-error rank sketch with ``O(eps^-2 log(eps^2 n))`` space.

    Args:
        eps: Target relative rank error (sets per-level capacity
            ``ceil(close_constant / eps^2)``).
        capacity: Override the per-level capacity directly (ignores eps).
        hra: Accuracy side — ``False`` (default) is sharp at low ranks,
            ``True`` at high ranks.
        seed: RNG seed for the geometric level draws.
    """

    name = "hier-sampling"

    #: Constant in capacity = ceil(_CAPACITY_CONSTANT / eps^2); 4 keeps the
    #: empirical error comfortably under eps at the 95th percentile.
    _CAPACITY_CONSTANT = 4.0

    def __init__(
        self,
        eps: float = 0.05,
        *,
        capacity: Optional[int] = None,
        hra: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        if capacity is None:
            if not 0.0 < eps <= 1.0:
                raise InvalidParameterError(f"eps must be in (0, 1], got {eps}")
            capacity = max(8, math.ceil(self._CAPACITY_CONSTANT / (eps * eps)))
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self.eps = eps
        self.capacity = capacity
        self.hra = hra
        self._rng = random.Random(seed)
        self._levels: List[_BoundedSample] = [_BoundedSample(capacity, hra)]
        self._n = 0
        self._min: Any = None
        self._max: Any = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_retained(self) -> int:
        return sum(len(level.items) for level in self._levels)

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, item: Any) -> None:
        if isinstance(item, float) and math.isnan(item):
            raise InvalidParameterError("cannot insert NaN: items must form a total order")
        self._n += 1
        if self._min is None or item < self._min:
            self._min = item
        if self._max is None or self._max < item:
            self._max = item
        depth = self._geometric()
        while len(self._levels) <= depth:
            self._levels.append(_BoundedSample(self.capacity, self.hra))
        for level in range(depth + 1):
            self._levels[level].offer(item)

    def _geometric(self) -> int:
        """Number of leading heads: item participates in levels 0..G."""
        # getrandbits is cheap; count trailing zeros of a 64-bit draw.
        bits = self._rng.getrandbits(64)
        if bits == 0:
            return 64
        return (bits & -bits).bit_length() - 1

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> "HierarchicalSamplingSketch":
        """Merge by unioning each level's sample and re-pruning to capacity."""
        if not isinstance(other, HierarchicalSamplingSketch):
            raise IncompatibleSketchesError(
                f"cannot merge HierarchicalSamplingSketch with {type(other).__name__}"
            )
        if other.capacity != self.capacity or other.hra != self.hra:
            raise IncompatibleSketchesError("capacity/hra parameters differ")
        while len(self._levels) < len(other._levels):
            self._levels.append(_BoundedSample(self.capacity, self.hra))
        for index, theirs in enumerate(other._levels):
            ours = self._levels[index]
            combined = sorted(ours.items + theirs.items)
            if self.hra:
                ours.items = combined[-self.capacity :]
            else:
                ours.items = combined[: self.capacity]
        self._n += other._n
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or self._max < other._max):
            self._max = other._max
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def rank(self, item: Any, *, inclusive: bool = True) -> float:
        """Estimated rank from the finest non-saturated level."""
        self._require_nonempty()
        for depth, level in enumerate(self._levels):
            if level.saturated_at(item, inclusive):
                continue
            if inclusive:
                count = bisect.bisect_right(level.items, item)
            else:
                count = bisect.bisect_left(level.items, item)
            if self.hra:
                # The level counts the items *above* accurately; estimate the
                # complementary rank and convert.
                above = len(level.items) - count
                return max(0.0, self._n - above * (1 << depth))
            return min(float(self._n), count * (1 << depth))
        # Every level saturated (possible for adversarially unlucky coins):
        # fall back to the coarsest level's extrapolation.
        level = self._levels[-1]
        depth = len(self._levels) - 1
        count = bisect.bisect_right(level.items, item)
        if self.hra:
            above = len(level.items) - count
            return max(0.0, self._n - above * (1 << depth))
        return min(float(self._n), count * (1 << depth))

    def quantile(self, q: float) -> Any:
        """Item whose estimated normalized rank is approximately ``q``.

        Binary search over the distinct retained items using :meth:`rank`.
        The estimator is monotone within each level and only approximately
        monotone across level switches (steps bounded by the eps noise), so
        the search returns an answer within the same eps class.
        """
        self._require_nonempty()
        self._check_fraction(q)
        if q <= 0.0:
            return self._min
        if q >= 1.0:
            return self._max
        candidates = sorted({item for level in self._levels for item in level.items})
        target = q * self._n
        low, high = 0, len(candidates) - 1
        while low < high:
            mid = (low + high) // 2
            if self.rank(candidates[mid]) < target:
                low = mid + 1
            else:
                high = mid
        return candidates[low]
