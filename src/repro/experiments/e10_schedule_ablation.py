"""E10 — Ablation of the compaction schedule.

Paper claim (Section 2.1): "If we were to set ``L = B/2`` for all
compaction operations, then analyzing the worst-case behavior reveals that
we need ``k ~ 1/eps^2`` ... To achieve the linear dependency on ``1/eps``,
we choose the parameter ``L`` via a derandomized exponential distribution."

We swap the schedule out while keeping everything else identical:

* ``paper`` — ``L = (z(C)+1) k`` (the real algorithm),
* ``half``  — ``L = B/2`` every time (the strawman the paper rejects),
* ``single`` — ``L = k`` every time (the opposite extreme: minimal
  compactions, so the buffer's high sections churn constantly),
* ``random`` — ``L`` a uniformly random multiple of ``k`` up to ``B/2``
  (the naive randomization the derandomized schedule replaces).

For each schedule and each ``k`` we measure the max relative error at low
ranks.  Expected shape: at equal ``k``, ``paper`` is at least as accurate
as ``half``; as ``k`` doubles, ``paper``'s error shrinks ~linearly in
``1/k`` while ``half``'s shrinks more slowly (its requirement is
``k ~ eps^-2``, i.e. ``eps ~ 1/sqrt(k)``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import ReqSketch
from repro.core.compactor import RelativeCompactor
from repro.evaluation import RankOracle, Table, evaluate_sketch
from repro.experiments.common import ExperimentMeta, mean, scaled
from repro.streams import shuffled, uniform

__all__ = ["META", "run", "make_ablated_sketch", "SCHEDULE_VARIANTS"]

META = ExperimentMeta(
    experiment_id="E10",
    title="Compaction-schedule ablation",
    paper_claim="Section 2.1: fixed L=B/2 needs k ~ eps^-2; the schedule gives k ~ eps^-1",
    expectation="error ~ 1/k for the paper schedule, ~1/sqrt(k) for fixed-half",
)


class _HalfCompactor(RelativeCompactor):
    """Ablation: always compact the top half (the strawman schedule)."""

    def scheduled_protect_count(self, capacity: int) -> int:
        return capacity // 2


class _SingleSectionCompactor(RelativeCompactor):
    """Ablation: always compact exactly one section."""

    def scheduled_protect_count(self, capacity: int) -> int:
        return max(capacity // 2, capacity - self.k)


class _RandomCompactor(RelativeCompactor):
    """Ablation: compact a uniformly random number of sections."""

    def scheduled_protect_count(self, capacity: int) -> int:
        max_sections = max(1, (capacity // 2) // self.k)
        sections = 1 + (self._rng.randrange(max_sections) if max_sections > 1 else 0)
        return max(capacity // 2, capacity - sections * self.k)


SCHEDULE_VARIANTS: Dict[str, type] = {
    "paper": RelativeCompactor,
    "half": _HalfCompactor,
    "single": _SingleSectionCompactor,
    "random": _RandomCompactor,
}


def make_ablated_sketch(variant: str, k: int, seed: int) -> ReqSketch:
    """A ReqSketch whose compactors use the named schedule variant."""
    compactor_cls = SCHEDULE_VARIANTS[variant]
    sketch = ReqSketch(k, seed=seed)

    def new_compactor() -> RelativeCompactor:
        return compactor_cls(
            sketch._k, hra=sketch.hra, rng=sketch._rng, coin_mode=sketch._coin_mode
        )

    sketch._new_compactor = new_compactor  # type: ignore[method-assign]
    return sketch


LOW_FRACTIONS = (0.001, 0.005, 0.01, 0.05, 0.1)
K_GRID = (8, 16, 32, 64)


def run(scale: str = "default") -> List[Table]:
    """Run E10 and return the error-vs-k table per schedule variant."""
    n = scaled(200_000, scale, minimum=30_000)
    trials = scaled(8, scale, minimum=2)
    data = shuffled(uniform(n, seed=1010), seed=4)
    oracle = RankOracle(data)
    queries = oracle.query_points(LOW_FRACTIONS)

    table = Table(
        f"E10: max relative error at low ranks vs k (n={n}, mean of {trials} trials)",
        ["k"] + list(SCHEDULE_VARIANTS),
    )
    errors_by_variant: Dict[str, List[float]] = {name: [] for name in SCHEDULE_VARIANTS}
    for k in K_GRID:
        row = [k]
        for variant in SCHEDULE_VARIANTS:
            trial_errors = []
            for trial in range(trials):
                sketch = make_ablated_sketch(variant, k, seed=8000 + 13 * trial)
                sketch.update_many(data)
                profile = evaluate_sketch(sketch, oracle, queries, name=variant)
                trial_errors.append(profile.max_relative)
            err = mean(trial_errors)
            errors_by_variant[variant].append(err)
            row.append(err)
        table.add_row(*row)

    decay = Table(
        "E10: error decay per k-doubling (ratio err(k)/err(2k); 2.0 = linear in 1/k)",
        ["k -> 2k"] + list(SCHEDULE_VARIANTS),
    )
    for index in range(len(K_GRID) - 1):
        row = [f"{K_GRID[index]} -> {K_GRID[index + 1]}"]
        for variant in SCHEDULE_VARIANTS:
            errors = errors_by_variant[variant]
            ratio = errors[index] / errors[index + 1] if errors[index + 1] > 0 else float("inf")
            row.append(ratio)
        decay.add_row(*row)
    return [table, decay]


def main() -> None:  # pragma: no cover - exercised via the CLI
    for table in run():
        table.print()


if __name__ == "__main__":  # pragma: no cover
    main()
