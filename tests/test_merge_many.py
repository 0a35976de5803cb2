"""Tests for k-way merge_many, merge purity, and cross-engine merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FastReqSketch, ReqSketch
from repro.errors import IncompatibleSketchesError


@pytest.fixture(scope="module")
def big_stream():
    return np.random.default_rng(909).random(200_000)


def make_shards(stream, count, *, k=32, hra=False, seed0=100):
    shards = []
    for index, part in enumerate(np.array_split(stream, count)):
        shard = FastReqSketch(k, hra=hra, seed=seed0 + index)
        shard.update_many(part)
        shards.append(shard)
    return shards


class TestMergeMany:
    def test_weight_and_extremes(self, big_stream):
        shards = make_shards(big_stream, 16)
        union = FastReqSketch(32, seed=1)
        union.merge_many(shards)
        assert union.n == big_stream.size
        assert union.rank(float(big_stream.max())) == big_stream.size
        assert union.min_item == float(big_stream.min())
        assert union.max_item == float(big_stream.max())

    def test_empty_inputs_are_noops(self):
        union = FastReqSketch(32, seed=2)
        union.merge_many([])
        assert union.is_empty
        union.merge_many([FastReqSketch(32), FastReqSketch(32)])
        assert union.is_empty

    def test_merge_many_into_nonempty(self, big_stream):
        half = big_stream.size // 2
        union = FastReqSketch(32, seed=3)
        union.update_many(big_stream[:half])
        union.merge_many(make_shards(big_stream[half:], 8))
        assert union.n == big_stream.size
        assert union.rank(float(big_stream.max())) == big_stream.size

    def test_incompatible_input_leaves_target_untouched(self, big_stream):
        union = FastReqSketch(32, seed=4)
        union.update_many(big_stream[:1000])
        n_before = union.n
        good = FastReqSketch(32, seed=5)
        good.update_many(big_stream[1000:2000])
        with pytest.raises(IncompatibleSketchesError):
            union.merge_many([good, FastReqSketch(16, seed=6)])
        assert union.n == n_before  # validation happens before any absorption

    def test_sixteen_shard_union_keeps_relative_error(self, big_stream):
        """Acceptance: a 16-shard union answers at the same eps as a single
        sketch fed the full stream (Theorem 3 mergeability)."""
        union = FastReqSketch(32, seed=7)
        union.merge_many(make_shards(big_stream, 16))
        single = FastReqSketch(32, seed=8)
        single.update_many(big_stream)
        assert union.error_bound() == single.error_bound()
        exact = np.sort(big_stream)
        for fraction in (0.0005, 0.001, 0.01, 0.1, 0.5):
            y = float(exact[int(fraction * exact.size)])
            true = int(np.searchsorted(exact, y, side="right"))
            assert abs(union.rank(y) - true) / true < 0.05

    def test_sixteen_shard_union_hra_tail(self, big_stream):
        union = FastReqSketch(32, hra=True, seed=9)
        union.merge_many(make_shards(big_stream, 16, hra=True))
        exact = np.sort(big_stream)
        n = exact.size
        for back in (2, 20, 200):
            y = float(exact[n - back])
            true = int(np.searchsorted(exact, y, side="right"))
            assert abs(union.rank(y) - true) <= 0.05 * (n - true + 1) + 1

    def test_matches_pairwise_fold_error_class(self, big_stream):
        shards = make_shards(big_stream, 16)
        kway = FastReqSketch(32, seed=10)
        kway.merge_many(shards)
        fold = FastReqSketch(32, seed=10)
        for shard in shards:
            fold.merge(shard)
        assert kway.n == fold.n
        exact = np.sort(big_stream)
        y = float(exact[2000])
        true = int(np.searchsorted(exact, y, side="right"))
        for union in (kway, fold):
            assert abs(union.rank(y) - true) / true < 0.05

    def test_schedule_states_are_ored(self, big_stream):
        shards = make_shards(big_stream, 4)
        union = FastReqSketch(32, seed=11)
        union.merge_many(shards)
        for height, level in enumerate(union._levels):
            expected = 0
            for shard in shards:
                if height < len(shard._levels):
                    expected |= shard._levels[height].schedule.state
            # The level's state starts at the OR of the inputs (Fact 18) and
            # post-merge compactions only increment it, so it never drops
            # below the OR.
            assert level.schedule.state >= expected

    def test_schedule_states_are_exactly_ored_before_compaction(self, big_stream):
        """With the post-merge compaction held back, every level's state is
        exactly the OR of its inputs; zero-state donors (a staged-only
        sketch, a level never compacted) leave it as it was."""
        staged_only = FastReqSketch(32, seed=13)
        staged_only.update_many(big_stream[:10])
        shards = make_shards(big_stream, 4) + [staged_only]
        union = FastReqSketch(32, seed=11)
        union._compress = lambda: None  # observe the merged states as-is
        union.merge_many(shards)
        assert any(level.schedule.state for level in union._levels)
        for height, level in enumerate(union._levels):
            expected = 0
            for shard in shards:
                if height < len(shard._levels):
                    expected |= shard._levels[height].schedule.state
            assert level.schedule.state == expected

    def test_returns_self_for_chaining(self, big_stream):
        union = FastReqSketch(32, seed=12)
        assert union.merge_many(make_shards(big_stream[:1000], 2)) is union


class TestMergePurity:
    """merge/merge_many must leave donors byte-for-byte untouched."""

    def test_donor_staging_buffer_not_drained(self):
        target = FastReqSketch(16, seed=20)
        donor = FastReqSketch(16, seed=21)
        for value in (3.0, 1.0, 2.0):
            donor.update(value)
        assert donor._stage.count == 3
        assert donor.num_levels == 0
        target.merge(donor)
        # Donor structure unchanged: still staged, no levels materialized.
        assert donor._stage.count == 3
        assert donor.num_levels == 0
        assert donor.n == 3
        # And the merged target saw every staged item.
        assert target.n == 3
        assert target.rank(3.0) == 3

    def test_donor_levels_and_versions_unchanged(self, big_stream):
        donor = FastReqSketch(32, seed=22)
        donor.update_many(big_stream[:50_000])
        donor.flush()
        versions = [level.version for level in donor._levels]
        states = [level.schedule.state for level in donor._levels]
        sizes = [level.size for level in donor._levels]
        target = FastReqSketch(32, seed=23)
        target.merge(donor)
        assert [level.version for level in donor._levels] == versions
        assert [level.schedule.state for level in donor._levels] == states
        assert [level.size for level in donor._levels] == sizes

    def test_donor_queries_identical_after_merge(self, big_stream):
        donor = FastReqSketch(32, seed=24)
        donor.update_many(big_stream[:50_000])
        queries = np.linspace(0.0, 1.0, 41)
        before = donor.ranks(queries).copy()
        FastReqSketch(32, seed=25).merge(donor)
        assert np.array_equal(donor.ranks(queries), before)

    def test_merge_many_donors_continue_ingesting(self, big_stream):
        """Shards keep working after being unioned (the monitor pattern)."""
        shards = make_shards(big_stream[:100_000], 4)
        union = FastReqSketch(32, seed=26)
        union.merge_many(shards)
        for shard, part in zip(shards, np.array_split(big_stream[100_000:], 4)):
            shard.update_many(part)
        union2 = FastReqSketch(32, seed=27)
        union2.merge_many(shards)
        assert union2.n == big_stream.size


class TestCrossEngineMerge:
    def test_fast_absorbs_reference(self, big_stream):
        ref = ReqSketch(32, seed=30)
        ref.update_many(big_stream[:30_000].tolist())
        fast = FastReqSketch(32, seed=31)
        fast.update_many(big_stream[30_000:60_000])
        fast.merge(ref)
        assert fast.n == 60_000
        assert fast.rank(float(big_stream[:60_000].max())) == 60_000
        # Reference donor untouched.
        assert ref.n == 30_000

    def test_mixed_fleet_merge_many(self, big_stream):
        """A fleet mixing both engines aggregates through one call."""
        parts = np.array_split(big_stream, 8)
        fleet = []
        for index, part in enumerate(parts):
            if index % 2:
                shard = ReqSketch(32, seed=40 + index)
                shard.update_many(part.tolist())
            else:
                shard = FastReqSketch(32, seed=40 + index)
                shard.update_many(part)
            fleet.append(shard)
        union = FastReqSketch(32, seed=39)
        union.merge_many(fleet)
        assert union.n == big_stream.size
        exact = np.sort(big_stream)
        y = float(exact[2000])
        true = int(np.searchsorted(exact, y, side="right"))
        assert abs(union.rank(y) - true) / true < 0.05

    def test_reference_k_mismatch_rejected(self):
        ref = ReqSketch(16, seed=50)
        ref.update(1.0)
        with pytest.raises(IncompatibleSketchesError):
            FastReqSketch(32).merge(ref)

    def test_reference_hra_mismatch_rejected(self):
        ref = ReqSketch(32, hra=True, seed=51)
        ref.update(1.0)
        with pytest.raises(IncompatibleSketchesError):
            FastReqSketch(32).merge(ref)

    def test_theory_scheme_donor_rejected(self):
        """The fast engine has no parameter ladder; absorbing a theory-scheme
        sketch would silently drop its eps guarantee."""
        theory = ReqSketch(eps=0.2, delta=0.2, seed=54)
        theory.update_many(range(1000))
        with pytest.raises(IncompatibleSketchesError, match="theory"):
            FastReqSketch(theory.k).merge(theory)

    def test_reference_non_numeric_items_rejected(self):
        ref = ReqSketch(32, seed=52)
        ref.update_many(["a", "b", "c"])
        with pytest.raises(IncompatibleSketchesError):
            FastReqSketch(32).merge(ref)

    def test_non_sketch_rejected(self):
        with pytest.raises(IncompatibleSketchesError):
            FastReqSketch(32).merge(object())

    def test_empty_reference_is_noop(self):
        fast = FastReqSketch(32, seed=53)
        fast.update(1.0)
        fast.merge(ReqSketch(32))
        assert fast.n == 1
