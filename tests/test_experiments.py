"""Tests for the experiment suite: each runs at smoke scale and its
headline *shape* assertion (the claim in each experiment module's
docstring) holds.

Module-scoped fixtures cache one smoke run per experiment so the suite
stays fast.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.experiments import EXPERIMENTS, experiment_ids, get_experiment, run_experiment
from repro.experiments.common import scale_factor, scaled
from repro.experiments.run_all import render_report


@pytest.fixture(scope="module")
def smoke_results():
    cache = {}

    def run(eid):
        if eid not in cache:
            cache[eid] = EXPERIMENTS[eid].run(scale="smoke")
        return cache[eid]

    return run


class TestRegistry:
    def test_all_twelve_registered(self):
        assert experiment_ids() == [f"E{i}" for i in range(1, 13)]

    def test_lookup_case_insensitive(self):
        assert get_experiment("e3").META.experiment_id == "E3"

    def test_unknown_experiment(self):
        with pytest.raises(InvalidParameterError):
            get_experiment("E99")

    def test_metas_complete(self):
        for module in EXPERIMENTS.values():
            meta = module.META
            assert meta.title and meta.paper_claim and meta.expectation

    def test_run_experiment_helper(self):
        tables = run_experiment("E3", scale="smoke")
        assert tables and all(len(t) > 0 for t in tables)


class TestScales:
    def test_scale_factors_ordered(self):
        assert scale_factor("smoke") < scale_factor("default") < scale_factor("full")

    def test_scaled_minimum(self):
        assert scaled(10, "smoke", minimum=7) == 7

    def test_bad_scale(self):
        with pytest.raises(InvalidParameterError):
            scale_factor("huge")


class TestShapes:
    """One headline assertion per experiment (loose, seed-stable)."""

    def test_e1_additive_sketches_lose_at_low_ranks(self, smoke_results):
        low_table = smoke_results("E1")[0]
        req_err = low_table.column_floats("req")[0]
        kll_err = low_table.column_floats("kll")[0]
        assert kll_err > max(10 * req_err, 0.3)

    def test_e2_growth_exponents_ordered(self, smoke_results):
        fit = smoke_results("E2")[1]
        exponents = dict(zip(fit.column("sketch"), fit.column_floats("exponent")))
        # KLL is n-independent; the Theorem-1 regime grows polylog; the
        # deterministic variant grows fastest (log^3 class).
        assert exponents["kll(k=200)"] < exponents["req-thm1"]
        if "req-determ" in exponents:
            assert exponents["req-thm1"] < exponents["req-determ"]
        # Sanity: the fitter recovers the formula row's exact 1.5.
        assert exponents["thm1-formula"] == pytest.approx(1.5, abs=0.05)

    def test_e3_req_linear_hier_quadratic(self, smoke_results):
        table = smoke_results("E3")[0]
        req_scaled = table.column_floats("req_items*eps")
        hier_scaled = table.column_floats("hier_items*eps^2")
        # Each normalized column varies by < 4x across the eps grid while
        # the raw counts vary by ~8-16x.
        assert max(req_scaled) / min(req_scaled) < 4
        assert max(hier_scaled) / min(hier_scaled) < 4

    def test_e4_failure_rate_below_target(self, smoke_results):
        table = smoke_results("E4")[0]
        rates = table.column_floats("fail_rate")
        targets = table.column_floats("target_3delta")
        assert all(rate <= target for rate, target in zip(rates, targets))

    def test_e5_no_shape_blows_up(self, smoke_results):
        table = smoke_results("E5")[0]
        errors = table.column_floats("max_rel_err")
        assert max(errors) < 0.25

    def test_e6_unknown_n_space_bounded(self, smoke_results):
        table = smoke_results("E6")[0]
        ratios = table.column("space_ratio")
        numeric = [float(r) for r in ratios if r != "1"]
        assert all(ratio < 12 for ratio in numeric)

    def test_e7_req_stable_across_orders(self, smoke_results):
        table = smoke_results("E7")[0]
        req_errors = table.column_floats("req_k32")
        assert max(req_errors) < 0.1

    def test_e8_req_beats_kll_at_tail(self, smoke_results):
        rank_table = smoke_results("E8")[0]
        req = rank_table.column_floats("req-hra(k=32)")
        kll = rank_table.column_floats("kll(k=200)")
        # Compare at the last percentile row (p99.95), excluding the
        # retained-items footer row.
        assert req[-2] <= kll[-2] + 1e-9

    def test_e9_deterministic_never_violates(self, smoke_results):
        determ = smoke_results("E9")[1]
        assert all(flag == "no" for flag in determ.column("violates_eps"))

    def test_e10_paper_schedule_beats_half_at_small_ranks(self, smoke_results):
        table = smoke_results("E10")[0]
        paper = table.column_floats("paper")
        half = table.column_floats("half")
        # Averaged over the k grid the paper schedule is more accurate.
        assert sum(paper) <= sum(half)

    def test_e11_inflated_k_larger(self, smoke_results):
        table = smoke_results("E11")[0]
        ks = table.column_floats("k")
        assert ks[1] > ks[0]

    def test_e12_offline_always_reconstructs(self, smoke_results):
        table = smoke_results("E12")[0]
        for cell in table.column("offline_ok"):
            done, total = cell.split("/")
            assert done == total
        for cell in table.column("exact_ok"):
            done, total = cell.split("/")
            assert done == total


class TestReport:
    def test_render_report_subset(self):
        report = render_report("smoke", only=["E3"])
        assert "## E3" in report
        assert "| eps |" in report
