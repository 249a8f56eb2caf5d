import numpy as np
import pytest

import smmsolve
from smmsolve import admm, alm, cli, problem, sieving, sncg
from smmsolve import data as sdata
from smmsolve.problem import (
    Dataset,
    DualPoint,
    Hyperparams,
    PrimalPoint,
    apply_A,
    classify_samples,
    kkt_residual,
)

from conftest import random_dataset


def toy_margin_dataset(n=100, seed=0):
    """1-column features around a shared direction; near-separable."""
    train, _, _ = sdata.gen_synthetic(
        sdata.SynthSpec(n=max(n + 25, int(n / 0.8)), p=2, q=1, r=1, seed=seed, noise_delta=2e-4)
    )
    return train


class TestCriteria:
    def test_zero_gradient_satisfies_both(self):
        assert alm.criterion_A(0.0, 5.0, 3.0, 2.0, 1.0, eps_k=0.1, sigma=1.0)

    def test_bound_sequence_summable(self, small_synth):
        train, _, _ = small_synth
        cfg = alm.AlmConfig(kkt_tol=1e-8)
        sol = alm.solve(train, Hyperparams(C=1.0, tau=1.0), cfg)
        # geometric eps_k makes the per-iteration bounds summable
        bounds = [alm.EPS0 * alm.EPS_RATIO**k for k in range(sol.report.n_outer)]
        assert sum(bounds) < 2 * alm.EPS0 / (1 - alm.EPS_RATIO)


class TestSigmaUpdate:
    def test_fast_decrease_holds_sigma(self):
        assert alm.sigma_update(2.0, feas_prev=1.0, feas_new=0.4) == 2.0

    def test_stagnation_grows_sigma(self):
        assert alm.sigma_update(2.0, feas_prev=1.0, feas_new=0.9) == 2.0 * alm.SIGMA_GROWTH

    def test_growth_capped(self, monkeypatch):
        monkeypatch.setattr(alm, "SIGMA_MAX", 8.0)
        s = 2.0
        for _ in range(5):
            s = alm.sigma_update(s, feas_prev=1.0, feas_new=1.0)
        assert s == 8.0

    def test_first_iteration_holds(self):
        assert alm.sigma_update(3.0, feas_prev=None, feas_new=1.0) == 3.0

    def test_growth_never_lowers_sigma(self):
        assert alm.sigma_update(2e6, feas_prev=1.0, feas_new=0.9) == 2e6
        assert alm.sigma_update(1e6, feas_prev=1.0, feas_new=0.9) == 1e6

    def test_retry_at_the_cap_keeps_sigma(self, small_synth, monkeypatch):
        # a two-step Newton budget makes subproblems fail and get retried
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=1.0)
        cap = alm.resolve_sigma0(train, hyper)
        monkeypatch.setattr(alm, "SIGMA_MAX", cap)  # the start is at the cap
        monkeypatch.setattr(alm, "RETRY_LIMIT", 2)
        cfg = alm.AlmConfig(kkt_tol=1e-3, sncg=sncg.SncgConfig(max_newton_iter=2))
        rep = alm.solve(train, hyper, cfg).report
        assert any(f.startswith("subproblem-retry@") for f in rep.flags)
        assert [row["sigma"] for row in rep.history] == [cap] * rep.n_outer


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kkt_tol": 0.0},
            {"kkt_tol": -1e-6},
            {"kkt_tol": np.nan},
            {"relobj_tol": 0.0},
            {"max_outer_iter": -1},
        ],
        ids=["kkt_tol=0", "kkt_tol<0", "kkt_tol=nan", "relobj_tol=0", "max_outer_iter<0"],
    )
    def test_unreachable_stop_rule_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            alm.AlmConfig(**kwargs)

    def test_zero_budget_accepted(self):
        assert alm.AlmConfig(max_outer_iter=0).max_outer_iter == 0


class TestInitialPenalty:
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("C", [0.05, 1.0])
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 10.0])
    def test_resolved_sigma0_follows_the_rule(self, small_synth, scale, C, tau):
        train, _, _ = small_synth
        ds = Dataset(train.features * scale, train.labels)
        m = np.mean(np.sum(ds.flat_features**2, axis=1))
        data_rule = 1.0 / m if tau == 0 else min(1.0 / m, alm.NUCLEAR_SIGMA0_CAP)
        fixed_rule = min(10.0, max(1.0, 1.0 / C))
        expected = min(alm.SIGMA_MAX, max(fixed_rule, data_rule))
        got = alm.resolve_sigma0(ds, Hyperparams(C=C, tau=tau))
        assert got == pytest.approx(expected, rel=1e-12)
        if scale == 1e-3:  # 1/m is about 6.2e6
            assert got == (alm.SIGMA_MAX if tau == 0 else alm.NUCLEAR_SIGMA0_CAP)
        if scale == 10.0:  # 1/m is about 0.06
            assert got == fixed_rule

    def test_zero_features_keep_the_fixed_rule(self):
        ds = Dataset(np.zeros((4, 2, 3)), np.array([1.0, -1.0, 1.0, -1.0]))
        assert alm.resolve_sigma0(ds, Hyperparams(C=0.5, tau=1.0)) == 2.0

    def test_echo_is_the_first_attempts_sigma(self, small_synth):
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=1.0)
        rep = alm.solve(train, hyper, alm.AlmConfig()).report
        assert rep.config["sigma0_resolved"] == rep.history[0]["sigma"]
        assert rep.history[0]["sigma"] == alm.resolve_sigma0(train, hyper) > 1.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fewer_outer_iterations_than_the_fixed_start(self, seed, monkeypatch):
        # README family, n = 2000 training rows; 1/m is about 6.3 there
        train, _, _ = sdata.gen_synthetic(sdata.SynthSpec(n=2500, p=20, q=20, r=5, seed=seed))
        hyper = Hyperparams(C=1.0, tau=10.0)
        data_rule = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-6)).report
        monkeypatch.setattr(alm, "resolve_sigma0", lambda _ds, _hyper: 1.0)  # fixed rule at C=1
        fixed = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-6)).report
        assert data_rule.converged and fixed.converged
        assert data_rule.history[0]["sigma"] > 6.0
        assert data_rule.n_outer < fixed.n_outer


class TestMultiplierUpdate:
    def test_update_equals_projected_omega(self, rng):
        # lam_{k+1} computed by the scaled-residual formula must coincide
        # with -Pi_box(omega) evaluated at the new iterate
        ds = random_dataset(rng, 40, 4, 4)
        hyper = Hyperparams(C=1.0, tau=0.7)
        sigma = 2.0
        lam = rng.standard_normal(40) * 0.1
        Lam = rng.standard_normal((4, 4)) * 0.1
        ctx = sncg.SubproblemContext(ds, hyper, sigma, lam, Lam)
        res = sncg.solve_subproblem(
            ctx, np.zeros((4, 4)), 0.0, lambda st, i: (st.grad_norm <= 1e-9, "g")
        )
        st = res.state
        omega = -lam - sigma * (apply_A(ds, st.W) + st.b * ds.labels - 1.0)
        step2 = lam + sigma * (apply_A(ds, st.W) + st.b * ds.labels + st.v - 1.0)
        np.testing.assert_allclose(st.lam_new, -np.clip(omega, 0, hyper.C), atol=1e-13)
        np.testing.assert_allclose(step2, st.lam_new, atol=1e-10)
        # Lambda update identity: Lam + sigma (W - U) = projection part of Xk
        step2_Lam = Lam + sigma * (st.W - st.U)
        np.testing.assert_allclose(step2_Lam, st.Lam_new, atol=1e-10)


class TestSolve:
    def test_converges_and_reports_consistently(self, small_synth):
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=1.0)
        sol = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-8))
        rep = sol.report
        assert rep.converged and rep.eta_kkt <= 1e-8
        # report invariant: stored eta equals a recomputation at the point
        re = kkt_residual(train, hyper, sol.primal, sol.dual)
        assert re.eta == pytest.approx(rep.eta_kkt, rel=1e-12, abs=1e-15)

    def test_dual_feasibility_at_convergence(self, small_synth):
        train, _, _ = small_synth
        hyper = Hyperparams(C=2.0, tau=0.5)
        sol = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-8))
        m = -sol.dual.lam
        assert m.min() >= -1e-8 and m.max() <= hyper.C + 1e-8
        spec = np.linalg.svd(sol.dual.Lam, compute_uv=False)[0]
        assert spec <= hyper.tau + 1e-8

    def test_rank_matches_alpha_and_j1_matches_active_set(self, small_synth):
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=5.0)
        sol = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-9))
        s = np.linalg.svd(sol.primal.W, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * s[0]))
        assert rank == sol.report.alpha_size
        cls = classify_samples(sol.dual.lam, hyper.C)
        assert sol.report.j1_size == cls.asm_count

    def test_warm_start_from_given_point(self, small_synth):
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=1.0)
        first = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-9))
        start = alm.StartPoint(
            W=first.primal.W, b=first.primal.b, lam=first.dual.lam, Lam=first.dual.Lam
        )
        again = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-8), init=start)
        assert again.report.n_outer <= 2

    def test_j1_size_after_a_warm_start_that_takes_no_step(self, small_synth):
        # |J1| of the state the last subproblem returned, even when that
        # subproblem starts at its own solution and takes no Newton step
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=1.0)
        first = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-9))
        start = alm.StartPoint(
            W=first.primal.W, b=first.primal.b, lam=first.dual.lam, Lam=first.dual.Lam
        )
        again = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-8), init=start)
        assert again.report.history[-1]["newton_iters"] == 0
        cls = classify_samples(again.dual.lam, hyper.C)
        assert again.report.j1_size == cls.asm_count > 0

    def test_raw_stop_mode(self, rng):
        ds = random_dataset(rng, 80, 3, 4)
        hyper = Hyperparams(C=1.0, tau=0.3)
        sol = alm.solve(ds, hyper, alm.AlmConfig(kkt_tol=1e-6, stop_mode="raw"))
        assert sol.report.converged
        assert max(sol.report.raw_components.values()) <= 1e-6

    def test_tau_zero_runs_without_nuclear_block(self, rng):
        ds = random_dataset(rng, 50, 3, 3)
        sol = alm.solve(ds, Hyperparams(C=1.0, tau=0.0), alm.AlmConfig(kkt_tol=1e-7))
        assert sol.report.converged
        np.testing.assert_array_equal(sol.dual.Lam, 0.0)
        np.testing.assert_allclose(sol.primal.U, sol.primal.W, atol=1e-14)

    def test_relobj_stop(self, small_synth):
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=1.0)
        ref = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-9))
        cfg = alm.AlmConfig(kkt_tol=1e-14, relobj_tol=1e-5)
        sol = alm.solve(train, hyper, cfg, reference_obj=ref.report.objective)
        assert sol.report.converged
        assert sol.report.relobj <= 1e-5


class TestToyMarginBehavior:
    def test_active_support_much_smaller_than_support(self):
        train = toy_margin_dataset(n=100, seed=11)
        sm_counts = []
        for C in (0.1, 0.3, 1.0, 3.0, 10.0):
            sol = alm.solve(train, Hyperparams(C=C, tau=0.1), alm.AlmConfig(kkt_tol=1e-7))
            assert sol.report.converged
            assert sol.report.eta_kkt <= 1e-6
            assert sol.report.asm_count <= sol.report.sm_count
            sm_counts.append(sol.report.sm_count)
        # margin shrinks as the hinge weight grows
        assert all(b <= a for a, b in zip(sm_counts, sm_counts[1:]))


class TestRoundoffAwareTail:
    @pytest.mark.parametrize("tau", [1.0, 10.0])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_feature_scale_needs_no_retry(self, small_synth, scale, tau):
        train, _, _ = small_synth
        ds = Dataset(train.features * scale, train.labels)
        sol = alm.solve(ds, Hyperparams(C=1.0, tau=tau), alm.AlmConfig(kkt_tol=1e-8))
        rep = sol.report
        assert rep.converged and rep.eta_kkt <= 1e-8
        assert not [f for f in rep.flags if f.startswith("subproblem")]
        assert all(row["accepted"] for row in rep.history)


class TestAttemptHistory:
    def test_every_attempt_has_a_row(self, small_synth, monkeypatch):
        # a two-step Newton budget makes subproblems fail and get retried
        train, _, _ = small_synth
        monkeypatch.setattr(alm, "RETRY_LIMIT", 1)
        cfg = alm.AlmConfig(kkt_tol=1e-3, sncg=sncg.SncgConfig(max_newton_iter=2))
        rep = alm.solve(train, Hyperparams(C=1.0, tau=1.0), cfg).report
        assert len(rep.history) == rep.n_outer
        assert [row["outer"] for row in rep.history] == list(range(1, rep.n_outer + 1))
        retried = [row["outer"] for row in rep.history if not row["accepted"]]
        assert retried
        assert retried == [int(f.split("@")[1]) for f in rep.flags if f.startswith("subproblem-retry@")]
        for row in rep.history:
            assert row["stop_reason"] and row["cg_iters"] >= 0
            assert ("eta_kkt" in row) == row["accepted"]

    def test_accepted_failure_is_never_converged(self, small_synth, monkeypatch):
        train, _, _ = small_synth
        monkeypatch.setattr(alm, "RETRY_LIMIT", 0)
        cfg = alm.AlmConfig(kkt_tol=1e-3, sncg=sncg.SncgConfig(max_newton_iter=2))
        rep = alm.solve(train, Hyperparams(C=1.0, tau=1.0), cfg).report
        assert "subproblem-nonconvergence" in rep.flags
        # the KKT target is met, but a failed subproblem was taken on the way
        assert rep.eta_kkt <= 1e-3 and rep.n_outer < cfg.max_outer_iter
        assert not rep.converged


def count_full_passes(monkeypatch):
    """Count A / A* calls and Newton directions, in every module namespace
    that holds the functions."""
    calls = {"passes": 0, "newton": 0}
    for name in ("apply_A", "apply_A_adjoint", "newton_direction"):
        original = getattr(sncg, name)
        key = "newton" if name == "newton_direction" else "passes"

        def counted(*args, _f=original, _k=key, **kwargs):
            calls[_k] += 1
            return _f(*args, **kwargs)

        for mod in (smmsolve, problem, sncg, alm, admm, sieving, cli):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


class TestFullPasses:
    @pytest.mark.parametrize("tau", [1.0, 5.0])
    def test_passes_per_newton_direction(self, small_synth, monkeypatch, tau):
        train, _, _ = small_synth
        calls = count_full_passes(monkeypatch)
        sol = alm.solve(train, Hyperparams(C=1.0, tau=tau), alm.AlmConfig(kkt_tol=1e-6))
        assert sol.report.converged
        assert calls["newton"] > 0
        assert calls["passes"] <= 1.6 * calls["newton"]

    @pytest.mark.parametrize("tau", [1.0, 5.0])
    def test_screened_steps_leave_under_one_pass_per_direction(self, small_synth, monkeypatch, tau):
        # Counted per ALM outer iteration, which makes two full passes for
        # its fresh A W and A* lam; a bound per Newton direction would move
        # with the direct solves, which cut directions but no pass.
        # Measured 3.2 (tau=1) and 3.0 (tau=5) with screened Newton steps;
        # 5.5 and 5.0 when every step runs over all rows.
        train, _, _ = small_synth
        calls = count_full_passes(monkeypatch)
        sol = alm.solve(train, Hyperparams(C=1.0, tau=tau), alm.AlmConfig(kkt_tol=1e-6))
        assert sol.report.converged
        assert calls["passes"] <= 3.5 * sol.report.n_outer

    @pytest.mark.parametrize("tau", [1.0, 5.0])
    def test_reported_eta_is_a_fresh_recompute(self, small_synth, tau):
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=tau)
        sol = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-8))
        fresh = kkt_residual(train, hyper, sol.primal, sol.dual)
        assert sol.report.eta_kkt == fresh.eta
        assert sol.report.raw_components == fresh.raw
        assert sol.report.objective == problem.primal_objective(
            train, hyper, sol.primal.W, sol.primal.b
        )
