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
        data = alm.CriterionData(grad_norm=0.0, x_norm=5.0, z_norm=3.0, w_norm=2.0, dz_norm=1.0)
        assert alm.criterion_A(data, eps_k=0.1, sigma=1.0)
        assert alm.criterion_B(data, eta_k=0.1, sigma=1.0)

    def test_b_with_stalled_multiplier_requires_zero_gradient(self):
        data = alm.CriterionData(grad_norm=1e-12, x_norm=1.0, z_norm=1.0, w_norm=1.0, dz_norm=0.0)
        assert not alm.criterion_B(data, eta_k=0.5, sigma=1.0)

    def test_bound_sequence_summable(self, small_synth):
        train, _, _ = small_synth
        cfg = alm.AlmConfig(kkt_tol=1e-8)
        sol = alm.solve(train, Hyperparams(C=1.0, tau=1.0), cfg)
        # geometric eps_k makes the per-iteration bounds summable
        bounds = [cfg.eps0 * cfg.eps_ratio**k for k in range(sol.report.n_outer)]
        assert sum(bounds) < 2 * cfg.eps0 / (1 - cfg.eps_ratio)

    def test_criterion_modes_accepted(self, rng):
        ds = random_dataset(rng, 60, 3, 3)
        for mode in ("A", "B", "both"):
            cfg = alm.AlmConfig(kkt_tol=1e-7, criterion=mode)
            sol = alm.solve(ds, Hyperparams(C=0.5, tau=0.5), cfg)
            assert sol.report.converged, mode
            assert sol.report.eta_kkt <= 1e-7

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            alm.AlmConfig(criterion="C")


class TestSigmaUpdate:
    def test_fast_decrease_holds_sigma(self):
        cfg = alm.AlmConfig()
        assert alm.sigma_update(2.0, cfg, feas_prev=1.0, feas_new=0.4) == 2.0

    def test_stagnation_grows_sigma(self):
        cfg = alm.AlmConfig(sigma_growth=5.0)
        assert alm.sigma_update(2.0, cfg, feas_prev=1.0, feas_new=0.9) == 10.0

    def test_growth_capped(self):
        cfg = alm.AlmConfig(sigma_growth=5.0, sigma_max=8.0)
        s = 2.0
        for _ in range(5):
            s = alm.sigma_update(s, cfg, feas_prev=1.0, feas_new=1.0)
        assert s == 8.0

    def test_first_iteration_holds(self):
        cfg = alm.AlmConfig()
        assert alm.sigma_update(3.0, cfg, feas_prev=None, feas_new=1.0) == 3.0


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
        omega = -lam - sigma * (apply_A(ds, res.W) + res.b * ds.labels - 1.0)
        step2 = lam + sigma * (apply_A(ds, res.W) + res.b * ds.labels + res.v - 1.0)
        np.testing.assert_allclose(res.lam_new, -np.clip(omega, 0, hyper.C), atol=1e-13)
        np.testing.assert_allclose(step2, res.lam_new, atol=1e-10)
        # Lambda update identity: Lam + sigma (W - U) = projection part of Xk
        step2_Lam = Lam + sigma * (res.W - res.U)
        np.testing.assert_allclose(step2_Lam, res.Lam_new, atol=1e-10)


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
        cfg = alm.AlmConfig(kkt_tol=1e-14, reference_obj=ref.report.objective, relobj_tol=1e-5)
        sol = alm.solve(train, hyper, cfg)
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
    def test_every_attempt_has_a_row(self, small_synth):
        # a two-step Newton budget makes subproblems fail and get retried
        train, _, _ = small_synth
        cfg = alm.AlmConfig(kkt_tol=1e-3, retry_limit=1, sncg=sncg.SncgConfig(max_newton_iter=2))
        rep = alm.solve(train, Hyperparams(C=1.0, tau=1.0), cfg).report
        assert len(rep.history) == rep.n_outer
        assert [row["outer"] for row in rep.history] == list(range(1, rep.n_outer + 1))
        retried = [row["outer"] for row in rep.history if not row["accepted"]]
        assert retried
        assert retried == [int(f.split("@")[1]) for f in rep.flags if f.startswith("subproblem-retry@")]
        for row in rep.history:
            assert row["stop_reason"] and row["cg_iters"] >= 0
            assert ("eta_kkt" in row) == row["accepted"]

    def test_accepted_failure_is_never_converged(self, small_synth):
        train, _, _ = small_synth
        cfg = alm.AlmConfig(kkt_tol=1e-3, retry_limit=0, sncg=sncg.SncgConfig(max_newton_iter=2))
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
