import numpy as np
import pytest

from smmsolve import admm, alm
from smmsolve import data as sdata
from smmsolve.problem import Hyperparams, apply_A, classify_samples, kkt_residual



@pytest.fixture(scope="module")
def instance():
    train, test, _ = sdata.gen_synthetic(sdata.SynthSpec(n=400, p=6, q=8, r=3, seed=9))
    hyper = Hyperparams(C=1.0, tau=1.0)
    ref = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-11))
    return train, hyper, ref


@pytest.fixture(scope="module")
def wide_instance():
    # pq = 96 features on 80 training rows: sGS's W solve takes the Woodbury form
    train, _, _ = sdata.gen_synthetic(sdata.SynthSpec(n=100, p=8, q=12, r=2, seed=4))
    hyper = Hyperparams(C=1.0, tau=1.0)
    ref = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-10))
    return train, hyper, ref


class TestIsPadmm:
    def test_fixed_point_with_large_gamma(self, instance, monkeypatch):
        train, hyper, ref = instance
        monkeypatch.setattr(admm, "GAMMA", 1e4)
        cfg = admm.AdmmConfig(max_iter=3, kkt_tol=None, track_history=False)
        sol = admm.solve_ispadmm(train, hyper, cfg, init=(ref.primal, ref.dual))
        assert np.linalg.norm(sol.primal.W - ref.primal.W) <= 1e-8
        assert abs(sol.primal.b - ref.primal.b) <= 1e-8
        assert np.linalg.norm(sol.dual.Lam - ref.dual.Lam) <= 1e-6

    def test_reaches_reference_objective(self, instance):
        train, hyper, ref = instance
        cfg = admm.AdmmConfig(kkt_tol=None, relobj_tol=1e-6)
        sol = admm.solve_ispadmm(train, hyper, cfg, reference_obj=ref.report.objective)
        assert sol.report.converged
        assert sol.report.relobj <= 1e-6

    def test_inner_error_sequence_contract(self, instance):
        train, hyper, ref = instance
        cfg = admm.AdmmConfig(kkt_tol=None, relobj_tol=1e-6)
        sol = admm.solve_ispadmm(train, hyper, cfg, reference_obj=ref.report.objective)
        hist = sol.report.history
        assert hist, "history must be tracked"
        err = sum(h["inner_err_sq"] for h in hist)
        cap = sum(h["inner_err_cap"] for h in hist)
        assert err <= cap
        assert all(h["inner_err_sq"] <= h["inner_err_cap"] for h in hist)

    def test_eta_stop(self, instance):
        train, hyper, _ = instance
        sol = admm.solve_ispadmm(train, hyper, admm.AdmmConfig(kkt_tol=1e-5))
        assert sol.report.converged and sol.report.eta_kkt <= 1e-5


class TestSgsIsPadmm:
    def test_fixed_point_at_kkt_tuple(self, instance):
        train, hyper, ref = instance
        gamma, zeta = 1.0, 1.618
        y = train.labels
        W, b, v, U = ref.primal.W, ref.primal.b, ref.primal.v, ref.primal.U
        lam, Lam = ref.dual.lam, ref.dual.Lam
        # one hand-rolled sweep from the KKT tuple, checking each update is
        # stationary and the multiplier steps vanish
        Aw = apply_A(train, W)
        b_bar = -float(y @ (Aw + v - 1.0 + lam / gamma)) / train.n_samples
        assert b_bar == pytest.approx(b, abs=1e-7)
        from smmsolve import prox as _prox
        v_new = _prox.prox_support_fn(-lam - gamma * (Aw + b * y - 1.0), hyper.C) / gamma
        np.testing.assert_allclose(v_new, v, atol=1e-7)
        U_new = _prox.prox_nuclear(Lam + gamma * W, hyper.tau).Y / gamma
        np.testing.assert_allclose(U_new, U, atol=1e-7)
        r_lam = Aw + b * y + v_new - 1.0
        r_Lam = W - U_new
        assert np.linalg.norm(zeta * gamma * r_lam) <= 1e-6
        assert np.linalg.norm(zeta * gamma * r_Lam) <= 1e-6

    def test_reaches_reference_objective(self, instance):
        train, hyper, ref = instance
        cfg = admm.AdmmConfig(kkt_tol=None, relobj_tol=1e-6)
        sol = admm.solve_sgs_ispadmm(train, hyper, cfg, reference_obj=ref.report.objective)
        assert sol.report.converged
        assert sol.report.relobj <= 1e-6

    def test_reaches_reference_objective_with_more_features_than_samples(self, wide_instance):
        train, hyper, ref = wide_instance
        cfg = admm.AdmmConfig(kkt_tol=None, relobj_tol=1e-6)
        sol = admm.solve_sgs_ispadmm(train, hyper, cfg, reference_obj=ref.report.objective)
        assert sol.report.converged
        assert sol.report.relobj <= 1e-6

    @pytest.mark.parametrize("name", ["instance", "wide_instance"], ids=["pq<=n", "pq>n"])
    def test_w_update_is_exact(self, request, name):
        # one sweep from the origin, where v, U, lam and Lam are zero and
        # b_bar is the mean label: W must solve M w = rhs to roundoff
        train, hyper, _ = request.getfixturevalue(name)
        one = admm.solve_sgs_ispadmm(train, hyper, admm.AdmmConfig(max_iter=1, kkt_tol=None))
        gamma, y = admm.GAMMA, train.labels
        S = train.flat_features * y[:, None]
        assert (S.shape[1] <= S.shape[0]) == (name == "instance")
        rhs = S.T @ (gamma * (1.0 - y.mean() * y))
        M = (1.0 + gamma) * np.eye(S.shape[1]) + gamma * (S.T @ S)
        resid = M @ one.primal.W.ravel() - rhs
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)

    def test_needs_many_more_iterations_than_ispadmm(self, instance):
        train, hyper, ref = instance
        cfg = admm.AdmmConfig(kkt_tol=None, relobj_tol=1e-6, track_history=False)
        isp = admm.solve_ispadmm(train, hyper, cfg, reference_obj=ref.report.objective)
        sgs = admm.solve_sgs_ispadmm(train, hyper, cfg, reference_obj=ref.report.objective)
        assert sgs.report.n_outer > 2 * isp.report.n_outer
        # the Gauss-Seidel sweep is far cheaper per iteration, though
        isp_per = isp.report.wall_time / max(isp.report.n_outer, 1)
        sgs_per = sgs.report.wall_time / max(sgs.report.n_outer, 1)
        assert sgs_per < isp_per

    def test_both_reach_modest_kkt_accuracy(self, instance):
        train, hyper, _ = instance
        cfg = admm.AdmmConfig(kkt_tol=1e-4, track_history=True)
        for run in (admm.solve_ispadmm, admm.solve_sgs_ispadmm):
            sol = run(train, hyper, cfg)
            assert sol.report.converged and sol.report.eta_kkt <= 1e-4
            # running best-so-far residual is nonincreasing
            etas = [h["eta_kkt"] for h in sol.report.history]
            best = np.minimum.accumulate(etas)
            assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))


class TestReport:
    @pytest.mark.parametrize("tau", [1.0, 5.0])
    def test_rank_matches_alpha_and_j1_matches_active_set(self, small_synth, tau):
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=tau)
        sol = admm.solve_ispadmm(train, hyper, admm.AdmmConfig(kkt_tol=1e-8))
        assert sol.report.converged
        s = np.linalg.svd(sol.primal.W, compute_uv=False)
        assert int(np.sum(s > 1e-8 * s[0])) == sol.report.alpha_size
        cls = classify_samples(sol.dual.lam, hyper.C)
        assert sol.report.j1_size == cls.asm_count

    @pytest.mark.parametrize(
        "solver, cfg",
        [
            (run, cfg)
            for cfg in (
                admm.AdmmConfig(kkt_tol=1e-6, track_history=False),
                # nothing reads the per-iteration residual: sGS forms none
                admm.AdmmConfig(kkt_tol=None, relobj_tol=1e-6, track_history=False),
            )
            for run in (admm.solve_ispadmm, admm.solve_sgs_ispadmm)
        ],
        ids=[
            "solve_ispadmm", "solve_sgs_ispadmm", "solve_ispadmm-relobj", "solve_sgs_ispadmm-relobj"
        ],
    )
    def test_reported_eta_is_a_fresh_recompute(self, instance, solver, cfg):
        train, hyper, ref = instance
        sol = solver(train, hyper, cfg, reference_obj=ref.report.objective)
        assert sol.report.converged
        fresh = kkt_residual(train, hyper, sol.primal, sol.dual)
        assert sol.report.eta_kkt == fresh.eta
        assert sol.report.raw_components == fresh.raw

    @pytest.mark.parametrize("solver", [admm.solve_ispadmm, admm.solve_sgs_ispadmm])
    def test_alpha_is_the_rank_of_the_last_nuclear_prox(self, instance, solver):
        # U is the last prox output over gamma: its rank is that prox's k_bar
        train, hyper, _ = instance
        sol = solver(train, hyper, admm.AdmmConfig(kkt_tol=1e-6, track_history=False))
        s = np.linalg.svd(sol.primal.U, compute_uv=False)
        assert sol.report.alpha_size == int(np.sum(s > 1e-12 * s[0])) > 0
        if solver is admm.solve_sgs_ispadmm:
            assert sol.report.j1_size == 0


def _run(solver, train, hyper, budget=None, reference_obj=None, **stop):
    """One solve by ``solver`` ("alm", "ispadmm" or "sgs") with the stop
    settings every config shares, and an iteration budget if given."""
    if solver == "alm":
        cfg = alm.AlmConfig(**stop)
        if budget is not None:
            cfg.max_outer_iter = budget
        return alm.solve(train, hyper, cfg, reference_obj=reference_obj)
    cfg = admm.AdmmConfig(**stop)
    if budget is not None:
        cfg.max_iter = budget
    run = admm.solve_ispadmm if solver == "ispadmm" else admm.solve_sgs_ispadmm
    return run(train, hyper, cfg, reference_obj=reference_obj)


@pytest.mark.parametrize("solver", ["alm", "ispadmm", "sgs"])
class TestSharedStop:
    def test_zero_budget_reports_the_start_point(self, instance, solver):
        train, hyper, _ = instance
        sol = _run(solver, train, hyper, budget=0)
        rep = sol.report
        assert rep.n_outer == 0 and rep.converged is False
        assert rep.eta_kkt == kkt_residual(train, hyper, sol.primal, sol.dual).eta

    def test_relobj_stop(self, instance, solver):
        train, hyper, ref = instance
        sol = _run(
            solver, train, hyper, reference_obj=ref.report.objective, kkt_tol=1e-14, relobj_tol=1e-3
        )
        rep = sol.report
        assert "stopped-on-relobj" in rep.flags
        assert rep.converged and rep.relobj <= 1e-3

    def test_time_limit_stop(self, instance, solver):
        train, hyper, _ = instance
        rep = _run(solver, train, hyper, kkt_tol=1e-14, time_limit=0.0).report
        assert rep.n_outer == 1 and "time-limit" in rep.flags
        assert not rep.converged


class TestMultiplierDirections:
    def test_updates_equal_constraint_residuals(self, instance):
        # one sGS iteration from the origin: multiplier steps must equal
        # zeta*gamma times the constraint residuals at the new blocks
        train, hyper, _ = instance
        cfg1 = admm.AdmmConfig(kkt_tol=None, track_history=True)
        cfg1.max_iter = 1
        one = admm.solve_sgs_ispadmm(train, hyper, cfg1)
        W, b, v, U = one.primal.W, one.primal.b, one.primal.v, one.primal.U
        lam, Lam = one.dual.lam, one.dual.Lam
        gamma, zeta = admm.GAMMA, admm.ZETA
        r_lam = apply_A(train, W) + b * train.labels + v - 1.0
        r_Lam = W - U
        np.testing.assert_allclose(lam, zeta * gamma * r_lam, atol=1e-12)
        np.testing.assert_allclose(Lam, zeta * gamma * r_Lam, atol=1e-12)


class TestWarmStart:
    def test_zero_iterations_is_origin(self, instance):
        train, hyper, _ = instance
        dual, primal = admm.warm_start(train, hyper, 0)
        assert np.all(dual.lam == 0.0) and np.all(dual.Lam == 0.0)
        assert np.all(primal.W == 0.0) and primal.b == 0.0

    def test_returned_v_satisfies_prox_identity(self, instance):
        train, hyper, _ = instance
        dual, primal = admm.warm_start(train, hyper, 3)
        # v was recovered through the box-projection split, so the paired
        # multiplier lies exactly on the subdifferential face
        m = -dual.lam
        assert m.min() >= -1e-12 and m.max() <= hyper.C + 1e-12
        strict_pos = primal.v > 1e-12
        np.testing.assert_allclose(m[strict_pos], hyper.C, atol=1e-10)
        strict_neg = primal.v < -1e-12
        np.testing.assert_allclose(m[strict_neg], 0.0, atol=1e-10)

    def test_warm_start_reduces_alm_outer_iterations(self):
        wins = 0
        trials = 20
        for seed in range(trials):
            train, _, _ = sdata.gen_synthetic(
                sdata.SynthSpec(n=250, p=5, q=6, r=2, seed=100 + seed)
            )
            hyper = Hyperparams(C=1.0, tau=1.0)
            cold = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-6))
            dual, primal = admm.warm_start(train, hyper, 4)
            start = alm.StartPoint(W=primal.W, b=primal.b, lam=dual.lam, Lam=dual.Lam)
            warm = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-6), init=start)
            assert warm.report.converged and cold.report.converged
            if warm.report.n_outer <= cold.report.n_outer:
                wins += 1
        assert wins >= 0.8 * trials


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"kkt_tol": 0.0}, {"kkt_tol": -1e-6}, {"relobj_tol": 0.0}, {"relobj_tol": -1.0},
         {"max_iter": -1}],
        ids=["kkt_tol=0", "kkt_tol<0", "relobj_tol=0", "relobj_tol<0", "max_iter<0"],
    )
    def test_unreachable_stop_rule_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            admm.AdmmConfig(**kwargs)

    def test_disabled_tolerances_accepted(self):
        cfg = admm.AdmmConfig(kkt_tol=None, relobj_tol=None, max_iter=0)
        assert cfg.kkt_tol is None and cfg.relobj_tol is None
