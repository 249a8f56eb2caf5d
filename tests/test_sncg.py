from dataclasses import replace

import numpy as np
import pytest

from smmsolve import prox, sncg
from smmsolve.problem import Dataset, Hyperparams, apply_A, apply_A_adjoint

from conftest import random_dataset


def make_context(rng, n=20, p=4, q=5, C=1.0, tau=0.8, sigma=1.5, zero_mult=False):
    ds = random_dataset(rng, n, p, q)
    lam = np.zeros(n) if zero_mult else rng.standard_normal(n) * 0.3
    Lam = np.zeros((p, q)) if zero_mult else rng.standard_normal((p, q)) * 0.2
    return sncg.SubproblemContext(
        dataset=ds, hyper=Hyperparams(C=C, tau=tau), sigma=sigma, lam_k=lam, Lam_k=Lam
    )


def grad_tol_stop(tol):
    def stop(state, _i):
        return state.grad_norm <= tol, f"grad<={tol}"

    return stop


class TestEvalPhi:
    def test_origin_composes_from_envelope_primitives(self, rng):
        ds = random_dataset(rng, 10, 3, 4)
        C = 2.0
        ctx = sncg.SubproblemContext(
            dataset=ds,
            hyper=Hyperparams(C=C, tau=1.0),
            sigma=1.0,
            lam_k=np.zeros(10),
            Lam_k=np.zeros((3, 4)),
        )
        # omega = e_n and the nuclear argument vanishes at the origin
        expected = prox.env_support_fn(np.ones(10), C)
        assert sncg.eval_phi(ctx, np.zeros((3, 4)), 0.0) == pytest.approx(expected)

    def test_convexity_along_random_segments(self, rng):
        ctx = make_context(rng)
        for _ in range(10):
            W1 = rng.standard_normal((4, 5))
            W2 = rng.standard_normal((4, 5))
            b1, b2 = rng.standard_normal(2)
            mid = sncg.eval_phi(ctx, 0.5 * (W1 + W2), 0.5 * (b1 + b2))
            avg = 0.5 * (sncg.eval_phi(ctx, W1, b1) + sncg.eval_phi(ctx, W2, b2))
            assert mid <= avg + 1e-10

    def test_matches_envelope_assembly(self, rng):
        # independent evaluation assembled from prox primitives
        ctx = make_context(rng, n=15, p=3, q=4, sigma=2.3)
        W = rng.standard_normal((3, 4))
        b = 0.7
        ds, sigma = ctx.dataset, ctx.sigma
        omega = -ctx.lam_k - sigma * (apply_A(ds, W) + b * ds.labels - 1.0)
        Xk = ctx.Lam_k + sigma * W
        oracle = (
            0.5 * np.sum(W * W)
            + prox.env_support_fn(omega, ctx.hyper.C) / sigma
            - 0.5 * np.sum(ctx.lam_k**2) / sigma
            + prox.env_nuclear(Xk, ctx.hyper.tau) / sigma
            - 0.5 * np.sum(ctx.Lam_k**2) / sigma
        )
        assert sncg.eval_phi(ctx, W, b) == pytest.approx(oracle, rel=1e-13)


class TestGradPhi:
    def test_hand_composition_at_origin(self, rng):
        # huge tau: the spectral ball swallows the argument, so only the
        # box projection contributes
        ds = random_dataset(rng, 8, 3, 3)
        ctx = sncg.SubproblemContext(
            dataset=ds,
            hyper=Hyperparams(C=1.0, tau=1e9),
            sigma=1.0,
            lam_k=np.zeros(8),
            Lam_k=np.zeros((3, 3)),
        )
        gW, gb = sncg.grad_phi(ctx, np.zeros((3, 3)), 0.0)
        pi = np.clip(np.ones(8), 0, 1.0)
        np.testing.assert_allclose(gW, -apply_A_adjoint(ds, pi), atol=1e-14)
        assert gb == pytest.approx(-float(ds.labels @ pi))

    def test_finite_differences(self, rng):
        # central differences on 20 random contexts
        failures = 0
        for trial in range(20):
            ctx = make_context(
                rng,
                n=50,
                p=5,
                q=4,
                C=float(rng.uniform(0.5, 2.0)),
                tau=float(rng.uniform(0.2, 1.5)),
                sigma=float(rng.uniform(0.5, 3.0)),
            )
            W = rng.standard_normal((5, 4))
            b = float(rng.standard_normal())
            gW, gb = sncg.grad_phi(ctx, W, b)
            h = 1e-6
            fd = np.zeros_like(gW)
            for i in range(5):
                for j in range(4):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    fd[i, j] = (sncg.eval_phi(ctx, Wp, b) - sncg.eval_phi(ctx, Wm, b)) / (2 * h)
            fdb = (sncg.eval_phi(ctx, W, b + h) - sncg.eval_phi(ctx, W, b - h)) / (2 * h)
            num = np.sqrt(np.sum((fd - gW) ** 2) + (fdb - gb) ** 2)
            den = np.sqrt(np.sum(gW**2) + gb**2)
            if num > 1e-5 * max(1.0, den):
                failures += 1
        assert failures == 0

    def test_small_gradient_at_minimizer(self, rng):
        ctx = make_context(rng, n=30, p=3, q=3)
        res = sncg.solve_subproblem(
            ctx, np.zeros((3, 3)), 0.0, grad_tol_stop(1e-9)
        )
        assert res.converged
        gW, gb = sncg.grad_phi(ctx, res.W, res.b)
        assert np.sqrt(np.sum(gW**2) + gb**2) <= 1e-9


def dense_newton_matrix(ctx, state, rho):
    """Assemble the full (pq+1) Newton matrix by columns, as an oracle."""
    ds = ctx.dataset
    p, q, n = ds.p, ds.q, ds.n_samples
    dim = p * q + 1
    M_diag = prox.jac_box_diag(state.omega, ctx.hyper.C)
    jac = (
        prox.build_spectral_jacobian(None, ctx.hyper.tau, svd=state.nuc.svd)
        if state.nuc is not None
        else None
    )
    V = np.zeros((dim, dim))
    for col in range(dim):
        e = np.zeros(dim)
        e[col] = 1.0
        dW = e[: p * q].reshape(p, q)
        db = e[p * q]
        top = ctx.w_weight * dW
        if jac is not None:
            top = top + ctx.sigma * prox.apply_spectral_jacobian(jac, dW, "dense")
        Az = M_diag * (apply_A(ds, dW) + db * ds.labels)
        top = top + ctx.sigma * apply_A_adjoint(ds, Az)
        bot = ctx.sigma * float(ds.labels @ Az) + (ctx.b_weight + rho) * db
        V[: p * q, col] = top.ravel()
        V[p * q, col] = bot
    return V


class TestNewtonDirection:
    def test_matches_dense_solve_on_tiny_instances(self, rng):
        # CG on the reduced system against a dense solve of the full system
        cfg = sncg.SncgConfig()
        for trial in range(10):
            ctx = make_context(
                rng,
                n=6,
                p=3,
                q=3,
                C=float(rng.uniform(0.5, 2.0)),
                tau=float(rng.uniform(0.3, 1.2)),
                sigma=float(rng.uniform(0.5, 2.0)),
            )
            W = rng.standard_normal((3, 3)) * 0.5
            b = float(rng.standard_normal() * 0.2)
            state = sncg.compute_state(ctx, W, b)
            if state.grad_norm == 0:
                continue
            ws = sncg.NewtonWorkspace(ctx, state, cfg)
            d_W, d_b, _, _ = sncg.newton_direction(
                ctx, W, b, ws, tol=1e-12, state=state, cg_max_iter=500
            )
            V = dense_newton_matrix(ctx, state, ws.rho)
            rhs = -np.concatenate([state.grad_W.ravel(), [state.grad_b]])
            direct = np.linalg.solve(V, rhs)
            got = np.concatenate([d_W.ravel(), [d_b]])
            assert np.linalg.norm(got - direct) <= 1e-8 * max(1.0, np.linalg.norm(direct))

    def test_zero_gradient_gives_zero_direction(self, rng):
        ctx = make_context(rng, n=10, p=3, q=3)
        res = sncg.solve_subproblem(ctx, np.zeros((3, 3)), 0.0, grad_tol_stop(1e-12))
        state = res.state
        ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        # force an exactly-zero gradient: rhs = 0 must return d = 0
        state.grad_W = np.zeros_like(state.grad_W)
        state.grad_b = 0.0
        d_W, d_b, iters, _ = sncg.newton_direction(ctx, res.W, res.b, ws, 1e-10, state=state)
        assert np.all(d_W == 0.0) and d_b == 0.0 and iters == 0

    def test_operator_positive_definite_and_selfadjoint(self, rng):
        ctx = make_context(rng, n=25, p=4, q=4)
        W = rng.standard_normal((4, 4))
        state = sncg.compute_state(ctx, W, 0.1)
        ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        for _ in range(100):
            d = rng.standard_normal(16)
            assert d @ ws.apply(d) > 0.0
        for _ in range(20):
            d1, d2 = rng.standard_normal(16), rng.standard_normal(16)
            assert ws.apply(d1) @ d2 == pytest.approx(ws.apply(d2) @ d1, rel=1e-9, abs=1e-12)

    def test_row_buffer_gives_the_same_operator(self, rng):
        ctx = make_context(rng, n=25, p=4, q=4)
        W = rng.standard_normal((4, 4))
        state = sncg.compute_state(ctx, W, 0.1)
        plain = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        buf = np.full(ctx.dataset.flat_features.shape, np.nan)
        gathered = sncg.compute_state(ctx, W, 0.1, rows=buf)
        shared = sncg.NewtonWorkspace(ctx, gathered, sncg.SncgConfig())
        assert 0 < plain.j1.size < 25
        assert np.array_equal(shared.aj, plain.aj)
        assert np.shares_memory(shared.aj, buf)
        d = rng.standard_normal(16)
        assert np.array_equal(shared.apply(d), plain.apply(d))

    def test_empty_j1_degenerates_gracefully(self, rng):
        # multipliers pushing every omega outside [0, C]: the b-block keeps
        # only the damping, mirroring the nondegeneracy characterization
        ds = random_dataset(rng, 10, 3, 3)
        lam = -10.0 * np.ones(10)  # omega = 10 - sigma(...) >> C
        ctx = sncg.SubproblemContext(
            dataset=ds, hyper=Hyperparams(C=1.0, tau=0.5), sigma=1.0,
            lam_k=lam, Lam_k=np.zeros((3, 3)),
        )
        state = sncg.compute_state(ctx, np.zeros((3, 3)), 0.0)
        ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        assert ws.j1.size == 0
        # b-block quadratic form without damping would vanish; with a
        # nonempty J1 it is sigma |J1| > 0
        assert ws.denom == pytest.approx(ws.rho)
        # C = 2: omega = e_n at the origin sits strictly inside (0, C)
        ctx2 = make_context(rng, n=10, p=3, q=3, C=2.0, zero_mult=True)
        state2 = sncg.compute_state(ctx2, np.zeros((3, 3)), 0.0)
        ws2 = sncg.NewtonWorkspace(ctx2, state2, sncg.SncgConfig())
        assert ws2.j1.size > 0
        assert ws2.denom > ws2.rho  # sigma |J1| contribution present
        d_W, d_b, _, _ = sncg.newton_direction(ctx, np.zeros((3, 3)), 0.0, ws, 1e-10, state=state)
        assert np.isfinite(d_b) and np.isfinite(d_W).all()


class TestLineSearch:
    def test_full_step_in_newton_regime(self, rng):
        # near the minimizer the model is locally quadratic and the unit
        # step passes Armijo on the first try
        ctx = make_context(rng, n=20, p=3, q=4)
        warm = sncg.solve_subproblem(ctx, np.zeros((3, 4)), 0.0, grad_tol_stop(1e-5))
        state = sncg.compute_state(ctx, warm.W, warm.b)
        ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        d_W, d_b, _, _ = sncg.newton_direction(ctx, warm.W, warm.b, ws, 1e-12, state=state)
        alpha, evals, _, _, stalled = sncg.line_search(
            ctx, warm.W, warm.b, d_W, d_b, sncg.SncgConfig(), state=state
        )
        assert not stalled and alpha == 1.0 and evals == 1

    def test_oversized_direction_backtracks(self, rng):
        ctx = make_context(rng, n=20, p=3, q=4)
        W = rng.standard_normal((3, 4))
        state = sncg.compute_state(ctx, W, 0.0)
        gW, gb = state.grad_W, state.grad_b
        d_W, d_b = -1e6 * gW, -1e6 * gb
        cfg = sncg.SncgConfig()
        alpha, _, dW_used, db_used, stalled = sncg.line_search(
            ctx, W, 0.0, d_W, d_b, cfg, state=state
        )
        assert not stalled and alpha < 1.0
        g_dot_d = float(np.sum(gW * dW_used) + gb * db_used)
        trial = sncg.eval_phi(ctx, W + alpha * dW_used, 0.0 + alpha * db_used)
        assert trial <= state.phi + cfg.mu * alpha * g_dot_d + 1e-12

    def test_armijo_holds_on_random_instances(self, rng):
        cfg = sncg.SncgConfig()
        for _ in range(10):
            ctx = make_context(rng, n=15, p=3, q=3, tau=float(rng.uniform(0.2, 2.0)))
            W = rng.standard_normal((3, 3))
            b = float(rng.standard_normal())
            state = sncg.compute_state(ctx, W, b)
            ws = sncg.NewtonWorkspace(ctx, state, cfg)
            d_W, d_b, _, _ = sncg.newton_direction(ctx, W, b, ws, 1e-8, state=state)
            alpha, _, dW_used, db_used, stalled = sncg.line_search(
                ctx, W, b, d_W, d_b, cfg, state=state
            )
            assert not stalled
            g_dot_d = float(np.sum(state.grad_W * dW_used) + state.grad_b * db_used)
            trial = sncg.eval_phi(ctx, W + alpha * dW_used, b + alpha * db_used)
            assert trial <= state.phi + cfg.mu * alpha * g_dot_d + 1e-10

    def test_ascent_direction_falls_back_to_steepest_descent(self, rng):
        ctx = make_context(rng, n=12, p=3, q=3)
        W = rng.standard_normal((3, 3))
        state = sncg.compute_state(ctx, W, 0.0)
        alpha, _, dW_used, _, stalled = sncg.line_search(
            ctx, W, 0.0, +state.grad_W, +state.grad_b, sncg.SncgConfig(), state=state
        )
        assert not stalled
        np.testing.assert_array_equal(dW_used, -state.grad_W)


class TestSolveSubproblem:
    def test_warm_start_at_minimizer_stops_immediately(self, rng):
        ctx = make_context(rng, n=25, p=4, q=3)
        first = sncg.solve_subproblem(ctx, np.zeros((4, 3)), 0.0, grad_tol_stop(1e-10))
        again = sncg.solve_subproblem(ctx, first.W, first.b, grad_tol_stop(1e-9))
        assert again.iterations == 0 and again.converged

    def test_monotone_descent(self, rng):
        ctx = make_context(rng, n=40, p=4, q=5)
        res = sncg.solve_subproblem(ctx, rng.standard_normal((4, 5)), 0.5, grad_tol_stop(1e-9))
        vals = res.stats.phi_values
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert res.converged

    def test_recovered_slack_identity(self, rng):
        # v = (omega - clip(omega)) / sigma at the returned iterate
        ctx = make_context(rng, n=18, p=3, q=4, sigma=2.0)
        res = sncg.solve_subproblem(ctx, np.zeros((3, 4)), 0.0, grad_tol_stop(1e-8))
        ds = ctx.dataset
        omega = -ctx.lam_k - ctx.sigma * (apply_A(ds, res.W) + res.b * ds.labels - 1.0)
        v_oracle = (omega - np.clip(omega, 0, ctx.hyper.C)) / ctx.sigma
        np.testing.assert_allclose(res.v, v_oracle, atol=1e-12)
        np.testing.assert_allclose(res.lam_new, -np.clip(omega, 0, ctx.hyper.C), atol=1e-12)

    def test_superlinear_tail(self, rng):
        # gradient norms should collapse fast near the end
        ctx = make_context(rng, n=30, p=4, q=4)
        res = sncg.solve_subproblem(ctx, np.zeros((4, 4)), 0.0, grad_tol_stop(1e-11))
        g = res.stats.grad_norms
        assert res.converged and g[-1] <= 1e-11
        if len(g) >= 3 and g[-2] < 1e-2:
            assert g[-1] <= 0.5 * g[-2]


class TestPreconditioner:
    def test_preconditioned_direction_matches_plain(self, rng):
        ctx = make_context(rng, n=30, p=4, q=4, sigma=3.0)
        W = rng.standard_normal((4, 4))
        state = sncg.compute_state(ctx, W, 0.2)
        plain_ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        pc_ws = sncg.NewtonWorkspace(
            ctx, state, sncg.SncgConfig(use_jacobi_precond=True)
        )
        assert pc_ws.precond is not None and np.all(pc_ws.precond > 0)
        d1, db1, _, r1 = sncg.newton_direction(ctx, W, 0.2, plain_ws, 1e-11, state=state)
        d2, db2, _, r2 = sncg.newton_direction(ctx, W, 0.2, pc_ws, 1e-11, state=state)
        assert r1 <= 1e-11 and r2 <= 1e-11
        np.testing.assert_allclose(d2, d1, atol=1e-9)
        assert db2 == pytest.approx(db1, abs=1e-9)

    def test_solver_converges_with_preconditioning(self, rng):
        ctx = make_context(rng, n=40, p=4, q=5)
        cfg = sncg.SncgConfig(use_jacobi_precond=True)
        res = sncg.solve_subproblem(ctx, np.zeros((4, 5)), 0.0, grad_tol_stop(1e-9), cfg)
        assert res.converged


class TestQuadraticVariant:
    def test_proximal_subproblem_gradient(self, rng):
        # the shifted-quadratic variant used by the ADMM baseline
        ds = random_dataset(rng, 20, 3, 3)
        target = rng.standard_normal((3, 3))
        ctx = sncg.SubproblemContext(
            dataset=ds,
            hyper=Hyperparams(C=1.0, tau=0.0),
            sigma=1.0,
            lam_k=np.zeros(20),
            w_weight=2.5,
            w_target=target,
            b_weight=1e-3,
            b_center=0.4,
        )
        W = rng.standard_normal((3, 3))
        b = 0.1
        gW, gb = sncg.grad_phi(ctx, W, b)
        h = 1e-6
        fdb = (sncg.eval_phi(ctx, W, b + h) - sncg.eval_phi(ctx, W, b - h)) / (2 * h)
        assert gb == pytest.approx(fdb, rel=1e-5, abs=1e-7)
        res = sncg.solve_subproblem(ctx, W, b, grad_tol_stop(1e-10))
        assert res.converged
        # stationarity: a_w (W - T) + A* lam_new = grad at the solution
        resid = 2.5 * (res.W - target) + apply_A_adjoint(ds, res.lam_new)
        assert np.linalg.norm(resid) <= 1e-9


def never_stop(_state, _i):
    return False, "never"


def floor_of(state):
    return sncg.ROUNDOFF_FACTOR * np.finfo(np.float64).eps * state.grad_scale


class TestRoundoffStops:
    """Stops that keep the subproblem finite in float64 (own generators, so
    the shared rng stream of the other tests is left alone)."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_unreachable_target_stops_at_roundoff_floor(self, scale):
        rng = np.random.default_rng(5)
        ctx = make_context(rng, n=30, p=3, q=4)
        ctx.dataset = Dataset(ctx.dataset.features * scale, ctx.dataset.labels)
        res = sncg.solve_subproblem(ctx, np.zeros((3, 4)), 0.0, never_stop)
        assert res.converged and res.stop_reason == "roundoff-floor"
        assert res.iterations < sncg.SncgConfig().max_newton_iter
        assert res.state.grad_norm <= floor_of(res.state)

    def test_stall_at_the_floor_is_not_a_failure(self):
        rng = np.random.default_rng(6)
        ctx = make_context(rng, n=30, p=3, q=4)
        at_floor = sncg.solve_subproblem(ctx, np.zeros((3, 4)), 0.0, never_stop)
        # a single-trial line search stalls on any step Armijo rejects
        cfg = sncg.SncgConfig(ls_max_backtracks=1)
        again = sncg.solve_subproblem(ctx, at_floor.W, at_floor.b, never_stop, cfg)
        assert again.converged and again.stop_reason == "roundoff-floor"
        assert again.iterations == 0

    def test_stall_far_above_the_floor_is_a_failure(self):
        rng = np.random.default_rng(7)
        ctx = make_context(rng, n=30, p=3, q=4)
        cfg = sncg.SncgConfig(ls_max_backtracks=1)
        W0 = 100.0 * rng.standard_normal((3, 4))
        res = sncg.solve_subproblem(ctx, W0, 0.0, never_stop, cfg)
        assert not res.converged and res.stop_reason == "line-search-stall"
        assert res.state.grad_norm > 1e6 * floor_of(res.state)

    def test_flat_phi_takes_the_full_step(self):
        rng = np.random.default_rng(8)
        ctx = make_context(rng, n=20, p=3, q=4)
        W = rng.standard_normal((3, 4))
        state = sncg.compute_state(ctx, W, 0.0)
        g = np.append(state.grad_W.ravel(), state.grad_b)
        u = rng.standard_normal(g.size)
        u -= (u @ g) / (g @ g) * g
        u /= np.linalg.norm(u)
        # a unit direction along which phi only curves up; its descent
        # component is far below roundoff but passes the descent test
        d = u - 1e-9 * g / np.linalg.norm(g)
        flat = sncg.ROUNDOFF_FACTOR * np.finfo(np.float64).eps * state.phi_scale
        cfg = sncg.SncgConfig()
        chosen = None
        for t in np.logspace(-4, -12, 81):
            step = t * d
            change = sncg.eval_phi(ctx, W + step[:-1].reshape(3, 4), step[-1]) - state.phi
            if 0.25 * flat < change <= 0.5 * flat:
                chosen = step
                break
        assert chosen is not None
        d_W, d_b = chosen[:-1].reshape(3, 4), float(chosen[-1])
        alpha, evals, _, _, stalled = sncg.line_search(ctx, W, 0.0, d_W, d_b, cfg, state=state)
        assert (alpha, evals, stalled) == (1.0, 1, False)
        # a step that changes phi by far more than roundoff still backtracks
        alpha, _, _, _, stalled = sncg.line_search(
            ctx, W, 0.0, 1e3 * d_W, 1e3 * d_b, cfg, state=state
        )
        assert alpha < 1.0 and not stalled


class TestIncrementalProducts:
    """A W carried through the steps and A* pi updated over changed rows
    (own generators, so the shared rng stream of the other tests is left
    alone)."""

    @staticmethod
    def count_passes(monkeypatch):
        calls = {"A": 0, "At": 0}

        def counted_A(ds, W):
            calls["A"] += 1
            return apply_A(ds, W)

        def counted_At(ds, z):
            calls["At"] += 1
            return apply_A_adjoint(ds, z)

        monkeypatch.setattr(sncg, "apply_A", counted_A)
        monkeypatch.setattr(sncg, "apply_A_adjoint", counted_At)
        return calls

    @staticmethod
    def adjoint_error(ctx, state):
        fresh = apply_A_adjoint(ctx.dataset, state.pi_omega).ravel()
        split = state.split
        return np.linalg.norm(split.j1_part + ctx.hyper.C * split.g - fresh)

    def test_carried_AW_stays_within_roundoff(self, monkeypatch):
        rng = np.random.default_rng(11)
        ctx = make_context(rng, n=200, p=4, q=5)
        ds = ctx.dataset
        W0 = rng.standard_normal((4, 5))
        AW0 = apply_A(ds, W0)
        calls = self.count_passes(monkeypatch)
        res = sncg.solve_subproblem(ctx, W0, 0.3, never_stop, AW0=AW0)
        assert res.converged and res.iterations >= 3
        # one A d per line search and no A W of its own
        assert calls["A"] == res.iterations
        size = ds.row_norms * np.sqrt(np.sum(res.W * res.W) + res.b**2)
        drift = np.abs(res.state.AW - apply_A(ds, res.W))
        assert np.all(drift <= sncg.ROUNDOFF_FACTOR * np.finfo(np.float64).eps * size)

    def test_incremental_adjoint_within_floor(self, monkeypatch):
        rng = np.random.default_rng(12)
        ctx = make_context(rng, n=400, p=4, q=5)
        rows = np.empty(ctx.dataset.flat_features.shape)
        W0 = rng.standard_normal((4, 5))
        first = sncg.compute_state(ctx, W0, 0.1, rows=rows)
        calls = self.count_passes(monkeypatch)
        W1 = W0 + 0.1 * rng.standard_normal((4, 5))
        state = sncg.compute_state(ctx, W1, 0.1, base=first.split, rows=rows)
        changed = np.count_nonzero(state.split.in_j2 != first.split.in_j2)
        assert 0 < changed <= sncg.INCREMENTAL_MAX_SHARE * ctx.dataset.n_samples
        assert calls["At"] == 0  # the incremental branch fired
        assert self.adjoint_error(ctx, state) <= floor_of(state)
        # the update's roundoff widens the floor
        plain = sncg.compute_state(ctx, W1, 0.1)
        assert state.split.drift > 0.0
        assert state.grad_scale == pytest.approx(plain.grad_scale + state.split.drift, rel=1e-12)

    def test_fallback_adjoint_is_a_fresh_pass(self, monkeypatch):
        rng = np.random.default_rng(13)
        ctx = make_context(rng, n=400, p=4, q=5)
        rows = np.empty(ctx.dataset.flat_features.shape)
        first = sncg.compute_state(ctx, rng.standard_normal((4, 5)), 0.1, rows=rows)
        calls = self.count_passes(monkeypatch)
        state = sncg.compute_state(ctx, -first.W, -0.1, base=first.split, rows=rows)
        changed = np.count_nonzero(state.split.in_j2 != first.split.in_j2)
        assert changed > sncg.INCREMENTAL_MAX_SHARE * ctx.dataset.n_samples
        assert calls["At"] == 1 and state.split.drift == 0.0
        assert self.adjoint_error(ctx, state) <= floor_of(state)

    def test_adjoint_updated_to_the_floor_stays_honest(self, monkeypatch):
        rng = np.random.default_rng(14)
        ctx = make_context(rng, n=300, p=4, q=5)
        calls = self.count_passes(monkeypatch)
        res = sncg.solve_subproblem(ctx, np.zeros((4, 5)), 0.0, never_stop)
        assert res.converged and res.stop_reason == "roundoff-floor"
        assert calls["At"] < res.iterations + 1  # some states were updated
        assert self.adjoint_error(ctx, res.state) <= floor_of(res.state)

    def test_rebase_starts_the_next_subproblem_without_a_pass(self, monkeypatch):
        rng = np.random.default_rng(15)
        ctx = make_context(rng, n=200, p=4, q=5)
        first = sncg.solve_subproblem(ctx, np.zeros((4, 5)), 0.0, grad_tol_stop(1e-6))
        fresh = apply_A_adjoint(ctx.dataset, first.state.pi_omega)
        # g and its drift come from the fresh pass, whatever the state held
        split = first.state.split
        stale = replace(split, g=np.zeros_like(split.g), drift=1.0)
        base = sncg.rebase(stale, fresh, ctx.hyper.C)
        assert base.drift == 0.0
        ctx2 = sncg.SubproblemContext(
            dataset=ctx.dataset, hyper=ctx.hyper, sigma=ctx.sigma,
            lam_k=first.lam_new, Lam_k=first.Lam_new,
        )
        calls = self.count_passes(monkeypatch)
        rows = np.empty(ctx.dataset.flat_features.shape)
        state = sncg.compute_state(ctx2, first.W, first.b, base=base, rows=rows)
        assert calls["At"] == 0
        assert self.adjoint_error(ctx2, state) <= floor_of(state)

    def test_line_search_hands_back_its_products(self):
        rng = np.random.default_rng(16)
        ctx = make_context(rng, n=40, p=3, q=4)
        W = rng.standard_normal((3, 4))
        state = sncg.compute_state(ctx, W, 0.2)
        step = {}
        alpha, _, d_W, d_b, stalled = sncg.line_search(
            ctx, W, 0.2, -state.grad_W, -state.grad_b, sncg.SncgConfig(),
            state=state, products=step,
        )
        assert not stalled
        np.testing.assert_array_equal(step["Ad"], apply_A(ctx.dataset, d_W))
        W_new = W + alpha * d_W
        trial = prox.full_svd(ctx.Lam_k + ctx.sigma * W_new)
        np.testing.assert_array_equal(step["svd"].s, trial.s)
        direct = sncg.compute_state(ctx, W_new, 0.2 + alpha * d_b)
        reused = sncg.compute_state(ctx, W_new, 0.2 + alpha * d_b, svd=step["svd"])
        assert reused.phi == direct.phi
        np.testing.assert_array_equal(reused.grad_W, direct.grad_W)
