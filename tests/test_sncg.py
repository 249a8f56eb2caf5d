from dataclasses import replace

import numpy as np
import pytest

from smmsolve import admm, alm, prox, sncg
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


def recording_stop(stop, values, attr):
    """``stop``, appending ``getattr(state, attr)`` of every state it sees."""

    def recorded(state, i):
        values.append(getattr(state, attr))
        return stop(state, i)

    return recorded


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
        gW, gb = sncg.grad_phi(ctx, res.state.W, res.state.b)
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
    @pytest.mark.parametrize("p, q", [(3, 3), (3, 5), (5, 3)])  # p > q: transposed SVD
    def test_matches_dense_solve_on_tiny_instances(self, rng, p, q):
        # CG on the reduced system against a dense solve of the full system.
        # 3 x 3 draws from the shared stream, the other shapes from their
        # own generators, so the later tests see the stream they always did.
        if (p, q) != (3, 3):
            rng = np.random.default_rng(100 * p + q)
        cfg = sncg.SncgConfig()
        spectral = 0  # directions through a non-interior spectral Jacobian
        for trial in range(10):
            ctx = make_context(
                rng,
                n=6,
                p=p,
                q=q,
                C=float(rng.uniform(0.5, 2.0)),
                tau=float(rng.uniform(0.3, 1.2)),
                sigma=float(rng.uniform(0.5, 2.0)),
            )
            W = rng.standard_normal((p, q)) * 0.5
            b = float(rng.standard_normal() * 0.2)
            state = sncg.compute_state(ctx, W, b)
            if state.grad_norm == 0:
                continue
            ws = sncg.NewtonWorkspace(ctx, state, cfg)
            spectral += not ws.spectral.is_interior
            d_W, d_b, _, _ = sncg.newton_direction(
                ctx, W, b, ws, tol=1e-12, state=state, cg_max_iter=500
            )
            V = dense_newton_matrix(ctx, state, ws.rho)
            rhs = -np.concatenate([state.grad_W.ravel(), [state.grad_b]])
            direct = np.linalg.solve(V, rhs)
            got = np.concatenate([d_W.ravel(), [d_b]])
            assert np.linalg.norm(got - direct) <= 1e-8 * max(1.0, np.linalg.norm(direct))
        assert spectral >= 5

    def test_zero_gradient_gives_zero_direction(self, rng):
        ctx = make_context(rng, n=10, p=3, q=3)
        res = sncg.solve_subproblem(ctx, np.zeros((3, 3)), 0.0, grad_tol_stop(1e-12))
        state = res.state
        ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        # force an exactly-zero gradient: rhs = 0 must return d = 0
        state.grad_W = np.zeros_like(state.grad_W)
        state.grad_b = 0.0
        d_W, d_b, iters, _ = sncg.newton_direction(ctx, res.state.W, res.state.b, ws, 1e-10, state=state)
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

    @pytest.mark.parametrize("tau", [100.0, 0.3])  # interior, then not
    def test_operator_leaves_its_argument_alone(self, tau):
        # CG hands its search direction to the operator and reads it after
        rng = np.random.default_rng(17)
        ctx = make_context(rng, n=25, p=4, q=5, tau=tau)
        state = sncg.compute_state(ctx, rng.standard_normal((4, 5)), 0.1)
        ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        assert ws.spectral.is_interior == (tau == 100.0)
        d = rng.standard_normal(20)
        kept = d.copy()
        out = ws.apply(d)
        np.testing.assert_array_equal(d, kept)
        assert not np.shares_memory(out, d)
        np.testing.assert_array_equal(ws.apply(d), out)

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


def banded_context(rng, p, q, j1_size, tau, **weights):
    """A context whose state at a small (W, b) has exactly ``j1_size`` rows
    in J1: omega = sigma - lam near the origin, 1.3 on the first rows
    (inside (0, C) = (0, 2)) and 6.3 on six more (above C)."""
    ds = random_dataset(rng, j1_size + 6, p, q)
    lam = np.zeros(ds.n_samples)
    lam[j1_size:] = -5.0
    Lam_k = rng.standard_normal((p, q)) if tau > 0 else None
    return sncg.SubproblemContext(
        dataset=ds, hyper=Hyperparams(C=2.0, tau=tau), sigma=1.3, lam_k=lam, Lam_k=Lam_k, **weights
    )


def direct_against_cg(rng, ctx, rho=None):
    """Relative gap between NewtonWorkspace.solve and CG at tol 1e-13 on
    the workspace of a state near the origin; also the workspace."""
    ds = ctx.dataset
    W = 1e-3 * rng.standard_normal((ds.p, ds.q))
    state = sncg.compute_state(ctx, W, 1e-3)
    ws = sncg.NewtonWorkspace(ctx, state)
    if rho is not None:
        ws.rho = rho
        ws.denom = ws.a_b + ws.sigma * ws.j1.size + rho
    rhs = rng.standard_normal(ds.p * ds.q)
    exact, _, _, ok = sncg.cg(ws.apply, rhs, 1e-13, 100000)
    assert ok
    got = ws.solve(rhs)
    return np.linalg.norm(got - exact) / np.linalg.norm(exact), ws


class TestDirectDirection:
    @pytest.mark.parametrize("p, q", [(3, 5), (4, 4), (6, 3)])
    @pytest.mark.parametrize("kind", ["interior", "k1", "tie", "tau0", "ispadmm"])
    def test_matches_cg(self, p, q, kind):
        rng = np.random.default_rng(10 * p + q)
        if kind == "interior":
            ctx = banded_context(rng, p, q, 9, tau=1e3)
        elif kind == "k1":
            ctx = banded_context(rng, p, q, 9, tau=0.5)
        elif kind == "tie":
            # the largest singular value of Lam_k + sigma W within the tie
            # tolerance above tau: not interior, k1 = 0
            ctx = banded_context(rng, p, q, 9, tau=1.0)
            W = 1e-3 * np.random.default_rng(10 * p + q + 1).standard_normal((p, q))
            s0 = np.linalg.svd(ctx.Lam_k + ctx.sigma * W, compute_uv=False)[0]
            ctx.hyper = Hyperparams(C=2.0, tau=s0 * (1.0 - 0.5 * prox._TIE_RTOL))
            rng = np.random.default_rng(10 * p + q + 1)
        elif kind == "tau0":
            ctx = banded_context(rng, p, q, 9, tau=0.0)
        else:  # the proximal subproblem of ISPADMM
            gamma = admm.GAMMA
            ctx = banded_context(
                rng, p, q, 9, tau=0.0, w_weight=1.0 + gamma, b_weight=admm.DELTA_PROX,
                w_target=rng.standard_normal((p, q)), b_center=0.3,
            )
        gap, ws = direct_against_cg(rng, ctx)
        assert ws.j1.size == 9
        jac = ws.spectral
        if kind in ("tau0", "ispadmm"):
            assert jac is None
        else:
            assert jac.is_interior == (kind == "interior")
            assert kind != "tie" or jac.k1 == 0
            assert kind != "k1" or jac.k1 >= 1
        assert gap <= 1e-10

    @pytest.mark.parametrize("rho", [1e-12, 0.0])
    def test_matches_cg_as_the_damping_vanishes(self, rho):
        # with a_b = 0, P's small eigenvalue is rho / denom
        rng = np.random.default_rng(5)
        ctx = banded_context(rng, 4, 5, 12, tau=0.5)
        gap, ws = direct_against_cg(rng, ctx, rho=rho)
        assert ws.a_b == 0.0 and ws.spectral.k1 >= 1
        assert gap <= 1e-10

    @pytest.mark.parametrize("size", [0, 1, sncg.DIRECT_MAX_J1, sncg.DIRECT_MAX_J1 + 1])
    def test_matches_cg_at_every_size(self, size):
        rng = np.random.default_rng(8)
        gap, ws = direct_against_cg(rng, banded_context(rng, 3, 4, size, tau=0.5))
        assert ws.j1.size == size
        assert ws.direct == (size <= sncg.DIRECT_MAX_J1)
        assert gap <= 1e-10

    def test_counted_apart_from_cg(self):
        # a direct step reports no CG iteration; the subproblem counts it
        rng = np.random.default_rng(9)
        ctx = banded_context(rng, 3, 4, 5, tau=0.5)
        state = sncg.compute_state(ctx, np.zeros((3, 4)), 0.0)
        ws = sncg.NewtonWorkspace(ctx, state)
        assert ws.direct
        _, _, iters, resid = sncg.newton_direction(ctx, state.W, state.b, ws, 1e-10, state=state)
        assert (iters, resid) == (0, 0.0)
        res = sncg.solve_subproblem(ctx, np.zeros((3, 4)), 0.0, grad_tol_stop(1e-9))
        assert res.converged and res.stats.direct_steps == res.iterations > 0
        assert res.stats.total_cg == 0

    @pytest.mark.parametrize("p, q", [(3, 3), (3, 5), (5, 3)])
    def test_cg_branch_matches_dense_solve(self, monkeypatch, p, q):
        monkeypatch.setattr(sncg, "DIRECT_MAX_J1", -1)
        monkeypatch.setattr(sncg.NewtonWorkspace, "solve", None)  # never reached
        TestNewtonDirection().test_matches_dense_solve_on_tiny_instances(
            np.random.default_rng(1000 + 10 * p + q), p, q
        )


class TestLineSearch:
    def test_full_step_in_newton_regime(self, rng):
        # near the minimizer the model is locally quadratic and the unit
        # step passes Armijo on the first try
        ctx = make_context(rng, n=20, p=3, q=4)
        warm = sncg.solve_subproblem(ctx, np.zeros((3, 4)), 0.0, grad_tol_stop(1e-5))
        state = sncg.compute_state(ctx, warm.state.W, warm.state.b)
        ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        d_W, d_b, _, _ = sncg.newton_direction(ctx, warm.state.W, warm.state.b, ws, 1e-12, state=state)
        alpha, evals, _, _, stalled = sncg.line_search(
            ctx, warm.state.W, warm.state.b, d_W, d_b, sncg.SncgConfig(), state=state
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
        assert trial <= state.phi + sncg.ARMIJO_MU * alpha * g_dot_d + 1e-12

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
            assert trial <= state.phi + sncg.ARMIJO_MU * alpha * g_dot_d + 1e-10

    def test_ascent_direction_falls_back_to_steepest_descent(self, rng):
        ctx = make_context(rng, n=12, p=3, q=3)
        W = rng.standard_normal((3, 3))
        state = sncg.compute_state(ctx, W, 0.0)
        alpha, _, dW_used, _, stalled = sncg.line_search(
            ctx, W, 0.0, +state.grad_W, +state.grad_b, sncg.SncgConfig(), state=state
        )
        assert not stalled
        np.testing.assert_array_equal(dW_used, -state.grad_W)


    @pytest.mark.parametrize("seed, tau, scale", [(2, 3.0, 1e3), (0, 1.0, 1e2)])
    def test_backtracked_trials_need_no_singular_vectors(self, monkeypatch, seed, tau, scale):
        # An oversized step backtracks.  Its trials leave the first one's
        # SVD with vectors out, and the ones inside the Frobenius tau-ball
        # of Lam_k + sigma W make none: each trial's phi must still be phi
        # from a full SVD.  The first case ends inside that ball, the
        # second outside it.  (Own generators, so the shared rng stream of
        # the other tests is left alone.)
        rng = np.random.default_rng(seed)
        ctx = make_context(rng, n=30, p=3, q=4, tau=tau, sigma=1.5)
        W = 0.1 * rng.standard_normal((3, 4))
        state = sncg.compute_state(ctx, W, 0.1)
        trials, svds = [], []
        phi, full_svd = sncg._phi, prox.full_svd

        def spy_phi(*args, **kwargs):
            value, svd = phi(*args, **kwargs)
            trials.append((args, value))
            return value, svd

        def spy_svd(X):
            svds.append(X)
            return full_svd(X)

        monkeypatch.setattr(sncg, "_phi", spy_phi)
        monkeypatch.setattr(prox, "full_svd", spy_svd)
        step = {}
        alpha, evals, d_W, d_b, stalled = sncg.line_search(
            ctx, W, 0.1, -scale * state.grad_W, -scale * state.grad_b, sncg.SncgConfig(),
            state=state, products=step,
        )
        monkeypatch.undo()
        assert not stalled and alpha < 1.0 and evals == len(trials) > 2
        # vectors for the first trial and for the accepted point only
        assert len(svds) == 2
        in_ball = []
        for (c, screen, omega, W_t, b_t), value in trials:
            X = ctx.Lam_k + ctx.sigma * W_t
            in_ball.append(bool(np.linalg.norm(X) <= ctx.hyper.tau))
            ref, _ = sncg._phi(c, screen, omega, W_t, b_t)  # with a full SVD
            assert abs(value - ref) <= 1e-13 * abs(ref)
        assert not in_ball[1]
        assert in_ball[-1] == (tau == 3.0)
        # the SVD handed back is that of the accepted point
        ref = prox.full_svd(ctx.Lam_k + ctx.sigma * (W + alpha * d_W))
        got = step["svd"]
        for name in ("U", "s", "Vt", "transposed"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


class TestSolveSubproblem:
    def test_warm_start_at_minimizer_stops_immediately(self, rng):
        ctx = make_context(rng, n=25, p=4, q=3)
        first = sncg.solve_subproblem(ctx, np.zeros((4, 3)), 0.0, grad_tol_stop(1e-10))
        again = sncg.solve_subproblem(ctx, first.state.W, first.state.b, grad_tol_stop(1e-9))
        assert again.iterations == 0 and again.converged

    def test_monotone_descent(self, rng):
        ctx = make_context(rng, n=40, p=4, q=5)
        vals = []
        res = sncg.solve_subproblem(
            ctx, rng.standard_normal((4, 5)), 0.5, recording_stop(grad_tol_stop(1e-9), vals, "phi")
        )
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert res.converged

    def test_recovered_slack_identity(self, rng):
        # v = (omega - clip(omega)) / sigma at the returned iterate
        ctx = make_context(rng, n=18, p=3, q=4, sigma=2.0)
        res = sncg.solve_subproblem(ctx, np.zeros((3, 4)), 0.0, grad_tol_stop(1e-8))
        ds = ctx.dataset
        omega = -ctx.lam_k - ctx.sigma * (apply_A(ds, res.state.W) + res.state.b * ds.labels - 1.0)
        v_oracle = (omega - np.clip(omega, 0, ctx.hyper.C)) / ctx.sigma
        np.testing.assert_allclose(res.state.v, v_oracle, atol=1e-12)
        np.testing.assert_allclose(res.state.lam_new, -np.clip(omega, 0, ctx.hyper.C), atol=1e-12)

    def test_superlinear_tail(self, rng):
        # gradient norms should collapse fast near the end
        ctx = make_context(rng, n=30, p=4, q=4)
        g = []
        res = sncg.solve_subproblem(
            ctx, np.zeros((4, 4)), 0.0, recording_stop(grad_tol_stop(1e-11), g, "grad_norm")
        )
        assert res.converged and g[-1] <= 1e-11
        if len(g) >= 3 and g[-2] < 1e-2:
            assert g[-1] <= 0.5 * g[-2]


class TestEmptyJ1Steps:
    """A state with J1 empty takes b to its exact minimizer at the current W
    (``sncg.b_minimizer``) instead of the damped system's huge d_b."""

    @staticmethod
    def spy_line_search(monkeypatch):
        """(|J1| of the start state, trials) of every line search."""
        seen = []
        original = sncg.line_search

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            seen.append((kwargs["state"].j1.size, out[1]))
            return out

        monkeypatch.setattr(sncg, "line_search", spy)
        return seen

    @pytest.mark.parametrize("tau", [0.0, 10.0])
    def test_cold_solve_makes_no_backtracking_crawl(self, small_synth, monkeypatch, tau):
        train = small_synth[0]
        hyper = Hyperparams(C=1.0, tau=tau)
        config = alm.AlmConfig(kkt_tol=1e-8)
        # at the origin every omega_i = sigma0 >= C: J1 is empty
        assert alm.resolve_sigma0(train, hyper) >= hyper.C
        seen = self.spy_line_search(monkeypatch)
        sol = alm.solve(train, hyper, config)
        assert sol.report.converged and sol.report.eta_kkt <= 1e-8
        empty = [trials for j1, trials in seen if j1 == 0]
        assert empty and max(empty) <= 8  # the damped d_b took 20-28
        assert sum(row["exact_b_steps"] for row in sol.report.history) >= 1

    def test_ispadmm_inner_solves_make_no_crawl(self, small_synth, monkeypatch):
        # a_b = DELTA_PROX: the b-row of an empty J1 is held by 1e-6 + rho
        seen = self.spy_line_search(monkeypatch)
        admm.solve_ispadmm(
            small_synth[0], Hyperparams(C=10.0, tau=10.0), admm.AdmmConfig(max_iter=30, kkt_tol=None)
        )
        empty = [trials for j1, trials in seen if j1 == 0]
        assert empty and max(empty) <= 8

    def test_step_lands_on_the_minimizer_in_b(self):
        # zero features leave W alone, and with omega_i = 2 - 2 y_i b phi's
        # b-derivative -sum_i y_i clip(omega_i, 0, 1) vanishes at b = 5/6,
        # where the three rows with y_i = +1 sit inside the band: one step
        ds = Dataset(np.zeros((4, 1, 1)), np.array([1.0, 1.0, -1.0, 1.0]))
        ctx = sncg.SubproblemContext(
            dataset=ds, hyper=Hyperparams(C=1.0, tau=0.0), sigma=2.0, lam_k=np.zeros(4)
        )
        state = sncg.compute_state(ctx, np.zeros((1, 1)), 0.0)
        assert state.j1.size == 0 and state.grad_b < 0.0
        res = sncg.solve_subproblem(ctx, np.zeros((1, 1)), 0.0, grad_tol_stop(1e-12))
        assert res.converged and res.iterations == res.stats.exact_b_steps == 1
        assert res.state.b == pytest.approx(5.0 / 6.0, rel=1e-14)


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
        resid = 2.5 * (res.state.W - target) + apply_A_adjoint(ds, res.state.lam_new)
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
        again = sncg.solve_subproblem(ctx, at_floor.state.W, at_floor.state.b, never_stop, cfg)
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
        size = ds.row_norms * np.sqrt(np.sum(res.state.W * res.state.W) + res.state.b**2)
        drift = np.abs(res.state.AW - apply_A(ds, res.state.W))
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
        st = first.state
        # g and its drift come from the hand-off's pass, whatever the state held
        split = st.split
        st.split = replace(split, g=np.zeros_like(split.g), drift=1.0)
        calls = self.count_passes(monkeypatch)
        AW, At_lam = first.hand_off(ctx.dataset, ctx.hyper.C)
        assert calls["At"] == 1 and calls["A"] <= 1
        np.testing.assert_array_equal(At_lam, apply_A_adjoint(ctx.dataset, st.lam_new))
        np.testing.assert_array_equal(AW, apply_A(ctx.dataset, st.W))
        base = st.split
        assert base.drift == 0.0 and base.in_j2 is split.in_j2
        ctx2 = sncg.SubproblemContext(
            dataset=ctx.dataset, hyper=ctx.hyper, sigma=ctx.sigma,
            lam_k=st.lam_new, Lam_k=st.Lam_new,
        )
        calls = self.count_passes(monkeypatch)
        rows = np.empty(ctx.dataset.flat_features.shape)
        state = sncg.compute_state(ctx2, st.W, st.b, base=base, rows=rows)
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


def solved_context(train, tau, scale=1.0):
    """The last subproblem of an ALM solve to 1e-8 on ``train`` (features
    times ``scale``), and the solution: a state with few rows near a kink."""
    ds = Dataset(train.features * scale, train.labels)
    hyper = Hyperparams(C=1.0, tau=tau)
    sol = alm.solve(ds, hyper, alm.AlmConfig(kkt_tol=1e-8))
    ctx = sncg.SubproblemContext(
        dataset=ds, hyper=hyper, sigma=sol.report.history[-1]["sigma"],
        lam_k=sol.dual.lam, Lam_k=sol.dual.Lam if tau > 0 else None,
    )
    return ctx, sol.primal.W, sol.primal.b


def full_pi(state):
    """pi_omega of a screened state on all rows: R's from the state, C or 0
    on the rows left out (which of the two, the anchor's mask says)."""
    pi = state.screen.in_j2 * 1.0
    pi[state.screen.idx] = state.pi_omega
    return pi


class TestScreenedSteps:
    """Newton steps over an anchor's working set R (own generators, so the
    shared rng stream of the other tests is left alone)."""

    @pytest.mark.parametrize("tau", [0.0, 1.0, 10.0])
    def test_screened_state_matches_a_full_recompute(self, small_synth, tau):
        ctx, W, b = solved_context(small_synth[0], tau)
        ds, C = ctx.dataset, ctx.hyper.C
        rows = np.empty(ds.flat_features.shape)
        anchor = sncg.compute_state(ctx, W, b, rows=rows)
        rng = np.random.default_rng(21)
        d_W, d_b = rng.standard_normal(W.shape), float(rng.standard_normal())
        unit = np.sqrt(np.sum(d_W * d_W) + d_b * d_b)
        rho = 1e-3 * (1.0 + np.linalg.norm(W))
        screened = sncg._screen(ctx, anchor, rho, rho, rows)
        idx = screened.screen.idx
        assert idx is not None and 0 < idx.size < ds.n_samples
        assert np.array_equal(full_pi(screened), anchor.pi_omega)
        for t in (0.0, 0.5, 1.0):
            W1 = W + (t * rho / unit) * d_W
            b1 = b + (t * rho / unit) * d_b
            st = sncg.compute_state(
                ctx, W1, b1, AW=apply_A(ds, W1)[idx], base=screened.split, rows=rows,
                screen=screened.screen,
            )
            full = sncg.compute_state(ctx, W1, b1)
            assert st.v is None and st.lam_new is None
            # pieces of the hinge: exact
            assert np.array_equal(st.j1, full.j1)
            assert np.array_equal(full_pi(st), full.pi_omega)
            # values: within roundoff
            eps = sncg.ROUNDOFF_FACTOR * np.finfo(np.float64).eps
            assert abs(st.phi - full.phi) <= eps * full.phi_scale
            g_err = np.sqrt(np.sum((st.grad_W - full.grad_W) ** 2) + (st.grad_b - full.grad_b) ** 2)
            assert g_err <= eps * st.grad_scale
            assert st.grad_scale == pytest.approx(full.grad_scale + st.split.drift, rel=1e-9)
            # the norms the ALM criterion reads; ||v|| only bounded above
            assert st.lam_new_norm == pytest.approx(np.linalg.norm(full.lam_new), rel=1e-12)
            assert st.lam_step_norm == pytest.approx(
                np.linalg.norm(full.lam_new - ctx.lam_k), rel=1e-12
            )
            assert st.v_norm >= np.linalg.norm(full.v) * (1.0 - 1e-12)
        # the bound on ||v|| is tight to first order in rho
        scr = screened.screen
        slack = 2.0 * rho * (scr.x_norm + np.sqrt(scr.n_out))
        assert st.v_norm <= np.linalg.norm(full.v) + slack

    @pytest.mark.parametrize("tau", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_no_row_left_out_changes_piece(self, small_synth, monkeypatch, scale, tau):
        # every screened state of a solve against a full recompute there
        train, _, _ = small_synth
        ds = Dataset(train.features * scale, train.labels)
        hyper = Hyperparams(C=1.0, tau=tau)
        original = sncg.compute_state
        seen = {"screened": 0}

        def checked(ctx, W, b, *args, **kwargs):
            st = original(ctx, W, b, *args, **kwargs)
            if st.screen.idx is not None:
                idx = st.screen.idx
                out = np.ones(ds.n_samples, dtype=bool)
                out[idx] = False
                full = original(ctx, W, b)
                assert np.array_equal(full_pi(st)[out], full.pi_omega[out])
                # A W carried over R stays within roundoff of a fresh one
                size = ds.row_norms[idx] * np.sqrt(np.sum(W * W) + b * b)
                drift = np.abs(st.AW - full.AW[idx])
                assert np.all(drift <= sncg.ROUNDOFF_FACTOR * np.finfo(np.float64).eps * size)
                seen["screened"] += 1
            return st

        monkeypatch.setattr(sncg, "compute_state", checked)
        # working sets up to the largest share the row block allows, so
        # that more and wider balls are checked
        monkeypatch.setattr(sncg, "SCREEN_MAX_SHARE", 0.5)
        sol = alm.solve(ds, hyper, alm.AlmConfig(kkt_tol=1e-8))
        assert sol.report.converged and sol.report.eta_kkt <= 1e-8
        # at features x 1e-3 and tau > 0 the solution has W = 0 and half the
        # rows in J1, so no working set is small enough
        if sol.report.j1_size <= sncg.SCREEN_MAX_SHARE * ds.n_samples:
            assert seen["screened"] > 0

    def test_screened_steps_make_no_full_pass(self, small_synth, monkeypatch):
        ctx, W, b = solved_context(small_synth[0], 1.0)
        ds = ctx.dataset
        # one ALM step further: the next subproblem from the solution
        rng = np.random.default_rng(22)
        W0 = W + 1e-3 * rng.standard_normal(W.shape)
        ctx.sigma *= 2.0
        calls = TestIncrementalProducts.count_passes(monkeypatch)
        res = sncg.solve_subproblem(ctx, W0, b, never_stop, AW0=apply_A(ds, W0))
        assert res.converged and res.iterations >= 3
        # the first step runs on all rows; the screened ones make no pass,
        # and the returned state costs one fresh A W, which the hand-off
        # returns without a pass of its own
        passes = calls["A"]
        assert passes < res.iterations
        AW, _ = res.hand_off(ds, ctx.hyper.C)
        assert calls["A"] == passes and AW is res.state.AW
        np.testing.assert_array_equal(AW, apply_A(ds, res.state.W))
        assert res.state.screen.idx is None and res.state.v is not None

    def test_screened_line_search_hands_back_its_products(self, small_synth):
        ctx, W, b = solved_context(small_synth[0], 1.0)
        rows = np.empty(ctx.dataset.flat_features.shape)
        rng = np.random.default_rng(23)
        W = W + 1e-3 * rng.standard_normal(W.shape)  # off the minimizer
        anchor = sncg.compute_state(ctx, W, b, rows=rows)
        t = 1e-4 / anchor.grad_norm
        d_W, d_b = -t * anchor.grad_W, -t * anchor.grad_b
        state = sncg._screen(ctx, anchor, 2.0 * np.linalg.norm(d_W), 2.0 * abs(d_b), rows)
        idx = state.screen.idx
        assert idx is not None
        step = {}
        alpha, _, d_used, db_used, stalled = sncg.line_search(
            ctx, W, b, d_W, d_b, sncg.SncgConfig(), state=state, products=step
        )
        assert not stalled and db_used == d_b
        expected = apply_A(ctx.dataset, d_used)[idx]
        np.testing.assert_allclose(step["Ad"], expected, rtol=1e-12, atol=1e-15 * np.abs(expected).max())
        # a step longer than the ball is refused
        with pytest.raises(ValueError, match="ball"):
            sncg.line_search(ctx, W, b, 3.0 * d_W, 3.0 * d_b, sncg.SncgConfig(), state=state)


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("ls_max_backtracks", 0), ("max_newton_iter", -1)],
    )
    def test_budgets_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            sncg.SncgConfig(**{field: value})

    def test_zero_newton_steps_allowed(self):
        assert sncg.SncgConfig(max_newton_iter=0).max_newton_iter == 0

    def test_newton_direction_defaults_to_the_config_budget(self, monkeypatch):
        ctx = make_context(np.random.default_rng(24), n=12, p=3, q=3)
        state = sncg.compute_state(ctx, np.zeros((3, 3)), 0.0)
        ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
        budgets = []
        original = sncg.cg

        def spy(apply_op, rhs, tol, max_iter, **kwargs):
            budgets.append(max_iter)
            return original(apply_op, rhs, tol, max_iter, **kwargs)

        monkeypatch.setattr(sncg, "cg", spy)
        monkeypatch.setattr(sncg, "DIRECT_MAX_J1", -1)  # its 12 rows would be solved directly
        sncg.newton_direction(ctx, np.zeros((3, 3)), 0.0, ws, 1e-10, state=state)
        sncg.newton_direction(ctx, np.zeros((3, 3)), 0.0, ws, 1e-10, state=state, cg_max_iter=7)
        assert budgets == [sncg.CG_MAX_ITER, 7]
