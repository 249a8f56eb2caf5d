import numpy as np
import pytest

from smmsolve import prox


def _random_spectrum_matrix(rng, p, q, svals):
    """Matrix with prescribed singular values (random orthogonal factors)."""
    m = min(p, q)
    A = rng.standard_normal((p, p))
    B = rng.standard_normal((q, q))
    U, _ = np.linalg.qr(A)
    V, _ = np.linalg.qr(B)
    S = np.zeros((p, q))
    S[np.arange(m), np.arange(m)] = svals
    return U @ S @ V.T


class TestBoxOps:
    def test_clamp_example(self):
        np.testing.assert_array_equal(
            prox.project_box(np.array([-1.0, 0.5, 2.0]), 1.0), [0.0, 0.5, 1.0]
        )

    def test_fixed_point_inside(self, rng):
        x = rng.uniform(0, 1, size=10)
        np.testing.assert_array_equal(prox.project_box(x, 1.0), x)

    def test_grid_oracle(self, rng):
        # componentwise argmin of (u - x)^2 over a fine grid of [0, C]
        C = 2.0
        grid = np.linspace(0.0, C, 20001)
        x = rng.uniform(-2 * C, 2 * C, size=8)
        proj = prox.project_box(x, C)
        for j in range(8):
            best = grid[np.argmin((grid - x[j]) ** 2)]
            assert abs(proj[j] - best) <= C / 20000 + 1e-12

    def test_support_prox_examples(self):
        out = prox.prox_support_fn(np.array([-1.0, 0.5, 2.0]), 1.0)
        np.testing.assert_array_equal(out, [-1.0, 0.0, 1.0])
        inside = np.array([0.2, 0.8])
        np.testing.assert_array_equal(prox.prox_support_fn(inside, 1.0), [0.0, 0.0])

    def test_moreau_identity(self, rng):
        for _ in range(200):
            C = float(rng.uniform(0.1, 10))
            x = rng.standard_normal(int(rng.integers(1, 30))) * 3
            recon = prox.prox_support_fn(x, C) + prox.project_box(x, C)
            np.testing.assert_allclose(recon, x, rtol=1e-12, atol=1e-15)

    def test_envelope_zero_at_origin(self):
        assert prox.env_support_fn(np.zeros(4), 3.0) == 0.0

    def test_envelope_hand_value_scalar(self):
        # x = 2C: prox residual is C, projection is C, so C*C + C^2/2
        C = 1.7
        assert prox.env_support_fn(np.array([2 * C]), C) == pytest.approx(1.5 * C * C)

    def test_envelope_grid_oracle_scalar_slices(self, rng):
        C = 1.0
        us = np.linspace(-4, 4, 150001)
        penalty = C * np.maximum(us, 0.0)
        for x in rng.uniform(-3, 3, size=6):
            direct = prox.env_support_fn(np.array([x]), C)
            grid_min = np.min(penalty + 0.5 * (us - x) ** 2)
            assert direct <= grid_min + 1e-9
            assert direct >= grid_min - 1e-4  # grid resolution slack


class TestNuclearProx:
    def test_diagonal_example(self):
        out = prox.prox_nuclear(np.diag([3.0, 1.0]), 2.0)
        np.testing.assert_allclose(out.Y, np.diag([1.0, 0.0]), atol=1e-14)
        assert out.k_bar == 1

    def test_zero_matrix(self):
        out = prox.prox_nuclear(np.zeros((3, 2)), 0.5)
        assert np.all(out.Y == 0.0) and out.k_bar == 0

    def test_vs_reimplemented_oracle(self, rng):
        for _ in range(20):
            X = rng.standard_normal((3, 2))
            tau = 0.5
            U, s, Vt = np.linalg.svd(X, full_matrices=False)
            oracle = (U * np.maximum(s - tau, 0.0)) @ Vt
            out = prox.prox_nuclear(X, tau)
            np.testing.assert_allclose(out.Y, oracle, atol=1e-12)
            assert out.k_bar == int(np.sum(s > tau))

    def test_tall_matrix_orientation(self, rng):
        X = rng.standard_normal((6, 3))
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        oracle = (U * np.maximum(s - 0.8, 0.0)) @ Vt
        np.testing.assert_allclose(prox.prox_nuclear(X, 0.8).Y, oracle, atol=1e-12)

    def test_positive_homogeneity_compat(self, rng):
        # Prox_{(tau/s)||.||_*}(X/s) = (1/s) Prox_{tau||.||_*}(X)
        X = rng.standard_normal((4, 5))
        tau, scale = 0.9, 3.7
        left = prox.prox_nuclear(X / scale, tau / scale).Y
        right = prox.prox_nuclear(X, tau).Y / scale
        np.testing.assert_allclose(left, right, atol=1e-13)

    def test_tau_zero_is_identity(self, rng):
        X = rng.standard_normal((3, 4))
        np.testing.assert_allclose(prox.prox_nuclear(X, 0.0).Y, X, atol=1e-13)


class TestSpectralBall:
    def test_interior_fixed_point(self, rng):
        X = rng.standard_normal((3, 3)) * 0.01
        tau = 10.0
        np.testing.assert_array_equal(prox.project_spectral_ball(X, tau), X)

    def test_diagonal_example(self):
        out = prox.project_spectral_ball(np.diag([3.0, 1.0]), 2.0)
        np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-14)

    def test_moreau_decomposition(self, rng):
        for _ in range(200):
            p, q = rng.integers(1, 7, size=2)
            X = rng.standard_normal((p, q)) * rng.uniform(0.1, 5)
            tau = float(rng.uniform(0.0, 3.0))
            recon = prox.project_spectral_ball(X, tau) + prox.prox_nuclear(X, tau).Y
            np.testing.assert_allclose(recon, X, atol=1e-12 * max(1, np.abs(X).max()))

    def test_idempotent_and_nonexpansive(self, rng):
        for _ in range(200):
            p, q = rng.integers(1, 6, size=2)
            tau = float(rng.uniform(0.1, 2.0))
            X = rng.standard_normal((p, q)) * 2
            Y = rng.standard_normal((p, q)) * 2
            PX = prox.project_spectral_ball(X, tau)
            PY = prox.project_spectral_ball(Y, tau)
            np.testing.assert_allclose(
                prox.project_spectral_ball(PX, tau), PX, atol=1e-12
            )
            assert np.linalg.norm(PX - PY) <= np.linalg.norm(X - Y) + 1e-12
            # box projection shares both properties
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            px, py = prox.project_box(x, tau), prox.project_box(y, tau)
            np.testing.assert_array_equal(prox.project_box(px, tau), px)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-15


class TestNuclearEnvelope:
    def test_zero(self):
        assert prox.env_nuclear(np.zeros((2, 2)), 2.0) == 0.0

    def test_diagonal_hand_value(self):
        # thresholded matrix diag(1, 0): tau*1 + ((3-1)^2 + 1^2)/2 = 4.5
        assert prox.env_nuclear(np.diag([3.0, 1.0]), 2.0) == pytest.approx(4.5)

    def test_monotone_in_tau(self, rng):
        X = rng.standard_normal((4, 4))
        taus = np.linspace(0.0, 5.0, 30)
        vals = [prox.env_nuclear(X, t) for t in taus]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestJacBoxDiag:
    def test_three_zones(self):
        C = 1.0
        np.testing.assert_array_equal(
            prox.jac_box_diag(np.array([-1.0, 0.5, 2.0]), C), [0.0, 1.0, 0.0]
        )

    def test_interior_all_ones(self, rng):
        om = rng.uniform(0.01, 0.99, size=12)
        assert np.all(prox.jac_box_diag(om, 1.0) == 1.0)

    def test_boundary_takes_zero_element(self):
        np.testing.assert_array_equal(
            prox.jac_box_diag(np.array([0.0, 1.0]), 1.0), [0.0, 0.0]
        )


class TestSpectralJacobian:
    def test_interior_flag(self, rng):
        X = rng.standard_normal((3, 4)) * 0.1
        J = prox.build_spectral_jacobian(X, 100.0)
        assert J.is_interior
        D = rng.standard_normal((3, 4))
        out = prox.apply_spectral_jacobian(J, D)
        np.testing.assert_array_equal(out, D)
        assert not np.shares_memory(out, D)  # callers accumulate into it

    def test_diag_block_structure(self):
        J = prox.build_spectral_jacobian(np.diag([3.0, 2.0, 0.5]), 1.0)
        np.testing.assert_array_equal(J.alpha, [0, 1])
        assert J.beta1.size == 0
        np.testing.assert_array_equal(J.beta2, [2])
        assert J.xi1_ab2[0, 0] == pytest.approx((3.0 - 1.0) / (3.0 - 0.5))

    def test_single_alpha_when_tau_between_svals(self, rng):
        for _ in range(10):
            svals = np.sort(rng.uniform(0.2, 5.0, size=4))[::-1]
            svals[0] = svals[1] + 1.0
            tau = 0.5 * (svals[0] + svals[1])
            X = _random_spectrum_matrix(rng, 4, 6, svals)
            J = prox.build_spectral_jacobian(X, tau)
            assert J.k1 == 1
            for block in (J.xi2_aa, J.xi2_ab, J.xi1_ab2):
                assert np.all(block >= 0.0) and np.all(block <= 1.0)
            assert np.all(J.xi1_ab2 > 0.0) and np.all(J.xi1_ab2 < 1.0)
            assert np.all(J.xi3_d > 0.0) and np.all(J.xi3_d < 1.0)

    def test_zero_direction(self, rng):
        X = rng.standard_normal((4, 4)) * 3
        J = prox.build_spectral_jacobian(X, 1.0)
        assert np.all(prox.apply_spectral_jacobian(J, np.zeros((4, 4))) == 0.0)

    def test_fast_equals_dense_psd_selfadjoint(self, rng):
        # dual-path equivalence plus operator properties, 20 random triples
        for _ in range(20):
            p, q = rng.integers(2, 9, size=2)
            X = rng.standard_normal((p, q)) * rng.uniform(0.5, 2.0)
            smax = np.linalg.svd(X, compute_uv=False)[0]
            tau = float(rng.uniform(0.05, 1.1) * smax)
            J = prox.build_spectral_jacobian(X, tau)
            D = rng.standard_normal((p, q))
            E = rng.standard_normal((p, q))
            fast = prox.apply_spectral_jacobian(J, D, "fast")
            dense = prox.apply_spectral_jacobian(J, D, "dense")
            scale = max(1.0, np.linalg.norm(dense))
            assert np.linalg.norm(fast - dense) <= 1e-12 * scale
            assert np.sum(D * fast) >= -1e-12
            lhs = np.sum(E * prox.apply_spectral_jacobian(J, D))
            rhs = np.sum(D * prox.apply_spectral_jacobian(J, E))
            assert abs(lhs - rhs) <= 1e-10

    def test_matches_projection_directional_derivative(self, rng):
        # independent check: central differences of the ball projection
        for _ in range(12):
            p, q = 4, 5
            svals = np.array([3.0, 2.2, 1.1, 0.4]) * rng.uniform(0.8, 1.2)
            X = _random_spectrum_matrix(rng, p, q, svals)
            tau = 1.6 * rng.uniform(0.9, 1.1)
            J = prox.build_spectral_jacobian(X, tau)
            D = rng.standard_normal((p, q))
            t = 1e-6
            fd = (
                prox.project_spectral_ball(X + t * D, tau)
                - prox.project_spectral_ball(X - t * D, tau)
            ) / (2 * t)
            Gd = prox.apply_spectral_jacobian(J, D)
            assert np.linalg.norm(fd - Gd) <= 1e-5 * max(1.0, np.linalg.norm(Gd))

    def test_rank_consistency_with_prox(self, rng):
        for _ in range(20):
            X = rng.standard_normal((5, 7)) * 2
            tau = float(rng.uniform(0.2, 3.0))
            s = np.linalg.svd(X, compute_uv=False)
            if np.min(np.abs(s - tau)) < 1e-6:
                continue
            out = prox.prox_nuclear(X, tau)
            J = prox.build_spectral_jacobian(X, tau)
            rank = np.linalg.matrix_rank(out.Y, tol=1e-10 * max(1.0, s[0]))
            assert out.k_bar == rank
            if not J.is_interior:
                assert J.k1 == out.k_bar

    def test_tau_zero_full_rank_is_zero_map(self, rng):
        # the degenerate ball collapses the projection, so its selected
        # Jacobian annihilates directions at generic (full-rank) points
        X = rng.standard_normal((3, 5))
        J = prox.build_spectral_jacobian(X, 0.0)
        D = rng.standard_normal((3, 5))
        out = prox.apply_spectral_jacobian(J, D)
        assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(D)

    def test_tie_at_threshold_does_not_crash(self, rng):
        svals = np.array([3.0, 1.5, 0.5])
        X = _random_spectrum_matrix(rng, 3, 3, svals)
        J = prox.build_spectral_jacobian(X, 1.5)  # exact tie on the middle value
        assert J.beta1.size == 1
        D = rng.standard_normal((3, 3))
        fast = prox.apply_spectral_jacobian(J, D, "fast")
        dense = prox.apply_spectral_jacobian(J, D, "dense")
        np.testing.assert_allclose(fast, dense, atol=1e-12)

    @pytest.mark.parametrize("p, q", [(20, 20), (50, 80), (80, 50)])
    @pytest.mark.parametrize("k1", [1, 5, None])  # None: all of min(p, q)
    def test_fast_equals_dense_at_benchmark_shapes(self, p, q, k1):
        rng = np.random.default_rng(1000 * p + q)
        m = min(p, q)
        k1 = m if k1 is None else k1
        svals = np.sort(rng.uniform(0.5, 5.0, size=m))[::-1]
        tau = 0.5 * (svals[k1 - 1] + svals[k1]) if k1 < m else 0.5 * svals[-1]
        J = prox.build_spectral_jacobian(_random_spectrum_matrix(rng, p, q, svals), tau)
        assert J.k1 == k1 and J.transposed == (p > q)
        for _ in range(3):
            D = rng.standard_normal((p, q))
            fast = prox.apply_spectral_jacobian(J, D, "fast")
            dense = prox.apply_spectral_jacobian(J, D, "dense")
            assert np.linalg.norm(fast - dense) <= 1e-12 * max(1.0, np.linalg.norm(dense))

    def test_exact_tie_on_the_top_value(self):
        # tau just below sigma_1: not interior, but sigma_1 ties the
        # threshold, so no value lies above it and the action is D itself
        rng = np.random.default_rng(31)
        X = _random_spectrum_matrix(rng, 20, 20, np.linspace(4.0, 0.5, 20))
        top = prox.full_svd(X).s[0]
        J = prox.build_spectral_jacobian(X, float(np.nextafter(top, 0.0)))
        assert not J.is_interior and J.k1 == 0 and J.beta1.size == 1
        D = rng.standard_normal((20, 20))
        fast = prox.apply_spectral_jacobian(J, D, "fast")
        dense = prox.apply_spectral_jacobian(J, D, "dense")
        assert np.linalg.norm(fast - dense) <= 1e-12 * max(1.0, np.linalg.norm(dense))
        np.testing.assert_array_equal(fast, D)


class TestNuclearEnvelopeValues:
    """Without an SVD the envelope takes only the singular values, and none
    inside the Frobenius ball of radius tau (own generators, so the shared
    rng stream of the other tests is left alone)."""

    @pytest.mark.parametrize("shape", [(3, 4), (20, 20), (80, 50)])
    def test_matches_the_full_svd(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        for scale in (0.01, 0.3, 1.0, 3.0):
            X = rng.standard_normal(shape) * scale
            tau = 2.0
            got = prox.env_nuclear(X, tau)
            ref = prox.env_nuclear(X, tau, svd=prox.full_svd(X))
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-300)

    def test_inside_the_ball_makes_no_svd(self, monkeypatch):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((5, 7))
        tau = 1.01 * np.linalg.norm(X)

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD inside the Frobenius ball")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert prox.env_nuclear(X, tau) == pytest.approx(0.5 * np.sum(X * X), rel=1e-14)
