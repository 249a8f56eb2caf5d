import numpy as np
import pytest

from smmsolve import alm
from smmsolve.problem import (
    DataError,
    Dataset,
    DualPoint,
    Hyperparams,
    PrimalPoint,
    apply_A,
    apply_A_adjoint,
    apply_A_adjoint_restricted,
    apply_A_restricted,
    classify_samples,
    dual_objective,
    kkt_residual,
    primal_objective,
)

from conftest import random_dataset


class TestDatasetValidation:
    def test_rejects_nonunit_label(self):
        X = np.zeros((2, 2, 2))
        with pytest.raises(DataError, match="label must be"):
            Dataset(X, [1.0, 0.0])

    def test_rejects_sign_normalizable_label(self):
        X = np.zeros((2, 2, 2))
        with pytest.raises(DataError):
            Dataset(X, [2.0, -1.0])

    def test_rejects_single_class(self):
        X = np.zeros((3, 2, 2))
        with pytest.raises(DataError, match="both classes"):
            Dataset(X, [1.0, 1.0, 1.0])

    def test_rejects_nonfinite(self):
        for scale in (0.0, 1e308):  # 1e308: the finite entries' sum overflows
            for bad in (np.nan, np.inf, -np.inf):
                X = np.full((2, 2, 2), scale)
                X[1, 0, 0] = bad
                with pytest.raises(DataError, match="non-finite"):
                    Dataset(X, [1.0, -1.0])

    def test_accepts_finite_entries_whose_sum_overflows(self):
        X = np.full((2, 2, 2), 1e308)
        X[0, 0, 0] = -1e308
        assert Dataset(X, [1.0, -1.0]).n_samples == 2

    def test_subset_copies_selected_rows(self, rng):
        ds = random_dataset(rng, 12, 3, 4)
        idx = [7, 1, 1, 11, 0]  # rows 0 and 1 hold both classes
        sub = ds.subset(idx)
        assert np.array_equal(sub.features, ds.features[idx])
        assert np.array_equal(sub.labels, ds.labels[idx])
        assert sub.features.flags["C_CONTIGUOUS"] and not sub.features.flags.writeable

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2, 2)), [1.0, -1.0])

    def test_feature_buffer_is_contiguous_sample_major(self, tiny_dataset):
        assert tiny_dataset.features.flags["C_CONTIGUOUS"]
        assert tiny_dataset.flat_features.shape == (6, 9)

    def test_tall_matrices_allowed(self):
        ds = Dataset(np.ones((2, 5, 2)), [1.0, -1.0])
        assert ds.p == 5 and ds.q == 2


class TestRowNorms:
    def test_norms_of_operator_rows(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 12, 3, 4)
        expected = np.sqrt(np.sum(ds.features**2, axis=(1, 2)) + 1.0)
        np.testing.assert_allclose(ds.row_norms, expected, rtol=1e-15)
        assert ds.row_norms is ds.row_norms  # cached
        assert not ds.row_norms.flags.writeable


class TestApplyA:
    def test_single_sample_inner_product(self):
        # y1 = -1 against the identity picks out -(1 + 4)
        ds = Dataset(np.array([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 1.0]]]),
                     [-1.0, 1.0])
        z = apply_A(ds, np.eye(2))
        assert z[0] == -5.0

    def test_zero_matrix_maps_to_zero(self, tiny_dataset):
        assert np.all(apply_A(tiny_dataset, np.zeros((3, 3))) == 0.0)

    def test_matches_per_sample_loop(self, rng):
        ds = random_dataset(rng, 5, 4, 3)
        W = rng.standard_normal((4, 3))
        z = apply_A(ds, W)
        manual = np.array(
            [ds.labels[i] * np.trace(W.T @ ds.features[i]) for i in range(5)]
        )
        np.testing.assert_allclose(z, manual, rtol=1e-13)

    def test_shape_mismatch_raises(self, tiny_dataset):
        with pytest.raises(ValueError):
            apply_A(tiny_dataset, np.zeros((2, 3)))


class TestAdjoint:
    def test_unit_vector_picks_signed_sample(self, tiny_dataset):
        e1 = np.zeros(6)
        e1[0] = 1.0
        out = apply_A_adjoint(tiny_dataset, e1)
        np.testing.assert_array_equal(
            out, tiny_dataset.labels[0] * tiny_dataset.features[0]
        )

    def test_zero_vector(self, tiny_dataset):
        assert np.all(apply_A_adjoint(tiny_dataset, np.zeros(6)) == 0.0)

    def test_adjoint_identity(self, rng):
        ds = random_dataset(rng, 12, 5, 4)
        for _ in range(20):
            W = rng.standard_normal((5, 4))
            z = rng.standard_normal(12)
            lhs = float(apply_A(ds, W) @ z)
            rhs = float(np.sum(W * apply_A_adjoint(ds, z)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_length_mismatch_raises(self, tiny_dataset):
        with pytest.raises(ValueError):
            apply_A_adjoint(tiny_dataset, np.zeros(5))


class TestRestriction:
    def test_full_index_set_equals_unrestricted(self, tiny_dataset, rng):
        W = rng.standard_normal((3, 3))
        idx = np.arange(6)
        np.testing.assert_array_equal(
            apply_A_restricted(tiny_dataset, idx, W), apply_A(tiny_dataset, W)
        )
        z = rng.standard_normal(6)
        np.testing.assert_array_equal(
            apply_A_adjoint_restricted(tiny_dataset, idx, z),
            apply_A_adjoint(tiny_dataset, z),
        )

    def test_empty_set(self, tiny_dataset):
        W = np.ones((3, 3))
        assert apply_A_restricted(tiny_dataset, [], W).size == 0
        assert np.all(apply_A_adjoint_restricted(tiny_dataset, [], []) == 0.0)

    def test_random_subsets_match_selection(self, rng):
        ds = random_dataset(rng, 20, 3, 5)
        W = rng.standard_normal((3, 5))
        full = apply_A(ds, W)
        for _ in range(10):
            idx = rng.choice(20, size=rng.integers(1, 15), replace=False)
            # gemv blocking may differ between the gathered and full products
            np.testing.assert_allclose(
                apply_A_restricted(ds, idx, W), full[idx], rtol=1e-13, atol=1e-15
            )
            z = rng.standard_normal(idx.size)
            zfull = np.zeros(20)
            zfull[idx] = z
            np.testing.assert_allclose(
                apply_A_adjoint_restricted(ds, idx, z),
                apply_A_adjoint(ds, zfull),
                atol=1e-12,
            )

    def test_out_of_range_raises(self, tiny_dataset):
        with pytest.raises(IndexError):
            apply_A_restricted(tiny_dataset, [7], np.zeros((3, 3)))


class TestPrimalObjective:
    def test_zero_model_gives_C_times_n(self, tiny_dataset):
        hyper = Hyperparams(C=2.5, tau=1.0)
        assert primal_objective(tiny_dataset, hyper, np.zeros((3, 3)), 0.0) == 2.5 * 6

    def test_zero_hinge_leaves_quadratic(self):
        # diagonal W with comfortable margins everywhere, tau = 0
        X = np.stack([np.eye(2) * 5, -np.eye(2) * 5])
        ds = Dataset(X, [1.0, -1.0])
        W = np.eye(2)
        val = primal_objective(ds, Hyperparams(C=3.0, tau=0.0), W, 0.0)
        assert val == pytest.approx(0.5 * 2.0)

    def test_matches_term_by_term_oracle(self, rng):
        ds = random_dataset(rng, 15, 4, 6)
        hyper = Hyperparams(C=0.7, tau=1.3)
        W = rng.standard_normal((4, 6))
        b = 0.3
        hinge = sum(
            max(1.0 - ds.labels[i] * (np.sum(W * ds.features[i]) + b), 0.0)
            for i in range(15)
        )
        oracle = (
            0.5 * np.sum(W**2)
            + 1.3 * np.linalg.svd(W, compute_uv=False).sum()
            + 0.7 * hinge
        )
        assert primal_objective(ds, hyper, W, b) == pytest.approx(oracle, rel=1e-13)


class TestDualObjective:
    def test_origin_is_feasible_zero(self, tiny_dataset):
        out = dual_objective(tiny_dataset, Hyperparams(1.0, 1.0), np.zeros(6), np.zeros((3, 3)))
        assert out.value == 0.0 and out.feasible

    def test_linear_constraint_violation_flagged(self, tiny_dataset):
        lam = -0.5 * np.ones(6)
        lam[0] = -0.6  # y'lam != 0, still inside the box
        out = dual_objective(tiny_dataset, Hyperparams(1.0, 10.0), lam, np.zeros((3, 3)))
        assert not out.feasible
        assert "linear constraint" in out.violations

    def test_box_violation_flagged(self, tiny_dataset):
        lam = np.zeros(6)
        lam[0] = 1.0  # -lam < 0
        out = dual_objective(tiny_dataset, Hyperparams(1.0, 1.0), lam, np.zeros((3, 3)))
        assert "box" in out.violations

    def test_strong_duality_at_high_accuracy_solution(self, small_synth):
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=1.0)
        sol = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-9))
        assert sol.report.eta_kkt <= 1e-8
        dv = dual_objective(train, hyper, sol.dual.lam, sol.dual.Lam)
        assert dv.feasible
        gap = abs(sol.report.objective - dv.value)
        assert gap <= 1e-6 * (1.0 + abs(sol.report.objective))


class TestKktResidual:
    def test_all_zeros_closed_form(self, tiny_dataset):
        hyper = Hyperparams(C=1.0, tau=1.0)
        res = kkt_residual(
            tiny_dataset, hyper, PrimalPoint.zeros(tiny_dataset), DualPoint.zeros(tiny_dataset)
        )
        n = 6
        expected = np.sqrt(n) / (1.0 + np.sqrt(n))
        assert res.components["lambda"] == pytest.approx(expected, rel=1e-14)
        assert res.eta == pytest.approx(expected, rel=1e-14)

    def test_zero_iff_all_components_zero(self, tiny_dataset, rng):
        hyper = Hyperparams(C=1.0, tau=1.0)
        primal = PrimalPoint.zeros(tiny_dataset)
        primal.v = 1.0 - apply_A(tiny_dataset, primal.W)  # exact feasibility, v > 0
        dual = DualPoint.zeros(tiny_dataset)
        res = kkt_residual(tiny_dataset, hyper, primal, dual)
        # v > 0 forces -lam = C, so the v-block residual is nonzero: eta > 0
        assert res.eta > 0
        assert any(v > 0 for v in res.components.values())

    def test_scaling_multiplier_at_kkt_point_increases_eta(self, small_synth):
        train, _, _ = small_synth
        hyper = Hyperparams(C=1.0, tau=1.0)
        sol = alm.solve(train, hyper, alm.AlmConfig(kkt_tol=1e-10))
        base = kkt_residual(train, hyper, sol.primal, sol.dual)
        scaled = kkt_residual(
            train, hyper, sol.primal, DualPoint(2.0 * sol.dual.lam, sol.dual.Lam)
        )
        assert scaled.eta > 10 * base.eta

    def test_eta_is_max_of_nonnegative_components(self, tiny_dataset, rng):
        hyper = Hyperparams(C=1.0, tau=0.5)
        primal = PrimalPoint(
            rng.standard_normal((3, 3)), 0.2, rng.standard_normal(6),
            rng.standard_normal((3, 3)),
        )
        dual = DualPoint(rng.standard_normal(6), rng.standard_normal((3, 3)))
        res = kkt_residual(tiny_dataset, hyper, primal, dual)
        assert all(v >= 0.0 for v in res.components.values())
        assert res.eta == max(res.components.values())

    def test_raw_components_are_unnormalized(self, tiny_dataset, rng):
        hyper = Hyperparams(C=1.0, tau=1.0)
        W = rng.standard_normal((3, 3))
        primal = PrimalPoint(W, 0.1, rng.standard_normal(6), rng.standard_normal((3, 3)))
        dual = DualPoint(rng.standard_normal(6), rng.standard_normal((3, 3)))
        res = kkt_residual(tiny_dataset, hyper, primal, dual)
        assert res.raw["Lambda"] == pytest.approx(np.linalg.norm(primal.W - primal.U))
        assert res.raw["b"] == pytest.approx(abs(dual.lam @ tiny_dataset.labels))


class TestSharedProducts:
    """Precomputed A W and A* lam change nothing, to the bit (own generator,
    so the shared rng stream of the other tests is left alone)."""

    def test_kkt_and_objective_with_shared_products(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 300, 4, 5)
        hyper = Hyperparams(C=1.0, tau=0.7)
        W = rng.standard_normal((4, 5))
        primal = PrimalPoint(W, 0.3, rng.standard_normal(300), rng.standard_normal((4, 5)))
        dual = DualPoint(-rng.uniform(0.0, 1.0, 300), rng.standard_normal((4, 5)))
        AW = apply_A(ds, W)
        At_lam = apply_A_adjoint(ds, dual.lam)
        plain = kkt_residual(ds, hyper, primal, dual)
        shared = kkt_residual(ds, hyper, primal, dual, AW, At_lam)
        assert shared.eta == plain.eta
        assert shared.components == plain.components and shared.raw == plain.raw
        assert primal_objective(ds, hyper, W, 0.3, AW) == primal_objective(ds, hyper, W, 0.3)
        # the products given are the ones used: no pass of its own
        assert kkt_residual(ds, hyper, primal, dual, AW + 1.0).raw["lambda"] != plain.raw["lambda"]
        assert kkt_residual(ds, hyper, primal, dual, AW, At_lam + 1.0).raw["W"] != plain.raw["W"]
        assert primal_objective(ds, hyper, W, 0.3, AW + 1.0) != primal_objective(ds, hyper, W, 0.3)
        # the negated adjoint of -lam is the adjoint of lam, to the bit
        np.testing.assert_array_equal(-apply_A_adjoint(ds, -dual.lam), At_lam)


class TestClassifySamples:
    def test_three_zone_example(self):
        C = 2.0
        lam = -np.array([0.0, C / 2, C])
        cls = classify_samples(lam, C, tol=0.0)
        np.testing.assert_array_equal(cls.non_support, [0])
        np.testing.assert_array_equal(cls.active_support, [1])
        np.testing.assert_array_equal(cls.support, [1, 2])

    def test_zero_multiplier_all_non_support(self):
        cls = classify_samples(np.zeros(5), 1.0)
        assert cls.sm_count == 0 and cls.non_support.size == 5

    def test_partition_property(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            C = float(rng.uniform(0.1, 5.0))
            lam = -rng.uniform(-0.5 * C, 1.5 * C, size=n)
            cls = classify_samples(lam, C)
            merged = np.sort(np.concatenate([cls.support, cls.non_support]))
            np.testing.assert_array_equal(merged, np.arange(n))
            assert np.all(np.isin(cls.active_support, cls.support))

    def test_boundary_tolerance_widens(self):
        C = 1.0
        lam = np.array([-1e-12, -(C - 1e-12)])
        cls = classify_samples(lam, C, tol=1e-8)
        # both sit within tol of a boundary: first is non-support, second not active
        assert 0 in cls.non_support
        assert 1 not in cls.active_support and 1 in cls.support
