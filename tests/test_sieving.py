import numpy as np
import pytest

from smmsolve import alm, sieving
from smmsolve import data as sdata
from smmsolve.problem import Dataset, Hyperparams, apply_A, classify_samples


@pytest.fixture(scope="module")
def synth():
    train, _, _ = sdata.gen_synthetic(sdata.SynthSpec(n=600, p=6, q=8, r=3, seed=21))
    return train


class TestInitialActiveSet:
    def test_zero_model_selects_everything(self, synth):
        idx = sieving.initial_active_set(synth, np.zeros((6, 8)), 0.0, 0.05)
        assert idx.size == synth.n_samples

    def test_monotone_in_slack(self, synth, rng):
        W = rng.standard_normal((6, 8)) * 0.2
        sizes = [
            sieving.initial_active_set(synth, W, 0.1, eps_hat).size
            for eps_hat in (0.0, 0.05, 0.2, 1.0)
        ]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_contains_support_set_at_solution(self, synth):
        # exact solutions satisfy the inclusion with zero slack; at finite
        # KKT accuracy the margins of support samples may poke above 1 by
        # the size of the primal residual, hence the tiny widening
        hyper = Hyperparams(C=1.0, tau=1.0)
        sol = alm.solve(synth, hyper, alm.AlmConfig(kkt_tol=1e-10))
        idx = sieving.initial_active_set(synth, sol.primal.W, sol.primal.b, 1e-7)
        support = classify_samples(sol.dual.lam, hyper.C).support
        assert np.all(np.isin(support, idx))


class TestSolveReduced:
    def test_full_index_set_equals_full_solve(self, synth):
        full = alm.solve(
            synth, Hyperparams(C=1.0, tau=1.0),
            alm.AlmConfig(kkt_tol=1e-7, stop_mode="raw"),
        )
        red, raw = sieving.solve_reduced(
            synth, np.arange(synth.n_samples), 1.0, 1.0, 1e-7
        )
        rel = abs(red.report.objective - full.report.objective)
        assert rel <= 1e-6 * (1.0 + abs(full.report.objective))
        assert max(raw.values()) <= 1e-7

    def test_error_contract(self, synth):
        idx = np.arange(0, synth.n_samples, 2)
        _, raw = sieving.solve_reduced(synth, idx, 0.5, 1.0, 1e-6)
        assert all(val <= 1e-6 for val in raw.values())

    def test_empty_set_rejected(self, synth):
        with pytest.raises(ValueError):
            sieving.solve_reduced(synth, np.array([], dtype=int), 1.0, 1.0, 1e-6)

    def test_warm_start_reduces_outer_iterations(self):
        wins = trials = 0
        for seed in range(10):
            train, _, _ = sdata.gen_synthetic(
                sdata.SynthSpec(n=300, p=5, q=5, r=2, seed=300 + seed)
            )
            sol = alm.solve(
                train, Hyperparams(C=1.0, tau=1.0),
                alm.AlmConfig(kkt_tol=1e-6, stop_mode="raw"),
            )
            idx = sieving.initial_active_set(train, sol.primal.W, sol.primal.b, 0.05)
            if idx.size < 4:
                continue
            trials += 1
            warm = alm.StartPoint(
                W=sol.primal.W, b=sol.primal.b, lam=sol.dual.lam[idx], Lam=sol.dual.Lam
            )
            cold_sol, _ = sieving.solve_reduced(train, idx, 1.2, 1.0, 1e-6)
            warm_sol, _ = sieving.solve_reduced(train, idx, 1.2, 1.0, 1e-6, warm=warm)
            if warm_sol.report.n_outer <= cold_sol.report.n_outer:
                wins += 1
        assert trials >= 8
        assert wins >= 0.7 * trials


class TestViolationSet:
    def _reduced(self, synth, idx, C):
        sol, _ = sieving.solve_reduced(synth, idx, C, 1.0, 1e-7)
        return sol

    def test_no_violations_when_all_satisfied(self, synth):
        # solving on everything leaves nothing outside
        sol = self._reduced(synth, np.arange(synth.n_samples), 1.0)
        violated, v_full, lam_full = sieving.violation_set(
            synth, np.arange(synth.n_samples), sol, 1.0
        )
        assert violated.size == 0

    def test_margin_sample_included_and_sign_convention(self, synth):
        idx = np.arange(0, synth.n_samples // 2)
        sol = self._reduced(synth, idx, 1.0)
        violated, v_full, lam_full = sieving.violation_set(synth, idx, sol, 1.0)
        outside = np.setdiff1d(np.arange(synth.n_samples), idx)
        margins = apply_A(synth, sol.primal.W)[outside] + sol.primal.b * synth.labels[outside]
        # algebraic equivalence: violated = {j outside : margin_j <= 1}
        expected = outside[margins <= 1.0]
        np.testing.assert_array_equal(np.sort(violated), np.sort(expected))
        # extension: -lam = C exactly on the violated set, 0 elsewhere outside
        np.testing.assert_array_equal(lam_full[violated], -1.0)
        untouched = np.setdiff1d(outside, violated)
        np.testing.assert_array_equal(lam_full[untouched], 0.0)
        # v extension equals the slack values on the outside
        np.testing.assert_allclose(
            v_full[outside],
            1.0 - margins,
            atol=1e-12,
        )

    def test_boundary_sample_counts_as_violated(self):
        # integer-valued features make the outside slack exactly zero, and
        # the >= comparison must include it
        X = np.array(
            [
                [[2.0, 0.0], [0.0, 0.0]],   # inside, y=+1
                [[-3.0, 0.0], [0.0, 1.0]],  # inside, y=-1
                [[1.0, 0.0], [0.0, 7.0]],   # outside, margin exactly 1
                [[9.0, 0.0], [0.0, 0.0]],   # outside, margin 9: satisfied
            ]
        )
        ds = Dataset(X, [1.0, -1.0, 1.0, 1.0])
        idx = np.array([0, 1])
        W = np.array([[1.0, 0.0], [0.0, 0.0]])
        primal = type("P", (), {})()
        primal.W, primal.b, primal.v = W, 0.0, np.zeros(2)
        dual = type("D", (), {})()
        dual.lam = np.zeros(2)
        reduced = type("S", (), {"primal": primal, "dual": dual})()
        violated, v_full, lam_full = sieving.violation_set(ds, idx, reduced, 1.0)
        assert v_full[2] == 0.0
        assert 2 in violated and 3 not in violated
        assert lam_full[2] == -1.0 and lam_full[3] == 0.0


class TestExpand:
    def test_small_violation_set_unions_all(self):
        out = sieving.expand(np.array([0, 1]), np.array([5, 3]), np.array([0, 0, 0, 2.0, 0, 1.0]), 500)
        np.testing.assert_array_equal(out, [0, 1, 3, 5])

    def test_top_d_selection(self):
        v = np.zeros(1000)
        violated = np.arange(100, 1000)
        v[violated] = np.linspace(0.001, 0.9, violated.size)
        out = sieving.expand(np.array([0]), violated, v, d_max=500)
        assert out.size == 501
        # the 500 largest slack values sit at the top of the violated range
        np.testing.assert_array_equal(np.sort(out[1:]), violated[-500:])

    def test_tie_break_by_smaller_index(self):
        v = np.full(10, 0.5)
        violated = np.array([7, 3, 9, 5])
        out = sieving.expand(np.array([], dtype=int), violated, v, d_max=2)
        np.testing.assert_array_equal(out, [3, 5])


class TestPathConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid": ()},
            {"grid": (0.0, 1.0)},
            {"grid": (1.0, 1.0)},
            {"grid": (0.1, np.nan, 1.0)},
            {"grid": (np.nan,)},
            {"grid": (0.1, np.inf)},
            {"grid": (1.0,), "eps": np.nan},
            {"grid": (1.0,), "eps": np.inf},
            {"grid": (1.0,), "eps": -1e-6},
            {"grid": (1.0,), "eps_hat": np.nan},
            {"grid": (1.0,), "d_max": 0},
            {"grid": (1.0,), "eps": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            sieving.PathConfig(tau=1.0, **kwargs)


class TestSolvePath:
    def test_path_matches_warm_full_solves(self, synth):
        grid = tuple(np.logspace(-1, 0.5, 5))
        eps = 1e-6
        cfg = sieving.PathConfig(grid=grid, tau=1.0, eps=eps, eps_hat=0.05)
        pts = sieving.solve_path(synth, cfg)
        for pt, ref in zip(pts, sieving.warm_path(synth, cfg), strict=True):
            assert ref.C == pt.C and ref.solution.report.converged
            sol = ref.solution
            rel = abs(pt.solution.report.objective - sol.report.objective) / (
                1.0 + abs(sol.report.objective)
            )
            assert rel <= 1e-6
            # extended tuple is a full-problem KKT point up to the stated bound
            assert max(pt.raw_errors.values()) <= eps + 10 * eps
            assert pt.rounds <= 3

    def test_warm_path_equals_chained_full_solves(self, small_synth):
        train, _, _ = small_synth
        cfg = sieving.PathConfig(grid=(0.3, 1.0, 3.0), tau=1.0, eps=1e-6)
        pts = sieving.warm_path(train, cfg)
        warm = None
        for pt in pts:
            sol = alm.solve(
                train, Hyperparams(C=pt.C, tau=1.0),
                alm.AlmConfig(kkt_tol=1e-6, stop_mode="raw"), init=warm,
            )
            warm = alm.StartPoint(
                W=sol.primal.W, b=sol.primal.b, lam=sol.dual.lam, Lam=sol.dual.Lam
            )
            assert pt.solution.primal.W.tobytes() == sol.primal.W.tobytes()
            assert pt.solution.report.objective == sol.report.objective
            assert pt.raw_errors == sol.report.raw_components
            assert pt.eta_kkt == sol.report.eta_kkt
            assert pt.rounds == 0 and pt.active_sizes == []

    def test_margin_slack_never_increases_rounds(self):
        # widening the carried margin set can only reduce sieving work
        for seed in (700, 701, 702):
            train, _, _ = sdata.gen_synthetic(
                sdata.SynthSpec(n=300, p=5, q=5, r=2, seed=seed)
            )
            grid = (0.3, 1.0, 3.0)
            rounds = {}
            for eps_hat in (0.0, 0.05):
                cfg = sieving.PathConfig(grid=grid, tau=1.0, eps=1e-6, eps_hat=eps_hat)
                pts = sieving.solve_path(train, cfg)
                rounds[eps_hat] = sum(p.rounds for p in pts)
            assert rounds[0.05] <= rounds[0.0]

    def test_active_set_nesting_statistics(self):
        # support sets at larger C mostly covered by the previous margin set
        covered = total = 0
        for seed in range(10):
            train, _, _ = sdata.gen_synthetic(
                sdata.SynthSpec(n=300, p=5, q=5, r=2, seed=500 + seed)
            )
            grid = (0.5, 1.0, 2.0)
            sols = [
                alm.solve(train, Hyperparams(C=c, tau=1.0), alm.AlmConfig(kkt_tol=1e-8))
                for c in grid
            ]
            for prev, nxt in zip(sols, sols[1:]):
                prev_margin = sieving.initial_active_set(
                    train, prev.primal.W, prev.primal.b, 0.05
                )
                support = classify_samples(nxt.dual.lam, nxt.report.config["C"]).support
                total += 1
                if np.all(np.isin(support, prev_margin)):
                    covered += 1
        assert covered >= 0.9 * total
