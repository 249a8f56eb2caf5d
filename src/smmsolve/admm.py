"""First-order baselines: an inexact semi-proximal ADMM and its symmetric
Gauss-Seidel variant, plus the warm-start helper for the Newton solver.

The semi-proximal variant splits off only the nuclear-norm block; its
(W, b) subproblem is a hinge model with a shifted quadratic, solved by the
same Newton machinery with the nuclear block disabled.  The Gauss-Seidel
variant sweeps closed-form b updates around an exact W solve, factored once
per call, and proximal updates for both slack blocks, trading much cheaper
iterations for many more of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import prox, sncg
from .alm import Solution, _check_stop_rule, _finish, _stop
from .problem import (
    Dataset,
    DualPoint,
    Hyperparams,
    PrimalPoint,
    apply_A,
    kkt_residual,
    primal_objective,
)

__all__ = ["AdmmConfig", "solve_ispadmm", "solve_sgs_ispadmm", "warm_start"]

# Outer iterations of the inner augmented Lagrangian in one ISPADMM step.
INNER_MAX_OUTER = 30
# The penalty of both ADMM solvers, > 0, the dual step length, in
# (0, (1 + sqrt 5) / 2), and the proximal weight on b in ISPADMM's (W, b)
# subproblem, > 0.
GAMMA = 1.0
ZETA = 1.618
DELTA_PROX = 1e-6


@dataclass
class AdmmConfig:
    """Shared parameters of the two ADMM solvers.

    ISPADMM caps its (W, b) subproblem errors by ``(1 + sqrt(n)) / (k^2 + 1)``,
    a summable sequence (sGS's W update is exact).  ``kkt_tol`` may be None
    to disable the KKT stop (fixed iteration budgets), and ``relobj_tol``
    None to disable the stop on the relative objective gap to the solver's
    ``reference_obj``; one that is set must be positive, and ``max_iter``
    nonnegative.  The stop test and the report are ``alm``'s.  The fixed
    constants are ``GAMMA``, ``ZETA`` and ``DELTA_PROX``; ISPADMM's inner
    Newton solves take ``sncg.SncgConfig()``.
    """

    max_iter: int = 30000
    kkt_tol: float | None = 1e-6
    relobj_tol: float | None = None
    time_limit: float | None = None
    track_history: bool = True

    def __post_init__(self):
        _check_stop_rule(self, self.max_iter, "max_iter")

    def eps_bar(self, k: int, n: int) -> float:
        return (1.0 + np.sqrt(n)) / (k * k + 1.0)


@dataclass
class _InnerResult:
    last: sncg.SubproblemResult  # the last subproblem, at the returned point
    sigma: float
    err_sq: float  # (1/gamma)||r1||^2 + (1/delta)|r2|^2 at the returned point
    feas: float  # ||A W + b y + v - e||
    converged: bool


def _solve_quad_hinge(
    dataset: Dataset,
    C: float,
    target: np.ndarray,
    b_center: float,
    err_cap: float,
    warm: tuple,
    AW: np.ndarray | None = None,
    base: sncg.AdjointSplit | None = None,
) -> _InnerResult:
    """Inner augmented Lagrangian for the proximal (W, b) subproblem, with
    the weights 1 + GAMMA on ||W - target||^2 and DELTA_PROX on
    (b - b_center)^2.

    The final Newton gradient *is* the stationarity residual of the
    subproblem at the updated multiplier, so the declared error is read
    off directly; the feasibility gap is driven below a matching cap.
    ``AW`` and ``base``, if given, are A W of the warm start and the split
    the first subproblem starts its updates of A* pi from; later ones
    carry both on from the subproblem before.
    """
    W, b, lam, sigma = warm
    n = dataset.n_samples
    hyper0 = Hyperparams(C=C, tau=0.0)
    # The declared error weights the blocks by 1/gamma and 1/delta, so a
    # gradient below this threshold keeps the weighted square under the cap.
    grad_tol = np.sqrt(err_cap * min(GAMMA, DELTA_PROX) / 2.0)
    feas_cap = np.sqrt(err_cap) / (1.0 + C * np.sqrt(n))
    err_sq = np.inf
    feas = np.inf
    converged = False
    for _ in range(INNER_MAX_OUTER):
        ctx = sncg.SubproblemContext(
            dataset=dataset,
            hyper=hyper0,
            sigma=sigma,
            lam_k=lam,
            w_weight=1.0 + GAMMA,
            w_target=target,
            b_weight=DELTA_PROX,
            b_center=b_center,
        )

        def stop(state, _i, _tol=grad_tol):
            return state.grad_norm <= _tol, "gradient"

        sub = sncg.solve_subproblem(ctx, W, b, stop, AW0=AW, base=base)
        st = sub.state
        W, b, AW, base = st.W, st.b, st.AW, st.split
        lam_new = st.lam_new
        # grad at (W, b) with the box projection equals the subproblem
        # stationarity residual at lam_new.
        err_sq = np.sum(st.grad_W**2) / GAMMA + st.grad_b**2 / DELTA_PROX
        feas = float(np.linalg.norm(lam_new - lam) / sigma)
        lam = lam_new
        if err_sq <= err_cap and feas <= feas_cap:
            converged = True
            break
        sigma = min(sigma * 5.0, 1e8)
    return _InnerResult(sub, sigma, float(err_sq), feas, converged)


def solve_ispadmm(
    dataset: Dataset,
    hyper: Hyperparams,
    config: AdmmConfig | None = None,
    reference_obj: float | None = None,
    init: tuple[PrimalPoint, DualPoint] | None = None,
) -> Solution:
    """Inexact semi-proximal ADMM on the single-constraint form W = U."""
    if config is None:
        config = AdmmConfig()
    t0 = time.perf_counter()
    p, q, n = dataset.p, dataset.q, dataset.n_samples
    gamma = GAMMA
    if init is None:
        W = np.zeros((p, q))
        b = 0.0
        v = np.zeros(n)
        U = np.zeros((p, q))
        lam = np.zeros(n)
        Lam = np.zeros((p, q))
    else:
        pr, du = init
        W, b, v, U = (np.array(pr.W, copy=True), float(pr.b), np.array(pr.v, copy=True), np.array(pr.U, copy=True))
        lam, Lam = np.array(du.lam, copy=True), np.array(du.Lam, copy=True)

    inner_sigma = 1.0
    history = []
    flags = []
    err_sum = 0.0
    cap_sum = 0.0
    converged = False
    res = obj = None
    # One fresh A W and one fresh A* lam per iteration, from the last inner
    # subproblem's hand-off, shared as in alm.solve: by the KKT residual,
    # the objective and the next inner solve's first state.
    AW = np.zeros(n) if init is None else apply_A(dataset, W)
    At_lam = base = None
    j1_size = 0
    k_bar = 0
    it = 0
    for it in range(1, config.max_iter + 1):
        target = (gamma * U - Lam) / (1.0 + gamma)
        cap = config.eps_bar(it - 1, n)
        inner = _solve_quad_hinge(
            dataset, hyper.C, target, b, cap, (W, b, lam, inner_sigma), AW, base
        )
        if not inner.converged:
            flags.append(f"inner-nonconvergence@{it}")
        st = inner.last.state
        W, b, v, lam, inner_sigma = st.W, st.b, st.v, st.lam_new, inner.sigma
        err_sum += inner.err_sq
        cap_sum += cap
        j1_size = st.j1.size
        nuc = prox.prox_nuclear(gamma * W + Lam, hyper.tau)
        U, k_bar = nuc.Y / gamma, nuc.k_bar
        Lam = Lam + ZETA * gamma * (W - U)

        AW, At_lam = inner.last.hand_off(dataset, hyper.C)
        base = st.split
        res = kkt_residual(
            dataset, hyper, PrimalPoint(W, b, v, U), DualPoint(lam, Lam), AW, At_lam
        )
        obj = primal_objective(dataset, hyper, W, b, AW)
        if config.track_history:
            history.append(
                {
                    "iter": it,
                    "eta_kkt": res.eta,
                    "objective": obj,
                    "inner_err_sq": inner.err_sq,
                    "inner_err_cap": cap,
                    "time": time.perf_counter() - t0,
                }
            )
        why = _stop(config, res.eta, obj, reference_obj, t0)
        if why is not None:
            converged = why != "time-limit"
            if why != "kkt":
                flags.append(why)
            break

    return _finish(
        "ispadmm", dataset, hyper, PrimalPoint(W, b, v, U), DualPoint(lam, Lam),
        res, obj, AW, At_lam, it, converged, history, flags, config,
        {"inner_err_sum": err_sum, "inner_cap_sum": cap_sum}, t0, reference_obj, j1_size, k_bar,
    )


def _w_solver(signed: np.ndarray, gamma: float):
    """Exact solves with sGS's W operator M = (1 + gamma) I + gamma S'S,
    S = ``signed`` (n x pq), from one inverse in the smaller Gram space:
    M^-1 when pq <= n, else Woodbury's
    M^-1 r = (r - gamma S'((1 + gamma) I + gamma SS')^-1 S r) / (1 + gamma)."""
    n, d = signed.shape
    G = gamma * (signed.T @ signed if d <= n else signed @ signed.T)
    G.flat[:: len(G) + 1] += 1.0 + gamma
    inv = np.linalg.inv(G)
    if d <= n:
        return lambda r: inv @ r
    return lambda r: (r - gamma * (signed.T @ (inv @ (signed @ r)))) / (1.0 + gamma)


def solve_sgs_ispadmm(
    dataset: Dataset,
    hyper: Hyperparams,
    config: AdmmConfig | None = None,
    reference_obj: float | None = None,
) -> Solution:
    """Symmetric Gauss-Seidel semi-proximal ADMM on the two-constraint form.

    The W update is exact, by ``_w_solver``'s inverse formed once per call
    (min(n, pq)^2 floats, n pq min(n, pq) flops); with ``kkt_tol=None`` and
    no history, no per-iteration KKT residual is formed."""
    if config is None:
        config = AdmmConfig()
    t0 = time.perf_counter()
    p, q, n = dataset.p, dataset.q, dataset.n_samples
    gamma = GAMMA
    y = dataset.labels
    signed = dataset.flat_features * y[:, None]  # rows y_i vec(X_i)
    solve_w = _w_solver(signed, gamma)
    track_eta = config.kkt_tol is not None or config.track_history

    W = np.zeros((p, q))
    v = np.zeros(n)
    U = np.zeros((p, q))
    lam = np.zeros(n)
    Lam = np.zeros((p, q))
    Aw = np.zeros(n)

    history = []
    flags = []
    converged = False
    res = obj = None
    b = 0.0
    k_bar = 0
    it = 0
    for it in range(1, config.max_iter + 1):
        b_bar = -float(y @ (Aw + v - 1.0 + lam / gamma)) / n
        rhs = signed.T @ (gamma * (1.0 - b_bar * y - v) - lam) - Lam.ravel() + gamma * U.ravel()
        w_vec = solve_w(rhs)
        W = w_vec.reshape(p, q)
        Aw = signed @ w_vec
        b = -float(y @ (Aw + v - 1.0 + lam / gamma)) / n
        v = prox.prox_support_fn(-lam - gamma * (Aw + b * y - 1.0), hyper.C) / gamma
        nuc = prox.prox_nuclear(Lam + gamma * W, hyper.tau)
        U, k_bar = nuc.Y / gamma, nuc.k_bar
        r_lam = Aw + b * y + v - 1.0
        r_Lam = W - U
        lam = lam + ZETA * gamma * r_lam
        Lam = Lam + ZETA * gamma * r_Lam

        # signed @ w_vec is apply_A(dataset, W) to the bit: y_i = +-1
        if track_eta:
            res = kkt_residual(dataset, hyper, PrimalPoint(W, b, v, U), DualPoint(lam, Lam), Aw)
        obj = primal_objective(dataset, hyper, W, b, Aw)
        if config.track_history:
            history.append(
                {
                    "iter": it,
                    "eta_kkt": res.eta,
                    "objective": obj,
                    "multiplier_step": float(
                        np.sqrt(np.sum(r_lam**2) + np.sum(r_Lam**2)) * ZETA * gamma
                    ),
                    "time": time.perf_counter() - t0,
                }
            )
        why = _stop(config, None if res is None else res.eta, obj, reference_obj, t0)
        if why is not None:
            converged = why != "time-limit"
            if why != "kkt":
                flags.append(why)
            break

    return _finish(
        "sgs-ispadmm", dataset, hyper, PrimalPoint(W, b, v, U), DualPoint(lam, Lam),
        res, obj, Aw, None, it, converged, history, flags, config, {}, t0, reference_obj, 0, k_bar,
    )


def warm_start(
    dataset: Dataset,
    hyper: Hyperparams,
    n_iters: int,
) -> tuple[DualPoint, PrimalPoint]:
    """``n_iters`` ISPADMM iterations from the origin, as a Newton-solver
    start."""
    if n_iters < 0:
        raise ValueError("n_iters must be nonnegative")
    if n_iters == 0:
        return DualPoint.zeros(dataset), PrimalPoint.zeros(dataset)
    config = AdmmConfig(max_iter=n_iters, kkt_tol=None, track_history=False)
    sol = solve_ispadmm(dataset, hyper, config)
    return sol.dual, sol.primal

