"""First-order baselines: an inexact semi-proximal ADMM and its symmetric
Gauss-Seidel variant, plus the warm-start helper for the Newton solver.

The semi-proximal variant splits off only the nuclear-norm block; its
(W, b) subproblem is a hinge model with a shifted quadratic, solved by the
same Newton machinery with the nuclear block disabled.  The Gauss-Seidel
variant sweeps closed-form b updates around a CG solve for W and proximal
updates for both slack blocks, trading much cheaper iterations for many
more of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import prox, sncg
from .alm import SolveReport, Solution
from .problem import (
    Dataset,
    DualPoint,
    Hyperparams,
    PrimalPoint,
    apply_A,
    apply_A_adjoint,
    classify_samples,
    dual_objective,
    kkt_residual,
    primal_objective,
)

__all__ = ["AdmmConfig", "solve_ispadmm", "solve_sgs_ispadmm", "warm_start"]


@dataclass
class AdmmConfig:
    """Shared parameters of the two ADMM solvers.

    ``eps_bar_scale = None`` resolves to ``1 + sqrt(n)``; the subproblem
    error caps are ``scale / (k^2 + 1)``, a summable sequence.  ``kkt_tol``
    may be None to disable the KKT stop (fixed iteration budgets).
    """

    gamma: float = 1.0
    zeta: float = 1.618
    max_iter: int = 30000
    delta_prox: float = 1e-6
    kkt_tol: float | None = 1e-6
    relobj_tol: float | None = None
    eps_bar_scale: float | None = None
    time_limit: float | None = None
    inner_max_outer: int = 30
    inner: sncg.SncgConfig = field(default_factory=sncg.SncgConfig)
    track_history: bool = True

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0 < self.zeta < (1 + np.sqrt(5)) / 2:
            raise ValueError("zeta must lie in (0, (1+sqrt(5))/2)")
        if self.delta_prox <= 0:
            raise ValueError("delta_prox must be positive")

    def eps_bar(self, k: int, n: int) -> float:
        scale = self.eps_bar_scale if self.eps_bar_scale is not None else 1.0 + np.sqrt(n)
        return scale / (k * k + 1.0)


@dataclass
class _InnerResult:
    W: np.ndarray
    b: float
    v: np.ndarray
    lam: np.ndarray
    sigma: float
    err_sq: float  # (1/gamma)||r1||^2 + (1/delta)|r2|^2 at the returned point
    feas: float  # ||A W + b y + v - e||
    converged: bool
    j1_size: int  # |J1| of the last Newton state
    split: sncg.AdjointSplit  # A* pi of the last Newton state, split


def _solve_quad_hinge(
    dataset: Dataset,
    C: float,
    a_w: float,
    target: np.ndarray,
    a_b: float,
    b_center: float,
    err_cap: float,
    warm: tuple,
    config: AdmmConfig,
    AW: np.ndarray | None = None,
    base: sncg.AdjointSplit | None = None,
) -> _InnerResult:
    """Inner augmented Lagrangian for the proximal (W, b) subproblem.

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
    grad_tol = np.sqrt(err_cap * min(config.gamma, config.delta_prox) / 2.0)
    feas_cap = np.sqrt(err_cap) / (1.0 + C * np.sqrt(n))
    err_sq = np.inf
    feas = np.inf
    v = np.zeros(n)
    j1_size = 0
    converged = False
    for _ in range(config.inner_max_outer):
        ctx = sncg.SubproblemContext(
            dataset=dataset,
            hyper=hyper0,
            sigma=sigma,
            lam_k=lam,
            w_weight=a_w,
            w_target=target,
            b_weight=a_b,
            b_center=b_center,
        )

        def stop(state, _i, _tol=grad_tol):
            return state.grad_norm <= _tol, "gradient"

        sub = sncg.solve_subproblem(ctx, W, b, stop, config.inner, AW0=AW, base=base)
        AW, base, j1_size = sub.state.AW, sub.state.split, sub.state.j1.size
        W, b, v = sub.W, sub.b, sub.v
        lam_new = sub.lam_new
        # grad at (W, b) with the box projection equals the subproblem
        # stationarity residual at lam_new.
        err_sq = (
            np.sum(sub.state.grad_W**2) / config.gamma
            + sub.state.grad_b**2 / config.delta_prox
        )
        feas = float(np.linalg.norm(lam_new - lam) / sigma)
        lam = lam_new
        if err_sq <= err_cap and feas <= feas_cap:
            converged = True
            break
        sigma = min(sigma * 5.0, 1e8)
    return _InnerResult(W, b, v, lam, sigma, float(err_sq), feas, converged, j1_size, base)


def solve_ispadmm(
    dataset: Dataset,
    hyper: Hyperparams,
    config: AdmmConfig | None = None,
    reference_obj: float | None = None,
    init: tuple[PrimalPoint, DualPoint] | None = None,
    max_iter: int | None = None,
) -> Solution:
    """Inexact semi-proximal ADMM on the single-constraint form W = U."""
    if config is None:
        config = AdmmConfig()
    t0 = time.perf_counter()
    p, q, n = dataset.p, dataset.q, dataset.n_samples
    gamma, zeta = config.gamma, config.zeta
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
    res = None
    # One fresh A W and one fresh A* lam per iteration, shared as in
    # alm.solve: by the KKT residual, the objective and the next inner
    # solve's first state.
    AW = np.zeros(n) if init is None else apply_A(dataset, W)
    At_lam = base = None
    obj = primal_objective(dataset, hyper, W, b, AW)
    j1_size = 0
    k_bar = 0
    limit = config.max_iter if max_iter is None else max_iter
    it = 0
    for it in range(1, limit + 1):
        target = (gamma * U - Lam) / (1.0 + gamma)
        cap = config.eps_bar(it - 1, n)
        inner = _solve_quad_hinge(
            dataset,
            hyper.C,
            a_w=1.0 + gamma,
            target=target,
            a_b=config.delta_prox,
            b_center=b,
            err_cap=cap,
            warm=(W, b, lam, inner_sigma),
            config=config,
            AW=AW,
            base=base,
        )
        if not inner.converged:
            flags.append(f"inner-nonconvergence@{it}")
        W, b, v, lam, inner_sigma = inner.W, inner.b, inner.v, inner.lam, inner.sigma
        err_sum += inner.err_sq
        cap_sum += cap
        j1_size = inner.j1_size
        nuc = prox.prox_nuclear(gamma * W + Lam, hyper.tau)
        U, k_bar = nuc.Y / gamma, nuc.k_bar
        Lam = Lam + zeta * gamma * (W - U)

        AW = apply_A(dataset, W)
        At_lam = apply_A_adjoint(dataset, lam)
        base = sncg.rebase(inner.split, -At_lam, hyper.C)
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
        if config.kkt_tol is not None and res.eta <= config.kkt_tol:
            converged = True
            break
        if reference_obj is not None and config.relobj_tol is not None:
            if abs(obj - reference_obj) / (1.0 + abs(reference_obj)) <= config.relobj_tol:
                converged = True
                break
        if config.time_limit is not None and time.perf_counter() - t0 > config.time_limit:
            flags.append("time-limit")
            break

    if res is None:
        res = kkt_residual(dataset, hyper, PrimalPoint(W, b, v, U), DualPoint(lam, Lam), AW)
    return _package(
        "ispadmm", dataset, hyper, W, b, v, U, lam, Lam, res, obj, it, converged,
        history, flags, config, t0, reference_obj, j1_size, k_bar,
        extra={"inner_err_sum": err_sum, "inner_cap_sum": cap_sum}, At_lam=At_lam,
    )


def solve_sgs_ispadmm(
    dataset: Dataset,
    hyper: Hyperparams,
    config: AdmmConfig | None = None,
    reference_obj: float | None = None,
) -> Solution:
    """Symmetric Gauss-Seidel semi-proximal ADMM on the two-constraint form."""
    if config is None:
        config = AdmmConfig()
    t0 = time.perf_counter()
    p, q, n = dataset.p, dataset.q, dataset.n_samples
    gamma, zeta = config.gamma, config.zeta
    y = dataset.labels
    signed = dataset.flat_features * y[:, None]  # rows y_i vec(X_i)

    def op(w_vec):
        return (1.0 + gamma) * w_vec + gamma * (signed.T @ (signed @ w_vec))

    W = np.zeros((p, q))
    w_vec = W.ravel().copy()
    v = np.zeros(n)
    U = np.zeros((p, q))
    lam = np.zeros(n)
    Lam = np.zeros((p, q))
    Aw = np.zeros(n)

    history = []
    flags = []
    converged = False
    res = None
    obj = primal_objective(dataset, hyper, W, 0.0, Aw)
    b = 0.0
    k_bar = 0
    it = 0
    w_resid = 0.0
    for it in range(1, config.max_iter + 1):
        cap = config.eps_bar(it - 1, n)
        b_bar = -float(y @ (Aw + v - 1.0 + lam / gamma)) / n
        rhs = (
            gamma * (signed.T @ (1.0 - b_bar * y - v))
            - signed.T @ lam
            - Lam.ravel()
            + gamma * U.ravel()
        )
        w_vec, _, w_resid, cg_ok = sncg.cg(op, rhs, tol=cap, max_iter=4 * p * q, x0=w_vec)
        if not cg_ok:
            flags.append(f"w-update-cg-stall@{it}")
        W = w_vec.reshape(p, q)
        Aw = signed @ w_vec
        b = -float(y @ (Aw + v - 1.0 + lam / gamma)) / n
        v = prox.prox_support_fn(-lam - gamma * (Aw + b * y - 1.0), hyper.C) / gamma
        nuc = prox.prox_nuclear(Lam + gamma * W, hyper.tau)
        U, k_bar = nuc.Y / gamma, nuc.k_bar
        r_lam = Aw + b * y + v - 1.0
        r_Lam = W - U
        lam = lam + zeta * gamma * r_lam
        Lam = Lam + zeta * gamma * r_Lam

        # signed @ w_vec is apply_A(dataset, W) to the bit: y_i = +-1
        res = kkt_residual(dataset, hyper, PrimalPoint(W, b, v, U), DualPoint(lam, Lam), Aw)
        obj = primal_objective(dataset, hyper, W, b, Aw)
        if config.track_history:
            history.append(
                {
                    "iter": it,
                    "eta_kkt": res.eta,
                    "objective": obj,
                    "w_update_resid": w_resid,
                    "w_update_cap": cap,
                    "multiplier_step": float(
                        np.sqrt(np.sum(r_lam**2) + np.sum(r_Lam**2)) * zeta * gamma
                    ),
                    "time": time.perf_counter() - t0,
                }
            )
        if config.kkt_tol is not None and res.eta <= config.kkt_tol:
            converged = True
            break
        if reference_obj is not None and config.relobj_tol is not None:
            if abs(obj - reference_obj) / (1.0 + abs(reference_obj)) <= config.relobj_tol:
                converged = True
                break
        if config.time_limit is not None and time.perf_counter() - t0 > config.time_limit:
            flags.append("time-limit")
            break

    return _package(
        "sgs-ispadmm", dataset, hyper, W, b, v, U, lam, Lam, res, obj, it, converged,
        history, flags, config, t0, reference_obj, 0, k_bar, extra={},
    )


def warm_start(
    dataset: Dataset,
    hyper: Hyperparams,
    n_iters: int,
    config: AdmmConfig | None = None,
) -> tuple[DualPoint, PrimalPoint]:
    """A few ADMM iterations from the origin, as a Newton-solver start."""
    if n_iters < 0:
        raise ValueError("n_iters must be nonnegative")
    if n_iters == 0:
        return DualPoint.zeros(dataset), PrimalPoint.zeros(dataset)
    if config is None:
        config = AdmmConfig(kkt_tol=None, track_history=False)
    sol = solve_ispadmm(dataset, hyper, config, max_iter=n_iters)
    return sol.dual, sol.primal


def _package(
    name, dataset, hyper, W, b, v, U, lam, Lam, res, obj, iters, converged,
    history, flags, config, t0, reference_obj, j1_size, alpha_size, extra, At_lam=None,
) -> Solution:
    dual_val = dual_objective(dataset, hyper, lam, Lam, At_lam=At_lam)
    cls = classify_samples(lam, hyper.C)
    relobj = None
    if reference_obj is not None:
        relobj = abs(obj - reference_obj) / (1.0 + abs(reference_obj))
    echo = asdict(config)
    echo.update({"C": hyper.C, "tau": hyper.tau})
    echo.update(extra)
    report = SolveReport(
        solver=name,
        converged=converged,
        n_outer=iters,
        eta_kkt=res.eta,
        eta_components=dict(res.components),
        raw_components=dict(res.raw),
        objective=obj,
        dual_obj=dual_val.value,
        sm_count=cls.sm_count,
        asm_count=cls.asm_count,
        j1_size=j1_size,
        alpha_size=alpha_size,
        wall_time=time.perf_counter() - t0,
        history=history,
        config=echo,
        flags=flags,
        relobj=relobj,
    )
    return Solution(PrimalPoint(W, b, v, U), DualPoint(lam, Lam), report)
