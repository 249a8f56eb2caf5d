"""Inexact augmented Lagrangian method for the support matrix machine.

The outer loop solves the smoothed subproblem with the semismooth
Newton-CG solver, updates the multipliers by the scaled constraint
residuals, and grows the penalty when primal feasibility stalls.  The
subproblem accuracy follows one of two summable-sequence rules evaluated
at the candidate iterate; both are exposed for testing.  A subproblem
whose gradient reaches its float64 roundoff floor counts as solved, so the
penalty is escalated and the step retried only on a real failure (see
``solve``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import sncg
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

__all__ = [
    "AlmConfig",
    "StartPoint",
    "SolveReport",
    "Solution",
    "CriterionData",
    "criterion_A",
    "criterion_B",
    "sigma_update",
    "solve",
]


@dataclass
class AlmConfig:
    """Outer-loop parameters.

    ``sigma0 = None`` resolves to ``min(10, max(1, 1/C))``.  The accuracy
    sequences are geometric (hence summable).  ``criterion`` selects which
    inexactness rule gates the subproblem: "A", "B", or "both" (the
    conjunction).  ``stop_mode`` switches the termination measure between
    the normalized KKT residual and the raw residual norms.
    """

    kkt_tol: float = 1e-6
    max_outer_iter: int = 500
    sigma0: float | None = None
    sigma_max: float = 1e6
    sigma_growth: float = 5.0
    eps0: float = 0.1
    eps_ratio: float = 0.5
    eta0: float = 0.1
    eta_ratio: float = 0.5
    criterion: str = "A"
    stop_mode: str = "normalized"
    retry_limit: int = 3
    reference_obj: float | None = None
    relobj_tol: float | None = None
    time_limit: float | None = None
    sncg: sncg.SncgConfig = field(default_factory=sncg.SncgConfig)

    def __post_init__(self):
        if self.criterion not in ("A", "B", "both"):
            raise ValueError("criterion must be 'A', 'B', or 'both'")
        if self.stop_mode not in ("normalized", "raw"):
            raise ValueError("stop_mode must be 'normalized' or 'raw'")
        if self.sigma_growth <= 1:
            raise ValueError("sigma_growth must exceed 1")
        if not (0 < self.eps_ratio < 1 and 0 < self.eta_ratio < 1):
            raise ValueError("accuracy ratios must lie in (0, 1)")

    def resolve_sigma0(self, C: float) -> float:
        if self.sigma0 is not None:
            return self.sigma0
        return min(10.0, max(1.0, 1.0 / C))


@dataclass
class StartPoint:
    """Warm start: multipliers are taken as-is, slacks are re-derived by
    the first subproblem solve."""

    W: np.ndarray
    b: float
    lam: np.ndarray
    Lam: np.ndarray


@dataclass
class SolveReport:
    """Outcome of one solve, shared by the ALM and ADMM solvers.

    ``alpha_size`` is the number of singular values above ``tau`` in the
    solver's last nuclear prox (``k_bar``), and ``j1_size`` is |J1|, the
    samples with ``0 < omega < C``: at the last Newton step for ALM, at
    the last inner Newton state for ISPADMM.  sGS-ISPADMM
    reports ``j1_size = 0``: it updates W by CG on the full data and
    never forms a Newton state.
    """

    solver: str
    converged: bool
    n_outer: int
    eta_kkt: float
    eta_components: dict
    raw_components: dict
    objective: float
    dual_obj: float
    sm_count: int
    asm_count: int
    j1_size: int
    alpha_size: int
    wall_time: float
    history: list
    config: dict
    flags: list
    relobj: float | None = None


@dataclass
class Solution:
    primal: PrimalPoint
    dual: DualPoint
    report: SolveReport


@dataclass
class CriterionData:
    """Quantities entering the inexactness bounds at a candidate iterate."""

    grad_norm: float
    x_norm: float
    z_norm: float
    w_norm: float
    dz_norm: float


def _common_factor(data: CriterionData, sigma: float) -> float:
    chi = data.w_norm + data.dz_norm / sigma + 1.0 / sigma
    factor = min(1.0 / chi, 1.0) if chi > 0 else 1.0
    return factor / (1.0 + data.x_norm + data.z_norm)


def criterion_A(data: CriterionData, eps_k: float, sigma: float) -> bool:
    """First inexact rule: gradient below a summable bound."""
    return data.grad_norm <= (eps_k**2 / sigma) * _common_factor(data, sigma)


def criterion_B(data: CriterionData, eta_k: float, sigma: float) -> bool:
    """Second inexact rule, scaled by the squared multiplier movement."""
    bound = (eta_k**2 / sigma) * data.dz_norm**2 * _common_factor(data, sigma)
    return data.grad_norm <= bound


def sigma_update(sigma: float, config: AlmConfig, feas_prev: float | None, feas_new: float) -> float:
    """Grow the penalty unless primal feasibility at least halved."""
    if feas_prev is not None and feas_new > 0.5 * feas_prev:
        return min(sigma * config.sigma_growth, config.sigma_max)
    return sigma


def _criterion_closure(config: AlmConfig, ctx: sncg.SubproblemContext, z_lam, z_Lam, eps_k, eta_k):
    sigma = ctx.sigma

    def stop(state: sncg.SubproblemState, _i: int):
        gn = state.grad_norm
        if gn == 0.0:
            return True, "zero-gradient"
        x_norm = np.sqrt(
            np.sum(state.W * state.W)
            + state.b**2
            + np.sum(state.v * state.v)
            + np.sum(state.U * state.U)
        )
        d_lam = state.lam_new - z_lam
        d_Lam = state.Lam_new - z_Lam
        z_norm = np.sqrt(np.sum(state.lam_new**2) + np.sum(state.Lam_new**2))
        dz = np.sqrt(np.sum(d_lam * d_lam) + np.sum(d_Lam * d_Lam))
        data = CriterionData(
            grad_norm=gn,
            x_norm=float(x_norm),
            z_norm=float(z_norm),
            w_norm=float(np.linalg.norm(state.W)),
            dz_norm=float(dz),
        )
        ok_a = criterion_A(data, eps_k, sigma)
        # With no multiplier movement rule B degenerates to grad == 0, so
        # rule A alone gates those iterations.
        ok_b = criterion_B(data, eta_k, sigma) if dz > 0 else ok_a
        if config.criterion == "A":
            return ok_a, "criterion-A"
        if config.criterion == "B":
            return ok_b, "criterion-B"
        return ok_a and ok_b, "criterion-A+B"

    return stop


def solve(
    dataset: Dataset,
    hyper: Hyperparams,
    config: AlmConfig | None = None,
    init: StartPoint | None = None,
) -> Solution:
    """Run the augmented Lagrangian method to the requested KKT accuracy.

    The origin is the default starting point.  Each outer iteration runs
    one SNCG subproblem, which ends converged when the inexactness rule
    fires ("criterion-A", "criterion-B", "criterion-A+B"), the gradient is
    zero ("zero-gradient"), or the gradient sits at its float64 roundoff
    floor ("roundoff-floor"); see ``sncg``.  Only a real failure, a
    line-search stall above the floor or an exhausted Newton budget,
    triggers a retry: the penalty is escalated and the step redone, at
    most ``retry_limit`` times in a row (flag ``subproblem-retry@k``).
    After that the failed result is accepted with the flag
    ``subproblem-nonconvergence``, and the solve can no longer report
    ``converged``.

    The solve stops when the KKT measure meets ``kkt_tol``, when the
    relative objective gap meets ``relobj_tol`` (flag
    ``stopped-on-relobj``), at ``time_limit`` (flag ``time-limit``), or
    after ``max_outer_iter`` attempts.  ``converged`` holds only for the
    first two and only if no subproblem failure was accepted.

    ``report.history`` has one row per subproblem attempt, retried ones
    included: its penalty, Newton and CG counts, |J1|, rank, stop
    reason, whether it was ``accepted``, and the elapsed time.  Accepted
    rows add the KKT residual and the objective.
    """
    if config is None:
        config = AlmConfig()
    t0 = time.perf_counter()
    p, q, n = dataset.p, dataset.q, dataset.n_samples
    if init is None:
        W = np.zeros((p, q))
        b = 0.0
        lam = np.zeros(n)
        Lam = np.zeros((p, q))
    else:
        W = np.array(init.W, dtype=np.float64, copy=True)
        b = float(init.b)
        lam = np.array(init.lam, dtype=np.float64, copy=True)
        Lam = np.array(init.Lam, dtype=np.float64, copy=True)

    sigma = config.resolve_sigma0(hyper.C)
    history = []
    flags = []
    converged = False
    feas_prev = None
    retries = 0
    v = np.zeros(n)
    U = W.copy()
    res = None
    last_j1 = 0
    last_alpha = 0
    outer = 0
    # One fresh A W and one fresh A* lam per accepted iterate.  A W is
    # shared by the KKT residual, the objective and the next subproblem's
    # first state; A* lam = -A* pi by the KKT residual and, through
    # sncg.rebase, by the next subproblem's updates of A* pi.
    AW = np.zeros(n) if init is None else apply_A(dataset, W)
    base = None

    while outer < config.max_outer_iter:
        eps_k = config.eps0 * config.eps_ratio**outer
        eta_k = config.eta0 * config.eta_ratio**outer
        ctx = sncg.SubproblemContext(
            dataset=dataset,
            hyper=hyper,
            sigma=sigma,
            lam_k=lam,
            Lam_k=Lam if hyper.tau > 0 else None,
        )
        stop = _criterion_closure(config, ctx, lam, Lam, eps_k, eta_k)
        sub = sncg.solve_subproblem(ctx, W, b, stop, config.sncg, AW0=AW, base=base)
        outer += 1
        row = {
            "outer": outer,
            "sigma": sigma,
            "newton_iters": sub.iterations,
            "cg_iters": sub.stats.total_cg,
            "j1_size": sub.stats.j1_sizes[-1] if sub.stats.j1_sizes else 0,
            "alpha_size": sub.state.alpha_size,
            "stop_reason": sub.stop_reason,
            "accepted": True,
        }
        history.append(row)
        if not sub.converged:
            retries += 1
            if retries <= config.retry_limit:
                row["accepted"] = False
                row["time"] = time.perf_counter() - t0
                sigma = min(sigma * config.sigma_growth, config.sigma_max)
                flags.append(f"subproblem-retry@{outer}")
                continue
            flags.append("subproblem-nonconvergence")
        else:
            retries = 0

        W, b, v, U = sub.W, sub.b, sub.v, sub.U
        # The scaled-residual updates coincide with the proximal splits of
        # the subproblem, so the multipliers are taken from there directly.
        lam = sub.lam_new
        Lam = sub.Lam_new
        AW = apply_A(dataset, W)
        At_lam = apply_A_adjoint(dataset, lam)
        base = sncg.rebase(sub.state.split, -At_lam, hyper.C)
        res = kkt_residual(
            dataset, hyper, PrimalPoint(W, b, v, U), DualPoint(lam, Lam), AW, At_lam
        )
        obj = primal_objective(dataset, hyper, W, b, AW)
        last_j1 = row["j1_size"]
        last_alpha = row["alpha_size"]
        row.update(
            eta_kkt=res.eta,
            components=dict(res.components),
            raw=dict(res.raw),
            objective=obj,
            time=time.perf_counter() - t0,
        )
        measure = res.eta if config.stop_mode == "normalized" else res.raw_max
        if measure <= config.kkt_tol:
            converged = "subproblem-nonconvergence" not in flags
            break
        if config.reference_obj is not None and config.relobj_tol is not None:
            relobj = abs(obj - config.reference_obj) / (1.0 + abs(config.reference_obj))
            if relobj <= config.relobj_tol:
                converged = "subproblem-nonconvergence" not in flags
                flags.append("stopped-on-relobj")
                break
        if config.time_limit is not None and time.perf_counter() - t0 > config.time_limit:
            flags.append("time-limit")
            break
        feas_new = max(res.components["lambda"], res.components["Lambda"])
        sigma = sigma_update(sigma, config, feas_prev, feas_new)
        feas_prev = feas_new

    if res is None:  # every attempt failed before producing an iterate
        At_lam = apply_A_adjoint(dataset, lam)
        res = kkt_residual(
            dataset, hyper, PrimalPoint(W, b, v, U), DualPoint(lam, Lam), AW, At_lam
        )
        obj = primal_objective(dataset, hyper, W, b, AW)
    dual_val = dual_objective(dataset, hyper, lam, Lam, At_lam=At_lam)
    cls = classify_samples(lam, hyper.C)
    relobj = None
    if config.reference_obj is not None:
        relobj = abs(obj - config.reference_obj) / (1.0 + abs(config.reference_obj))
    report = SolveReport(
        solver="alm-sncg",
        converged=converged,
        n_outer=outer,
        eta_kkt=res.eta,
        eta_components=dict(res.components),
        raw_components=dict(res.raw),
        objective=obj,
        dual_obj=dual_val.value,
        sm_count=cls.sm_count,
        asm_count=cls.asm_count,
        j1_size=last_j1,
        alpha_size=last_alpha,
        wall_time=time.perf_counter() - t0,
        history=history,
        config=_config_echo(config, hyper),
        flags=flags,
        relobj=relobj,
    )
    return Solution(PrimalPoint(W, b, v, U), DualPoint(lam, Lam), report)


def _config_echo(config: AlmConfig, hyper: Hyperparams) -> dict:
    echo = asdict(config)
    echo["sigma0_resolved"] = config.resolve_sigma0(hyper.C)
    echo["C"] = hyper.C
    echo["tau"] = hyper.tau
    echo["classify_tol"] = 1e-8 * hyper.C
    return echo
