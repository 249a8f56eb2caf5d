"""Inexact augmented Lagrangian method for the support matrix machine.

The outer loop solves the smoothed subproblem with the semismooth
Newton-CG solver, updates the multipliers by the scaled constraint
residuals, and grows the penalty when primal feasibility stalls.  The
subproblem accuracy follows a summable-sequence rule (``criterion_A``)
evaluated at the candidate iterate.  A subproblem whose gradient reaches
its float64 roundoff floor counts as solved, so the penalty is escalated
and the step retried only on a real failure (see ``solve``).

The outer stop test (``_stop``) and the report builder (``_finish``) are
shared with the ADMM baselines in ``admm``.
"""

from __future__ import annotations

import math
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
    "NUCLEAR_SIGMA0_CAP",
    "AlmConfig",
    "StartPoint",
    "SolveReport",
    "Solution",
    "criterion_A",
    "resolve_sigma0",
    "sigma_update",
    "solve",
]


# The data rule's bound on the initial penalty when tau > 0, where sigma
# also weighs the nuclear block, in units of 1.  On n = 2000 and 5000
# instances with features scaled by 1e-3 to 0.1 and tau = 10, uncapped
# starts (6e4 to 1.5e5) took up to 1.5x the fixed rule's time to reach
# 1e-6; capped, one of those points took 1.1-1.2x and the rest less.
NUCLEAR_SIGMA0_CAP = 1e3
# The penalty grows by SIGMA_GROWTH (> 1) when feasibility stalls, and the
# k-th subproblem is solved to the accuracy EPS0 * EPS_RATIO**k, with
# EPS_RATIO in (0, 1): a geometric, hence summable, sequence.
SIGMA_GROWTH = 5.0
EPS0 = 0.1
EPS_RATIO = 0.5
# The penalty never grows past SIGMA_MAX, and a failed subproblem is
# retried at a grown penalty at most RETRY_LIMIT times in a row.
SIGMA_MAX = 1e6
RETRY_LIMIT = 3


@dataclass
class AlmConfig:
    """Outer-loop parameters; the stop rules are ``solve``'s.

    A tolerance that is set must be positive: no float64 residual meets
    a zero, negative or NaN one, and the solve would run out its budget.
    ``stop_mode`` switches the termination measure between the normalized
    KKT residual and the raw residual norms.  The penalty starts at
    ``resolve_sigma0``; its cap, its growth, the accuracy sequence and the
    retry budget are the module constants ``SIGMA_MAX``, ``SIGMA_GROWTH``,
    ``EPS0``, ``EPS_RATIO`` and ``RETRY_LIMIT``.
    """

    kkt_tol: float = 1e-6
    max_outer_iter: int = 500
    stop_mode: str = "normalized"
    relobj_tol: float | None = None
    time_limit: float | None = None
    sncg: sncg.SncgConfig = field(default_factory=sncg.SncgConfig)

    def __post_init__(self):
        if self.stop_mode not in ("normalized", "raw"):
            raise ValueError("stop_mode must be 'normalized' or 'raw'")
        _check_stop_rule(self, self.max_outer_iter, "max_outer_iter")


def _check_stop_rule(config, budget: int, budget_name: str):
    """``AlmConfig``'s and ``admm.AdmmConfig``'s checks: set tolerances
    positive (not NaN), the iteration budget nonnegative."""
    for name in ("kkt_tol", "relobj_tol"):
        tol = getattr(config, name)
        if tol is not None and not tol > 0:
            raise ValueError(f"{name} must be positive")
    if budget < 0:
        raise ValueError(f"{budget_name} must be nonnegative")


def resolve_sigma0(dataset: Dataset, hyper: Hyperparams) -> float:
    """The initial penalty for ``dataset`` at ``hyper``:
    ``min(SIGMA_MAX, max(min(10, max(1, 1/C)), 1/m))`` with ``m`` the mean
    of ``||vec X_i||^2``.

    The penalty's unit is ``1/||vec X_i||^2``: it multiplies ``A*A`` in the
    subproblem's Hessian, next to the unit weight of ``||W||^2``, and a
    step dW moves omega_i by ``sigma <X_i, dW>``, so the band
    J1 = {0 < omega_i < C} of rows in the Newton system is narrow only once
    ``sigma m`` is of order one.  With ``tau > 0`` the penalty also
    multiplies the nuclear prox's Jacobian in that Hessian, where its unit
    is 1, so there ``1/m`` counts only up to ``NUCLEAR_SIGMA0_CAP``.  The
    rule never starts below the fixed ``min(10, max(1, 1/C))``, which it
    returns where features are large.
    """
    m = dataset.mean_sq_feature_norm
    data_rule = 1.0 / m if m > 0 else 0.0
    if hyper.tau > 0:
        data_rule = min(data_rule, NUCLEAR_SIGMA0_CAP)
    fixed_rule = min(10.0, max(1.0, 1.0 / hyper.C))
    return min(SIGMA_MAX, max(fixed_rule, data_rule))


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
    samples with ``0 < omega < C``, at the state the last subproblem
    returned (for ISPADMM, its last inner one).  sGS-ISPADMM
    reports ``j1_size = 0``: it updates W by an exact solve on the full
    data and never forms a Newton state.

    ``history`` has one row per outer iteration.  An ALM row counts its
    subproblem's Newton steps (``newton_iters``), the CG iterations of
    those solved by CG (``cg_iters``), the number solved directly, with
    no CG iteration (``direct_steps``), and the number taken from a state
    with J1 empty, whose b went to its exact minimizer at the current W
    (``exact_b_steps``); see ``solve``.  ``config`` echoes the config's
    fields with C, tau and the solver's extras (ALM: ``sigma0_resolved``);
    ``relobj`` is the gap to the solver's ``reference_obj``, None without.
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


def criterion_A(
    grad_norm: float, x_norm: float, z_norm: float, w_norm: float, dz_norm: float,
    eps_k: float, sigma: float,
) -> bool:
    """The inexact rule: gradient below a summable bound, taken at the norms
    of a candidate iterate x, its multipliers z, W and the step dz of z."""
    chi = w_norm + dz_norm / sigma + 1.0 / sigma
    factor = min(1.0 / chi, 1.0) if chi > 0 else 1.0
    return grad_norm <= (eps_k**2 / sigma) * (factor / (1.0 + x_norm + z_norm))


def _grow(sigma: float) -> float:
    """One growth step, capped at ``SIGMA_MAX``; never lowers ``sigma``."""
    return max(sigma, min(sigma * SIGMA_GROWTH, SIGMA_MAX))


def sigma_update(sigma: float, feas_prev: float | None, feas_new: float) -> float:
    """Grow the penalty unless primal feasibility at least halved."""
    if feas_prev is not None and feas_new > 0.5 * feas_prev:
        return _grow(sigma)
    return sigma


def _criterion_closure(ctx: sncg.SubproblemContext, z_Lam, eps_k):
    """The subproblem's stop test, rule A at ``eps_k``; the multiplier step
    of lam is measured from ``ctx.lam_k``.  At a screened state ||v|| is an
    upper bound (see ``sncg.SubproblemState``), which only delays the
    test."""
    sigma = ctx.sigma

    def stop(state: sncg.SubproblemState, _i: int):
        gn = state.grad_norm
        if gn == 0.0:
            return True, "zero-gradient"
        # dot products: the np.sum/np.linalg.norm wrappers cost more at these sizes
        w_sq = float(np.vdot(state.W, state.W))
        x_norm = math.sqrt(w_sq + state.b**2 + state.v_norm**2 + np.vdot(state.U, state.U))
        d_Lam = state.Lam_new - z_Lam
        z_norm = math.sqrt(state.lam_new_norm**2 + np.vdot(state.Lam_new, state.Lam_new))
        dz = math.sqrt(state.lam_step_norm**2 + np.vdot(d_Lam, d_Lam))
        return criterion_A(gn, x_norm, z_norm, math.sqrt(w_sq), dz, eps_k, sigma), "criterion-A"

    return stop


def solve(
    dataset: Dataset,
    hyper: Hyperparams,
    config: AlmConfig | None = None,
    reference_obj: float | None = None,
    init: StartPoint | None = None,
) -> Solution:
    """Run the augmented Lagrangian method to the requested KKT accuracy.

    The origin is the default starting point.  Each outer iteration runs
    one SNCG subproblem, which ends converged when the inexactness rule
    fires ("criterion-A"), the gradient is zero ("zero-gradient"), or the
    gradient sits at its float64 roundoff floor ("roundoff-floor"); see
    ``sncg``.  Only a real failure, a line-search stall above the floor or
    an exhausted Newton budget, triggers a retry: the penalty is escalated
    and the step redone, at most ``RETRY_LIMIT`` times in a row (flag
    ``subproblem-retry@k``).  After that the failed result is accepted
    with the flag ``subproblem-nonconvergence``, and the solve can no
    longer report ``converged``.

    The solve stops on ``_stop``'s reasons, shared with the ADMM solvers:
    the KKT measure meets ``kkt_tol``, the relative objective gap to
    ``reference_obj`` meets ``relobj_tol`` (flag ``stopped-on-relobj``; a
    ``reference_obj`` alone only reports the gap), or ``time_limit`` passes
    (flag ``time-limit``); or else after ``max_outer_iter`` attempts.
    ``converged`` holds only for the first two and only if no subproblem
    failure was accepted.

    ``report.history`` has one row per subproblem attempt, retried ones
    included: its penalty, Newton and CG counts, |J1|, rank, stop
    reason, whether it was ``accepted``, and the elapsed time.  The CG
    count (``cg_iters``) covers the Newton steps solved by CG; those
    solved directly are counted in ``direct_steps``, and those from a
    state with J1 empty, which take b to its exact minimizer at the
    current W instead of the damped system's d_b (``sncg.b_minimizer``),
    in ``exact_b_steps``.  Accepted rows add the KKT residual and the
    objective.
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

    sigma = sigma0 = resolve_sigma0(dataset, hyper)
    history = []
    flags = []
    converged = False
    feas_prev = None
    retries = 0
    v = np.zeros(n)
    U = W.copy()
    res = obj = At_lam = None
    last_j1 = 0
    last_alpha = 0
    outer = 0
    # One fresh A W and one fresh A* lam per accepted iterate, from the
    # subproblem's hand-off: A W is shared by the KKT residual, the
    # objective and the next subproblem's first state, A* lam = -A* pi by
    # the KKT residual and the next subproblem's updates of A* pi.
    AW = np.zeros(n) if init is None else apply_A(dataset, W)
    base = None

    while outer < config.max_outer_iter:
        eps_k = EPS0 * EPS_RATIO**outer
        ctx = sncg.SubproblemContext(
            dataset=dataset,
            hyper=hyper,
            sigma=sigma,
            lam_k=lam,
            Lam_k=Lam if hyper.tau > 0 else None,
        )
        stop = _criterion_closure(ctx, Lam, eps_k)
        sub = sncg.solve_subproblem(ctx, W, b, stop, config.sncg, AW0=AW, base=base)
        outer += 1
        row = {
            "outer": outer,
            "sigma": sigma,
            "newton_iters": sub.iterations,
            "cg_iters": sub.stats.total_cg,
            "direct_steps": sub.stats.direct_steps,
            "exact_b_steps": sub.stats.exact_b_steps,
            "j1_size": sub.state.j1.size,
            "alpha_size": sub.state.alpha_size,
            "stop_reason": sub.stop_reason,
            "accepted": True,
        }
        history.append(row)
        if not sub.converged:
            retries += 1
            if retries <= RETRY_LIMIT:
                row["accepted"] = False
                row["time"] = time.perf_counter() - t0
                sigma = _grow(sigma)
                flags.append(f"subproblem-retry@{outer}")
                continue
            flags.append("subproblem-nonconvergence")
        else:
            retries = 0

        st = sub.state
        W, b, v, U = st.W, st.b, st.v, st.U
        # The scaled-residual updates coincide with the proximal splits of
        # the subproblem, so the multipliers are taken from there directly.
        lam, Lam = st.lam_new, st.Lam_new
        AW, At_lam = sub.hand_off(dataset, hyper.C)
        base = st.split
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
        why = _stop(config, measure, obj, reference_obj, t0)
        if why is not None:
            converged = why != "time-limit" and "subproblem-nonconvergence" not in flags
            if why != "kkt":
                flags.append(why)
            break
        feas_new = max(res.components["lambda"], res.components["Lambda"])
        sigma = sigma_update(sigma, feas_prev, feas_new)
        feas_prev = feas_new

    extra = {"sigma0_resolved": sigma0, "classify_tol": 1e-8 * hyper.C}
    return _finish(
        "alm-sncg", dataset, hyper, PrimalPoint(W, b, v, U), DualPoint(lam, Lam),
        res, obj, AW, At_lam, outer, converged, history, flags, config, extra, t0,
        reference_obj, last_j1, last_alpha,
    )


def _relobj(obj: float, reference_obj: float) -> float:
    return abs(obj - reference_obj) / (1.0 + abs(reference_obj))


def _stop(config, measure: float, obj: float, reference_obj: float | None, t0: float) -> str | None:
    """Why a solve stops after an iterate, or None, for ``AlmConfig`` and
    ``admm.AdmmConfig`` alike, checked in this order: "kkt" when
    ``measure`` meets ``config.kkt_tol`` (None: never), "stopped-on-relobj"
    when the relative objective gap to ``reference_obj`` meets
    ``config.relobj_tol``, and "time-limit" once ``config.time_limit``
    seconds have passed since ``t0``.  The last two are also the flags the
    report carries."""
    if config.kkt_tol is not None and measure <= config.kkt_tol:
        return "kkt"
    if reference_obj is not None and config.relobj_tol is not None:
        if _relobj(obj, reference_obj) <= config.relobj_tol:
            return "stopped-on-relobj"
    if config.time_limit is not None and time.perf_counter() - t0 > config.time_limit:
        return "time-limit"
    return None


def _finish(
    solver: str, dataset: Dataset, hyper: Hyperparams, primal: PrimalPoint, dual: DualPoint,
    res, obj, AW, At_lam, n_outer, converged, history, flags, config, extra, t0,
    reference_obj, j1_size, alpha_size,
) -> Solution:
    """The solution at ``primal``/``dual`` with its report, for every solver.

    ``res``, ``obj`` and ``At_lam`` are the KKT residual, the objective and
    A* lam of the last iterate (``At_lam`` may be None); ``AW`` is its
    A W.  With ``res = None`` the solver formed no residual at its last
    point (a zero budget, every ALM attempt retried, or an sGS solve that
    nothing read the residual of), and the residual and the objective are
    formed here at ``primal``/``dual``, the start point if no iterate was
    made.  The config echo is ``config`` with C, tau and ``extra``.
    """
    if res is None:
        At_lam = apply_A_adjoint(dataset, dual.lam)
        res = kkt_residual(dataset, hyper, primal, dual, AW, At_lam)
        obj = primal_objective(dataset, hyper, primal.W, primal.b, AW)
    dual_val = dual_objective(dataset, hyper, dual.lam, dual.Lam, At_lam=At_lam)
    cls = classify_samples(dual.lam, hyper.C)
    report = SolveReport(
        solver=solver,
        converged=converged,
        n_outer=n_outer,
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
        config={**asdict(config), "C": hyper.C, "tau": hyper.tau, **extra},
        flags=flags,
        relobj=None if reference_obj is None else _relobj(obj, reference_obj),
    )
    return Solution(primal, dual, report)
