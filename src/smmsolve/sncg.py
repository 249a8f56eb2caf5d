"""Semismooth Newton-CG solver for the augmented-Lagrangian subproblem.

After the slack blocks are minimized out in closed form, each outer
iteration reduces to the smooth-but-semismooth problem

    min_{W, b}  phi(W, b) = (a_W/2) ||W - T||_F^2 + (a_b/2)(b - b0)^2
                + (1/sigma) E_box*(omega(W, b)) - ||lam||^2 / (2 sigma)
                [+ (1/sigma) E_nuc(Lam + sigma W) - ||Lam||_F^2 / (2 sigma)]

with omega(W, b) = -lam - sigma (A W + b y - e).  The plain model has
a_W = 1, T = 0, a_b = 0; the proximal variant used by the ADMM baseline
sets a_W = 1 + gamma, T = target, a_b = delta and drops the nuclear block.

Newton directions come from a reduced linear system whose operator touches
only the samples with omega strictly inside (0, C) and, through the
spectral Jacobian, only the singular values above the nuclear threshold,
so one application costs O(max(|J1|, k1) p q) instead of O(n p q).

Cost of a Newton step.  One full pass over the data, the A d of the line
search, plus O((|J1| + |dJ2|) p q).  A W is carried as A W + alpha A d;
A* pi = A*_J1 pi_J1 + C g with g = sum_{omega_i >= C} y_i X_i, and g is
updated over the dJ2 rows that crossed omega = C since the state before
(a full pass instead when they exceed ``INCREMENTAL_MAX_SHARE`` of n).
The J1 rows are gathered once per state, for A* pi and the Newton
operator both.  Each subproblem starts from a fresh A* pi: the caller's
(``rebase``; the ALM and ADMM outer loops make that pass for their KKT
check anyway) or its own.  The SVD of the accepted line-search trial is
reused by the next state.

Stopping.  ``solve_subproblem`` stops, in this order of checks, when

- the caller's criterion fires (reason supplied by the caller), or the
  gradient is exactly zero ("zero-gradient");
- the gradient norm is at its roundoff floor ``ROUNDOFF_FACTOR * eps * S``
  ("roundoff-floor"), where ``S`` (``SubproblemState.grad_scale``) is the
  size of the terms summed into the gradient before they cancel.  No
  float64 iterate can resolve a smaller gradient, so this counts as
  converged: a caller's target below the floor is unreachable, and
  retrying with a larger penalty only moves the floor;
- the line search finds no Armijo step ("line-search-stall"), or the
  Newton-step budget runs out ("max-newton-iterations").  These two are
  failures.  The floor is tested before every Newton step, so a stall is
  only ever reported above the floor.

The line search itself accepts the full step when phi at it differs from
the current value by no more than roundoff (``ROUNDOFF_FACTOR * eps *
SubproblemState.phi_scale``): there Armijo's test compares noise and would
otherwise backtrack to a vanishing step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import prox
from .problem import Dataset, Hyperparams, apply_A, apply_A_adjoint, mapped_empty

__all__ = [
    "ROUNDOFF_FACTOR",
    "SncgConfig",
    "SubproblemContext",
    "SubproblemState",
    "AdjointSplit",
    "NewtonWorkspace",
    "SubproblemResult",
    "eval_phi",
    "grad_phi",
    "compute_state",
    "rebase",
    "newton_direction",
    "line_search",
    "solve_subproblem",
    "cg",
]

# A quantity summed from terms of total size S carries roundoff of a few
# eps * S; differences below ROUNDOFF_FACTOR * eps * S are taken as noise.
ROUNDOFF_FACTOR = 32.0
_EPS = float(np.finfo(np.float64).eps)
# compute_state updates A* pi over the rows that crossed C only while they
# number at most this share of n.  The J1 rows are gathered for the Newton
# step either way, so the update costs a gather and a GEMV over the crossed
# rows, against one full GEMV: at n=5000, 30% of the rows cost about as
# much as all of them.
INCREMENTAL_MAX_SHARE = 0.3


@dataclass
class SncgConfig:
    """Newton-CG parameters; defaults sit inside the permitted ranges."""

    mu: float = 0.1  # Armijo constant, in (0, 1/2)
    delta_ls: float = 0.5  # backtracking factor, in (0, 1)
    eta_bar: float = 1e-2  # CG accuracy cap, in (0, 1)
    varrho: float = 0.5  # superlinear exponent, in (0, 1]
    tau1: float = 1e-3  # damping scale, in (0, 1)
    tau2: float = 0.1  # damping cap, in (0, 1)
    cg_max_iter: int = 300
    max_newton_iter: int = 100
    ls_max_backtracks: int = 50
    # Jacobi preconditioning of the reduced system; off by default since the
    # identity block already dominates at moderate penalty values and the
    # unpreconditioned path is the reproducible baseline.
    use_jacobi_precond: bool = False

    def __post_init__(self):
        if not 0 < self.mu < 0.5:
            raise ValueError("mu must lie in (0, 1/2)")
        for name in ("delta_ls", "eta_bar", "tau1", "tau2"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        if not 0 < self.varrho <= 1:
            raise ValueError("varrho must lie in (0, 1]")


@dataclass
class SubproblemContext:
    """Frozen data of one outer iteration defining phi."""

    dataset: Dataset
    hyper: Hyperparams
    sigma: float
    lam_k: np.ndarray
    Lam_k: np.ndarray | None = None
    w_weight: float = 1.0
    w_target: np.ndarray | None = None
    b_weight: float = 0.0
    b_center: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.w_weight <= 0:
            raise ValueError("w_weight must be positive")
        if self.include_nuclear and self.Lam_k is None:
            self.Lam_k = np.zeros((self.dataset.p, self.dataset.q))

    @property
    def include_nuclear(self) -> bool:
        return self.hyper.tau > 0


@dataclass(frozen=True)
class AdjointSplit:
    """A* pi_omega = j1_part + C g at one state, split by the side of C.

    ``g`` is vec of sum_{omega_i >= C} y_i X_i over the rows in ``in_j2``,
    ``j1_part`` vec of A*_J1 pi_J1, and ``drift`` = C sum_i r_i over the
    rows g was updated on since it was last taken from a full pass.
    """

    g: np.ndarray
    in_j2: np.ndarray
    j1_part: np.ndarray
    drift: float = 0.0


@dataclass
class SubproblemState:
    """Everything evaluated at one (W, b): value, gradient, the shared box
    projection, and the recovered slack/multiplier candidates."""

    W: np.ndarray
    b: float
    phi: float
    grad_W: np.ndarray
    grad_b: float
    grad_norm: float
    omega: np.ndarray
    pi_omega: np.ndarray
    v: np.ndarray
    U: np.ndarray
    lam_new: np.ndarray
    Lam_new: np.ndarray
    nuc: prox.NuclearProx | None
    alpha_size: int
    grad_scale: float  # size of the gradient's terms before cancellation
    phi_scale: float  # size of phi's terms before cancellation
    AW: np.ndarray  # A W, fresh or carried through the Newton steps
    j1: np.ndarray  # J1 = {j : 0 < omega_j < C}
    split: AdjointSplit | None = None  # how A* pi was formed, for the next state
    j1_rows: np.ndarray | None = None  # signed rows y_j vec(X_j), j in J1

    @property
    def at_roundoff_floor(self) -> bool:
        """Whether the gradient is as small as float64 can resolve here."""
        return self.grad_norm <= ROUNDOFF_FACTOR * _EPS * self.grad_scale


def _phi_support_part(omega: np.ndarray, C: float) -> float:
    resid = omega - np.clip(omega, 0.0, C)
    pi = omega - resid
    return float(C * np.sum(np.maximum(resid, 0.0)) + 0.5 * np.sum(pi * pi))


def _gather_signed(ds: Dataset, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows y_j vec(X_j), j in idx, written into the first |idx| rows of rows."""
    # mode="clip" gathers straight into out; idx holds valid indices only
    out = np.take(ds.flat_features, idx, axis=0, out=rows[: idx.size], mode="clip")
    out *= ds.labels[idx, None]
    return out


def _adjoint_pi(ctx, pi_omega, j1, in_j2, base, rows):
    """A* pi_omega, its split and the J1 rows.

    With the split of a state before (``base``), g is updated over the rows
    that entered or left {omega >= C} since then; otherwise, or when those
    rows exceed ``INCREMENTAL_MAX_SHARE`` of n or do not fit in ``rows``
    next to J1, A* pi is one full pass and g is what remains of it after
    the J1 part.
    """
    ds, C = ctx.dataset, ctx.hyper.C
    n = ds.n_samples
    if rows is None:
        return apply_A_adjoint(ds, pi_omega).ravel(), None, None
    changed = None
    if base is not None:
        changed = np.flatnonzero(in_j2 != base.in_j2)
        if changed.size > INCREMENTAL_MAX_SHARE * n or j1.size + changed.size > n:
            changed = None
    if changed is None:
        At_pi = apply_A_adjoint(ds, pi_omega).ravel()
        aj = _gather_signed(ds, j1, rows)
        j1_part = aj.T @ pi_omega[j1]
        return At_pi, AdjointSplit((At_pi - j1_part) / C, in_j2, j1_part), aj
    block = _gather_signed(ds, np.concatenate((j1, changed)), rows)
    k = j1.size
    aj = block[:k]
    j1_part = aj.T @ pi_omega[j1]
    g = base.g + block[k:].T @ np.where(in_j2[changed], 1.0, -1.0)
    drift = base.drift + C * float(np.sum(ds.row_norms[changed]))
    return j1_part + C * g, AdjointSplit(g, in_j2, j1_part, drift), aj


def rebase(split: AdjointSplit, At_pi: np.ndarray, C: float) -> AdjointSplit:
    """``split`` with g re-derived from a fresh ``At_pi`` = A* pi_omega.

    A caller that makes that full pass anyway (the KKT check needs
    A* lam, and lam = -pi_omega) hands it back here; the next subproblem
    then starts its updates of A* pi from it with zero drift instead of
    making a pass of its own.
    """
    return replace(split, g=(np.ravel(At_pi) - split.j1_part) / C, drift=0.0)


def compute_state(
    ctx: SubproblemContext,
    W: np.ndarray,
    b: float,
    AW: np.ndarray | None = None,
    svd: prox.MatrixSvd | None = None,
    base: AdjointSplit | None = None,
    rows: np.ndarray | None = None,
) -> SubproblemState:
    """Evaluate phi, its gradient, and the recovered blocks at (W, b).

    Alongside the gradient it sizes the terms the gradient is summed from,
    with row norms r_i = ||(vec X_i, y_i)||: the proximal terms, the
    unsigned sum sum_i r_i pi_i behind A* pi and y' pi, the roundoff of
    omega carried through the rows with 0 < omega_i < C, which is
    sigma ||(W, b)|| sum_{J1} r_i^2, the roundoff of an A* pi updated
    step by step (``split.drift``), and the argument of the nuclear prox,
    whose split ``Xk - Y`` cancels.

    Known products skip their passes: ``AW`` is A W, and ``svd`` the SVD
    of ``Lam_k + sigma W``.  Given a ``rows`` buffer of shape (n, p q),
    the J1 rows are gathered into it for the Newton step (``j1_rows``,
    valid until the next call with the buffer), and ``base``, the split of
    the state before, lets A* pi be updated instead of recomputed (see
    ``_adjoint_pi``).
    """
    ds, sigma = ctx.dataset, ctx.sigma
    C = ctx.hyper.C
    y = ds.labels
    if AW is None:
        AW = apply_A(ds, W)
    omega = -ctx.lam_k - sigma * (AW + b * y - 1.0)
    pi_omega = np.clip(omega, 0.0, C)
    j1 = np.flatnonzero((omega > 0.0) & (omega < C))

    dW = W if ctx.w_target is None else W - ctx.w_target
    db = b - ctx.b_center
    dW_sq = np.sum(dW * dW)
    lam_sq = np.sum(ctx.lam_k * ctx.lam_k)
    phi = (
        0.5 * ctx.w_weight * dW_sq
        + 0.5 * ctx.b_weight * db * db
        + _phi_support_part(omega, C) / sigma
        - 0.5 * lam_sq / sigma
    )
    At_pi, split, j1_rows = _adjoint_pi(ctx, pi_omega, j1, omega >= C, base, rows)
    grad_W = ctx.w_weight * dW - At_pi.reshape(W.shape)
    grad_b = ctx.b_weight * db - float(y @ pi_omega)
    rows_j1 = ds.row_norms[j1]
    grad_scale = (
        ctx.w_weight * np.sqrt(dW_sq)
        + abs(ctx.b_weight * db)
        + ds.row_norms @ pi_omega
        + sigma * np.sqrt(np.sum(W * W) + b * b) * (rows_j1 @ rows_j1)
        + (split.drift if split is not None else 0.0)
    )
    phi_scale = 0.5 * ctx.w_weight * dW_sq + 0.5 * lam_sq / sigma

    nuc = None
    alpha_size = 0
    if ctx.include_nuclear:
        Xk = ctx.Lam_k + sigma * W
        nuc = prox.prox_nuclear(Xk, ctx.hyper.tau, svd=svd)
        proj = Xk - nuc.Y  # exact Moreau split of Xk
        Lam_sq = np.sum(ctx.Lam_k * ctx.Lam_k)
        phi += prox.env_nuclear(Xk, ctx.hyper.tau, svd=nuc.svd) / sigma
        phi -= 0.5 * Lam_sq / sigma
        grad_W = grad_W + proj
        grad_scale += np.linalg.norm(Xk)
        phi_scale += 0.5 * Lam_sq / sigma
        U = nuc.Y / sigma
        Lam_new = proj
        alpha_size = nuc.k_bar
    else:
        U = W.copy()
        Lam_new = np.zeros_like(W)

    v = (omega - pi_omega) / sigma
    lam_new = -pi_omega
    grad_norm = float(np.sqrt(np.sum(grad_W * grad_W) + grad_b * grad_b))
    return SubproblemState(
        W=W,
        b=b,
        phi=float(phi),
        grad_W=grad_W,
        grad_b=float(grad_b),
        grad_norm=grad_norm,
        omega=omega,
        pi_omega=pi_omega,
        v=v,
        U=U,
        lam_new=lam_new,
        Lam_new=Lam_new,
        nuc=nuc,
        alpha_size=alpha_size,
        grad_scale=float(grad_scale),
        phi_scale=float(abs(phi) + phi_scale),
        AW=AW,
        j1=j1,
        split=split,
        j1_rows=j1_rows,
    )


def eval_phi(ctx: SubproblemContext, W: np.ndarray, b: float) -> float:
    """Value of phi at (W, b), constant terms included."""
    return compute_state(ctx, W, b).phi


def grad_phi(ctx: SubproblemContext, W: np.ndarray, b: float) -> tuple[np.ndarray, float]:
    """Gradient of phi at (W, b)."""
    st = compute_state(ctx, W, b)
    return st.grad_W, st.grad_b


class NewtonWorkspace:
    """Reduced Newton operator at one iterate.

    Holds the active index set J1 = {j : 0 < omega_j < C}, the gathered
    signed sample rows, the spectral Jacobian, and the damping rho.  One
    application of the operator never touches samples outside J1.

    The signed rows, at up to n p q floats the largest block of a Newton
    step, are the state's ``j1_rows`` when it has them (gathered into the
    subproblem's row block); otherwise they are gathered here.
    """

    def __init__(self, ctx: SubproblemContext, state: SubproblemState, config: SncgConfig):
        ds = ctx.dataset
        self.sigma = ctx.sigma
        self.a_w = ctx.w_weight
        self.a_b = ctx.b_weight
        self.shape = (ds.p, ds.q)
        self.j1 = state.j1
        self.yj = ds.labels[self.j1]
        self.aj = state.j1_rows
        if self.aj is None:
            self.aj = _gather_signed(ds, self.j1, np.empty((self.j1.size, ds.p * ds.q)))
        self.rho = config.tau1 * min(config.tau2, state.grad_norm)
        self.denom = self.a_b + self.sigma * self.j1.size + self.rho
        self.ajy = self.aj.T @ self.yj  # vec of A*_J1 y_J1
        self.spectral = (
            prox.build_spectral_jacobian(None, ctx.hyper.tau, svd=state.nuc.svd)
            if state.nuc is not None
            else None
        )
        self.precond = self.jacobi_diag() if config.use_jacobi_precond else None

    def apply(self, d_vec: np.ndarray) -> np.ndarray:
        """Reduced operator on vec(d_W)."""
        out = self.a_w * d_vec
        if self.spectral is not None:
            d_mat = d_vec.reshape(self.shape)
            out = out + self.sigma * prox.apply_spectral_jacobian(self.spectral, d_mat).ravel()
        z = self.aj @ d_vec
        s = self.yj @ z
        out = out + self.aj.T @ (self.sigma * z - (self.sigma**2 * s / self.denom) * self.yj)
        return out

    def recover_db(self, rhs2: float, d_vec: np.ndarray) -> float:
        return (rhs2 - self.sigma * float(self.yj @ (self.aj @ d_vec))) / self.denom

    def jacobi_diag(self) -> np.ndarray:
        """Diagonal model of the reduced operator for Jacobi preconditioning.

        The data-term diagonal is exact; the spectral Jacobian's diagonal
        (entries in [0, 1]) is replaced by its upper bound, so the model
        over-estimates the true diagonal by at most sigma.
        """
        d = np.full(self.aj.shape[1], self.a_w)
        if self.spectral is not None:
            d += self.sigma
        d += self.sigma * np.sum(self.aj * self.aj, axis=0)
        return d


def cg(
    apply_op,
    rhs: np.ndarray,
    tol: float,
    max_iter: int,
    x0: np.ndarray | None = None,
    precond_diag: np.ndarray | None = None,
):
    """Conjugate gradients for a self-adjoint positive definite operator.

    Stops when the residual norm drops to ``tol`` in the absolute sense;
    the reported residual is recomputed from the operator.  An optional
    diagonal preconditioner is applied in the usual split form.  Returns
    (x, iterations, achieved residual, converged).
    """
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = x0.astype(np.float64, copy=True)
        r = rhs - apply_op(x)
    if np.linalg.norm(r) <= tol:
        return x, 0, float(np.linalg.norm(r)), True
    z = r if precond_diag is None else r / precond_diag
    p = z.copy()
    rz = float(r @ z)
    it = 0
    for it in range(1, max_iter + 1):
        Ap = apply_op(p)
        pAp = float(p @ Ap)
        if pAp <= 0 or not np.isfinite(pAp):
            break  # loss of positive definiteness in finite precision
        a = rz / pAp
        x += a * p
        r -= a * Ap
        if np.linalg.norm(r) <= tol:
            break
        z = r if precond_diag is None else r / precond_diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    true_res = float(np.linalg.norm(rhs - apply_op(x)))
    return x, it, true_res, true_res <= tol


def newton_direction(
    ctx: SubproblemContext,
    W: np.ndarray,
    b: float,
    workspace: NewtonWorkspace,
    tol: float,
    state: SubproblemState | None = None,
    cg_max_iter: int | None = None,
):
    """Solve the reduced Newton system at (W, b) by CG.

    Eliminating d_b leaves one equation in d_W; d_b is recovered from the
    scalar row afterwards.  The residual bound ``tol`` applies to the
    reduced d_W equation.
    """
    if state is None:
        state = compute_state(ctx, W, b)
    rhs1 = -state.grad_W.ravel()
    rhs2 = -state.grad_b
    rhs = rhs1 - (workspace.sigma * rhs2 / workspace.denom) * workspace.ajy
    max_iter = cg_max_iter if cg_max_iter is not None else 300
    d_vec, iters, resid, ok = cg(
        workspace.apply, rhs, tol, max_iter, precond_diag=workspace.precond
    )
    if not np.isfinite(d_vec).all():
        raise FloatingPointError("non-finite Newton direction")
    d_b = workspace.recover_db(rhs2, d_vec)
    return d_vec.reshape(workspace.shape), d_b, iters, resid


def _phi_along(
    ctx: SubproblemContext,
    state: SubproblemState,
    d_W: np.ndarray,
    d_b: float,
    Ad: np.ndarray,
    alpha: float,
) -> tuple[float, prox.MatrixSvd | None]:
    """phi at (W + alpha d_W, b + alpha d_b) reusing the cached A W, and
    the SVD of ``Lam_k + sigma W`` there (None without the nuclear block)."""
    sigma = ctx.sigma
    C = ctx.hyper.C
    omega = state.omega - alpha * sigma * (Ad + d_b * ctx.dataset.labels)
    W_t = state.W + alpha * d_W
    dW = W_t if ctx.w_target is None else W_t - ctx.w_target
    db = state.b + alpha * d_b - ctx.b_center
    phi = (
        0.5 * ctx.w_weight * np.sum(dW * dW)
        + 0.5 * ctx.b_weight * db * db
        + _phi_support_part(omega, C) / sigma
        - 0.5 * np.sum(ctx.lam_k * ctx.lam_k) / sigma
    )
    svd = None
    if ctx.include_nuclear:
        Xk = ctx.Lam_k + sigma * W_t
        svd = prox.full_svd(Xk)
        phi += prox.env_nuclear(Xk, ctx.hyper.tau, svd=svd) / sigma
        phi -= 0.5 * np.sum(ctx.Lam_k * ctx.Lam_k) / sigma
    return float(phi), svd


def line_search(
    ctx: SubproblemContext,
    W: np.ndarray,
    b: float,
    d_W: np.ndarray,
    d_b: float,
    config: SncgConfig,
    state: SubproblemState | None = None,
    products: dict | None = None,
):
    """Armijo backtracking along (d_W, d_b).

    Falls back to steepest descent when the direction fails a strict
    descent test (possible in finite precision).  A full step whose change
    in phi is within roundoff of ``state.phi_scale`` is accepted: Armijo
    cannot tell such a step from a flat one.  Returns
    (alpha, evaluations, direction actually used, stalled flag).  On an
    accepted step, ``products`` (if given) receives ``"Ad"``, A d_W of the
    direction used, and ``"svd"``, the SVD of ``Lam_k + sigma W`` at the
    new iterate, for the next ``compute_state``.
    """
    if state is None:
        state = compute_state(ctx, W, b)
    g_dot_d = float(np.sum(state.grad_W * d_W) + state.grad_b * d_b)
    dir_norm = float(np.sqrt(np.sum(d_W * d_W) + d_b * d_b))
    if g_dot_d >= -1e-12 * state.grad_norm * dir_norm:
        d_W = -state.grad_W
        d_b = -state.grad_b
        g_dot_d = -state.grad_norm**2
    Ad = apply_A(ctx.dataset, d_W)
    flat = ROUNDOFF_FACTOR * _EPS * state.phi_scale
    alpha = 1.0
    evals = 0
    while evals < config.ls_max_backtracks:
        trial, svd = _phi_along(ctx, state, d_W, d_b, Ad, alpha)
        evals += 1
        if trial <= state.phi + config.mu * alpha * g_dot_d or (
            evals == 1 and abs(trial - state.phi) <= flat
        ):
            if products is not None:
                products.update(Ad=Ad, svd=svd)
            return alpha, evals, d_W, d_b, False
        alpha *= config.delta_ls
    # no Armijo step within the backtracking budget: numerically flat
    return alpha, evals, d_W, d_b, True


@dataclass
class SubproblemStats:
    grad_norms: list = field(default_factory=list)
    phi_values: list = field(default_factory=list)
    j1_sizes: list = field(default_factory=list)
    alpha_sizes: list = field(default_factory=list)
    cg_iters: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)

    @property
    def total_cg(self) -> int:
        return int(sum(self.cg_iters))


@dataclass
class SubproblemResult:
    W: np.ndarray
    b: float
    v: np.ndarray
    U: np.ndarray
    lam_new: np.ndarray
    Lam_new: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str
    state: SubproblemState
    stats: SubproblemStats


def solve_subproblem(
    ctx: SubproblemContext,
    W0: np.ndarray,
    b0: float,
    stop,
    config: SncgConfig | None = None,
    AW0: np.ndarray | None = None,
    base: AdjointSplit | None = None,
) -> SubproblemResult:
    """Newton iteration on phi until the caller's criterion fires.

    ``stop(state, iteration)`` returns (fired, reason); it is checked at
    the initial point too, so a warm start at the minimizer exits with
    zero iterations.  The result is converged when the criterion fires,
    the gradient is zero, or the gradient reaches its roundoff floor
    (``stop_reason == "roundoff-floor"``); it is not converged on a
    line-search stall above the floor or when ``max_newton_iter`` runs
    out (see the module docstring).  The slack blocks and the tentative
    multipliers are recovered from the final state's proximal splits.

    ``AW0``, if given, is A W0; each step then carries A W forward as
    ``A W + alpha A d``.  A* pi is updated over the rows that crossed C
    from state to state (see ``compute_state``).  It starts from ``base``,
    the split of an earlier subproblem's state on the same data and C,
    best ``rebase``d on a fresh pass; without it the first state makes one.
    """
    if config is None:
        config = SncgConfig()
    W = np.array(W0, dtype=np.float64, copy=True)
    b = float(b0)
    # The states share one block for the rows they gather.  In its own
    # mapping only rows written are resident, and a row count that changes
    # from step to step stays off the allocator's heap (see mapped_empty).
    rows = mapped_empty(ctx.dataset.flat_features.shape)
    state = compute_state(ctx, W, b, AW=AW0, base=base, rows=rows)
    stats = SubproblemStats()
    converged = False
    reason = "max-newton-iterations"
    iterations = 0
    for i in range(config.max_newton_iter + 1):
        stats.grad_norms.append(state.grad_norm)
        stats.phi_values.append(state.phi)
        stats.alpha_sizes.append(state.alpha_size)
        fired, why = stop(state, i)
        if fired or state.grad_norm == 0.0:
            converged = True
            reason = why if fired else "zero-gradient"
            break
        if state.at_roundoff_floor:
            converged = True
            reason = "roundoff-floor"
            break
        if i == config.max_newton_iter:
            break
        ws = NewtonWorkspace(ctx, state, config)
        stats.j1_sizes.append(ws.j1.size)
        tol_cg = min(config.eta_bar, state.grad_norm ** (1.0 + config.varrho))
        d_W, d_b, cg_it, _ = newton_direction(
            ctx, W, b, ws, tol_cg, state=state, cg_max_iter=config.cg_max_iter
        )
        stats.cg_iters.append(cg_it)
        step = {}
        alpha, _, d_W, d_b, stalled = line_search(
            ctx, W, b, d_W, d_b, config, state=state, products=step
        )
        if stalled:
            reason = "line-search-stall"
            break
        W = W + alpha * d_W
        b = b + alpha * d_b
        stats.step_sizes.append(alpha)
        AW = step["Ad"]  # A W + alpha A d, formed in the block of A d
        AW *= alpha
        AW += state.AW
        state = compute_state(ctx, W, b, AW=AW, svd=step["svd"], base=state.split, rows=rows)
        iterations = i + 1
    state.j1_rows = None  # lets the row block go
    return SubproblemResult(
        W=W,
        b=b,
        v=state.v,
        U=state.U,
        lam_new=state.lam_new,
        Lam_new=state.Lam_new,
        iterations=iterations,
        converged=converged,
        stop_reason=reason,
        state=state,
        stats=stats,
    )
