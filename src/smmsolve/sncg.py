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

Cost of a Newton step.  Most steps touch only a working set R of rows,
O((|R| + |J1|) p q) with no pass over the data.  A state on all rows
anchors R for the step it is about to take: with the step's length, it
leaves out every row whose omega_i is too far from both kinks 0 and C to
cross one within SCREEN_RADIUS times that length (``Screen``; the bound
is |d omega_i| <= sigma (||vec X_i|| ||dW|| + |db|), as in safe
screening of non-support vectors).  Those rows keep pi_i = 0 or C, and
enter phi and its gradient through sums taken once at the anchor.  R's
rows are gathered once; the states, the line-search trials and their
A d then run over R alone, as long as the steps stay in the anchor's
ball.  A step that would leave it goes back to all rows first (one fresh
A W), and an R above ``SCREEN_MAX_SHARE`` of n is not kept: such a step
makes one full pass, the A d of its line search.  Either way A W is
carried as A W + alpha A d; A* pi = A*_J1 pi_J1 + C g with
g = sum_{omega_i >= C} y_i X_i, g updated over the rows that crossed
omega = C since the state before (a full pass instead when they exceed
``INCREMENTAL_MAX_SHARE`` of n).  The J1 rows are gathered once per state
(kept when J1 does not change), for A* pi and the Newton operator both.
Each subproblem starts from a fresh A* pi: the one its caller makes for
the KKT check anyway (``SubproblemResult.hand_off`` returns A W and A* lam
of a result and rebases its split on that pass), or its own.  The SVD of
the accepted line-search trial is reused by the next state.  A subproblem
ending on R makes one fresh A W to return a state on all rows, which
``hand_off`` returns in place of a pass of its own.

At small p q a step also has a cost that n does not change.  A system
with |J1| at most ``DIRECT_MAX_J1`` (most steps: the median |J1| is
10-13 on the benchmark's instances, with k1 <= 1) is solved exactly,
with no CG (``NewtonWorkspace.solve``): the operator is
c I - sigma G + sigma A_J1* P A_J1 with G the spectral Jacobian's low-rank
part, which inverts in closed form in the singular basis, and
Sherman-Morrison-Woodbury leaves one |J1| x |J1| system.  That costs
O(|J1| k1 p q + |J1|^2 p q + |J1|^3), the rotation of the J1 rows onto
the k1 alpha rows and columns, their Gram matrix and one LU solve; above
the crossover CG is cheaper.  Each CG iteration applies the operator once
(``cg`` reports the residual its recurrence carries, with no extra
application at the end), and each application the spectral Jacobian,
whose weights are formed once per step, on its first application
(``prox._apply_fast``).  In the line search only the full step, the
trial mostly accepted, makes an SVD with vectors; a backtracked trial
takes the singular values alone, or none when Lam_k + sigma W lies in the
Frobenius ball of radius tau, and an accepted one makes the SVD of its
point once, for the next state.

A state with J1 empty has nothing but the damping rho in the b-row of
its Newton system, so that system's d_b = -grad_b / (a_b + rho) is huge
when a_b is small (ALM's a_b = 0), and the line search would halve it
twenty times or more for a tiny move.  Every cold solve starts there:
at the origin with sigma0 >= C each omega_i = sigma0 >= C.  Such a step
keeps the system's d_W and takes b to ``b_minimizer``, the exact
minimizer of phi(W, .) at the current W, found over all rows in
O(n log n) (a screened state goes back to all rows first).  With
grad_b (b* - b) <= 0 the step stays a descent direction for the same
line search; ``SubproblemStats.exact_b_steps`` counts these steps.

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

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import prox
from .problem import Dataset, Hyperparams, apply_A, apply_A_adjoint, mapped_empty

__all__ = [
    "ROUNDOFF_FACTOR",
    "SncgConfig",
    "SubproblemContext",
    "SubproblemState",
    "Screen",
    "AdjointSplit",
    "NewtonWorkspace",
    "SubproblemResult",
    "eval_phi",
    "grad_phi",
    "compute_state",
    "newton_direction",
    "line_search",
    "b_minimizer",
    "solve_subproblem",
    "cg",
    "DIRECT_MAX_J1",
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
# A state on all rows anchors a working set R for the step it is about to
# take and the steps after it: the ball around it holds SCREEN_RADIUS times
# that step in W and in b (Newton steps shrink, so the next ones mostly fit
# the rest of it).  R is kept only while it holds at most SCREEN_MAX_SHARE
# of the rows: at n=5000, p q=400 a step over R costs about 0.5 us per row
# of R against 1.1 ms for a step over all rows, and R is gathered once for
# a few steps.  Solve times at n=2000 and 5000 stayed within noise of each
# other for radii 1.5 to 3 and shares 0.05 to 0.3.  The share must stay
# below 1/2, for the J1 rows to fit next to R in the row block.
SCREEN_RADIUS = 2.0
SCREEN_MAX_SHARE = 0.1
# The method's constants, as the source paper fixes them.  The line search
# tests Armijo's condition and backtracks; CG solves a Newton system to the
# residual min(CG_TOL_CAP, ||grad||^(1 + CG_TOL_EXPONENT)) with the damping
# DAMPING_SCALE * min(DAMPING_CAP, ||grad||) added to the operator.
ARMIJO_MU = 0.1  # in (0, 1/2)
BACKTRACK = 0.5  # in (0, 1)
CG_TOL_CAP = 1e-2  # in (0, 1)
CG_TOL_EXPONENT = 0.5  # in (0, 1]
DAMPING_SCALE = 1e-3  # in (0, 1)
DAMPING_CAP = 0.1  # in (0, 1)
CG_MAX_ITER = 300
# Newton systems with |J1| <= DIRECT_MAX_J1 are solved directly
# (NewtonWorkspace.solve), larger ones by CG.  At p = q = 20, k1 = 1 and
# one BLAS thread, a direct solve took 0.11-0.17 ms at |J1| of 5 to 50 and
# 0.25 ms at 80, against 0.17-0.27 ms for five CG iterations (the median
# step's count) at any |J1| up to 100: the crossover of one direction lies
# near 50-60.  Exact directions also take fewer Newton steps, so the sum of
# 1e-6 and 1e-8 solves on four n = 2500 and 6250 instances fell from
# 838 ms (CG only) to 628, 586, 584 and 563 ms for crossovers of 50, 80,
# 120 and 200 (medians of 8); at p = 50, q = 80 it was 1.29-1.36 s for 50
# to 120, against 1.60 s.  The cost of a direct solve grows as |J1|^2 p q.
DIRECT_MAX_J1 = 80


def _norm(W: np.ndarray, b: float = 0.0) -> float:
    # Norms and sums of the small arrays of a Newton step are taken as dot
    # products (np.vdot flattens) and ndarray.sum: the np.sum and
    # np.linalg.norm wrappers cost more than the reductions at these sizes.
    return math.sqrt(np.vdot(W, W) + b * b)


def _clip(omega: np.ndarray, C: float) -> np.ndarray:
    """``np.clip(omega, 0, C)`` without the wrapper's cost (same values)."""
    return np.minimum(np.maximum(omega, 0.0), C)


@dataclass(frozen=True)
class Screen:
    """The rows a state is evaluated on, and what the other rows add.

    ``idx`` is the working set R of an anchor ``(W, b)`` with all rows
    known, or None for all rows (``SubproblemContext.all_rows``).  The
    anchor's ball holds the points within ``rho_W`` of W and ``rho_b`` of
    b; there |d omega_i| <= sigma (||vec X_i|| rho_W + rho_b).  A row whose
    omega_i lies farther than that, plus roundoff, from both kinks 0 and C
    at the anchor is left out of R: in the ball it keeps its piece of the
    hinge, pi_i = 0 below 0 and pi_i = C above C, where its part of phi is
    linear.  ``block`` holds the feature rows of R (gathered once,
    unsigned; the feature block itself for all rows), and ``labels``,
    ``lam`` and ``row_norms`` their y, lam_k and r.

    The left-out rows enter through sums taken at the anchor: over the
    ``n_c`` rows above C, omega sums to ``omega_c``, y to ``y_c``, r to
    ``r_c`` and y_i vec(X_i) to ``g_c`` (with roundoff ``drift``, as in
    ``AdjointSplit``); over all ``n_out`` left-out rows ||pi + lam_k||^2 is
    ``dlam_sq``, ||v|| is ``v_norm`` and the norm of their ||vec X_i|| is
    ``x_norm``.  ``in_j2`` is the anchor's mask of {omega >= C} over all
    rows.
    """

    idx: np.ndarray | None
    block: np.ndarray
    labels: np.ndarray
    lam: np.ndarray
    row_norms: np.ndarray
    W: np.ndarray | None = None
    b: float = 0.0
    rho_W: float = np.inf
    rho_b: float = np.inf
    in_j2: np.ndarray | None = None
    n_c: int = 0
    omega_c: float = 0.0
    y_c: float = 0.0
    r_c: float = 0.0
    g_c: np.ndarray | None = None
    drift: float = 0.0
    n_out: int = 0
    dlam_sq: float = 0.0
    v_norm: float = 0.0
    x_norm: float = 0.0

    @property
    def size(self) -> int:
        """Rows of the row block that ``block`` occupies (0 for all rows)."""
        return 0 if self.idx is None else self.idx.size

    def fits(self, W: np.ndarray, b: float, d_W: np.ndarray, d_b: float) -> bool:
        """Whether (W, b) + alpha (d_W, d_b), 0 <= alpha <= 1, stays in the ball."""
        if self.idx is None:
            return True
        return (
            _norm(W - self.W) + _norm(d_W) <= self.rho_W
            and abs(b - self.b) + abs(d_b) <= self.rho_b
        )

    def v_out(self, W: np.ndarray, b: float) -> float:
        """An upper bound on ||v|| over the left-out rows at (W, b)."""
        if self.idx is None:
            return 0.0
        return (
            self.v_norm
            + self.x_norm * _norm(W - self.W)
            + math.sqrt(self.n_out) * abs(b - self.b)
        )

    def apply(self, ds: Dataset, d_W: np.ndarray) -> np.ndarray:
        """A d_W over the screen's rows; a full pass when they are all."""
        if self.idx is None:
            return apply_A(ds, d_W)
        return (self.block @ d_W.ravel()) * self.labels

    def outside_phi(self, sigma: float, C: float, W: np.ndarray, b: float) -> float:
        """sigma times the left-out rows' part of phi at (W, b)."""
        if not self.n_c:
            return 0.0
        omega_c = self.omega_c - sigma * (
            float(self.g_c @ (W - self.W).ravel()) + (b - self.b) * self.y_c
        )
        return C * omega_c - 0.5 * self.n_c * C * C


@dataclass
class SncgConfig:
    """The budgets of one subproblem: at most ``max_newton_iter`` Newton
    steps (0 allowed) and ``ls_max_backtracks`` line-search trials per
    step.  The method's other constants are fixed (``ARMIJO_MU`` to
    ``CG_MAX_ITER``)."""

    max_newton_iter: int = 100
    ls_max_backtracks: int = 50

    def __post_init__(self):
        if self.ls_max_backtracks < 1:
            raise ValueError("ls_max_backtracks must be at least 1")
        if self.max_newton_iter < 0:
            raise ValueError("max_newton_iter must be nonnegative")


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

    # Cached on first use: the fields are not to change after that.
    @cached_property
    def lam_sq(self) -> float:
        return float(np.sum(self.lam_k * self.lam_k))

    @cached_property
    def Lam_sq(self) -> float:
        return float(np.sum(self.Lam_k * self.Lam_k)) if self.include_nuclear else 0.0

    @cached_property
    def all_rows(self) -> Screen:
        """The screen of all rows: nothing left out."""
        ds = self.dataset
        return Screen(None, ds.flat_features, ds.labels, self.lam_k, ds.row_norms)


@dataclass(frozen=True)
class AdjointSplit:
    """A* pi_omega = j1_part + C g at one state, split by the side of C.

    ``g`` is vec of sum_{omega_i >= C} y_i X_i over the rows in ``in_j2``,
    ``j1_part`` vec of A*_J1 pi_J1, and ``drift`` = C sum_i r_i over the
    rows added to or taken from g since it was last taken from a full
    pass.
    """

    g: np.ndarray
    in_j2: np.ndarray
    j1_part: np.ndarray
    drift: float = 0.0


@dataclass
class SubproblemState:
    """Everything evaluated at one (W, b): value, gradient, the shared box
    projection, and the recovered slack/multiplier candidates.

    Vectors over samples (``omega``, ``pi_omega``, ``AW``) run over the
    rows of ``screen``; ``v`` and ``lam_new`` are only formed when those
    are all rows, and are None otherwise.  ``v_norm``, ``lam_new_norm``
    and ``lam_step_norm`` (||lam_new - lam_k||) are exact, except that
    ``v_norm`` bounds ||v|| from above at a screened state.
    """

    W: np.ndarray
    b: float
    phi: float
    grad_W: np.ndarray
    grad_b: float
    grad_norm: float
    omega: np.ndarray
    pi_omega: np.ndarray
    v: np.ndarray | None
    U: np.ndarray
    lam_new: np.ndarray | None
    Lam_new: np.ndarray
    nuc: prox.NuclearProx | None
    alpha_size: int
    grad_scale: float  # size of the gradient's terms before cancellation
    phi_scale: float  # size of phi's terms before cancellation
    AW: np.ndarray  # A W, fresh or carried through the Newton steps
    j1: np.ndarray  # J1 = {j : 0 < omega_j < C}, as indices into all rows
    screen: Screen
    v_norm: float
    lam_new_norm: float
    lam_step_norm: float
    split: AdjointSplit | None = None  # how A* pi was formed, for the next state
    j1_rows: np.ndarray | None = None  # feature rows vec(X_j), j in J1

    @property
    def at_roundoff_floor(self) -> bool:
        """Whether the gradient is as small as float64 can resolve here."""
        return self.grad_norm <= ROUNDOFF_FACTOR * _EPS * self.grad_scale


def _phi_support_part(omega: np.ndarray, C: float) -> float:
    resid = omega - _clip(omega, C)
    pi = omega - resid
    return float(C * np.maximum(resid, 0.0).sum() + 0.5 * (pi @ pi))


def _phi(ctx, screen, omega, W, b, svd=None, vectors=True):
    """phi at (W, b) from omega over the screen's rows, and the SVD of
    ``Lam_k + sigma W`` it used (None without the nuclear block).  With
    ``vectors=False`` and no ``svd`` the nuclear envelope takes only the
    singular values (see ``prox.env_nuclear``), and the SVD is None."""
    sigma, C = ctx.sigma, ctx.hyper.C
    dW = W if ctx.w_target is None else W - ctx.w_target
    db = b - ctx.b_center
    phi = (
        0.5 * ctx.w_weight * np.vdot(dW, dW)
        + 0.5 * ctx.b_weight * db * db
        + (_phi_support_part(omega, C) + screen.outside_phi(sigma, C, W, b)) / sigma
        - 0.5 * ctx.lam_sq / sigma
    )
    if ctx.include_nuclear:
        Xk = ctx.Lam_k + sigma * W
        if svd is None and vectors:
            svd = prox.full_svd(Xk)
        phi += prox.env_nuclear(Xk, ctx.hyper.tau, svd=svd) / sigma
        phi -= 0.5 * ctx.Lam_sq / sigma
    return float(phi), svd


def _gather(ds: Dataset, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows vec(X_j), j in idx, written into the first |idx| rows of rows.

    The rows stay unsigned: with y_j = +-1 the labels fold into the
    vectors they multiply, which costs no pass over the block.
    """
    # mode="clip" gathers straight into out; idx holds valid indices only
    return np.take(ds.flat_features, idx, axis=0, out=rows[: idx.size], mode="clip")


def _j1_rows(ds: Dataset, j1: np.ndarray, rows: np.ndarray, reuse) -> np.ndarray:
    """The J1 rows: those of ``reuse`` = (J1, rows) of the state before
    when J1 came out the same, else gathered into the head of ``rows``."""
    if reuse is not None and reuse[1] is not None and np.array_equal(reuse[0], j1):
        return reuse[1]
    return _gather(ds, j1, rows)


def _adjoint_pi(ctx, pi_omega, j1, in_j2, base, rows, reuse=None):
    """A* pi_omega over all rows, its split and the J1 rows.

    With the split of a state before (``base``), g is updated over the rows
    that entered or left {omega >= C} since then; otherwise, or when those
    rows exceed ``INCREMENTAL_MAX_SHARE`` of n or do not fit in ``rows``
    next to J1, A* pi is one full pass and g is what remains of it after
    the J1 part.  The J1 rows go first in ``rows`` (see ``_j1_rows``), the
    changed rows after them.
    """
    ds, C = ctx.dataset, ctx.hyper.C
    n = ds.n_samples
    if rows is None:
        return apply_A_adjoint(ds, pi_omega).ravel(), None, None
    changed = None
    if base is not None:
        changed = np.flatnonzero(in_j2 != base.in_j2)
        if changed.size > INCREMENTAL_MAX_SHARE * n or j1.size + changed.size > rows.shape[0]:
            changed = None
    y = ds.labels
    aj = _j1_rows(ds, j1, rows, reuse)
    k = j1.size
    j1_part = aj.T @ (pi_omega[j1] * y[j1])
    if changed is None:
        At_pi = apply_A_adjoint(ds, pi_omega).ravel()
        return At_pi, AdjointSplit((At_pi - j1_part) / C, in_j2, j1_part), aj
    if changed.size:
        if np.shares_memory(aj, rows[k : k + changed.size]):  # reused rows in the way
            aj = _gather(ds, j1, rows)
        crossed = _gather(ds, changed, rows[k:])
        g = base.g + crossed.T @ np.where(in_j2[changed], y[changed], -y[changed])
    else:
        g = base.g
    drift = base.drift + C * float(ds.row_norms[changed].sum())
    return j1_part + C * g, AdjointSplit(g, in_j2, j1_part, drift), aj


def _screened_adjoint(ctx, screen, pi_omega, in_j1, in_j2, j1, rows, reuse):
    """A* pi_omega at a screened state, its split and the J1 rows.

    One product with R's rows gives the J1 part and R's share of g; the
    left-out rows above C add ``screen.g_c``.
    """
    y = screen.labels
    coef = np.empty((2, y.size))
    np.multiply(pi_omega * in_j1, y, out=coef[0])
    np.multiply(in_j2, y, out=coef[1])
    j1_part, g_r = coef @ screen.block
    g = screen.g_c + g_r
    mask = screen.in_j2.copy()
    mask[screen.idx] = in_j2
    split = AdjointSplit(g, mask, j1_part, screen.drift)
    aj = _j1_rows(ctx.dataset, j1, rows, reuse)
    return j1_part + ctx.hyper.C * g, split, aj


def _screen(ctx, state: SubproblemState, rho_W: float, rho_b: float, rows: np.ndarray) -> SubproblemState:
    """``state``, on all rows, made the anchor of a working set R.

    A row stays out of R when its omega lies more than
    ``sigma (||vec X_i|| rho_W + rho_b)`` away from both kinks, plus the
    roundoff of omega (that of a carried A W, see ``compute_state``).  R's
    rows are gathered into the head of ``rows``; the state keeps its
    gradient and is re-expressed on R, its phi in the form the screened
    trials take.  ``state`` itself comes back when R would hold more than
    ``SCREEN_MAX_SHARE`` of the rows.
    """
    ds, sigma, C = ctx.dataset, ctx.sigma, ctx.hyper.C
    W, b, omega = state.W, state.b, state.omega
    r, x = ds.row_norms, ds.feature_norms
    roundoff = ROUNDOFF_FACTOR * _EPS
    margin = sigma * (rho_W * x + (rho_b + roundoff * (_norm(W, b) + rho_W + rho_b + 1.0)) * r)
    margin += roundoff * np.abs(ctx.lam_k)
    above = omega > C + margin
    out = above | (omega < -margin)
    idx = np.flatnonzero(~out)
    if idx.size > SCREEN_MAX_SHARE * ds.n_samples:
        return state
    block = _gather(ds, idx, rows)
    labels = ds.labels[idx]
    in_j2 = state.split.in_j2
    in_r = in_j2[idx]
    at_c = above.astype(np.float64)
    left = out.astype(np.float64)
    shifted = (ctx.lam_k + C * at_c) * left  # pi + lam_k on the left-out rows
    slack = (omega - C * at_c) * left  # sigma v on the left-out rows
    x_r = x[idx]
    screen = Screen(
        idx,
        block,
        labels,
        ctx.lam_k[idx],
        r[idx],
        W=W,
        b=b,
        rho_W=rho_W,
        rho_b=rho_b,
        in_j2=in_j2,
        n_c=int(np.count_nonzero(above)),
        omega_c=float(omega @ at_c),
        y_c=float(ds.labels @ at_c),
        r_c=float(r @ at_c),
        g_c=state.split.g - (labels * in_r) @ block,
        drift=state.split.drift + C * float(r[idx] @ in_r),
        n_out=ds.n_samples - idx.size,
        dlam_sq=float(shifted @ shifted),
        v_norm=float(np.sqrt(slack @ slack)) / sigma,
        x_norm=float(np.sqrt(max(x @ x - x_r @ x_r, 0.0))),
    )
    omega = omega[idx]
    phi, _ = _phi(ctx, screen, omega, W, b, state.nuc.svd if state.nuc is not None else None)
    return replace(
        state,
        phi=phi,
        phi_scale=state.phi_scale - abs(state.phi) + abs(phi),
        omega=omega,
        pi_omega=state.pi_omega[idx],
        v=None,
        lam_new=None,
        AW=state.AW[idx],
        screen=screen,
        j1_rows=None,  # overwritten by R's rows
    )


def compute_state(
    ctx: SubproblemContext,
    W: np.ndarray,
    b: float,
    AW: np.ndarray | None = None,
    svd: prox.MatrixSvd | None = None,
    base: AdjointSplit | None = None,
    rows: np.ndarray | None = None,
    screen: Screen | None = None,
    reuse: tuple | None = None,
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
    ``_adjoint_pi``).  ``reuse`` = (J1, j1_rows) of the state before keeps
    those rows when J1 comes out the same.

    ``screen`` (default: all rows) is the set of rows to evaluate: under
    an anchor's working set R (see ``Screen``) ``AW`` is A W over R only,
    the ``rows`` block holds R's rows first, and no other row is touched.
    """
    ds, sigma = ctx.dataset, ctx.sigma
    C = ctx.hyper.C
    if screen is None:
        screen = ctx.all_rows
    if AW is None:
        AW = apply_A(ds, W)
    omega = -screen.lam - sigma * (AW + b * screen.labels - 1.0)
    pi_omega = _clip(omega, C)
    in_j1 = (omega > 0.0) & (omega < C)
    if screen.idx is None:
        j1 = np.flatnonzero(in_j1)
        At_pi, split, j1_rows = _adjoint_pi(ctx, pi_omega, j1, omega >= C, base, rows, reuse)
    else:
        j1 = screen.idx[in_j1]
        At_pi, split, j1_rows = _screened_adjoint(
            ctx, screen, pi_omega, in_j1, omega >= C, j1, rows[screen.size :], reuse
        )

    phi, svd = _phi(ctx, screen, omega, W, b, svd)
    dW = W if ctx.w_target is None else W - ctx.w_target
    db = b - ctx.b_center
    dW_sq = float(np.vdot(dW, dW))
    grad_W = ctx.w_weight * dW - At_pi.reshape(W.shape)
    grad_b = ctx.b_weight * db - (float(screen.labels @ pi_omega) + C * screen.y_c)
    rows_j1 = ds.row_norms[j1]
    grad_scale = (
        ctx.w_weight * math.sqrt(dW_sq)
        + abs(ctx.b_weight * db)
        + screen.row_norms @ pi_omega
        + C * screen.r_c
        + sigma * _norm(W, b) * (rows_j1 @ rows_j1)
        + (split.drift if split is not None else 0.0)
    )
    phi_scale = 0.5 * ctx.w_weight * dW_sq + 0.5 * ctx.lam_sq / sigma

    nuc = None
    alpha_size = 0
    if ctx.include_nuclear:
        Xk = ctx.Lam_k + sigma * W
        nuc = prox.prox_nuclear(Xk, ctx.hyper.tau, svd=svd)
        proj = Xk - nuc.Y  # exact Moreau split of Xk
        grad_W = grad_W + proj
        grad_scale += _norm(Xk)
        phi_scale += 0.5 * ctx.Lam_sq / sigma
        U = nuc.Y / sigma
        Lam_new = proj
        alpha_size = nuc.k_bar
    else:
        U = W.copy()
        Lam_new = np.zeros_like(W)

    v = (omega - pi_omega) / sigma
    shifted = pi_omega + screen.lam  # lam_k - lam_new
    v_out = screen.v_out(W, b)
    full = screen.idx is None
    grad_norm = _norm(grad_W, grad_b)
    return SubproblemState(
        W=W,
        b=b,
        phi=phi,
        grad_W=grad_W,
        grad_b=float(grad_b),
        grad_norm=grad_norm,
        omega=omega,
        pi_omega=pi_omega,
        v=v if full else None,
        U=U,
        lam_new=-pi_omega if full else None,
        Lam_new=Lam_new,
        nuc=nuc,
        alpha_size=alpha_size,
        grad_scale=float(grad_scale),
        phi_scale=float(abs(phi) + phi_scale),
        AW=AW,
        j1=j1,
        screen=screen,
        v_norm=math.sqrt(v @ v + v_out * v_out),
        lam_new_norm=math.sqrt(pi_omega @ pi_omega + screen.n_c * C * C),
        lam_step_norm=math.sqrt(shifted @ shifted + screen.dlam_sq),
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
    sample rows, the spectral Jacobian, and the damping rho.  One
    application of the operator never touches samples outside J1.

    The rows, at up to n p q floats the largest block of a Newton step,
    are the state's ``j1_rows`` when it has them (gathered into the
    subproblem's row block); otherwise they are gathered here.  They are
    unsigned: in A_J1* A_J1 and A_J1* y_J1 the labels y_j = +-1 cancel.
    ``config`` is not read (the damping is fixed).  CG applies the
    operator (``apply``); a small system is inverted directly (``solve``).
    """

    def __init__(self, ctx: SubproblemContext, state: SubproblemState, config: SncgConfig | None = None):
        ds = ctx.dataset
        self.sigma = ctx.sigma
        self.a_w = ctx.w_weight
        self.a_b = ctx.b_weight
        self.shape = (ds.p, ds.q)
        self.j1 = state.j1
        self.aj = state.j1_rows
        if self.aj is None:
            self.aj = _gather(ds, self.j1, np.empty((self.j1.size, ds.p * ds.q)))
        self.rho = DAMPING_SCALE * min(DAMPING_CAP, state.grad_norm)
        self.denom = self.a_b + self.sigma * self.j1.size + self.rho
        self.ajy = self.aj.sum(axis=0)  # vec of A*_J1 y_J1
        self.spectral = (
            prox.build_spectral_jacobian(None, ctx.hyper.tau, svd=state.nuc.svd)
            if state.nuc is not None
            else None
        )

    def apply(self, d_vec: np.ndarray) -> np.ndarray:
        """Reduced operator on vec(d_W), accumulated into one new array;
        ``d_vec`` is only read."""
        z = self.aj @ d_vec  # y_J1 * (A_J1 d)
        z *= self.sigma
        z -= (self.sigma / self.denom) * z.sum()  # less sigma^2 y_J1' A_J1 d / denom
        out = self.aj.T @ z
        out += self.a_w * d_vec
        if self.spectral is not None:
            jd = prox.apply_spectral_jacobian(self.spectral, d_vec.reshape(self.shape))
            jd *= self.sigma
            out_mat = out.reshape(self.shape)  # a view of out
            out_mat += jd
        return out

    def recover_db(self, rhs2: float, d_vec: np.ndarray) -> float:
        return (rhs2 - self.sigma * float((self.aj @ d_vec).sum())) / self.denom

    @property
    def direct(self) -> bool:
        """Whether ``newton_direction`` solves this system by ``solve``."""
        return self.j1.size <= DIRECT_MAX_J1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The operator's inverse on ``rhs``, by Sherman-Morrison-Woodbury.

        The operator is B + sigma R' P R with R the J1 rows,
        P = I - (sigma/denom) 1 1' and B = c I - sigma G, c = a_w + sigma
        with the nuclear block and a_w without it (G = 0 there).  B
        inverts in closed form (``prox.spectral_resolvent``), which leaves
        the |J1| x |J1| system (I + sigma P F) u = sigma P R B^-1 rhs with
        F = R B^-1 R'; then d = B^-1 (rhs - R' u).  P is never inverted:
        its small eigenvalue, (a_b + rho)/denom, goes to 0 with rho.
        """
        sigma, R = self.sigma, self.aj
        jac = self.spectral
        c = self.a_w if jac is None else self.a_w + sigma
        # G = 0 at an interior state and at a tie (k1 = 0 both)
        inv = prox.spectral_resolvent(jac, c, sigma) if jac is not None and jac.k1 else None

        def inverse(v):
            if inv is None:
                return v / c
            return prox.apply_resolvent(inv, v.reshape(self.shape)).ravel()

        if R.shape[0] == 0:
            return inverse(rhs)
        system = R @ R.T  # sigma F, then sigma P F, then the system
        system *= sigma / c
        if inv is not None:
            system += sigma * prox.resolvent_gram(inv, R)
        t = sigma / self.denom
        system -= t * system.sum(axis=0)
        system.flat[:: R.shape[0] + 1] += 1.0
        z = R @ inverse(rhs)
        z -= t * z.sum()
        z *= sigma
        u = np.linalg.solve(system, z)
        return inverse(rhs - R.T @ u)


def cg(
    apply_op,
    rhs: np.ndarray,
    tol: float,
    max_iter: int,
):
    """Conjugate gradients for a self-adjoint positive definite operator,
    unpreconditioned, from zero.

    Stops when the residual norm drops to ``tol`` in the absolute sense.
    Returns (x, iterations, residual, converged), where the residual is the
    norm of the one the recurrence carries: it follows rhs - A x up to
    roundoff, and costs no further application of the operator.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    res = math.sqrt(r @ r)
    if res <= tol:
        return x, 0, res, True
    p = r.copy()
    rz = float(r @ r)
    it = 0
    for it in range(1, max_iter + 1):
        Ap = apply_op(p)
        pAp = float(p @ Ap)
        if pAp <= 0 or not math.isfinite(pAp):
            break  # loss of positive definiteness in finite precision
        a = rz / pAp
        x += a * p
        r -= a * Ap
        res = math.sqrt(r @ r)
        if res <= tol:
            break
        rz_new = float(r @ r)
        p = r + (rz_new / rz) * p
        rz = rz_new
    return x, it, res, res <= tol


def newton_direction(
    ctx: SubproblemContext,
    W: np.ndarray,
    b: float,
    workspace: NewtonWorkspace,
    tol: float,
    state: SubproblemState | None = None,
    cg_max_iter: int = CG_MAX_ITER,
):
    """Solve the reduced Newton system at (W, b): directly when |J1| is at
    most ``DIRECT_MAX_J1`` (``NewtonWorkspace.solve``), else by CG in at
    most ``cg_max_iter`` iterations.

    Eliminating d_b leaves one equation in d_W; d_b is recovered from the
    scalar row afterwards.  The residual bound ``tol`` applies to the
    reduced d_W equation.  Returns (d_W, d_b, CG iterations, residual that
    CG's recurrence carries); a direct solve reports 0 and 0.0.
    """
    if state is None:
        state = compute_state(ctx, W, b)
    rhs1 = -state.grad_W.ravel()
    rhs2 = -state.grad_b
    rhs = rhs1 - (workspace.sigma * rhs2 / workspace.denom) * workspace.ajy
    if workspace.direct:
        d_vec, iters, resid = workspace.solve(rhs), 0, 0.0
    else:
        d_vec, iters, resid, _ = cg(workspace.apply, rhs, tol, cg_max_iter)
    if not np.isfinite(d_vec).all():
        raise FloatingPointError("non-finite Newton direction")
    d_b = workspace.recover_db(rhs2, d_vec)
    return d_vec.reshape(workspace.shape), d_b, iters, resid


def _first_root(ends: np.ndarray, f: np.ndarray, slope: float) -> float | None:
    """inf {u : f(u) >= 0} for a nondecreasing piecewise-linear f with the
    values ``f`` at the sorted ``ends`` and the slope ``slope`` outside
    them: -inf when f >= 0 everywhere, None when f < 0 everywhere."""
    k = int(np.argmax(f >= 0.0))
    if f[k] < 0.0:
        return ends[-1] - f[-1] / slope if slope > 0 else None
    if k == 0:
        return ends[0] - f[0] / slope if slope > 0 else -math.inf
    lo, hi = ends[k - 1], ends[k]
    return lo + (hi - lo) * (f[k - 1] / (f[k - 1] - f[k]))


def b_minimizer(
    omega: np.ndarray, labels: np.ndarray, sigma: float, C: float,
    b_weight: float, b_center: float, b: float,
) -> float | None:
    """The minimizer of phi(W, .) nearest b, from omega at (W, b) over all
    rows; None only if roundoff leaves its derivative f (below) without a
    sign change.

    The nuclear block does not depend on b, so phi(W, .) is a convex
    piecewise quadratic.  Moving b by u moves omega_i by -sigma y_i u, and
    its derivative is
    f(u) = a_b (b + u - b0) - sum_i y_i clip(omega_i - sigma y_i u, 0, C)
         = a_b (b + u - b0) - C n_+ + sigma sum_i clip(u - r_i, 0, C/sigma)
    with r_i = y_i omega_i / sigma - (C/sigma if y_i > 0) and n_+ the rows
    with y_i > 0: each row adds a ramp of height C over [r_i, r_i + C/sigma].
    One sort of the 2n ramp ends and running sums give f at every end.
    The roots of f form an interval: a point, unless a_b = 0 and no ramp
    rises over it.  Counting as a root every u where |f(u)| is within its
    roundoff, b* is the root nearest b (b itself when b already minimizes
    to roundoff), interpolated between the two ramp ends around it.
    O(n log n).
    """
    w = C / sigma
    r = labels * omega / sigma
    r -= w * (labels > 0)
    ends = np.concatenate([r, r + w])
    order = np.argsort(ends)
    ends = ends[order]
    rise = np.where(order < r.size, 1.0, -1.0)  # a ramp starts, or tops out
    f = sigma * (np.cumsum(rise) * ends - np.cumsum(rise * ends))
    f += b_weight * (b + ends - b_center) - C * np.count_nonzero(labels > 0)
    # the size of f's terms: the running sums, the ramps' heights, a_b's term
    size = 2.0 * sigma * np.abs(r).sum() + C * r.size
    size += b_weight * (abs(b - b_center) + np.abs(ends).max())
    noise = ROUNDOFF_FACTOR * _EPS * size
    lo = _first_root(ends, f + noise, b_weight)  # inf {u : f(u) >= -noise}
    hi = _first_root(-ends[::-1], noise - f[::-1], b_weight)  # -sup {u : f(u) <= noise}
    if lo is None or hi is None:
        return None
    return b + min(max(0.0, lo), -hi)


def _descent(state: SubproblemState, d_W: np.ndarray, d_b: float):
    """(d_W, d_b, g'd): the direction, or steepest descent when it fails a
    strict descent test (possible in finite precision)."""
    g_dot_d = float(np.vdot(state.grad_W, d_W) + state.grad_b * d_b)
    if g_dot_d >= -1e-12 * state.grad_norm * _norm(d_W, d_b):
        return -state.grad_W, -state.grad_b, -state.grad_norm**2
    return d_W, d_b, g_dot_d


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
    (alpha, evaluations, direction actually used, stalled flag).

    The trials run over the rows of ``state.screen``, which must hold the
    whole segment (``Screen.fits``); on all rows, A d is one full pass.  On
    an accepted step, ``products`` (if given) receives ``"Ad"``, A d_W of
    the direction used over those rows, and ``"svd"``, the SVD of
    ``Lam_k + sigma W`` at the new iterate, for the next ``compute_state``.

    Only the first trial, alpha = 1, which is the one mostly accepted,
    makes a full SVD (with vectors).  A backtracked trial needs no more
    than the singular values for phi, and no SVD at all inside the
    Frobenius ball of radius tau (``prox.env_nuclear``); when one is
    accepted, the SVD of its point is made once, for ``products``.
    """
    if state is None:
        state = compute_state(ctx, W, b)
    d_W, d_b, g_dot_d = _descent(state, d_W, d_b)
    screen = state.screen
    if not screen.fits(W, b, d_W, d_b):
        raise ValueError("the step leaves the ball its state's screen holds for")
    Ad = screen.apply(ctx.dataset, d_W)
    slope = ctx.sigma * (Ad + d_b * screen.labels)  # -d omega / d alpha
    flat = ROUNDOFF_FACTOR * _EPS * state.phi_scale
    alpha = 1.0
    evals = 0
    while evals < config.ls_max_backtracks:
        W_trial = W + alpha * d_W
        trial, svd = _phi(
            ctx, screen, state.omega - alpha * slope, W_trial, b + alpha * d_b,
            vectors=evals == 0,
        )
        evals += 1
        if trial <= state.phi + ARMIJO_MU * alpha * g_dot_d or (
            evals == 1 and abs(trial - state.phi) <= flat
        ):
            if products is not None:
                if svd is None and ctx.include_nuclear:
                    svd = prox.full_svd(ctx.Lam_k + ctx.sigma * W_trial)
                products.update(Ad=Ad, svd=svd)
            return alpha, evals, d_W, d_b, False
        alpha *= BACKTRACK
    # no Armijo step within the backtracking budget: numerically flat
    return alpha, evals, d_W, d_b, True


@dataclass
class SubproblemStats:
    cg_iters: list = field(default_factory=list)  # per Newton step, 0 when direct
    direct_steps: int = 0  # Newton steps solved by NewtonWorkspace.solve
    exact_b_steps: int = 0  # Newton steps with empty J1 that took b_minimizer's b

    @property
    def total_cg(self) -> int:
        return int(sum(self.cg_iters))


@dataclass
class SubproblemResult:
    """The last state of a subproblem (on all rows: its W, b, the slacks
    v, U and the multiplier candidates lam_new, Lam_new), how the solve
    ended and its counts."""

    iterations: int
    converged: bool
    stop_reason: str
    state: SubproblemState
    stats: SubproblemStats
    fresh_AW: bool = False  # state.AW is apply_A of state.W to the bit

    def hand_off(self, dataset: Dataset, C: float) -> tuple[np.ndarray, np.ndarray]:
        """A W and A* lam at the state's point, lam = lam_new, both fresh.

        A W is the state's own when it is fresh, else one pass.  The
        state's split is rebased on A* lam = -A* pi (zero drift), for the
        next subproblem to start its updates of A* pi from it with no pass
        of its own: the caller's KKT check needs A* lam anyway.
        """
        state = self.state
        AW = state.AW if self.fresh_AW else apply_A(dataset, state.W)
        At_lam = apply_A_adjoint(dataset, state.lam_new)
        split = state.split
        state.split = replace(split, g=(np.ravel(-At_lam) - split.j1_part) / C, drift=0.0)
        return AW, At_lam


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

    ``AW0``, if given, is A W0; A* pi starts from ``base``, the split of an
    earlier subproblem's state on the same data and C, best rebased on a
    fresh pass (``SubproblemResult.hand_off``); without them the first
    state makes its own passes.  The steps carry A W forward as
    ``A W + alpha A d`` and update A* pi over the rows that crossed C; a
    step that stays within its anchor's ball touches only the anchor's
    working set R (see the module docstring).
    The returned state is on all rows: a last state on R is evaluated
    once more at a fresh A W, which ``hand_off`` then returns in place of
    a pass of its own.
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
        ws = NewtonWorkspace(ctx, state)
        tol_cg = min(CG_TOL_CAP, state.grad_norm ** (1.0 + CG_TOL_EXPONENT))
        d_W, d_b, cg_it, _ = newton_direction(ctx, W, b, ws, tol_cg, state=state)
        stats.cg_iters.append(cg_it)
        stats.direct_steps += ws.direct
        if not ws.j1.size:
            # Only the damping holds the b-row: take b to its exact minimizer
            # at this W instead, found over all rows (it can leave R's ball)
            if state.screen.idx is not None:
                state = _on_all_rows(ctx, state, rows)
            b_star = b_minimizer(
                state.omega, ctx.dataset.labels, ctx.sigma, ctx.hyper.C,
                ctx.b_weight, ctx.b_center, b,
            )
            if b_star is not None:
                d_b = b_star - b
                stats.exact_b_steps += 1
        d_W, d_b, _ = _descent(state, d_W, d_b)
        if not state.screen.fits(W, b, d_W, d_b):
            # the trials may leave the anchor's ball: back to all rows
            state = _on_all_rows(ctx, state, rows)
        if state.screen.idx is None:
            state = _screen(
                ctx, state, SCREEN_RADIUS * _norm(d_W), SCREEN_RADIUS * abs(d_b), rows
            )
        step = {}
        alpha, _, d_W, d_b, stalled = line_search(
            ctx, W, b, d_W, d_b, config, state=state, products=step
        )
        if stalled:
            reason = "line-search-stall"
            break
        W = W + alpha * d_W
        b = b + alpha * d_b
        AW = step["Ad"]  # A W + alpha A d, formed in the block of A d
        AW *= alpha
        AW += state.AW
        state = compute_state(
            ctx, W, b, AW=AW, svd=step["svd"], base=state.split, rows=rows,
            screen=state.screen, reuse=(state.j1, state.j1_rows),
        )
        iterations = i + 1
    fresh = state.screen.idx is not None
    if fresh:  # the result is exact on all rows
        state = _on_all_rows(ctx, state, rows)
    state.j1_rows = None  # lets the row block go
    return SubproblemResult(
        iterations=iterations,
        converged=converged,
        stop_reason=reason,
        state=state,
        stats=stats,
        fresh_AW=fresh,
    )


def _on_all_rows(ctx, state, rows) -> SubproblemState:
    """``state`` evaluated again on all rows, at a fresh A W."""
    svd = state.nuc.svd if state.nuc is not None else None
    return compute_state(
        ctx, state.W, state.b, svd=svd, base=state.split, rows=rows,
        reuse=(state.j1, state.j1_rows),
    )
