"""Adaptive sieving: solution paths over an increasing grid of hinge
weights by solving reduced problems on active-sample subsets.

Each grid point starts from the margin-based active set of the previous
one, solves the restricted model to a raw-residual tolerance, and expands
the set with violated outside samples (largest slack first, capped per
round) until none remain.  The extended tuple is then an approximate KKT
point of the full problem with the same componentwise error bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import alm
from .problem import (
    Dataset,
    DualPoint,
    Hyperparams,
    PrimalPoint,
    apply_A,
    kkt_residual,
)

__all__ = [
    "PathConfig",
    "PathPoint",
    "SievingError",
    "initial_active_set",
    "solve_reduced",
    "violation_set",
    "expand",
    "solve_path",
]


class SievingError(RuntimeError):
    """Raised when a reduced solve fails or the round cap is breached."""


@dataclass
class PathConfig:
    """Grid and accuracy settings for one path run.

    ``grid`` must be strictly increasing; ``c0`` (default: the first grid
    value) fixes the model solved to initialize the active set.  ``eps``
    bounds the six raw KKT residual norms of every reduced solve, and
    ``eps_hat`` widens the margin set carried to the next grid point.
    """

    grid: tuple
    tau: float
    c0: float | None = None
    eps: float = 1e-6
    eps_hat: float = 0.05
    d_max: int = 500
    alm_config: alm.AlmConfig = field(default_factory=alm.AlmConfig)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.size == 0 or g.min() <= 0 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing and positive")
        if self.eps < 0 or self.eps_hat < 0:
            raise ValueError("eps and eps_hat must be nonnegative")
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")
        self.grid = tuple(float(c) for c in g)


@dataclass
class PathPoint:
    """One grid point: the full-dimension extended solution plus sieving
    diagnostics."""

    C: float
    solution: alm.Solution
    active_sizes: list
    rounds: int
    raw_errors: dict
    eta_kkt: float
    wall_time: float


def initial_active_set(dataset: Dataset, W: np.ndarray, b: float, eps_hat: float) -> np.ndarray:
    """Samples with margin at most ``1 + eps_hat`` under the given model."""
    margins = apply_A(dataset, W) + b * dataset.labels
    return np.flatnonzero(margins <= 1.0 + eps_hat)


def _raw_config(alm_config: alm.AlmConfig | None, eps: float) -> alm.AlmConfig:
    """``alm_config`` run to raw residuals <= eps."""
    cfg = alm_config if alm_config is not None else alm.AlmConfig()
    return replace(cfg, kkt_tol=eps, stop_mode="raw")


def solve_reduced(
    dataset: Dataset,
    indices: np.ndarray,
    C: float,
    tau: float,
    eps: float,
    warm: alm.StartPoint | None = None,
    alm_config: alm.AlmConfig | None = None,
) -> tuple[alm.Solution, dict]:
    """Solve the model restricted to ``indices`` to raw residuals <= eps.

    The restricted problem has the same structure as the full one, so the
    augmented Lagrangian solver applies unchanged.  Returns the reduced
    solution together with its six raw residual norms.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("reduced index set must be nonempty")
    sub = dataset.subset(indices)
    cfg = _raw_config(alm_config, eps)
    sol = alm.solve(sub, Hyperparams(C=C, tau=tau), cfg, init=warm)
    if not sol.report.converged:
        raise SievingError(
            f"reduced solve on |I|={indices.size} at C={C} stalled at "
            f"raw residual {max(sol.report.raw_components.values()):.3e}"
        )
    return sol, dict(sol.report.raw_components)


def violation_set(
    dataset: Dataset, indices: np.ndarray, reduced: alm.Solution, C: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Violated outside samples and the extended (v, lam) vectors.

    Outside slacks are ``v_j = 1 - y_j (<W, X_j> + b)``; the violated set
    collects ``v_j >= 0``.  The extension puts ``-C`` at violated entries
    of the multiplier and zero elsewhere outside the active set.
    """
    n = dataset.n_samples
    indices = np.asarray(indices, dtype=np.int64)
    mask_in = np.zeros(n, dtype=bool)
    mask_in[indices] = True
    outside = np.flatnonzero(~mask_in)

    W, b = reduced.primal.W, reduced.primal.b
    v_full = np.empty(n)
    v_full[indices] = reduced.primal.v
    margins_out = apply_A(dataset, W)[outside] + b * dataset.labels[outside]
    v_full[outside] = 1.0 - margins_out

    violated = outside[v_full[outside] >= 0.0]
    lam_full = np.zeros(n)
    lam_full[indices] = reduced.dual.lam
    lam_full[violated] = -C
    return violated, v_full, lam_full


def expand(indices: np.ndarray, violated: np.ndarray, v_full: np.ndarray, d_max: int) -> np.ndarray:
    """Union the active set with the top-d violated samples by slack value,
    ties broken toward smaller index."""
    if violated.size == 0:
        return np.asarray(indices, dtype=np.int64)
    d = min(violated.size, d_max)
    # lexsort: primary key descending slack, secondary ascending index
    order = np.lexsort((violated, -v_full[violated]))
    picked = violated[order[:d]]
    return np.union1d(np.asarray(indices, dtype=np.int64), picked)


def solve_path(
    dataset: Dataset,
    config: PathConfig,
    init_model: tuple[np.ndarray, float] | None = None,
) -> list[PathPoint]:
    """Generate the solution path over the grid.

    Without ``init_model`` the initializing model is computed by one full
    solve at ``c0``.  Each grid point loops solve/violations/expand until
    the violated set empties; more than n rounds would contradict finite
    termination and raises.
    """
    n = dataset.n_samples
    if init_model is not None:
        W0, b0 = init_model
        prev_active = initial_active_set(dataset, np.asarray(W0, float), float(b0), config.eps_hat)
        warm_full = None
    else:
        c0 = config.c0 if config.c0 is not None else config.grid[0]
        cfg = _raw_config(config.alm_config, config.eps)
        base = alm.solve(dataset, Hyperparams(C=c0, tau=config.tau), cfg)
        if not base.report.converged:
            raise SievingError(f"initial solve at C0={c0} did not converge")
        prev_active = initial_active_set(
            dataset, base.primal.W, base.primal.b, config.eps_hat
        )
        warm_full = (base.primal, base.dual)
    if prev_active.size == 0:
        prev_active = np.arange(n, dtype=np.int64)

    points = []
    for C in config.grid:
        t0 = time.perf_counter()
        active = np.asarray(prev_active, dtype=np.int64)
        warm = _restrict_warm(warm_full, active)
        sizes = []
        rounds = 0
        while True:
            rounds += 1
            if rounds > n:
                raise SievingError("sieving exceeded n rounds; finite termination violated")
            sizes.append(int(active.size))
            reduced, _ = solve_reduced(
                dataset, active, C, config.tau, config.eps, warm=warm,
                alm_config=config.alm_config,
            )
            violated, v_full, lam_full = violation_set(dataset, active, reduced, C)
            if violated.size == 0:
                break
            new_active = expand(active, violated, v_full, config.d_max)
            warm = alm.StartPoint(
                W=reduced.primal.W,
                b=reduced.primal.b,
                lam=lam_full[new_active],
                Lam=reduced.dual.Lam,
            )
            active = new_active

        primal = PrimalPoint(reduced.primal.W, reduced.primal.b, v_full, reduced.primal.U)
        dual = DualPoint(lam_full, reduced.dual.Lam)
        res = kkt_residual(dataset, Hyperparams(C=C, tau=config.tau), primal, dual)
        report = replace(
            reduced.report,
            raw_components=dict(res.raw),
            eta_components=dict(res.components),
            eta_kkt=res.eta,
        )
        full_solution = alm.Solution(primal, dual, report)
        points.append(
            PathPoint(
                C=C,
                solution=full_solution,
                active_sizes=sizes,
                rounds=rounds,
                raw_errors=dict(res.raw),
                eta_kkt=res.eta,
                wall_time=time.perf_counter() - t0,
            )
        )
        prev_active = initial_active_set(
            dataset, reduced.primal.W, reduced.primal.b, config.eps_hat
        )
        if prev_active.size == 0:
            prev_active = np.arange(n, dtype=np.int64)
        warm_full = (full_solution.primal, full_solution.dual)
    return points


def _restrict_warm(warm_full, active: np.ndarray) -> alm.StartPoint | None:
    if warm_full is None:
        return None
    primal, dual = warm_full
    return alm.StartPoint(
        W=primal.W, b=primal.b, lam=dual.lam[active], Lam=dual.Lam
    )
