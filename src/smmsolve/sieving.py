"""Solution paths over an increasing grid of hinge weights C.

Adaptive sieving (``solve_path``) solves reduced problems on active-sample
subsets.  Each grid point starts from the margin-based active set of the
previous one, solves the restricted model to a raw-residual tolerance, and
expands the set with violated outside samples (largest slack first, capped
per round) until none remain.  The extended tuple is then an approximate
KKT point of the full problem with the same componentwise error bound.
``warm_path``, the reference, makes full solves warm-started along the grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

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
    "warm_path",
]


class SievingError(RuntimeError):
    """Raised when a reduced solve fails or the round cap is breached."""


@dataclass
class PathConfig:
    """Grid and accuracy settings for one path run.

    ``grid`` must be finite, positive and strictly increasing; the full
    solve that initializes the active set is at its first value.  ``eps``
    (> 0) bounds the six raw KKT residual norms of every solve, ``eps_hat``
    widens the margin set carried to the next grid point, and ``d_max``
    caps the violated samples added in one sieving round.  ``warm_path``
    reads only ``grid``, ``tau`` and ``eps``.
    """

    grid: tuple
    tau: float
    eps: float = 1e-6
    eps_hat: float = 0.05
    d_max: int = 500

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.size == 0 or not np.isfinite(g).all() or g.min() <= 0 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be finite, positive and strictly increasing")
        if not (0 < self.eps < np.inf and 0 <= self.eps_hat < np.inf):
            raise ValueError("eps must be finite and positive, eps_hat finite and nonnegative")
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")
        self.grid = tuple(float(c) for c in g)


@dataclass
class PathPoint:
    """One grid point: the full-dimension extended solution plus sieving
    diagnostics (``rounds = 0`` and no ``active_sizes`` from
    ``warm_path``)."""

    C: float
    solution: alm.Solution
    active_sizes: list
    rounds: int
    raw_errors: dict
    eta_kkt: float
    wall_time: float


def initial_active_set(
    dataset: Dataset, W: np.ndarray, b: float, eps_hat: float, AW: np.ndarray | None = None
) -> np.ndarray:
    """Samples with margin at most ``1 + eps_hat`` under the given model;
    ``AW``, if given, is ``apply_A(dataset, W)``."""
    if AW is None:
        AW = apply_A(dataset, W)
    margins = AW + b * dataset.labels
    return np.flatnonzero(margins <= 1.0 + eps_hat)


def _raw_config(eps: float) -> alm.AlmConfig:
    """The ALM settings of every path solve: raw residuals <= eps."""
    return alm.AlmConfig(kkt_tol=eps, stop_mode="raw")


def solve_reduced(
    dataset: Dataset,
    indices: np.ndarray,
    C: float,
    tau: float,
    eps: float,
    warm: alm.StartPoint | None = None,
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
    sol = alm.solve(sub, Hyperparams(C=C, tau=tau), _raw_config(eps), init=warm)
    if not sol.report.converged:
        raise SievingError(
            f"reduced solve on |I|={indices.size} at C={C} stalled at "
            f"raw residual {max(sol.report.raw_components.values()):.3e}"
        )
    return sol, dict(sol.report.raw_components)


def violation_set(
    dataset: Dataset, indices: np.ndarray, reduced: alm.Solution, C: float,
    AW: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Violated outside samples and the extended (v, lam) vectors.

    Outside slacks are ``v_j = 1 - y_j (<W, X_j> + b)``; the violated set
    collects ``v_j >= 0``.  The extension puts ``-C`` at violated entries
    of the multiplier and zero elsewhere outside the active set.  ``AW``,
    if given, is ``apply_A`` of the reduced W over all of ``dataset``.
    """
    n = dataset.n_samples
    indices = np.asarray(indices, dtype=np.int64)
    mask_in = np.zeros(n, dtype=bool)
    mask_in[indices] = True
    outside = np.flatnonzero(~mask_in)

    W, b = reduced.primal.W, reduced.primal.b
    v_full = np.empty(n)
    v_full[indices] = reduced.primal.v
    if AW is None:
        AW = apply_A(dataset, W)
    margins_out = AW[outside] + b * dataset.labels[outside]
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


def solve_path(dataset: Dataset, config: PathConfig) -> list[PathPoint]:
    """The path over the grid by adaptive sieving.

    One full solve at the first grid value gives the initial model, whose
    margin set starts the first point.  Each grid point loops
    solve/violations/expand until the violated set empties; more than n
    rounds would contradict finite termination and raises.  A reduced or
    initial solve that does not converge raises ``SievingError``.

    A W of each reduced solution is formed once over all rows and shared
    by the violation test and the margin set carried to the next grid
    point (none after the last).
    """
    n = dataset.n_samples
    c0 = config.grid[0]
    base = alm.solve(dataset, Hyperparams(C=c0, tau=config.tau), _raw_config(config.eps))
    if not base.report.converged:
        raise SievingError(f"initial solve at C0={c0} did not converge")
    prev_active = initial_active_set(dataset, base.primal.W, base.primal.b, config.eps_hat)
    prev = base
    if prev_active.size == 0:
        prev_active = np.arange(n, dtype=np.int64)

    points = []
    for C in config.grid:
        t0 = time.perf_counter()
        active = np.asarray(prev_active, dtype=np.int64)
        warm = alm.StartPoint(
            W=prev.primal.W, b=prev.primal.b, lam=prev.dual.lam[active], Lam=prev.dual.Lam
        )
        sizes = []
        rounds = 0
        while True:
            rounds += 1
            if rounds > n:
                raise SievingError("sieving exceeded n rounds; finite termination violated")
            sizes.append(int(active.size))
            reduced, _ = solve_reduced(dataset, active, C, config.tau, config.eps, warm=warm)
            AW = apply_A(dataset, reduced.primal.W)
            violated, v_full, lam_full = violation_set(dataset, active, reduced, C, AW)
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
        if C == config.grid[-1]:
            break
        prev_active = initial_active_set(
            dataset, reduced.primal.W, reduced.primal.b, config.eps_hat, AW
        )
        if prev_active.size == 0:
            prev_active = np.arange(n, dtype=np.int64)
        prev = full_solution
    return points


def warm_path(dataset: Dataset, config: PathConfig) -> list[PathPoint]:
    """The path over the grid by full solves, each warm-started.

    Every grid point is one ``alm.solve`` on all samples to raw residuals
    <= ``config.eps``, started from the tuple of the point before (the
    first from the origin).  A point that does not converge is kept, with
    ``converged = False`` in its report, and the next starts from it.
    """
    points = []
    warm = None
    for C in config.grid:
        t0 = time.perf_counter()
        sol = alm.solve(dataset, Hyperparams(C=C, tau=config.tau), _raw_config(config.eps), init=warm)
        rep, wall = sol.report, time.perf_counter() - t0
        points.append(PathPoint(C, sol, [], 0, dict(rep.raw_components), rep.eta_kkt, wall))
        warm = alm.StartPoint(W=sol.primal.W, b=sol.primal.b, lam=sol.dual.lam, Lam=sol.dual.Lam)
    return points
