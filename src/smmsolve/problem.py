"""Problem data and first-order structure of the support matrix machine.

A support matrix machine (SMM) classifies matrix-valued samples
``X_i in R^{p x q}`` with labels ``y_i in {-1, +1}`` by minimizing

    0.5 * ||W||_F^2 + tau * ||W||_*  +  C * sum_i max(1 - y_i (<X_i, W> + b), 0)

over a regression matrix ``W`` and offset ``b``.  This module holds the
dataset container, the sample operator ``A`` (and its adjoint and
restrictions), the primal/dual objectives, the relative KKT residual used
as the common stopping measure, and the support/active-support sample
classification.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prox import project_box, project_spectral_ball

__all__ = [
    "DataError",
    "Dataset",
    "Hyperparams",
    "PrimalPoint",
    "DualPoint",
    "SampleClassification",
    "KktResidual",
    "DualValue",
    "apply_A",
    "apply_A_adjoint",
    "apply_A_restricted",
    "apply_A_adjoint_restricted",
    "primal_objective",
    "dual_objective",
    "kkt_residual",
    "classify_samples",
    "mapped_empty",
]


class DataError(ValueError):
    """Raised when dataset contents violate the model's assumptions."""


@dataclass(frozen=True)
class Hyperparams:
    """Regularization weights: ``C`` on the hinge loss, ``tau`` on the
    nuclear norm.  ``tau == 0`` disables the nuclear-norm block."""

    C: float
    tau: float

    def __post_init__(self):
        if not np.isfinite(self.C) or self.C <= 0:
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ValueError(f"tau must be nonnegative and finite, got {self.tau}")


def mapped_empty(shape, dtype=np.float64, prefault: bool = False) -> np.ndarray:
    """Uninitialised array in its own anonymous memory mapping.

    For the large blocks a long run allocates again and again (feature
    blocks, the gathered rows of a Newton step).  Only pages written are
    resident, and all go back to the OS when the last view is dropped.
    Taken from the allocator's heap instead, blocks whose sizes change
    from one instance or step to the next leave holes that later blocks
    do not fit, and the resident size creeps up from solve to solve.
    ``prefault`` maps all pages at once, cheaper than faulting them in one
    by one when the whole block is written next.
    """
    count = math.prod(shape)
    dtype = np.dtype(dtype)
    size = max(dtype.itemsize * count, 1)
    if hasattr(mmap, "MAP_PRIVATE"):
        flags = mmap.MAP_PRIVATE | (getattr(mmap, "MAP_POPULATE", 0) if prefault else 0)
        buf = mmap.mmap(-1, size, flags=flags)
    else:  # Windows: anonymous mappings take no flags
        buf = mmap.mmap(-1, size)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


class Dataset:
    """Immutable container of n labeled feature matrices.

    Features are stored in one contiguous ``(n, p, q)`` float64 buffer in
    sample-major order, so full and index-restricted applications of the
    sample operator stream row blocks linearly.

    Parameters
    ----------
    features : array_like, shape (n, p, q)
        Feature matrices, all finite.
    labels : array_like, shape (n,)
        Class labels, each exactly +1 or -1; both classes must occur.
    """

    def __init__(self, features, labels):
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if features.ndim != 3:
            raise DataError(f"features must be (n, p, q), got shape {features.shape}")
        n = features.shape[0]
        if labels.shape[0] != n:
            raise DataError(f"{labels.shape[0]} labels for {n} samples")
        if n == 0:
            raise DataError("empty dataset")
        # one pass without a mask; the sum of finite entries can still
        # overflow, so only a non-finite sum is checked entry by entry
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(features)
        if not np.isfinite(total) and not np.isfinite(features).all():
            raise DataError("features contain non-finite entries")
        bad = np.flatnonzero(np.abs(labels) != 1.0)
        if bad.size:
            raise DataError(
                f"label must be +1 or -1; offending value {labels[bad[0]]!r} "
                f"at index {bad[0]}"
            )
        if labels.max() != 1.0 or labels.min() != -1.0:
            raise DataError("both classes must be present")
        self._features = features
        self._labels = labels
        self._flat = features.reshape(n, -1)  # (n, p*q) sample-major view
        self._features.setflags(write=False)
        self._labels.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self._features.shape[0]

    @property
    def p(self) -> int:
        return self._features.shape[1]

    @property
    def q(self) -> int:
        return self._features.shape[2]

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def flat_features(self) -> np.ndarray:
        """(n, p*q) view of the feature buffer."""
        return self._flat

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Norms ``||(vec X_i, y_i)||`` of the rows of ``(W, b) -> A W + b y``.

        Computed on first use (one pass over the features) and cached.
        """
        norms = np.sqrt(np.einsum("ij,ij->i", self._flat, self._flat) + 1.0)
        norms.setflags(write=False)
        return norms

    def subset(self, indices) -> "Dataset":
        """Dataset restricted to ``indices`` (gather, O(|I| p q))."""
        indices = _check_indices(indices, self.n_samples)
        features = mapped_empty((indices.size, self.p, self.q), prefault=True)
        np.take(self._features, indices, axis=0, out=features, mode="clip")
        return Dataset(features, self._labels[indices])

    def __repr__(self):
        return f"Dataset(n={self.n_samples}, p={self.p}, q={self.q})"


@dataclass
class PrimalPoint:
    """Primal variable block (W, b, v, U) of the equality-constrained form."""

    W: np.ndarray
    b: float
    v: np.ndarray
    U: np.ndarray

    @staticmethod
    def zeros(dataset: Dataset) -> "PrimalPoint":
        p, q, n = dataset.p, dataset.q, dataset.n_samples
        return PrimalPoint(np.zeros((p, q)), 0.0, np.zeros(n), np.zeros((p, q)))


@dataclass
class DualPoint:
    """Dual multipliers (lam, Lam) for the two equality constraints."""

    lam: np.ndarray
    Lam: np.ndarray

    @staticmethod
    def zeros(dataset: Dataset) -> "DualPoint":
        return DualPoint(np.zeros(dataset.n_samples), np.zeros((dataset.p, dataset.q)))


def _check_indices(indices, n: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"index out of range for dataset with n={n}")
    return idx


def apply_A(dataset: Dataset, W: np.ndarray) -> np.ndarray:
    """Sample operator: ``(A W)_i = y_i <X_i, W>``."""
    W = np.asarray(W, dtype=np.float64)
    if W.shape != (dataset.p, dataset.q):
        raise ValueError(f"W has shape {W.shape}, expected {(dataset.p, dataset.q)}")
    return (dataset.flat_features @ W.ravel()) * dataset.labels


def apply_A_adjoint(dataset: Dataset, z: np.ndarray) -> np.ndarray:
    """Adjoint of the sample operator: ``A* z = sum_k z_k y_k X_k``."""
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.shape[0] != dataset.n_samples:
        raise ValueError(f"z has length {z.shape[0]}, expected {dataset.n_samples}")
    return (dataset.flat_features.T @ (z * dataset.labels)).reshape(
        dataset.p, dataset.q
    )


def apply_A_restricted(dataset: Dataset, indices, W: np.ndarray) -> np.ndarray:
    """Rows ``indices`` of ``A W``; cost O(|I| p q), independent of n."""
    W = np.asarray(W, dtype=np.float64)
    if W.shape != (dataset.p, dataset.q):
        raise ValueError(f"W has shape {W.shape}, expected {(dataset.p, dataset.q)}")
    idx = _check_indices(indices, dataset.n_samples)
    if idx.size == 0:
        return np.zeros(0)
    return (dataset.flat_features[idx] @ W.ravel()) * dataset.labels[idx]


def apply_A_adjoint_restricted(dataset: Dataset, indices, z_sub: np.ndarray) -> np.ndarray:
    """Zero-extended adjoint: ``sum_{j in I} z_j y_j X_j``."""
    idx = _check_indices(indices, dataset.n_samples)
    z_sub = np.asarray(z_sub, dtype=np.float64).ravel()
    if z_sub.shape[0] != idx.size:
        raise ValueError(f"z has length {z_sub.shape[0]}, expected {idx.size}")
    if idx.size == 0:
        return np.zeros((dataset.p, dataset.q))
    return (dataset.flat_features[idx].T @ (z_sub * dataset.labels[idx])).reshape(
        dataset.p, dataset.q
    )


def primal_objective(
    dataset: Dataset,
    hyper: Hyperparams,
    W: np.ndarray,
    b: float,
    AW: np.ndarray | None = None,
) -> float:
    """0.5||W||_F^2 + tau ||W||_* + C sum_i max(1 - y_i(<X_i,W>+b), 0).

    ``AW``, if given, is ``apply_A(dataset, W)``; the value is then the
    same to the bit, without the pass over the data.
    """
    W = np.asarray(W, dtype=np.float64)
    if AW is None:
        AW = apply_A(dataset, W)
    v = 1.0 - AW - b * dataset.labels  # slacks; their positive part is the hinge
    val = 0.5 * np.sum(W * W) + hyper.C * np.sum(np.maximum(v, 0.0))
    if hyper.tau > 0:
        val += hyper.tau * np.linalg.svd(W, compute_uv=False).sum()
    return float(val)


@dataclass
class DualValue:
    """Dual objective value with feasibility report."""

    value: float
    feasible: bool
    violations: tuple[str, ...]


def dual_objective(
    dataset: Dataset,
    hyper: Hyperparams,
    lam: np.ndarray,
    Lam: np.ndarray,
    tol: float = 1e-8,
    At_lam: np.ndarray | None = None,
) -> DualValue:
    """Value ``-(0.5 ||A* lam + Lam||_F^2 + <lam, e>)`` of the dual problem.

    Feasibility of ``(-lam, Lam)`` in ``[0, C]^n x {||.||_2 <= tau}`` and of
    the linear constraint ``y' lam = 0`` is reported, not enforced.
    ``At_lam``, if given, is ``apply_A_adjoint(dataset, lam)``.
    """
    lam = np.asarray(lam, dtype=np.float64).ravel()
    Lam = np.asarray(Lam, dtype=np.float64)
    if At_lam is None:
        At_lam = apply_A_adjoint(dataset, lam)
    G = At_lam + Lam
    value = -(0.5 * np.sum(G * G) + lam.sum())
    violations = []
    m = -lam
    if m.min() < -tol * (1.0 + hyper.C) or m.max() > hyper.C + tol * (1.0 + hyper.C):
        violations.append("box")
    spec_norm = np.linalg.svd(Lam, compute_uv=False)[0] if Lam.size else 0.0
    if spec_norm > hyper.tau + tol * (1.0 + hyper.tau):
        violations.append("spectral ball")
    if abs(dataset.labels @ lam) > tol * (1.0 + np.linalg.norm(lam)):
        violations.append("linear constraint")
    return DualValue(float(value), not violations, tuple(violations))


_KKT_KEYS = ("W", "b", "v", "U", "lambda", "Lambda")


@dataclass
class KktResidual:
    """Relative KKT residual: the max of six normalized components, plus the
    unnormalized (raw) residual norms used by the sieving error bound."""

    eta: float
    components: dict
    raw: dict

    @property
    def raw_max(self) -> float:
        return max(self.raw.values())


def kkt_residual(
    dataset: Dataset,
    hyper: Hyperparams,
    primal: PrimalPoint,
    dual: DualPoint,
    AW: np.ndarray | None = None,
    At_lam: np.ndarray | None = None,
) -> KktResidual:
    """Six-component relative KKT residual of the primal/dual pair.

    Components: stationarity in W, the linear constraint y'lam = 0, the
    v-block and U-block subdifferential inclusions (as projection
    residuals), and the two primal feasibility gaps.  ``AW`` and
    ``At_lam``, if given, are ``apply_A(dataset, primal.W)`` and
    ``apply_A_adjoint(dataset, dual.lam)``; the residual is then the same
    to the bit, without those passes.
    """
    W, b, v, U = primal.W, primal.b, primal.v, primal.U
    lam, Lam = dual.lam, dual.Lam
    y = dataset.labels
    n = dataset.n_samples
    sqrt_n = np.sqrt(n)

    if At_lam is None:
        At_lam = apply_A_adjoint(dataset, lam)
    r_W = np.linalg.norm(W + At_lam + Lam)
    r_b = abs(lam @ y)
    r_v = np.linalg.norm(lam + project_box(v - lam, hyper.C))
    r_U = np.linalg.norm(Lam - project_spectral_ball(U + Lam, hyper.tau))
    if AW is None:
        AW = apply_A(dataset, W)
    r_lam = np.linalg.norm(AW + b * y + v - 1.0)
    r_Lam = np.linalg.norm(W - U)

    nW = np.linalg.norm(W)
    components = {
        "W": r_W / (1.0 + nW + np.linalg.norm(At_lam) + np.linalg.norm(Lam)),
        "b": r_b / (1.0 + sqrt_n),
        "v": r_v / (1.0 + np.linalg.norm(lam) + np.linalg.norm(v)),
        "U": r_U / (1.0 + np.linalg.norm(Lam) + np.linalg.norm(U)),
        "lambda": r_lam / (1.0 + sqrt_n),
        "Lambda": r_Lam / (1.0 + nW + np.linalg.norm(U)),
    }
    raw = dict(zip(_KKT_KEYS, (r_W, r_b, r_v, r_U, r_lam, r_Lam)))
    return KktResidual(max(components.values()), components, raw)


@dataclass
class SampleClassification:
    """Partition of sample indices by the dual multiplier magnitude.

    A sample j is a support sample when ``0 < (-lam)_j <= C`` and an active
    support sample when ``(-lam)_j`` lies strictly inside ``(0, C)``; only
    support samples influence the solution.
    """

    support: np.ndarray
    active_support: np.ndarray
    non_support: np.ndarray
    tol: float

    @property
    def sm_count(self) -> int:
        return int(self.support.size)

    @property
    def asm_count(self) -> int:
        return int(self.active_support.size)


def classify_samples(lam: np.ndarray, C: float, tol: float | None = None) -> SampleClassification:
    """Split indices into support / active-support / non-support sets.

    Boundary comparisons are widened by ``tol`` (default ``1e-8 * C``) since
    exact comparisons are meaningless in floating point.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if tol is None:
        tol = 1e-8 * C
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    m = -np.asarray(lam, dtype=np.float64).ravel()
    non_support = np.flatnonzero(m <= tol)
    support = np.flatnonzero(m > tol)
    active = np.flatnonzero((m > tol) & (m < C - tol))
    return SampleClassification(support, active, non_support, tol)
