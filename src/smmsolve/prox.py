"""Proximal maps, projections, Moreau envelopes, and generalized-Jacobian
actions for the box ``[0, C]^n`` and the spectral-norm ball / nuclear norm.

The spectral pieces share one full SVD; the nuclear envelope alone needs
only the singular values, and none inside the Frobenius ball of radius
tau.  ``SpectralJacobian`` stores a selected element of the Clarke
Jacobian of the spectral-ball projection in factored form.  Its fast
action touches only the k1 singular values above the threshold: the
combined weights of the alpha rows and the contiguous factor blocks are
formed once per Jacobian, so one action on an m x k direction (m <= k)
costs O(k1 m (m + k)) flops in a dozen array operations.  A dense action
through the full scaling matrices serves as the oracle.  The same blocks
give ``(c I - sigma G)^{-1}`` in closed form (``SpectralResolvent``), G
being the part of the Jacobian other than the identity, for the direct
Newton solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "project_box",
    "prox_support_fn",
    "env_support_fn",
    "MatrixSvd",
    "full_svd",
    "NuclearProx",
    "prox_nuclear",
    "project_spectral_ball",
    "env_nuclear",
    "jac_box_diag",
    "SpectralJacobian",
    "build_spectral_jacobian",
    "apply_spectral_jacobian",
    "SpectralResolvent",
    "spectral_resolvent",
    "apply_resolvent",
    "resolvent_gram",
]

# Relative tolerance for deciding that a singular value ties the threshold.
_TIE_RTOL = 1e-12


def project_box(x: np.ndarray, C: float) -> np.ndarray:
    """Componentwise projection onto [0, C]."""
    if C <= 0:
        raise ValueError("C must be positive")
    return np.clip(x, 0.0, C)


def prox_support_fn(x: np.ndarray, C: float) -> np.ndarray:
    """Proximal map of the support function of [0, C]^n.

    By the Moreau identity this is ``x - project_box(x, C)``.
    """
    return x - project_box(x, C)


def env_support_fn(x: np.ndarray, C: float) -> float:
    """Moreau envelope of the support function of [0, C]^n at x."""
    x = np.asarray(x, dtype=np.float64)
    p = prox_support_fn(x, C)
    pi = x - p  # projection onto the box
    return float(C * np.sum(np.maximum(p, 0.0)) + 0.5 * np.sum(pi * pi))


@dataclass(frozen=True)
class MatrixSvd:
    """Full SVD of a matrix, internally oriented so rows <= cols.

    ``transposed`` records whether the original matrix was transposed to
    reach that orientation; consumers undo it on output.
    """

    U: np.ndarray  # (m, m) with m = min(p, q)
    s: np.ndarray  # (m,) nonincreasing
    Vt: np.ndarray  # (k, k) full right factor, k = max(p, q)
    transposed: bool

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def k(self) -> int:
        return self.Vt.shape[0]


def full_svd(X: np.ndarray) -> MatrixSvd:
    """Full SVD with the short side as the row dimension."""
    X = np.asarray(X, dtype=np.float64)
    transposed = X.shape[0] > X.shape[1]
    if transposed:
        X = X.T
    U, s, Vt = np.linalg.svd(X, full_matrices=True)
    return MatrixSvd(U, s, Vt, transposed)


@dataclass(frozen=True)
class NuclearProx:
    """Result of the nuclear-norm proximal map: the thresholded matrix, the
    SVD it was computed from, and the count of singular values above tau."""

    Y: np.ndarray
    svd: MatrixSvd
    k_bar: int


def _reconstruct(svd: MatrixSvd, vals: np.ndarray) -> np.ndarray:
    Y = (svd.U * vals) @ svd.Vt[: svd.m, :]
    return Y.T if svd.transposed else Y


def prox_nuclear(X: np.ndarray, tau: float, svd: MatrixSvd | None = None) -> NuclearProx:
    """Soft-threshold the singular values of X by tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if svd is None:
        svd = full_svd(X)
    vals = np.maximum(svd.s - tau, 0.0)
    k_bar = int(np.count_nonzero(svd.s > tau))
    return NuclearProx(_reconstruct(svd, vals), svd, k_bar)


def project_spectral_ball(X: np.ndarray, tau: float, svd: MatrixSvd | None = None) -> np.ndarray:
    """Projection onto the spectral-norm ball of radius tau.

    Clips singular values at tau; for tau == 0 this is the zero map.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    X = np.asarray(X, dtype=np.float64)
    if tau == 0:
        return np.zeros_like(X)
    if svd is None:
        svd = full_svd(X)
    if svd.s.size == 0 or svd.s[0] <= tau:
        return X.copy()
    return _reconstruct(svd, np.minimum(svd.s, tau))


def env_nuclear(X: np.ndarray, tau: float, svd: MatrixSvd | None = None) -> float:
    """Moreau envelope of ``tau * ||.||_*`` at X.

    Without ``svd`` only the singular values are computed, and none when
    ``||X||_F <= tau``: every singular value is then at most tau, and the
    envelope is ``||X||_F^2 / 2``.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if svd is not None:
        s = svd.s
    else:
        x = np.asarray(X, dtype=np.float64).ravel()
        sq = float(x @ x)
        if sq <= tau * tau:
            return 0.5 * sq
        s = np.linalg.svd(np.reshape(x, np.shape(X)), compute_uv=False)
    low = np.minimum(s, tau)
    return float(tau * (s - low).sum() + 0.5 * (low @ low))


def jac_box_diag(omega: np.ndarray, C: float) -> np.ndarray:
    """Diagonal of the selected box-projection Jacobian element.

    Entry j is 1 exactly when ``0 < omega_j < C`` strictly; ties at the
    boundary take the 0 element.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    omega = np.asarray(omega, dtype=np.float64)
    return ((omega > 0.0) & (omega < C)).astype(np.float64)


@dataclass(frozen=True)
class SpectralJacobian:
    """One element of the Clarke Jacobian of the spectral-ball projection.

    Index ranges over the (internally oriented) singular values:
    ``alpha = [0, k1)`` above the threshold, ``beta1 = [k1, k2)`` at the
    threshold (within a tie tolerance), ``beta2 = [k2, m)`` below, and the
    implicit trailing block of size ``k - m``.  The scaling blocks are kept
    only where they are nonzero, which is what makes the fast action cheap
    when ``k1`` is small.

    For the fast action (``_apply_fast``) the blocks are also combined,
    once and on first use, into the weights P = (xi1 + xi2)/2 and
    Q = (xi1 - xi2)/2 on the (k1, m) block (``fast_weights``), xi1 and xi2
    being the symmetric scalings, and the factor blocks it multiplies by
    are stored contiguous.
    """

    shape: tuple[int, int]  # original orientation
    tau: float
    is_interior: bool
    transposed: bool = False
    U: np.ndarray | None = None  # (m, m)
    Vt: np.ndarray | None = None  # (k, k)
    s: np.ndarray | None = None  # (m,)
    k1: int = 0
    k2: int = 0
    xi2_aa: np.ndarray | None = None  # (k1, k1)
    xi2_ab: np.ndarray | None = None  # (k1, m - k1), columns beta1 then beta2
    xi1_ab2: np.ndarray | None = None  # (k1, m - k2)
    xi3_d: np.ndarray | None = None  # (k1,)
    xi1_row: np.ndarray | None = None  # (k1, m), xi1 on the alpha rows
    xi2_row: np.ndarray | None = None  # (k1, m), xi2 on the alpha rows
    Ua_t: np.ndarray | None = None  # (k1, m), U_alpha'
    U_beta: np.ndarray | None = None  # (m, m - k1)
    V1_t: np.ndarray | None = None  # (m, k), V1'
    Va_t: np.ndarray | None = None  # (k1, k), V_alpha'
    xi3_col: np.ndarray | None = None  # (k1, 1)

    @cached_property
    def fast_weights(self) -> tuple:
        """(P - xi3, Q, P and Q on the beta columns), the weights of
        ``_apply_fast``, formed on first use: a Newton system solved
        directly never applies the Jacobian itself."""
        P = self.xi1_row + self.xi2_row
        P *= 0.5
        Q = self.xi1_row - self.xi2_row
        Q *= 0.5
        return P - self.xi3_col, Q, P[:, self.k1 :], Q[:, self.k1 :]

    @property
    def alpha(self) -> np.ndarray:
        return np.arange(self.k1)

    @property
    def beta1(self) -> np.ndarray:
        return np.arange(self.k1, self.k2)

    @property
    def beta2(self) -> np.ndarray:
        m = 0 if self.s is None else self.s.size
        return np.arange(self.k2, m)


def build_spectral_jacobian(X: np.ndarray | None, tau: float, svd: MatrixSvd | None = None) -> SpectralJacobian:
    """Select and factor an element of the projection Jacobian at X.

    When ``||X||_2 <= tau`` (with tau > 0) the projection is locally the
    identity and only a flag is stored.  Otherwise the SVD-based block
    scalars are precomputed on the rows indexed by ``alpha``, with the
    factor blocks of the fast action (its weights are formed on its first
    use).  A precomputed ``svd`` may be passed in place of the matrix
    itself.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if svd is None:
        if X is None:
            raise ValueError("either X or its SVD is required")
        svd = full_svd(X)
    shape = (svd.k, svd.m) if svd.transposed else (svd.m, svd.k)
    s = svd.s
    if tau > 0 and (s.size == 0 or s[0] <= tau):
        return SpectralJacobian(shape=shape, tau=tau, is_interior=True)

    tie = _TIE_RTOL * max(1.0, s[0] if s.size else 1.0)
    k1 = int(np.count_nonzero(s > tau + tie))
    k2 = int(np.count_nonzero(s >= tau - tie))
    m = s.size

    s_a = s[:k1]
    s_b = s[k1:m]
    s_b2 = s[k2:m]
    # (1 - 2 tau / (s_i + s_j)) on alpha x alpha; (s_i - tau)/(s_i + s_j) on
    # alpha x beta; (s_i - tau)/(s_i - s_j) on alpha x beta2; 1 - tau/s_i on
    # the trailing block.
    xi2_aa = 1.0 - 2.0 * tau / (s_a[:, None] + s_a[None, :])
    xi2_ab = (s_a[:, None] - tau) / (s_a[:, None] + s_b[None, :])
    xi1_ab2 = (s_a[:, None] - tau) / (s_a[:, None] - s_b2[None, :])
    xi3_d = 1.0 - tau / s_a
    # xi1 and xi2 on the alpha rows: xi1 is 1 on alpha and beta1
    xi1_row = np.ones((k1, m))
    xi1_row[:, k2:] = xi1_ab2
    xi2_row = np.concatenate([xi2_aa, xi2_ab], axis=1)
    U, Vt = svd.U, svd.Vt
    return SpectralJacobian(
        shape=shape,
        tau=tau,
        is_interior=False,
        transposed=svd.transposed,
        U=U,
        Vt=Vt,
        s=s,
        k1=k1,
        k2=k2,
        xi2_aa=xi2_aa,
        xi2_ab=xi2_ab,
        xi1_ab2=xi1_ab2,
        xi3_d=xi3_d,
        xi1_row=xi1_row,
        xi2_row=xi2_row,
        Ua_t=U[:, :k1].T.copy(),
        U_beta=U[:, k1:].copy(),
        V1_t=Vt[:m],  # row blocks of Vt are contiguous already
        Va_t=Vt[:k1],
        xi3_col=xi3_d[:, None],
    )


def _dense_scaling_matrices(jac: SpectralJacobian):
    """Assemble the full symmetric scaling matrices of the Jacobian."""
    m = jac.s.size
    k = jac.Vt.shape[0]
    k1, k2 = jac.k1, jac.k2
    xi1 = np.zeros((m, m))
    xi2 = np.zeros((m, m))
    xi3 = np.zeros((m, k - m))
    xi1[:k1, :k1] = 1.0
    xi1[:k1, k1:k2] = 1.0
    xi1[k1:k2, :k1] = 1.0
    xi1[:k1, k2:] = jac.xi1_ab2
    xi1[k2:, :k1] = jac.xi1_ab2.T
    xi2[:k1, :k1] = jac.xi2_aa
    xi2[:k1, k1:] = jac.xi2_ab
    xi2[k1:, :k1] = jac.xi2_ab.T
    xi3[:k1, :] = jac.xi3_d[:, None]
    return xi1, xi2, xi3


def _apply_dense(jac: SpectralJacobian, D: np.ndarray) -> np.ndarray:
    m = jac.s.size
    U, Vt = jac.U, jac.Vt
    V1t = Vt[:m, :]
    V2t = Vt[m:, :]
    H1 = U.T @ D @ V1t.T
    H2 = U.T @ D @ V2t.T
    xi1, xi2, xi3 = _dense_scaling_matrices(jac)
    S = 0.5 * (H1 + H1.T)
    T = 0.5 * (H1 - H1.T)
    G1 = U @ (xi1 * S + xi2 * T) @ V1t
    G2 = U @ (xi3 * H2) @ V2t
    return D - G1 - G2


def _apply_fast(jac: SpectralJacobian, D: np.ndarray) -> np.ndarray:
    """Same action from the alpha-indexed blocks alone: O(k1 m (m + k)).

    The action is D - U (K V1' + (xi3 o H2) V2') with H = U' D [V1 V2] and
    K = xi1 o S + xi2 o T, S and T the symmetric and antisymmetric parts
    of H1 = U' D V1.  K is zero off the alpha rows and columns.  With
    H_row = H1[alpha, :] and H_col = H1[:, alpha]', its alpha rows are
    P o H_row + Q o H_col, and its beta rows, transposed, are
    Q o H_row + P o H_col on the beta columns.  The trailing block lives
    on the alpha rows too, as xi3 o (U_alpha' D - H_row V1') (through
    I - V1 V1', so V2 is never formed); ``fast_weights`` hold P - xi3 for it.
    Every product has k1 as one of its dimensions.
    """
    if jac.k1 == 0:
        # No singular value above the threshold: only tie blocks remain and
        # every stored scaling is empty, so the action reduces to D itself.
        return D.copy()
    return _subtract_action(jac, D, D, *jac.fast_weights, jac.xi3_col)


def _subtract_action(jac, D, base, p_row, q_row, p_beta, q_beta, xi3_col):
    """``base`` less the action of ``_apply_fast``'s G on D, with the
    weights given in place of the Jacobian's own (same layout)."""
    k1 = jac.k1
    UaD = jac.Ua_t @ D  # (k1, k)
    H_row = UaD @ jac.V1_t.T  # (k1, m)
    H_col = (jac.Va_t @ D.T) @ jac.U  # (k1, m)
    top = p_row * H_row
    top += q_row * H_col
    top = top @ jac.V1_t
    top += xi3_col * UaD  # (k1, k): the alpha rows of U' (base - out)
    K_beta = q_beta * H_row[:, k1:]
    K_beta += p_beta * H_col[:, k1:]
    out = base - jac.Ua_t.T @ top
    out -= (jac.U_beta @ K_beta.T) @ jac.Va_t
    return out


def apply_spectral_jacobian(jac: SpectralJacobian, d_W: np.ndarray, mode: str = "fast") -> np.ndarray:
    """Apply the selected Jacobian element to a direction matrix.

    ``mode`` is "fast" (alpha-indexed blocks only) or "dense" (full scaling
    matrices); the two agree to roundoff and the fast path is the one used
    inside the Newton solver.
    """
    d_W = np.asarray(d_W, dtype=np.float64)
    if d_W.shape != jac.shape:
        raise ValueError(f"direction has shape {d_W.shape}, expected {jac.shape}")
    if jac.is_interior:
        return d_W.copy()  # never the caller's array: callers accumulate in place
    D = d_W.T if jac.transposed else d_W
    if mode == "dense":
        out = _apply_dense(jac, D)
    elif mode == "fast":
        out = _apply_fast(jac, D)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return out.T if jac.transposed else out


@dataclass(frozen=True)
class SpectralResolvent:
    """(c I - sigma G)^{-1} = I/c + E for the Jacobian element I - G of
    ``jac`` (not interior, k1 > 0), with c > sigma > 0.

    In the rotated coordinates H = U' D V, G scales the symmetric and the
    antisymmetric part of each pair (i, j), (j, i) of the first m columns
    by xi1 and xi2, and the trailing block by xi3; all three are zero off
    the alpha rows and columns.  So E is the same action with each weight
    xi replaced by e(xi) = sigma xi / (c (c - sigma xi)) >= 0: positive
    semidefinite, and as cheap to apply as G.  ``weights`` are E's, negated,
    in the layout ``_subtract_action`` takes; ``gram_weights`` those that
    ``resolvent_gram`` puts on the rotated entries.
    """

    jac: SpectralJacobian
    c: float
    weights: tuple
    gram_weights: np.ndarray  # (k1 (m + k),)


def spectral_resolvent(jac: SpectralJacobian, c: float, sigma: float) -> SpectralResolvent:
    """The inverse of ``c I - sigma G`` (see ``SpectralResolvent``)."""
    k1, m = jac.k1, jac.s.size

    def shifted(xi):
        s_xi = sigma * xi
        return s_xi / (c * (c - s_xi))

    e1, e2, e3 = shifted(jac.xi1_row), shifted(jac.xi2_row), shifted(jac.xi3_col)
    P = e1 + e2
    P *= -0.5
    Q = e2 - e1
    Q *= 0.5
    # resolvent_gram's sums and differences of a pair (i, j), (j, i) take
    # half of e1 and e2; a pair within alpha x alpha comes twice, once from
    # either side, and so takes a quarter
    gram = np.empty((k1, m + jac.Vt.shape[0]))
    pairs = gram[:, : 2 * m].reshape(k1, 2, m)
    pairs[:, 0] = e1
    pairs[:, 1] = e2
    pairs *= 0.5
    pairs[:, :, :k1] *= 0.5
    gram[:, 2 * m :] = e3
    return SpectralResolvent(jac, c, (P + e3, Q, P[:, k1:], Q[:, k1:], -e3), gram.ravel())


def apply_resolvent(res: SpectralResolvent, d_W: np.ndarray) -> np.ndarray:
    """(c I - sigma G)^{-1} d_W, in a new array: O(k1 m (m + k))."""
    jac = res.jac
    D = d_W.T if jac.transposed else d_W
    out = _subtract_action(jac, D, D / res.c, *res.weights)
    return out.T if jac.transposed else out


def resolvent_gram(res: SpectralResolvent, rows: np.ndarray) -> np.ndarray:
    """[<X_i, E X_j>]_{ij} over the rows vec(X_i) of ``rows``.

    ``rows`` is J x p q, in the original orientation.  The form is taken
    on the alpha entries of each U' X_i V: the alpha rows and columns of
    the first m columns, as sums and differences of the pairs, and the
    alpha rows of the trailing block.  O(J k1 p q + J^2 k1 (m + k)) flops.
    """
    jac = res.jac
    k1, m = jac.k1, jac.s.size
    J = rows.shape[0]
    p, q = jac.shape
    left, right = (jac.Va_t, jac.Ua_t) if jac.transposed else (jac.Ua_t, jac.Va_t)
    # left X_i (k1 x q) and right X_i' (k1 x p), one block of rows each
    by_left = (left @ rows.reshape(J, p, q)).reshape(J * k1, q)
    by_right = (rows.reshape(J * p, q) @ right.T).reshape(J, p, k1)
    by_right = by_right.transpose(0, 2, 1).reshape(J * k1, p)
    if jac.transposed:
        by_left, by_right = by_right, by_left
    H_row = (by_left @ jac.Vt.T).reshape(J, k1, -1)  # U_alpha' X V
    H_col = (by_right @ jac.U).reshape(J, k1, m)  # (U' X V_alpha)'
    x = H_row[:, :, :m]
    Z = np.concatenate([x + H_col, x - H_col, H_row[:, :, m:]], axis=2).reshape(J, -1)
    return (Z * res.gram_weights) @ Z.T
