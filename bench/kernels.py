"""Micro-timings of the kernels that ROADMAP aim 1 lists, on a run's data.

Each kernel is timed on its own, untraced, at the state of the run's
1e-6 solution, and reported with the operation count and bytes that its
code computes per call (derived from the array shapes, not measured).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from smmsolve import prox, sncg
from smmsolve.problem import apply_A, apply_A_adjoint, apply_A_restricted

# Calls per kernel: enough for a stable median, capped so one kernel stays
# under about a quarter of a second.
_MIN_CALLS, _MAX_CALLS, _BUDGET_S = 5, 2000, 0.25


def _median_us(fn) -> float:
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    calls = int(min(_MAX_CALLS, max(_MIN_CALLS, _BUDGET_S / max(first, 1e-9))))
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(samples)


def _svd_flops(m: int, k: int) -> float:
    """Golub-Reinsch SVD of a k x m matrix (k >= m) with both full factors."""
    return 4.0 * k * k * m + 8.0 * k * m * m + 9.0 * m**3


def _spectral_apply_flops(m: int, k: int, k1: int) -> float:
    """Flops (two per multiply-add) of the matrix products in the fast
    Jacobian action, ``prox._apply_fast``."""
    if k1 == 0:
        return 0.0
    return 2.0 * (
        k1 * m * k  # Ua' D
        + k1 * k * m  # rows alpha of H1
        + m * k * k1 + m * m * k1  # columns alpha of H1
        + k1 * m * k + m * k1 * k  # alpha rows of G1
        + (m - k1) * k1 * k + m * (m - k1) * k  # beta rows of G1
        + k1 * m * k + m * k1 * k  # trailing block G2
    )


def kernel_metrics(train, sol, hyper, seed: int) -> dict:
    """Per-call time, operation count and bytes of each kernel, at the
    final iterate ``sol`` of a solve on ``train``."""
    n, p, q = train.n_samples, train.p, train.q
    pq = p * q
    m, k = min(p, q), max(p, q)
    W, b = sol.primal.W, sol.primal.b
    sigma = sol.report.history[-1]["sigma"]
    ctx = sncg.SubproblemContext(
        dataset=train, hyper=hyper, sigma=sigma, lam_k=sol.dual.lam, Lam_k=sol.dual.Lam
    )
    state = sncg.compute_state(ctx, W, b)
    ws = sncg.NewtonWorkspace(ctx, state, sncg.SncgConfig())
    j1 = int(ws.j1.size)
    k1 = 0 if ws.spectral is None or ws.spectral.is_interior else ws.spectral.k1
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    d_vec = rng.standard_normal(pq)
    d_mat = d_vec.reshape(p, q)
    # The J1 set of the solution; one random row if it is empty.
    rows = ws.j1 if j1 else rng.choice(n, size=1)
    Xk = sol.dual.Lam + sigma * W
    d_W, d_b = -state.grad_W, -state.grad_b
    one_trial = sncg.SncgConfig(ls_max_backtracks=1)

    full_bytes = 8.0 * n * pq
    spectral_flops = _spectral_apply_flops(m, k, k1)
    out = {
        "kernel.apply_A.us": _median_us(lambda: apply_A(train, W)),
        "kernel.apply_A.flops": 2.0 * n * pq,
        "kernel.apply_A.bytes": full_bytes,
        "kernel.apply_A_adjoint.us": _median_us(lambda: apply_A_adjoint(train, z)),
        "kernel.apply_A_adjoint.flops": 2.0 * n * pq,
        "kernel.apply_A_adjoint.bytes": full_bytes,
        "kernel.apply_A_restricted.us": _median_us(lambda: apply_A_restricted(train, rows, W)),
        "kernel.apply_A_restricted.rows": float(len(rows)),
        "kernel.apply_A_restricted.flops": 2.0 * len(rows) * pq,
        "kernel.apply_A_restricted.bytes": 8.0 * len(rows) * pq,
        "kernel.full_svd.us": _median_us(lambda: prox.full_svd(Xk)),
        "kernel.full_svd.flops": _svd_flops(m, k),
        "kernel.full_svd.bytes": 8.0 * (m * k + m * m + k * k + m),
        "kernel.apply_spectral_jacobian.k1": float(k1),
        "kernel.apply_spectral_jacobian.flops": spectral_flops,
        "kernel.apply_spectral_jacobian.bytes": 8.0 * (m * m + 3 * m * k),
        "kernel.newton_apply.j1": float(j1),
        "kernel.newton_apply.us": _median_us(lambda: ws.apply(d_vec)),
        "kernel.newton_apply.flops": 4.0 * j1 * pq + spectral_flops + 6.0 * pq,
        "kernel.newton_apply.bytes": 16.0 * j1 * pq + 8.0 * (m * m + 3 * m * k),
        "kernel.line_search.us": _median_us(
            lambda: sncg.line_search(ctx, W, b, d_W, d_b, one_trial, state=state)
        ),
        "kernel.line_search.flops": 2.0 * n * pq + _svd_flops(m, k) + 20.0 * n,
        "kernel.line_search.bytes": full_bytes + 8.0 * 4 * n,
    }
    out["kernel.apply_spectral_jacobian.us"] = (
        _median_us(lambda: prox.apply_spectral_jacobian(ws.spectral, d_mat))
        if ws.spectral is not None
        else 0.0
    )
    return out
