"""Property tests of ``sncg.b_minimizer``, the exact minimizer of phi(W, .).

In terms of c_i = omega_i + sigma y_i b (omega at b = 0), phi's derivative
in b is f(t) = a_b (t - b0) - sum_i y_i clip(c_i - sigma y_i t, 0, C): each
row adds a ramp of height C and slope sigma over an interval of length
C/sigma, starting at c_i/sigma - C/sigma (y_i = +1) or at -c_i/sigma
(y_i = -1).  The tests compare ``b_minimizer`` with bisection on f.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from smmsolve import sncg

EPS = float(np.finfo(np.float64).eps)


def derivative(c, y, sigma, C, a_b, b0, t):
    return a_b * (t - b0) - float(y @ np.clip(c - sigma * y * t, 0.0, C))


def bisect(f, lo, hi, left):
    """inf {f >= 0} (``left``) or sup {f <= 0} of a nondecreasing f,
    from lo with f < 0 (or <= 0) and hi with f >= 0 (or > 0)."""
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (f(mid) >= 0.0) if left else (f(mid) > 0.0):
            hi = mid
        else:
            lo = mid
    return hi if left else lo


def minimizer(c, y, sigma, C, a_b, b0, b):
    return sncg.b_minimizer(c - sigma * y * b, y, sigma, C, a_b, b0, b)


def roundoff(c, y, sigma, C, a_b, b0, b, t):
    """(df, dt): the roundoff of f near the root, and how far that moves
    the root: f is summed from terms of size |c| + sigma |b| (omega at b)
    and C, one per row, and a_b |t - b0| at every breakpoint t, and it
    rises at least at a_b, or at sigma where a_b = 0."""
    reach = float(np.abs(c).max()) / sigma + C / sigma + abs(b)  # of the breakpoints
    df = 64 * EPS * (
        2.0 * float(np.abs(c).sum()) + 2.0 * sigma * y.size * abs(b) + C * y.size
        + a_b * (reach + abs(t) + abs(b0))
    )
    rise = a_b if a_b > 0 else sigma
    return df, 4.0 * df / rise + 64 * EPS * (1.0 + abs(t) + abs(b))


rows = st.lists(
    st.tuples(st.floats(-10.0, 10.0), st.booleans()), min_size=2, max_size=30
)


@given(
    rows=rows,
    sigma=st.floats(0.01, 1000.0),
    C=st.floats(0.01, 100.0),
    a_b=st.sampled_from([0.0, 1e-6, 1.0]),
    b0=st.floats(-10.0, 10.0),
    b=st.floats(-10.0, 10.0),
)
def test_root_matches_bisection(rows, sigma, C, a_b, b0, b):
    c = np.array([v for v, _ in rows])
    y = np.array([1.0 if pos else -1.0 for _, pos in rows])
    y[:2] = 1.0, -1.0  # both classes
    f = lambda t: derivative(c, y, sigma, C, a_b, b0, t)  # noqa: E731
    # every ramp lies within M + C/sigma of 0; outside them f is
    # a_b (t - b0) - C n_+ < 0 on the left and a_b (t - b0) + C n_- > 0 on the right
    M = float(np.abs(c).max()) / sigma + C / sigma
    lo, hi = min(-M, b0) - 1.0, max(M, b0) + 1.0
    assert f(lo) < 0.0 < f(hi)
    t_lo, t_hi = bisect(f, lo, hi, left=True), bisect(f, lo, hi, left=False)
    expected = min(max(b, t_lo), t_hi)

    got = minimizer(c, y, sigma, C, a_b, b0, b)
    df, tol = roundoff(c, y, sigma, C, a_b, b0, b, expected)
    assert got is not None
    assert abs(got - expected) <= tol
    # f changes sign across the returned point, to roundoff
    assert f(got - tol) <= df and f(got + tol) >= -df


@given(
    balanced=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)), min_size=1, max_size=6),
    left_pos=st.lists(st.floats(0.0, 5.0), max_size=6),
    right_neg=st.lists(st.floats(0.0, 5.0), max_size=6),
    gap=st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 5.0)),
    sigma=st.floats(0.1, 100.0),
    C=st.floats(0.1, 10.0),
    at=st.floats(-1.5, 2.5),
)
def test_flat_root_takes_the_nearest_point(balanced, left_pos, right_neg, gap, sigma, C, at):
    """With a_b = 0 and no ramp rising across [L, R], f = 0 there when the
    ramps above it (y = +1, f's share -C) balance those below (y = -1,
    share +C): every point of [L, R] is a minimizer, and b* is the one
    nearest b."""
    w = C / sigma
    g0 = gap[0]
    g1 = g0 + gap[1]
    c, y = [], []
    for below, above in balanced:  # one y = -1 ramp ending below g0, one y = +1 starting above g1
        c += [-sigma * (g0 - below - w), sigma * (g1 + above + w)]
        y += [-1.0, 1.0]
    for below in left_pos:  # a y = +1 ramp ending below g0: share 0 on the gap
        c.append(sigma * (g0 - below))
        y.append(1.0)
    for above in right_neg:  # a y = -1 ramp starting above g1: share 0 on the gap
        c.append(-sigma * (g1 + above))
        y.append(-1.0)
    c, y = np.array(c), np.array(y)
    ends = np.where(y > 0, c / sigma, -c / sigma + w)  # where each ramp tops out
    starts = ends - w
    L = ends[ends <= g0 + 1e-12 * (1 + abs(g0))].max()
    R = starts[starts >= g1 - 1e-12 * (1 + abs(g1))].min()
    b = L + at * (R - L)

    got = minimizer(c, y, sigma, C, 0.0, 0.0, b)
    _, tol = roundoff(c, y, sigma, C, 0.0, 0.0, b, b)
    if L <= b <= R:
        assert got == b  # already a minimizer: d_b = 0
    else:
        assert abs(got - min(max(b, L), R)) <= tol


def test_one_class_has_a_half_line_of_minimizers():
    """A reduced problem can hold one class only: with a_b = 0 the roots of
    f then form a half-line, and b* is its end when b lies outside it."""
    c = np.array([0.5, 1.5])
    # y = +1: ramps over [-0.5, 0.5] and [0.5, 1.5]; f = 0 from 1.5 on
    assert sncg.b_minimizer(c, np.ones(2), 1.0, 1.0, 0.0, 0.0, 0.0) == pytest.approx(1.5)
    assert sncg.b_minimizer(c - 2.0, np.ones(2), 1.0, 1.0, 0.0, 0.0, 2.0) == 2.0
    # y = -1: ramps over [-0.5, 0.5] and [-1.5, -0.5]; f = 0 up to -1.5
    omega = c + 5.0  # omega at b = 5
    assert sncg.b_minimizer(omega, -np.ones(2), 1.0, 1.0, 0.0, 0.0, 5.0) == pytest.approx(-1.5)
