"""Shared numerical kernels: finite differences, adaptive Simpson quadrature,
bracketing bisection and a fixed-step RK4 integrator.

These are deliberately plain implementations; every closed-form expression in
the toolkit is cross-checked against at least one of them, so they must stay
independent of the analytic code paths they audit.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

import numpy as np

EPS = sys.float_info.epsilon

# Optimal step exponents: eps**(1/3) balances truncation and rounding for a
# 3-point first difference; second differences are rounding-dominated at that
# step, so the 5-point pair below uses the larger eps**(1/5).
FD_FIRST_STEP = EPS ** (1.0 / 3.0)
FD_PAIR_STEP = EPS ** (1.0 / 5.0)


def fd_step(x):
    """Central-difference step scaled to the magnitude of ``x`` (elementwise)."""
    return FD_FIRST_STEP * np.maximum(1.0, np.abs(x))


def central_diff(fn: Callable, x, h=None):
    """3-point central first derivative of ``fn`` at ``x``.

    Elementwise over arrays ``x`` (and ``h``) when ``fn`` accepts arrays.
    """
    if h is None:
        h = fd_step(x)
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def five_point_diffs(fn: Callable[[float], float], x: float, h: float | None = None) -> tuple[float, float]:
    """First and second derivative from one 5-point stencil.

    Returns (f', f'').  The wider default step keeps the second difference
    out of the rounding-dominated regime.
    """
    if h is None:
        h = FD_PAIR_STEP * max(1.0, abs(x))
    fm2, fm1, f0, fp1, fp2 = (fn(x - 2 * h), fn(x - h), fn(x), fn(x + h), fn(x + 2 * h))
    d1 = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    d2 = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)
    return d1, d2


def adaptive_simpson(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 60,
) -> float:
    """Adaptive Simpson quadrature with Richardson correction.

    ``tol`` is an absolute tolerance on the whole interval; it is halved on
    each subdivision so the accumulated error stays below it.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(fn, b, a, tol, max_depth)

    def _simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def _recurse(lo, hi, flo, fmid, fhi, whole, tol_, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = fn(lm)
        frm = fn(rm)
        left = _simpson(lo, mid, flo, flm, fmid)
        right = _simpson(mid, hi, fmid, frm, fhi)
        err = (left + right - whole) / 15.0
        if depth >= max_depth or abs(err) < tol_:
            return left + right + err
        return _recurse(lo, mid, flo, flm, fmid, left, tol_ / 2.0, depth + 1) + _recurse(
            mid, hi, fmid, frm, fhi, right, tol_ / 2.0, depth + 1
        )

    fa = fn(a)
    fb = fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    return _recurse(a, b, fa, fm, fb, _simpson(a, b, fa, fm, fb), tol, 0)


def bracket_sign_changes(
    fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int
) -> list[tuple[float, float]]:
    """Scan [lo, hi] with ``n`` sub-intervals and return those bracketing a root.

    ``fn`` must accept an array: it is called once, on the whole grid of
    ``n + 1`` points.  Grid points where ``fn`` is exactly zero produce a
    degenerate bracket.
    """
    xs = np.linspace(lo, hi, n + 1)
    vals = np.asarray(fn(xs), dtype=float)
    zero = vals == 0.0
    change = np.append(vals[:-1] * vals[1:] < 0.0, False)
    return [
        (float(xs[i]), float(xs[i] if zero[i] else xs[i + 1]))
        for i in np.flatnonzero(zero | change)
    ]


def bisect(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Bisection on a sign-change bracket [lo, hi]."""
    if lo == hi:
        return lo
    flo = fn(lo)
    if flo == 0.0:
        return lo
    fhi = fn(hi)
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or (hi - lo) < xtol * max(1.0, abs(mid)):
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def rk4(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Classic fixed-step 4th-order Runge-Kutta from t0 to t1.

    Returns (ts, ys) with ys[i] the state at ts[i]; ys[0] is a copy of y0.
    A fixed step keeps the convergence-order study meaningful.
    """
    ts = np.linspace(t0, t1, steps + 1)
    y = np.array(y0, dtype=float)
    ys = np.empty((steps + 1, y.size))
    ys[0] = y
    h = (t1 - t0) / steps
    for i in range(steps):
        t = ts[i]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i + 1] = y
    return ts, ys
