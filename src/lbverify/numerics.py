"""Shared numerical kernels: second-order Taylor jets, a finite difference,
adaptive Simpson quadrature, a bracketing root scan and a fixed-step RK4
integrator.

The difference, the quadrature and the bracket scan are array-first: they
call ``fn`` on whole arrays of points (one call per Simpson level, one per
scan).  The root scan ``sign_change_roots`` narrows each bracket by
rescanning it, one scan per round.  ``rk4`` steps one point at a time.
``Jet`` takes no step; the difference takes ``FD_FIRST_STEP`` times the de
Sitter length a, the family's one length, in the report oracles.

These are deliberately plain implementations; every closed-form expression in
the toolkit is cross-checked against at least one of them, so they must stay
independent of the analytic code paths they audit.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

import numpy as np

EPS = sys.float_info.epsilon

# Step as a fraction of the length a profile varies on: eps**(1/3) balances
# truncation and rounding for a 3-point first difference.
FD_FIRST_STEP = EPS ** (1.0 / 3.0)

#: Sub-intervals per ``sign_change_roots`` round: each round scans the
#: bracket at its 65 section points at once, and the bracket shrinks 64-fold.
BISECT_SECTIONS = 64
#: Rounds after which ``sign_change_roots`` stops: 34 rounds are 204 halvings.
BISECT_ROUNDS = 34

#: Subdivision levels after which ``adaptive_simpson`` accepts a subinterval.
SIMPSON_DEPTH_CAP = 60
#: Rounding floor of a Simpson error estimate, in units of eps times the
#: magnitude of the two-panel sum: the estimate is the difference of two
#: Simpson sums of rounded integrand values, so below this it is rounding.
SIMPSON_ROUNDING_FLOOR = 8.0


def central_diff(fn: Callable, x, h):
    """3-point central first derivative of ``fn`` at ``x`` with step ``h``.

    Elementwise over arrays ``x`` (and ``h``) when ``fn`` accepts arrays.
    """
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


class Jet:
    """A value v with its first two derivatives d1, d2, carried by the chain rule.

    The parts are floats or numpy arrays of one shape; the derivatives are
    exact up to rounding.  A constant operand is a jet with zero derivatives.
    """

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2

    @classmethod
    def variable(cls, x):
        """The independent variable (x, 1, 0) at the points x."""
        x = np.asarray(x, dtype=float)
        return cls(x, np.ones_like(x), np.zeros_like(x))

    def _chain(self, f0, f1, f2):
        """f of this jet, from f, f' and f'' at v."""
        return Jet(f0, f1 * self.d1, f1 * self.d2 + f2 * self.d1 * self.d1)

    def __add__(self, other):
        o = _lift(other)
        return Jet(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __mul__(self, other):
        o = _lift(other)
        return Jet(self.v * o.v, self.d1 * o.v + self.v * o.d1, self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2)

    __radd__, __rmul__ = __add__, __mul__
    __neg__ = lambda self: self * -1.0
    __sub__ = lambda self, other: self + -_lift(other)
    __rsub__ = lambda self, other: -self + other

    def __pow__(self, p: float):
        value = self.v**p
        f1 = p * value / self.v
        return self._chain(value, f1, (p - 1.0) * f1 / self.v)

    def exp(self):
        e = np.exp(self.v)
        return self._chain(e, e, e)

    def softplus(self):
        """log(1 + e^v); it and its derivatives s = 1/(1 + e^-v) and s(1 - s) go
        through e^-|v|, so no finite v overflows, and v = -inf gives (0, 0, 0)."""
        e = np.exp(-np.abs(self.v))
        logistic = np.where(self.v >= 0.0, 1.0, e) / (1.0 + e)
        return self._chain(np.maximum(self.v, 0.0) + np.log1p(e), logistic, e / (1.0 + e) ** 2)


def _lift(x) -> Jet:
    return x if isinstance(x, Jet) else Jet(x, 0.0, 0.0)


def _simpson(lo, hi, flo, fmid, fhi):
    return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)


def _halves(left, right, keep):
    """The kept entries of ``left`` followed by the kept entries of ``right``."""
    return np.concatenate([left[keep], right[keep]])


def adaptive_simpson(fn: Callable[[np.ndarray], np.ndarray], a, b, tol: float):
    """Adaptive Simpson quadrature with Richardson correction.

    ``tol`` is an absolute tolerance on each interval [a, b]; it is halved on
    each subdivision so the accumulated error stays below it.  A subinterval
    ``depth`` halvings deep is accepted once its error estimate is below
    ``tol / 2**depth``, or at its rounding floor ``SIMPSON_ROUNDING_FLOOR``
    eps |S| (S its two-panel Simpson sum, below which halving cannot shrink
    the estimate), or at ``SIMPSON_DEPTH_CAP``.  ``a`` and ``b``
    broadcast, and the open subintervals of all intervals are refined
    together, one level at a time: ``fn`` must accept an array, and is called
    once for the endpoints and midpoints, then once per level.  A reversed
    interval integrates to minus the forward one, a zero-length one to 0.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    n = lo.size
    values = fn(np.concatenate([lo, 0.5 * (lo + hi), hi]))
    flo, fmid, fhi = values[:n], values[n : 2 * n], values[2 * n :]
    whole = _simpson(lo, hi, flo, fmid, fhi)
    owner = np.arange(lo.size)
    total = np.zeros(lo.size)
    for depth in range(SIMPSON_DEPTH_CAP + 1):
        mid = 0.5 * (lo + hi)
        values = fn(np.concatenate([0.5 * (lo + mid), 0.5 * (mid + hi)]))
        flm, frm = values[: lo.size], values[lo.size :]
        left = _simpson(lo, mid, flo, flm, fmid)
        right = _simpson(mid, hi, fmid, frm, fhi)
        err = (left + right - whole) / 15.0
        size = np.abs(err)
        done = (size < tol / 2.0**depth) | (size <= SIMPSON_ROUNDING_FLOOR * EPS * np.abs(left + right))
        done |= depth == SIMPSON_DEPTH_CAP
        total += np.bincount(owner[done], weights=(left + right + err)[done], minlength=total.size)
        keep = ~done
        if not keep.any():
            break
        lo, hi = _halves(lo, mid, keep), _halves(mid, hi, keep)
        flo, fmid, fhi = _halves(flo, fmid, keep), _halves(flm, frm, keep), _halves(fmid, fhi, keep)
        whole = _halves(left, right, keep)
        owner = _halves(owner, owner, keep)
    total = np.where(b < a, -total.reshape(a.shape), total.reshape(a.shape))
    return float(total) if total.ndim == 0 else total


def bracket_sign_changes(
    fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int
) -> list[tuple[float, float]]:
    """Scan [lo, hi] with ``n`` sub-intervals and return those bracketing a root.

    ``fn`` must accept an array: it is called once, on the whole grid of
    ``n + 1`` points.  Grid points where ``fn`` is exactly zero produce a
    degenerate bracket.  Neighbours are compared by sign, so values of any
    magnitude neither overflow nor underflow the test.
    """
    xs = np.linspace(lo, hi, n + 1)
    vals = np.asarray(fn(xs), dtype=float)
    zero = vals == 0.0
    signs = np.sign(vals)
    change = np.append(signs[:-1] * signs[1:] < 0.0, False)
    return [
        (float(xs[i]), float(xs[i] if zero[i] else xs[i + 1]))
        for i in np.flatnonzero(zero | change)
    ]


def sign_change_roots(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int) -> list[float]:
    """Roots of ``fn`` in the brackets of an ``n``-interval scan of [lo, hi], in scan order.

    Each bracket of ``bracket_sign_changes(fn, lo, hi, n)`` is rescanned
    with ``BISECT_SECTIONS`` sub-intervals and replaced by the first
    bracket found, until it is narrower than 1e-13 |mid|, a relative width
    whatever the length scale of ``fn``, or after ``BISECT_ROUNDS`` rounds
    (which ends a bracket around an exact zero at 0).  A degenerate bracket,
    an exact zero, is done at once.  The root is the bracket's midpoint.
    """
    roots = []
    for blo, bhi in bracket_sign_changes(fn, lo, hi, n):
        for _ in range(BISECT_ROUNDS):
            if blo == bhi or bhi - blo < 1e-13 * abs(0.5 * (blo + bhi)):
                break
            blo, bhi = bracket_sign_changes(fn, blo, bhi, BISECT_SECTIONS)[0]
        roots.append(0.5 * (blo + bhi))
    return roots


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
