"""Shared numerical kernels: second-order Taylor jets, adaptive Gauss-Kronrod
quadrature, a bracketing root scan and a fixed-step RK4 integrator.

The quadrature and the bracket scan are array-first: they call ``fn`` on
whole arrays of points (one call per quadrature level, one per scan).  The
root scan ``sign_change_roots`` narrows each bracket by rescanning it, one
scan per round.  ``rk4`` steps one point at a time.  ``Jet`` takes no step;
a report's finite-difference oracle takes ``FD_FIRST_STEP`` times the de
Sitter length a, the family's one length.

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

#: Bisection levels after which ``adaptive_gauss_kronrod`` accepts a subinterval.
QUAD_DEPTH_CAP = 60
#: Rounding floor of a Gauss-Kronrod error estimate, in units of eps times
#: the magnitude of the Kronrod value: the estimate is the difference of two
#: weighted sums of rounded integrand values, so below this it is rounding.
QUAD_ROUNDING_FLOOR = 8.0

#: QUADPACK's ``qk15`` rule on [-1, 1]: the 15 Kronrod nodes, ascending, with
#: their weights; the odd entries are the 7 Gauss-Legendre nodes, whose
#: weights are ``GAUSS_WEIGHTS``.  Each table is one half and its mirror.
_KRONROD_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_KRONROD_W = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_GAUSS_W = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
KRONROD_NODES = np.concatenate([-_KRONROD_X, [0.0], _KRONROD_X[::-1]])
KRONROD_WEIGHTS = np.concatenate([_KRONROD_W, [0.209482141084727828012999174891714], _KRONROD_W[::-1]])
GAUSS_WEIGHTS = np.concatenate([_GAUSS_W, [0.417959183673469387755102040816327], _GAUSS_W[::-1]])


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


def adaptive_gauss_kronrod(fn: Callable[[np.ndarray], np.ndarray], a, b, tol: float):
    """Adaptive Gauss-Kronrod quadrature, the 7-point Gauss rule inside the 15-point Kronrod rule.

    Each open interval is integrated by both rules (QUADPACK's ``qk15``:
    R. Piessens et al., *QUADPACK*, Springer, 1983) at its 15 interior
    nodes; the Kronrod value is the result, and |Kronrod - Gauss| its error
    estimate.  ``tol`` is an absolute tolerance on each interval [a, b]; it
    is halved on each bisection so the accumulated error stays below it.  A
    subinterval ``depth`` bisections deep is accepted once its estimate is
    below ``tol / 2**depth``, or at its rounding floor
    ``QUAD_ROUNDING_FLOOR`` eps |K| (K its Kronrod value, below which
    bisection cannot shrink the estimate), or at ``QUAD_DEPTH_CAP``.  ``a``
    and ``b`` broadcast, and the open subintervals of all intervals are
    refined together, one level at a time: ``fn`` must accept an array, and
    is called once per level.  Each rule is a row sum of the node values
    times its weights, so an interval's value does not depend on the
    intervals batched with it.  No node is an endpoint.  A reversed interval
    integrates to minus the forward one, a zero-length one to 0.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    total = np.zeros(lo.size)
    owner = np.flatnonzero(lo < hi)
    lo, hi = lo[owner], hi[owner]
    for depth in range(QUAD_DEPTH_CAP + 1):
        if not owner.size:
            break
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = fn((mid[:, None] + half[:, None] * KRONROD_NODES).ravel()).reshape(-1, KRONROD_NODES.size)
        kronrod = half * (values * KRONROD_WEIGHTS).sum(axis=1)
        gauss = half * (values[:, 1::2] * GAUSS_WEIGHTS).sum(axis=1)
        size = np.abs(kronrod - gauss)
        done = (size < tol / 2.0**depth) | (size <= QUAD_ROUNDING_FLOOR * EPS * np.abs(kronrod))
        done |= depth == QUAD_DEPTH_CAP
        total += np.bincount(owner[done], weights=kronrod[done], minlength=total.size)
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        owner = np.concatenate([owner[keep], owner[keep]])
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
