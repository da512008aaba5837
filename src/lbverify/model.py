"""The two-parameter cylindrically symmetric scalar-field solution family.

The static metric is ``ds^2 = -e^{u1} dt^2 + dr^2 + e^{u2} dphi^2 + e^{u3} dz^2``
with all exponents functions of r alone.  Writing ``f = (u1+u2+u3)/2``, the
field equations reduce to the radial ODE ``f'' + f'^2 = 3*lambda`` whose
closed-form solution is

    f(r) = -k r + (1/2) log((c1 e^{2kr} - c2)^2 / (12 lambda)),   k = sqrt(3 lambda)

with integration constants (c1, c2).  The canonical gauge used throughout is
c2 = -1, c1 = xi^2 (so xi^2 = -c1/c2), which makes every exponent

    u_i(r) = -2r/a + (2/3) log(1 + xi^2 e^{6r/a}),   a = sqrt(3/lambda),

and the conformal factor of the isotropic form of the line element

    w(r) = e^{u_i(r)} = e^{-2r/a} (1 + xi^2 e^{6r/a})^{2/3}.

A ``MetricSample`` carries f and the one exponent u_i with their derivatives,
and w, on a ``Window``'s checked radii or on radii ``metric_eval`` checks;
``log_w_jet`` is log w as a jet.  Functions accept a scalar r or a numpy
array and vectorize elementwise: one array path serves both, and a scalar r
yields NumPy float scalars with the bits it gets inside any array.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .numerics import Jet

# e^{2k|r|} stays finite (and so does e^f downstream) below this exponent.
_MAX_EXPONENT = 700.0

#: Largest accepted |xi|: c1 = xi^2 must stay a finite float.
MAX_ABS_XI = math.sqrt(sys.float_info.max)

#: Largest window ``samples`` and sweep cell count.  A window hands out its
#: radii ``GRID_BLOCK`` at a time, so a report's peak memory does not grow
#: with ``samples``; a float64 grid of this size would be 128 MiB.
MAX_GRID_SIZE = 2**24

#: Points per sample of ``Window.blocks``, and so the largest grid array a
#: report builds.  A float64 temporary of 4096 points is 32 KiB, below
#: glibc's 128 KiB mmap threshold, so freed blocks are reused from the heap;
#: a whole 65,536-point grid would make every 512 KiB temporary a fresh
#: mapping, faulted in page by page.  A block's columns and the values formed
#: from them are each one fresh array, finished in place by augmented
#: assignment on the operands of the expressions they replace, and keep their
#: bits: a ufunc passes on its left NaN, so the buffer stays the left operand
#: where two can differ.  ``out=`` on a value that may be a scalar lives here
#: alone (``_out``).  The report builders reduce their row temporaries in
#: place; the block partition sets the bits of the Noether sum.
GRID_BLOCK = 4096


@dataclass(frozen=True)
class SolutionParams:
    """Physical parameters of one family member, on the + scalar-field branch.

    lam        cosmological constant, geometric units, > 0
    xi         dimensionless family parameter (only xi^2 enters the metric)
    a          de Sitter length sqrt(3/lam)
    """

    lam: float
    xi: float
    a: float

    @property
    def k(self) -> float:
        """Radial rate sqrt(3*lam) = 3/a."""
        return 3.0 / self.a

    @property
    def log_abs_xi(self) -> float:
        """log|xi|, the offset of q = 2kr + 2 log|xi|; -inf at xi = 0."""
        return math.log(abs(self.xi)) if self.xi else -math.inf


def _out(x):
    """The ``out=`` of a ufunc that finishes x in place: x, or None for a scalar, which ``out=`` rejects.

    NumPy returns a scalar for a 0-d radius, and an object for the symbols that tests pass.  Only
    tanh, abs, negative, exp, power and a two-array maximum, which have no augmented form, need it.
    """
    return x if isinstance(x, np.ndarray) else None


class MetricSample:
    """All radial profile quantities at one radius (or one grid), built from
    q = 2kr + 2 log|xi|; ``metric_eval``, ``Window.sample``, ``Window.block``
    and ``Window.blocks`` return it.

    r        the radius or radii
    f        f in its printed normalization
             -kr + (1/2) log((c1 e^{2kr} - c2)^2 / (12 lambda)); f_p and
             f_pp are its f' and f'', with f'' + f'^2 = 3 lambda
    u        the exponent u_i shared by g_tt = -e^{u_i}, g_phiphi = e^{u_i}
             and g_zz = e^{u_i}; u_p and u_pp are its r-derivatives
    w        w = e^{u_i} on its own arithmetic path; its derivatives are
             w' = w u' and w'' = w (u'' + u'^2), formed by their readers

    Every column is computed on first read: reading w takes neither f' nor
    f'', and reading derivatives takes neither the exp nor the log1p of f.
    Each column at a radius depends on that radius alone.  A column is one
    fresh array, finished in place, and never written once it is cached:
    its readers write only into arrays they made.  At a 0-d radius every
    column is a NumPy float scalar.  The sample carries no metric factor
    e^u: the curvature layers read mixed components, which need none.
    """

    def __init__(self, params: SolutionParams, r):
        self.params, self.r = params, r

    @functools.cached_property
    def q(self):
        return _q(self.params, self.r)

    @functools.cached_property
    def f_p(self):
        """f' = k tanh(q/2); at q = -inf, -k."""
        t = np.multiply(0.5, self.q)
        t = np.tanh(t, out=_out(t))
        t *= self.params.k
        return t

    @functools.cached_property
    def f_pp(self):
        """f'' = k^2 sech^2(q/2); at q = -inf, +0."""
        # Stable sech(x)^2 = (2 e^-|x| / (1 + e^-2|x|))^2 at x = q/2, in buffers this column owns.
        x = np.multiply(0.5, self.q)
        x = np.abs(x, out=_out(x))
        x = np.negative(x, out=_out(x))
        e = np.exp(x, out=_out(x))
        d = e * e
        d += 1.0
        e *= 2.0
        e /= d
        e *= e
        e *= self.params.k * self.params.k
        return e

    @functools.cached_property
    def f_p_sq(self):
        """f'^2, read by the f ODE residual and the quoted scalar integrand."""
        return self.f_p * self.f_p

    @functools.cached_property
    def u_p(self):
        return (2.0 / 3.0) * self.f_p

    @functools.cached_property
    def u_pp(self):
        return (2.0 / 3.0) * self.f_pp

    @functools.cached_property
    def abs_q(self):
        return np.abs(self.q)

    @functools.cached_property
    def log1p_exp_neg_abs_q(self):
        """log1p(e^-|q|); log(1 + e^q) is max(q, 0) plus it, with no overflow for finite q."""
        return np.log1p(np.exp(-self.abs_q))

    @functools.cached_property
    def f(self):
        """f = -kr + log(1 + e^q) - log(12 lambda)/2; at xi = 0 (q = -inf), -kr - log(12 lambda)/2."""
        log1p_exp_q = np.maximum(self.q, 0.0)
        log1p_exp_q += self.log1p_exp_neg_abs_q
        f = np.multiply(-self.params.k, self.r)
        f += log1p_exp_q
        f -= 0.5 * math.log(12.0 * self.params.lam)
        return f

    @functools.cached_property
    def u(self):
        """u_i = (2/3) f + log(12 lambda)/3."""
        u = np.multiply(2.0 / 3.0, self.f)
        u += (1.0 / 3.0) * math.log(12.0 * self.params.lam)
        return u

    @functools.cached_property
    def w(self):
        """w = e^{u_i} from its printed form (``_w_value``), not from exp(u)."""
        return _w_value(self.params, self.r)


def params_from_xi(lam: float, xi: float) -> SolutionParams:
    """Build the parameters of one family member from (lambda, xi).

    The canonical gauge c2 = -1, c1 = xi^2 (hence xi^2 = -c1/c2 exactly),
    beta_j = -(2/3) log(-c2) = 0 and alpha_i = 0 is built into every
    profile.  Rejects non-finite inputs, |xi| > MAX_ABS_XI and a lambda so
    small that a = sqrt(3/lambda) overflows.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ParameterDomainError(f"lambda must be positive and finite, got {lam}")
    if not abs(xi) <= MAX_ABS_XI:
        raise ParameterDomainError(f"xi must be finite with |xi| <= {MAX_ABS_XI:.6g}, got {xi}")
    a = math.sqrt(3.0 / lam)
    if math.isinf(a):
        raise ParameterDomainError(f"lambda = {lam} is too small: a = sqrt(3/lambda) overflows")
    return SolutionParams(lam=float(lam), xi=float(xi), a=a)


def radial_bound(params: SolutionParams) -> float:
    """Largest |r| before e^{2k r} style factors overflow."""
    return _MAX_EXPONENT / (2.0 * params.k)


def _check_range(params: SolutionParams, r) -> None:
    """Raise ParameterDomainError beyond ``radial_bound``."""
    bound = radial_bound(params)
    if np.abs(r).max(initial=0.0) > bound:
        raise ParameterDomainError(f"|r| exceeds the overflow bound {bound:.6g} for lambda={params.lam}")


def _q(params: SolutionParams, r):
    """q = 2kr + 2 log|xi|, so that c1 e^{2kr} - c2 = e^q + 1; -inf at xi = 0."""
    q = np.multiply(2.0 * params.k, r)
    q += 2.0 * params.log_abs_xi
    return q


def _w_value(params: SolutionParams, r):
    """w = e^{-2r/a} (1 + xi^2 e^{6r/a})^{2/3} at r, elementwise; no range check.

    A different arithmetic path from exp(u1), cross-checked in the tests.
    With t = 2r/a and q = 3t + 2 log|xi| (e^q = xi^2 e^{6r/a}), the larger of 1
    and e^q leaves the power: w = e^{max(-t, t + (4/3) log|xi|)} (1 + e^{-|q|})^{2/3},
    finite inside ``radial_bound``, and e^{-t} at xi = 0 (q = -inf).
    """
    t = np.multiply(2.0, r)
    t /= params.a
    log_xi = params.log_abs_xi
    q = np.multiply(3.0, t)
    q += 2.0 * log_xi
    neg_t = np.negative(t)
    t += (4.0 / 3.0) * log_xi
    e = np.maximum(neg_t, t, out=_out(t))
    e = np.exp(e, out=_out(e))
    q = np.abs(q, out=_out(q))
    q = np.negative(q, out=_out(q))
    q = np.exp(q, out=_out(q))
    q += 1.0
    q = np.power(q, 2.0 / 3.0, out=_out(q))
    e *= q
    return e


def log_w_jet(params: SolutionParams, r) -> Jet:
    """Jet in r of the printed log w = -2r/a + (2/3) softplus(6r/a + 2 log|xi|), -2r/a at xi = 0.

    Its derivatives come from the chain rule, not from the sample's f' and
    f''.  No range check: the callers' radii lie in a checked window.
    """
    x = Jet.variable(r)
    log_xi = params.log_abs_xi
    return x * (-2.0 / params.a) + (2.0 / 3.0) * (x * (6.0 / params.a) + 2.0 * log_xi).softplus()


def metric_eval(params: SolutionParams, r) -> MetricSample:
    """Full metric sample at r (canonical gauge, all three exponents equal).

    u_i = (2/3) f + log(12 lambda)/3 + beta_i, which reproduces w = e^{u_i};
    the printed one-parameter form with linear coefficient -1/a instead of
    -2/a is inconsistent with this derivation and is not used (the mismatch
    is surfaced in the verification reports).  The three exponents are
    equal, so the sample carries one, and the curvature layers build one
    bracket for the three axes.  Every column, w included, is computed on
    first read.  r becomes a float array once, 0-d for a scalar.
    """
    r = np.asarray(r, dtype=float)
    _check_range(params, r)
    return MetricSample(params, r)


class Window:
    """``samples`` equispaced radii on [r_min, r_max] of one family member, checked once.

    In order: finite ends, 2 <= samples <= ``MAX_GRID_SIZE``, (lambda, xi);
    then an end given as None defaults to -/+ half_width * a, and r_min <
    r_max within ``radial_bound``.  Every radius handed out lies between the
    ends, so no sample is checked again.  The grid is handed out by block or
    by index, never whole, so no array of ``samples`` points is built.
    """

    def __init__(self, lam, xi, r_min, r_max, samples: int, half_width: float):
        for name, bound in (("r-min", r_min), ("r-max", r_max)):
            if bound is not None and not math.isfinite(bound):
                raise ParameterDomainError(f"{name} must be finite, got {bound}")
        if samples < 2:
            raise ParameterDomainError(f"samples must be >= 2, got {samples}")
        if samples > MAX_GRID_SIZE:
            raise ParameterDomainError(f"samples must be <= {MAX_GRID_SIZE}, got {samples}")
        self.params = params = params_from_xi(lam, xi)
        self.r_min = float(-half_width * params.a if r_min is None else r_min)
        self.r_max = float(half_width * params.a if r_max is None else r_max)
        if not self.r_min < self.r_max:
            raise ParameterDomainError(f"r-min must be < r-max, got [{self.r_min}, {self.r_max}]")
        _check_range(params, (self.r_min, self.r_max))
        self.samples = samples

    def radii(self, index: range, n: int | None = None) -> np.ndarray:
        """``np.linspace(r_min, r_max, n)[index]`` bit for bit, n by default ``samples``; only these radii are built.

        Radius k is k * step + r_min with step = (r_max - r_min) / (n - 1),
        or k / (n - 1) * (r_max - r_min) + r_min where that step rounds to 0
        (linspace's branch for a subnormal step), and radius n - 1 is r_max.
        """
        n = n or self.samples
        delta = self.r_max - self.r_min
        step = delta / (n - 1)
        radii = np.arange(index.start, index.stop, index.step, dtype=float)
        if step:
            radii *= step
        else:
            radii /= n - 1
            radii *= delta
        radii += self.r_min
        if index and index[-1] == n - 1:
            radii[-1] = self.r_max
        return radii

    def location(self, n: int | None = None) -> str:
        """The location text of a row read on the n-point grid, by default ``samples``."""
        return f"grid[{self.r_min:.9g};{self.r_max:.9g}]x{n or self.samples}"

    def sample(self, n: int) -> MetricSample:
        """The sample of the n-point grid on the window."""
        return MetricSample(self.params, self.radii(range(n), n))

    def block(self, j: int) -> MetricSample:
        """The sample of the j-th ``GRID_BLOCK`` radii of the ``samples`` grid."""
        start = j * GRID_BLOCK
        return MetricSample(self.params, self.radii(range(start, min(start + GRID_BLOCK, self.samples))))

    def blocks(self):
        """``block(0)``, ``block(1)``, ...: the grid in order, each block's radii built as it is reached.

        Columns are elementwise, so each block's are the whole grid's.
        """
        return (self.block(j) for j in range(-(-self.samples // GRID_BLOCK)))
