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

Functions accept a scalar r or a numpy array and vectorize elementwise: one
array path serves both, and a scalar r yields NumPy float scalars.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError

# e^{2k|r|} stays finite (and so does e^f downstream) below this exponent.
_MAX_EXPONENT = 700.0

# xi^2 e^{6r/a} stays below the float maximum (about e^709.78) up to this
# exponent of it; ``_w_value`` composes w through log|xi| beyond it.
_W_PRODUCT_EXPONENT = 709.0

#: Largest accepted |xi|: c1 = xi^2 must stay a finite float.
MAX_ABS_XI = math.sqrt(sys.float_info.max)


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


@dataclass(frozen=True)
class MetricSample:
    """All radial profile quantities at one radius (or one grid).

    r        the radius or radii
    f        ``f_eval``'s f, in its printed normalization; f_p and f_pp
             are its f' and f''
    u        the exponents (u1, u2, u3) of g_tt = -e^{u1}, g_phiphi = e^{u2},
             g_zz = e^{u3}; u_p and u_pp are their r-derivatives.  Axes
             that hold the same arrays (all three in ``metric_eval``) share
             one curvature bracket

    The sample carries no metric factor e^u and no conformal factor w:
    the curvature layers read mixed components, which need neither, and w
    comes from ``w_value`` or ``w_eval`` on its own arithmetic path.
    """

    r: float | np.ndarray
    f: float | np.ndarray
    f_p: float | np.ndarray
    f_pp: float | np.ndarray
    u: tuple
    u_p: tuple
    u_pp: tuple


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


def _check_range(params: SolutionParams, r) -> float:
    """Raise ParameterDomainError beyond ``radial_bound``; return max |r| (0 for no radii)."""
    bound = radial_bound(params)
    reach = float(np.abs(r).max(initial=0.0))
    if reach > bound:
        raise ParameterDomainError(f"|r| exceeds the overflow bound {bound:.6g} for lambda={params.lam}")
    return reach


def _sech_sq(x):
    """Stable sech(x)^2 for any real x."""
    e = np.exp(-np.abs(x))
    return (2.0 * e / (1.0 + e * e)) ** 2


def f_eval(params: SolutionParams, r):
    """Closed-form (f, f', f'') at r, in the printed normalization.

    f'  = k (c1 E + c2)/(c1 E - c2),  E = e^{2kr}
    f'' = -4 k^2 c1 c2 E / (c1 E - c2)^2
    so f'' + f'^2 = 3 lambda identically.  The value is taken as
    f = -kr + log(1 + e^q) - log(12 lambda)/2 with ``_log1p_exp``; at xi = 0
    (q = -inf) that is exactly -kr - log(12 lambda)/2.
    """
    _check_range(params, r)
    r = np.asarray(r, dtype=float)
    k = params.k
    q = _q(params, r)
    f = -k * r + _log1p_exp(q) - 0.5 * math.log(12.0 * params.lam)
    return (f, *_f_derivs(k, q))


def _q(params: SolutionParams, r):
    """q = 2kr + 2 log|xi|, so that c1 e^{2kr} - c2 = e^q + 1; -inf at xi = 0."""
    return 2.0 * params.k * r + (2.0 * math.log(abs(params.xi)) if params.xi else -math.inf)


def _log1p_exp(q):
    """log(1 + e^q) as max(q, 0) + log1p(e^-|q|): no overflow for finite q, 0 at q = -inf."""
    return np.maximum(q, 0.0) + np.log1p(np.exp(-np.abs(q)))


def _f_derivs(k: float, q):
    """(f', f'') = (k tanh(q/2), k^2 sech^2(q/2)); at q = -inf, (-k, +0)."""
    return k * np.tanh(0.5 * q), k * k * _sech_sq(0.5 * q)


def w_eval(params: SolutionParams, r):
    """Conformal factor (w, w', w'') evaluated from its own printed form.

    The value is composed directly as e^{-2r/a} (1 + xi^2 e^{6r/a})^{2/3},
    which is deliberately a different arithmetic path from exp(u1); the two
    are cross-checked against each other in the test suite.  Where
    xi^2 e^{6r/a} could overflow on the requested radii, the power is taken
    as e^{2r/a} |xi|^{4/3} (1 + xi^-2 e^{-6r/a})^{2/3} through log|xi|.
    The derivatives are w' = w u' and w'' = w (u'' + u'^2) with u = (2/3) f,
    from (f', f'') alone: the value of f is never computed here.
    """
    reach = _check_range(params, r)
    r = np.asarray(r, dtype=float)
    w = _w_value(params, r, reach)
    f_p, f_pp = _f_derivs(params.k, _q(params, r))
    u_p = (2.0 / 3.0) * f_p
    u_pp = (2.0 / 3.0) * f_pp
    return w, w * u_p, w * (u_pp + u_p * u_p)


def w_value(params: SolutionParams, r):
    """The value of ``w_eval`` alone, range-checked the same way.

    Same arithmetic path as ``w_eval``'s w, bit for bit, without the
    derivatives and so without (f', f'').
    """
    reach = _check_range(params, r)
    return _w_value(params, np.asarray(r, dtype=float), reach)


def _w_value(params: SolutionParams, r, reach: float):
    """The value of ``w_eval`` at r, without the range check; reach = max |r|."""
    a = params.a
    log_xi = math.log(abs(params.xi)) if params.xi else -math.inf
    if 2.0 * log_xi + 6.0 * reach / a <= _W_PRODUCT_EXPONENT:
        return np.exp(-2.0 * r / a) * (1.0 + params.xi**2 * np.exp(6.0 * r / a)) ** (2.0 / 3.0)
    # xi^2 e^{6r/a} = e^q, q = 6r/a + 2 log|xi|, may overflow on these
    # radii: factor it out of the power, w = e^{2r/a} |xi|^{4/3} (1 + e^{-q})^{2/3}.
    # Inside the radial bound 6|r|/a <= _MAX_EXPONENT, so this branch
    # has 2 log|xi| > 9 and e^{-q} < e^{_MAX_EXPONENT - 9} stays finite.
    q = 6.0 * r / a + 2.0 * log_xi
    return np.exp(2.0 * r / a + (4.0 / 3.0) * log_xi) * (1.0 + np.exp(-q)) ** (2.0 / 3.0)


def metric_eval(params: SolutionParams, r) -> MetricSample:
    """Full metric sample at r (canonical gauge, all three exponents equal).

    u_i = (2/3) f + log(12 lambda)/3 + beta_i, which reproduces w = e^{u_i};
    the printed one-parameter form with linear coefficient -1/a instead of
    -2/a is inconsistent with this derivation and is not used (the mismatch
    is surfaced in the verification reports).  The three exponents are one
    shared array, and so are their derivatives, so the curvature layers
    build one bracket for all three axes.
    """
    f, f_p, f_pp = f_eval(params, r)
    u1 = (2.0 / 3.0) * f + (1.0 / 3.0) * math.log(12.0 * params.lam)
    u1_p = (2.0 / 3.0) * f_p
    u1_pp = (2.0 / 3.0) * f_pp
    return MetricSample(
        r=r,
        f=f,
        f_p=f_p,
        f_pp=f_pp,
        u=(u1, u1, u1),
        u_p=(u1_p, u1_p, u1_p),
        u_pp=(u1_pp, u1_pp, u1_pp),
    )
