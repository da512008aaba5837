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

import functools
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
    f        f in its printed normalization
             -kr + (1/2) log((c1 e^{2kr} - c2)^2 / (12 lambda)); f_p and
             f_pp are its f' and f'', with f'' + f'^2 = 3 lambda
    u        the exponents (u1, u2, u3) of g_tt = -e^{u1}, g_phiphi = e^{u2},
             g_zz = e^{u3}; u_p and u_pp are their r-derivatives

    Axes that hold the same arrays, as all three do in a ``metric_eval``
    sample, take the shared-axis path of ``curvature.ricci_mixed``, the only
    code that acts on it: each per-axis quantity is computed once and serves
    the three axes, with the bits the general path gives.  ``metric_eval``
    also leaves the value columns f and u, which the curvature layers never
    read, to be computed on first read (see ``_ClosedFormSample``); f_p_sq
    is computed on first read on every sample.

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

    @functools.cached_property
    def f_p_sq(self):
        """f'^2, read by the f ODE residual and the quoted scalar integrand."""
        return self.f_p**2


class _ClosedFormSample(MetricSample):
    """The sample ``metric_eval`` returns, built from q = 2kr + 2 log|xi|.

    f', f'' and the exponent derivatives are computed on construction; the
    three axes share one array of each.  |q|, log1p(e^-|q|), f and u are
    computed on first read, so a caller that reads only derivatives takes
    neither the exp nor the log1p of f.  No range check is made here.
    """

    def __init__(self, params: SolutionParams, r):
        q = _q(params, np.asarray(r, dtype=float))
        f_p, f_pp = _f_derivs(params.k, q)
        u_p = (2.0 / 3.0) * f_p
        u_pp = (2.0 / 3.0) * f_pp
        # The dataclass is frozen: set the fields as its own __init__ would,
        # leaving f and u to the columns below.
        vars(self).update(r=r, f_p=f_p, f_pp=f_pp, u_p=(u_p,) * 3, u_pp=(u_pp,) * 3, params=params, q=q)

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
        log1p_exp_q = np.maximum(self.q, 0.0) + self.log1p_exp_neg_abs_q
        return -self.params.k * np.asarray(self.r, dtype=float) + log1p_exp_q - 0.5 * math.log(12.0 * self.params.lam)

    @functools.cached_property
    def u(self):
        """u_i = (2/3) f + log(12 lambda)/3, one array for the three axes."""
        u1 = (2.0 / 3.0) * self.f + (1.0 / 3.0) * math.log(12.0 * self.params.lam)
        return u1, u1, u1


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


def _q(params: SolutionParams, r):
    """q = 2kr + 2 log|xi|, so that c1 e^{2kr} - c2 = e^q + 1; -inf at xi = 0."""
    return 2.0 * params.k * r + (2.0 * math.log(abs(params.xi)) if params.xi else -math.inf)


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
    build one bracket for all three axes.  f and u are computed on first
    read (``_ClosedFormSample``).
    """
    _check_range(params, r)
    return _ClosedFormSample(params, r)
