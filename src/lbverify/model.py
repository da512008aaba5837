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

``f`` is only defined up to an additive constant by the ODE; ``f_eval``
returns the normalization printed above (with the -log(12 lambda)/2 term),
while ``MetricSample.f`` is the sum definition (u1+u2+u3)/2, which differs
from it by the constant log(12 lambda)/2 in the canonical gauge.  All
residual checks depend only on derivatives or on e^f-normalized quantities,
so the offset is immaterial to them.

Functions accept a scalar r or a numpy array and vectorize elementwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, RangeError
from .report import VerificationRow

# e^{2k|r|} stays finite (and so does e^f downstream) below this exponent.
_MAX_EXPONENT = 700.0

#: Residual tolerance for the integration-constant sum checks.
CONSTANT_SUM_TOL = 1e-12

#: Largest accepted |xi|: c1 = xi^2 must stay a finite float.
MAX_ABS_XI = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class SolutionParams:
    """Physical parameters of one family member.

    lam        cosmological constant, geometric units, > 0
    xi         dimensionless family parameter (only xi^2 enters the metric)
    a          de Sitter length sqrt(3/lam)
    phi_branch +1 or -1, sign of the scalar-field branch
    """

    lam: float
    xi: float
    a: float
    phi_branch: int = 1

    @property
    def k(self) -> float:
        """Radial rate sqrt(3*lam) = 3/a."""
        return 3.0 / self.a


@dataclass(frozen=True)
class RawConstants:
    """Integration constants of the general solution."""

    c1: float
    c2: float
    beta: tuple[float, float, float]
    alpha: tuple[float, float, float]


@dataclass(frozen=True)
class MetricSample:
    """All radial profile quantities at one radius (or one grid).

    f here is the sum definition (u1+u2+u3)/2; its derivatives coincide with
    those of the closed form returned by ``f_eval``.
    """

    r: float | np.ndarray
    f: float | np.ndarray
    f_p: float | np.ndarray
    f_pp: float | np.ndarray
    u: tuple
    u_p: tuple
    u_pp: tuple
    w: float | np.ndarray
    w_p: float | np.ndarray
    w_pp: float | np.ndarray


def params_from_xi(lam: float, xi: float, phi_branch: int = 1) -> tuple[SolutionParams, RawConstants]:
    """Build parameters and canonical integration constants from (lambda, xi).

    Canonical gauge: c2 = -1, c1 = xi^2 (hence xi^2 = -c1/c2 exactly),
    beta_j = -(2/3) log(-c2) = 0 and alpha_i = 0.  Rejects non-finite inputs,
    |xi| > MAX_ABS_XI and a lambda so small that a = sqrt(3/lambda) overflows.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ParameterDomainError(f"lambda must be positive and finite, got {lam}")
    if not abs(xi) <= MAX_ABS_XI:
        raise ParameterDomainError(f"xi must be finite with |xi| <= {MAX_ABS_XI:.6g}, got {xi}")
    if phi_branch not in (1, -1):
        raise ParameterDomainError(f"phi_branch must be +1 or -1, got {phi_branch}")
    a = math.sqrt(3.0 / lam)
    if math.isinf(a):
        raise ParameterDomainError(f"lambda = {lam} is too small: a = sqrt(3/lambda) overflows")
    params = SolutionParams(lam=float(lam), xi=float(xi), a=a, phi_branch=phi_branch)
    c2 = -1.0
    c1 = float(xi) ** 2
    beta_j = -(2.0 / 3.0) * math.log(-c2)  # zero in this gauge
    raw = RawConstants(c1=c1, c2=c2, beta=(beta_j,) * 3, alpha=(0.0, 0.0, 0.0))
    return params, raw


def radial_bound(params: SolutionParams) -> float:
    """Largest |r| before e^{2k r} style factors overflow."""
    return _MAX_EXPONENT / (2.0 * params.k)


def _check_range(params: SolutionParams, r) -> None:
    bound = radial_bound(params)
    if isinstance(r, (int, float, np.integer, np.floating)):
        magnitude = abs(r)
    else:
        magnitude = np.max(np.abs(r), initial=0.0)
    if magnitude > bound:
        raise RangeError(
            f"|r| exceeds the overflow bound {bound:.6g} for lambda={params.lam}", r_bound=bound
        )


def _sech_sq(x):
    """Stable sech(x)^2 for any real x."""
    e = np.exp(-np.abs(x))
    return (2.0 * e / (1.0 + e * e)) ** 2


def _as_float(r):
    return np.asarray(r, dtype=float) if np.ndim(r) else float(r)


def f_eval(params: SolutionParams, r):
    """Closed-form (f, f', f'') at r, in the printed normalization.

    f'  = k (c1 E + c2)/(c1 E - c2),  E = e^{2kr}
    f'' = -4 k^2 c1 c2 E / (c1 E - c2)^2
    so f'' + f'^2 = 3 lambda identically.
    """
    _check_range(params, r)
    return _f_core(params, _as_float(r))


def _f_core(params: SolutionParams, r):
    """``f_eval`` without the range check; r is a float or a float array."""
    k = params.k
    lam = params.lam
    if params.xi == 0.0:
        f = -k * r - 0.5 * math.log(12.0 * lam)
        f_p = -k * np.ones_like(r) if np.ndim(r) else -k
        f_pp = np.zeros_like(r) if np.ndim(r) else 0.0
        return f, f_p, f_pp
    # xi != 0: with q = 2kr + 2 log|xi|, c1 E - c2 = e^q + 1 and
    # f' = k tanh(q/2), f'' = k^2 sech^2(q/2); log(1 + e^q) = logaddexp(0, q).
    q = 2.0 * k * r + 2.0 * math.log(abs(params.xi))
    f = -k * r + np.logaddexp(0.0, q) - 0.5 * math.log(12.0 * lam)
    f_p = k * np.tanh(0.5 * q)
    f_pp = k * k * _sech_sq(0.5 * q)
    return f, f_p, f_pp


def w_eval(params: SolutionParams, r):
    """Conformal factor (w, w', w'') evaluated from its own printed form.

    The value is composed directly as e^{-2r/a} (1 + xi^2 e^{6r/a})^{2/3},
    which is deliberately a different arithmetic path from exp(u1); the two
    are cross-checked against each other in the test suite.
    """
    _check_range(params, r)
    r = _as_float(r)
    _, f_p, f_pp = _f_core(params, r)
    return _w_core(params, r, f_p, f_pp)


def _w_core(params: SolutionParams, r, f_p, f_pp):
    """``w_eval`` from (f', f'') at r, without the range check."""
    a = params.a
    xi2 = params.xi ** 2
    w = np.exp(-2.0 * r / a) * (1.0 + xi2 * np.exp(6.0 * r / a)) ** (2.0 / 3.0)
    u_p = (2.0 / 3.0) * f_p
    u_pp = (2.0 / 3.0) * f_pp
    w_p = w * u_p
    w_pp = w * (u_pp + u_p * u_p)
    return w, w_p, w_pp


def metric_eval(params: SolutionParams, r) -> MetricSample:
    """Full metric sample at r (canonical gauge, all three exponents equal).

    u_i = (2/3) f + log(12 lambda)/3 + beta_i, which reproduces w = e^{u_i};
    the printed one-parameter form with linear coefficient -1/a instead of
    -2/a is inconsistent with this derivation and is not used (the mismatch
    is surfaced in the verification reports).
    """
    _check_range(params, r)
    r_float = _as_float(r)
    f9, f_p, f_pp = _f_core(params, r_float)
    u1 = (2.0 / 3.0) * f9 + (1.0 / 3.0) * math.log(12.0 * params.lam)
    u1_p = (2.0 / 3.0) * f_p
    u1_pp = (2.0 / 3.0) * f_pp
    w, w_p, w_pp = _w_core(params, r_float, f_p, f_pp)
    return MetricSample(
        r=r,
        f=1.5 * u1,
        f_p=f_p,
        f_pp=f_pp,
        u=(u1, u1, u1),
        u_p=(u1_p, u1_p, u1_p),
        u_pp=(u1_pp, u1_pp, u1_pp),
        w=w,
        w_p=w_p,
        w_pp=w_pp,
    )


def validate_constants(raw: RawConstants, lam: float) -> list[VerificationRow]:
    """Check the two sum conditions on the integration constants.

    Reports |alpha1+alpha2+alpha3| (must vanish for the exponent sum to
    reproduce f) and |beta1+beta2+beta3 + log(12 lambda)/2| (the quoted gauge
    condition).  The canonical gauge absorbs all additive constants instead
    of satisfying the quoted beta condition, so its beta row generally fails
    except at lambda = 1/12; callers that only compare gauges should treat
    that row as informational.
    """
    alpha_residual = abs(math.fsum(raw.alpha))
    beta_residual = abs(math.fsum(raw.beta) + 0.5 * math.log(12.0 * lam))
    rows = [
        VerificationRow(
            check="alpha-sum",
            location="constants",
            value=alpha_residual,
            tolerance=CONSTANT_SUM_TOL,
            verdict="pass" if alpha_residual <= CONSTANT_SUM_TOL else "fail",
        ),
        VerificationRow(
            check="beta-gauge-sum",
            location="constants",
            value=beta_residual,
            tolerance=CONSTANT_SUM_TOL,
            verdict="pass" if beta_residual <= CONSTANT_SUM_TOL else "fail",
        ),
    ]
    for i, a_i in enumerate(raw.alpha):
        if a_i != 0.0:
            rows.append(
                VerificationRow(
                    check=f"alpha-{i + 1}-nonzero",
                    location="constants",
                    value=a_i,
                    tolerance=0.0,
                    verdict="discrepancy-logged",
                )
            )
    return rows
