"""Scalar-field profile of the solution family.

The authoritative expression for phi'^2 is the rr field-equation constraint

    phi'^2 = R^r_r - lambda = (2 sum(u_i'') + sum(u_i'^2) - 4 lambda) / 4,

which for the equal-exponent family reduces to (2/3)(3 lambda - f'^2)
= (2/3) f'' and is non-negative everywhere.  The quoted integrand form
2 (lambda - f'^2) is evaluated only for the discrepancy report: it follows
from an intermediate reduction that the curvature oracle contradicts, and it
turns negative wherever f'^2 > lambda (always true at large |r|).

The wave equation on this background has first integral J = e^f phi'
(a constant of r); with the printed normalization of f and phi' >= 0 this
constant is |xi| * sqrt(2/3).  J is composed in log space, because
f'' ~ xi^2 underflows long before J = O(|xi|) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import ricci_mixed
from .errors import ParameterDomainError
from .model import MetricSample, SolutionParams, metric_eval
from .numerics import adaptive_simpson

#: Absolute quadrature tolerance for phi accumulation.
PHI_QUAD_TOL = 1e-10

# Negative phi'^2 below this is treated as rounding noise and clamped.
_NEGATIVE_NOISE = 1e-12


@dataclass(frozen=True)
class ScalarProfile:
    """Scalar-field quantities on a radial grid."""

    r: np.ndarray
    phi_p_sq_constraint: np.ndarray
    phi: np.ndarray
    noether: np.ndarray


def phi_prime_sq_constraint(ricci, lam: float):
    """phi'^2 from the rr constraint, R^r_r - lambda, on ``ricci_mixed``'s components.

    May return a negative value for a non-solution sample; that is a flag
    for the caller, not an exception.
    """
    return ricci[1] - lam


def phi_prime_sq_quoted(sample: MetricSample, lam: float):
    """The quoted integrand squared, 2 (lambda - f'^2); may be negative."""
    return 2.0 * (lam - sample.f_p_sq)


def phi_prime(params: SolutionParams, r):
    """phi'(r) = sqrt(phi'^2_constraint) on the + branch."""
    val = phi_prime_sq_constraint(ricci_mixed(metric_eval(params, r)), params.lam)
    return np.sqrt(np.maximum(val, 0.0))


def phi_accumulate(params: SolutionParams, r0: float, r1: float) -> float:
    """phi(r1) with phi(r0) = 0, by adaptive quadrature of the constraint root.

    Raises ParameterDomainError if phi'^2 < 0 at any quadrature node of the interval.
    """

    def integrand(r: np.ndarray) -> np.ndarray:
        val = phi_prime_sq_constraint(ricci_mixed(metric_eval(params, r)), params.lam)
        bad = val < -_NEGATIVE_NOISE
        if np.any(bad):
            i = np.argmax(bad)
            raise ParameterDomainError(
                f"phi'^2 = {np.atleast_1d(val)[i]:.6g} < 0 at r = {r[i]:.6g}"
                f" inside [{min(r0, r1):.6g}, {max(r0, r1):.6g}]"
            )
        return np.sqrt(np.maximum(val, 0.0))

    return adaptive_simpson(integrand, r0, r1, PHI_QUAD_TOL)


def log_noether(params: SolutionParams, sample: MetricSample):
    """log |J| on ``sample.r``, where J = e^f phi' is the first integral.

    ``sample`` is a ``metric_eval`` sample, and f is its f, in the printed
    normalization.  phi'^2 is (2/3) f'', with f'' = k^2 sech^2(q/2) and
    q = 2kr + 2 log|xi| taken as

        log f'' = 2 log k + log 4 - |q| - 2 log1p(e^-|q|),

    which stays finite where f'' itself underflows.  |q| and
    log1p(e^-|q|) are the sample's, the ones its f was composed from.
    -inf at xi = 0.
    """
    log_f_pp = 2.0 * math.log(params.k) + math.log(4.0) - sample.abs_q - 2.0 * sample.log1p_exp_neg_abs_q
    return sample.f + 0.5 * (math.log(2.0 / 3.0) + log_f_pp)


def noether_charge(params: SolutionParams, r: float) -> float:
    """First integral J(r) = e^{f(r)} phi'(r) of the wave equation.

    Uses the printed normalization of f; constancy in r is asserted by the
    test suite, and the value is |xi| * sqrt(2/3).
    """
    return np.exp(log_noether(params, metric_eval(params, r)))


def scalar_profile(params: SolutionParams, sample: MetricSample) -> ScalarProfile:
    """All scalar-field quantities on the grid ``sample.r``; phi is accumulated
    from the first grid point by cumulative Simpson on the grid cells.

    Only the cell midpoints take a second model evaluation; the first
    integral is composed from ``sample`` by ``log_noether``."""
    r_grid = sample.r
    constraint = np.asarray(phi_prime_sq_constraint(ricci_mixed(sample), params.lam))
    phi_p = np.sqrt(np.maximum(constraint, 0.0))
    # Simpson over each cell using midpoints.
    mids = 0.5 * (r_grid[:-1] + r_grid[1:])
    phi_p_mid = phi_prime(params, mids)
    cell = (r_grid[1:] - r_grid[:-1]) / 6.0 * (phi_p[:-1] + 4.0 * phi_p_mid + phi_p[1:])
    phi = np.concatenate([[0.0], np.cumsum(cell)])
    noether = np.exp(log_noether(params, sample))
    return ScalarProfile(
        r=r_grid,
        phi_p_sq_constraint=constraint,
        phi=phi,
        noether=noether,
    )
