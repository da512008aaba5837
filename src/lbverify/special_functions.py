"""Gauss hypergeometric 2F1 on the non-positive real axis.

Only z <= 0 is supported: that is the full argument range reached by the
tortoise coordinate, whose z is -xi^2 e^{6r/a}.  ``hyp2f1`` is the one entry
point.  It sums the defining series directly for |z| <= 0.5, with term-ratio
updates (no Gamma calls in the loop); for z < -0.5 it applies the Pfaff
transformation

    F(a, b; c; z) = (1 - z)^(-a) F(a, c - b; c; z / (z - 1)),

which maps the argument into [0, 1) where the same series applies.  The two
branches are also exposed on their own, as ``gauss_2f1_series`` and
``gauss_2f1_pfaff``, so that they can be cross-checked against each other.
"""

from __future__ import annotations

import math

from .errors import ParameterDomainError, RangeError, SpecialFunctionError

#: Relative term size at which the series is declared converged.
SERIES_RTOL = 1e-16
#: Hard cap on the number of series terms.
MAX_TERMS = 100_000


def _series(a: float, b: float, c: float, z: float, caller_z: float | None = None) -> float:
    """Defining series at |z| < 1.  Two consecutive negligible terms stop it.

    ``caller_z`` is the argument the caller asked for when ``z`` is a
    transformed one; the non-convergence error quotes it first.
    """
    total = 1.0
    term = 1.0
    small_streak = 0
    for k in range(MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    where = f"z = {z:.6g}" if caller_z is None else f"z = {caller_z:.6g} (Pfaff argument t = z/(z-1) = {z:.12g})"
    raise SpecialFunctionError(f"2F1 series did not converge within {MAX_TERMS} terms at {where}")


def _check_c(c: float) -> None:
    if c <= 0.0 and c == math.floor(c):
        raise ParameterDomainError(f"c must not be a non-positive integer, got {c}")


def _check_nonpositive(z: float) -> None:
    if z > 0.0:
        raise RangeError(f"z = {z:.6g} > 0 is unsupported", r_bound=0.0)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Evaluate F(a, b; c; z) for z <= 0."""
    _check_c(c)
    _check_nonpositive(z)
    if z == 0.0:
        return 1.0
    if z >= -0.5:
        return _series(a, b, c, z)
    return gauss_2f1_pfaff(a, b, c, z)


def gauss_2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Direct series evaluation; requires |z| < 1."""
    _check_c(c)
    if abs(z) >= 1.0:
        raise RangeError(f"direct series diverges at |z| = {abs(z):.6g} >= 1", r_bound=1.0)
    return _series(a, b, c, z)


def gauss_2f1_pfaff(a: float, b: float, c: float, z: float) -> float:
    """Pfaff-transformed evaluation; valid for any z <= 0."""
    _check_c(c)
    _check_nonpositive(z)
    if z == 0.0:
        return 1.0
    t = z / (z - 1.0)
    return (1.0 - z) ** (-a) * _series(a, c - b, c, t, caller_z=z)
