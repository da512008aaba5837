"""Gauss hypergeometric 2F1 on the non-positive real axis.

Only z <= 0 is supported: that is the full argument range reached by the
tortoise coordinate, whose z is -xi^2 e^{6r/a}.  ``hyp2f1`` is the one entry
point.  It picks one of three branches, each of which ends in the defining
series, summed with term-ratio updates (no Gamma calls in the loop):

* -0.5 <= z <= 0: the series at z itself;
* -2 <= z < -0.5: the Pfaff transformation

      F(a, b; c; z) = (1 - z)^(-a) F(a, c - b; c; z / (z - 1)),

  whose argument t = z/(z - 1) lies in (1/3, 2/3];
* z < -2: the z -> 1/z connection formula (DLMF 15.8.2, A&S 15.3.7)

      F(a, b; c; z) = G(c)G(b-a) / (G(b)G(c-a)) (-z)^(-a) F(a, a-c+1; a-b+1; 1/z)
                    + G(c)G(a-b) / (G(a)G(c-b)) (-z)^(-b) F(b, b-c+1; b-a+1; 1/z),

  with G = Gamma and both series at t = 1/z in [-1/2, 0).

So every series argument has |t| <= 2/3, and the term count stays bounded
however negative z is.  The term ratios of a series and the two connection
coefficients depend on its parameter triple alone, so each triple computes
them once (``_term_ratios``, ``_connection_coefficients``); the tortoise
coordinate reaches four triples.  In the connection formula a reciprocal
Gamma at one of its poles is 0, which drops the matching term (c = a, for
instance, gives the binomial (1 - z)^(-b) from the second term alone).  When b - a is an
integer the formula is degenerate (Gamma(b - a) or Gamma(a - b) is a pole)
and the Pfaff branch is used instead; near such integers the two terms
cancel and the relative error grows like eps / dist(b - a, Z).  The
Gamma functions overflow for parameters above about 171; the Pfaff branch
is used then too.

The three branches are also exposed on their own, as ``gauss_2f1_series``,
``gauss_2f1_pfaff`` and ``gauss_2f1_connection``, so that they can be
cross-checked against each other.
"""

from __future__ import annotations

import functools
import math
from itertools import chain

from .errors import ParameterDomainError, SpecialFunctionError

#: Relative term size at which the series is declared converged.
SERIES_RTOL = 1e-16
#: Hard cap on the number of series terms.  With every series argument at
#: |t| <= 2/3 it is a safety net for extreme parameters, not for any z <= 0.
MAX_TERMS = 100_000
#: Term ratios cached per parameter triple; a longer series computes the rest
#: inline.  Every series of the tortoise coordinate stops within 80 terms.
CACHED_TERMS = 128

_PFAFF_ARGUMENT = "Pfaff argument t = z/(z-1)"
_CONNECTION_ARGUMENT = "connection argument t = 1/z"


@functools.lru_cache(maxsize=64, typed=True)
def _term_ratios(a: float, b: float, c: float) -> tuple[float, ...]:
    """The first ``CACHED_TERMS`` ratios (a+k)(b+k) / ((c+k)(k+1)) of consecutive terms."""
    return tuple((a + k) * (b + k) / ((c + k) * (k + 1.0)) for k in range(CACHED_TERMS))


def _series(
    a: float, b: float, c: float, z: float, caller_z: float | None = None, transform: str = _PFAFF_ARGUMENT
) -> float:
    """Defining series at |z| < 1.  Two consecutive negligible terms stop it.

    ``caller_z`` is the argument the caller asked for when ``z`` is a
    transformed one; the non-convergence error quotes it first, followed by
    ``transform``, which names the transformed argument.
    """
    total = 1.0
    term = 1.0
    small_streak = 0
    ratios = chain(
        _term_ratios(a, b, c),
        ((a + k) * (b + k) / ((c + k) * (k + 1.0)) for k in range(CACHED_TERMS, MAX_TERMS)),
    )
    for ratio in ratios:
        term *= ratio * z
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    where = f"z = {z:.6g}" if caller_z is None else f"z = {caller_z:.6g} ({transform} = {z:.12g})"
    raise SpecialFunctionError(f"2F1 series did not converge within {MAX_TERMS} terms at {where}")


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _rgamma(x: float) -> float:
    """1/Gamma(x), which is 0 at the poles x = 0, -1, -2, ..."""
    return 0.0 if _is_nonpositive_integer(x) else 1.0 / math.gamma(x)


def _check_c(c: float) -> None:
    if _is_nonpositive_integer(c):
        raise ParameterDomainError(f"c must not be a non-positive integer, got {c}")


def _check_nonpositive(z: float) -> None:
    if z > 0.0:
        raise ParameterDomainError(f"z = {z:.6g} > 0 is unsupported")


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Evaluate F(a, b; c; z) for z <= 0."""
    _check_c(c)
    _check_nonpositive(z)
    if z == 0.0:
        return 1.0
    if z >= -0.5:
        return _series(a, b, c, z)
    if z >= -2.0:
        return gauss_2f1_pfaff(a, b, c, z)
    return gauss_2f1_connection(a, b, c, z)


def gauss_2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Direct series evaluation; requires |z| < 1."""
    _check_c(c)
    if abs(z) >= 1.0:
        raise ParameterDomainError(f"direct series diverges at |z| = {abs(z):.6g} >= 1")
    return _series(a, b, c, z)


def gauss_2f1_pfaff(a: float, b: float, c: float, z: float) -> float:
    """Pfaff-transformed evaluation; valid for any z <= 0."""
    _check_c(c)
    _check_nonpositive(z)
    if z == 0.0:
        return 1.0
    t = z / (z - 1.0)
    return (1.0 - z) ** (-a) * _series(a, c - b, c, t, caller_z=z)


@functools.lru_cache(maxsize=64, typed=True)
def _connection_coefficients(a: float, b: float, c: float) -> tuple[float, float] | None:
    """The two Gamma coefficients of the connection formula, or None where it fails.

    None when b - a is an integer (a Gamma pole) or a Gamma function overflows.
    """
    if b - a == math.floor(b - a):
        return None
    try:
        gamma_c = math.gamma(c)
        coef_a = gamma_c * math.gamma(b - a) * _rgamma(b) * _rgamma(c - a)
        coef_b = gamma_c * math.gamma(a - b) * _rgamma(a) * _rgamma(c - b)
    except OverflowError:
        return None
    return coef_a, coef_b


def gauss_2f1_connection(a: float, b: float, c: float, z: float) -> float:
    """z -> 1/z connection-formula evaluation; requires z <= -1.

    Falls back to ``gauss_2f1_pfaff`` when b - a is an integer or a Gamma
    function overflows.
    """
    _check_c(c)
    if z > -1.0:
        raise ParameterDomainError(f"connection formula needs z <= -1, got z = {z:.6g}")
    coefficients = _connection_coefficients(a, b, c)
    if coefficients is None:
        return gauss_2f1_pfaff(a, b, c, z)
    coef_a, coef_b = coefficients
    t = 1.0 / z
    term_a = coef_a * (-z) ** (-a) * _series(a, a - c + 1.0, a - b + 1.0, t, z, _CONNECTION_ARGUMENT)
    term_b = coef_b * (-z) ** (-b) * _series(b, b - c + 1.0, b - a + 1.0, t, z, _CONNECTION_ARGUMENT)
    return term_a + term_b
