"""Gauss hypergeometric 2F1 on the real axis up to z = 1/2.

``hyp2f1`` is the one entry point.  It picks one of two branches, each of
which ends in the defining series, summed with term-ratio updates (no Gamma
calls in the loop):

* -1/2 <= z <= 1/2: the series at z itself;
* z < -1/2: the Pfaff transformation

      F(a, b; c; z) = (1 - z)^(-a) F(a, c - b; c; z / (z - 1)),

  whose argument t = z/(z - 1) lies in (1/3, 1).

The tortoise coordinate reaches the first branch alone: its one series,
F(1/3, 1; 7/6; x), has x <= 1/2 (see ``congruence.tortoise_series``).  The
Pfaff argument approaches 1 as z -> -inf, so far enough out its series
reaches ``MAX_TERMS`` and raises ``SpecialFunctionError``.  The term ratios
of a series depend on its parameter triple alone, so each triple computes
them once (``_term_ratios``).

The two branches are also exposed on their own, as ``gauss_2f1_series`` and
``gauss_2f1_pfaff``, so that they can be cross-checked against each other.
"""

from __future__ import annotations

import functools
import math
from itertools import chain

from .errors import ParameterDomainError, SpecialFunctionError

#: Relative term size at which the series is declared converged.
SERIES_RTOL = 1e-16
#: Hard cap on the number of series terms.  Below z = -1 the Pfaff argument
#: exceeds 1/2 and the term count grows like 1/(1 - t) = 1 - z; the cap ends
#: a series that would not converge in practice.
MAX_TERMS = 100_000
#: Term ratios cached per parameter triple; a longer series computes the rest
#: inline.  The tortoise coordinate's series stops within 48 terms.
CACHED_TERMS = 128


@functools.lru_cache(maxsize=64, typed=True)
def _term_ratios(a: float, b: float, c: float) -> tuple[float, ...]:
    """The first ``CACHED_TERMS`` ratios (a+k)(b+k) / ((c+k)(k+1)) of consecutive terms."""
    return tuple((a + k) * (b + k) / ((c + k) * (k + 1.0)) for k in range(CACHED_TERMS))


def _series(a: float, b: float, c: float, z: float, caller_z: float | None = None) -> float:
    """Defining series at |z| < 1.  Two consecutive negligible terms stop it.

    ``caller_z`` is the argument the caller asked for when ``z`` is the
    Pfaff argument; the non-convergence error quotes it first.
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
    where = f"z = {z:.6g}" if caller_z is None else f"z = {caller_z:.6g} (Pfaff argument t = z/(z-1) = {z:.12g})"
    raise SpecialFunctionError(f"2F1 series did not converge within {MAX_TERMS} terms at {where}")


def _check_c(c: float) -> None:
    if c <= 0.0 and c == math.floor(c):
        raise ParameterDomainError(f"c must not be a non-positive integer, got {c}")


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Evaluate F(a, b; c; z) for z <= 1/2."""
    _check_c(c)
    if z > 0.5:
        raise ParameterDomainError(f"z = {z:.6g} > 1/2 is unsupported")
    if z == 0.0:
        return 1.0
    if z >= -0.5:
        return _series(a, b, c, z)
    return gauss_2f1_pfaff(a, b, c, z)


def gauss_2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Direct series evaluation; requires |z| < 1."""
    _check_c(c)
    if abs(z) >= 1.0:
        raise ParameterDomainError(f"direct series diverges at |z| = {abs(z):.6g} >= 1")
    return _series(a, b, c, z)


def gauss_2f1_pfaff(a: float, b: float, c: float, z: float) -> float:
    """Pfaff-transformed evaluation; valid for any z <= 0."""
    _check_c(c)
    if z > 0.0:
        raise ParameterDomainError(f"z = {z:.6g} > 0 is unsupported")
    if z == 0.0:
        return 1.0
    t = z / (z - 1.0)
    return (1.0 - z) ** (-a) * _series(a, c - b, c, t, caller_z=z)
