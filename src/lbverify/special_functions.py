"""Gauss hypergeometric 2F1 on the real axis up to z = 1/2.

``hyp2f1`` is the general scalar entry point.  It picks one of two
branches, each of which ends in the defining series, summed with term-ratio
updates (no Gamma calls):

* -1/2 <= z <= 1/2: the series at z itself;
* z < -1/2: the Pfaff transformation

      F(a, b; c; z) = (1 - z)^(-a) F(a, c - b; c; z / (z - 1)),

  whose argument t = z/(z - 1) lies in (1/3, 1).

The two branches are also exposed on their own, as ``gauss_2f1_series`` and
``gauss_2f1_pfaff``, so that they can be cross-checked against each other.
The series is array-first: ``gauss_2f1_series`` sums it for every element
of an array z at once, as running products and sums over chunks of terms,
with the bits of the scalar recurrence.  The tortoise coordinate calls it
once per report for its one series, F(1/3, 1; 7/6; x) with x <= 1/2 (see
``congruence.tortoise_series``).  The Pfaff argument approaches 1 as
z -> -inf, so far enough out its series reaches ``MAX_TERMS`` and raises
``SpecialFunctionError``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterDomainError, SpecialFunctionError

#: Relative term size at which the series is declared converged.
SERIES_RTOL = 1e-16
#: Hard cap on the number of series terms.  Below z = -1 the Pfaff argument
#: exceeds 1/2 and the term count grows like 1/(1 - t) = 1 - z; the cap ends
#: a series that would not converge in practice.
MAX_TERMS = 100_000
#: Terms in the series' first chunk; each later chunk doubles the number of
#: terms summed.  The tortoise coordinate's series stops within 48 terms,
#: inside the first chunk.
FIRST_CHUNK_TERMS = 64


def _ratio_range(a: float, b: float, c: float, start: int, stop: int) -> np.ndarray:
    """The ratios (a+k)(b+k) / ((c+k)(k+1)) of consecutive terms, for start <= k < stop."""
    k = np.arange(start, stop, dtype=float)
    return (a + k) * (b + k) / ((c + k) * (k + 1.0))


def _series(a: float, b: float, c: float, z, caller_z: float | None = None) -> np.ndarray:
    """Defining series at |z| < 1, elementwise over z.  Two consecutive negligible terms stop it.

    The terms are the running product of ratio * z and the partial sums the
    running sum from 1, one chunk of terms at a time: the recurrence
    ``term *= ratio * z; total += term`` in its own order, so each element
    has the bits of a scalar loop.  An element stops at its first two
    consecutive negligible terms; the others go on to the next chunk, up to
    ``MAX_TERMS``.  ``caller_z`` is the argument the caller asked for when
    ``z`` is the Pfaff argument; the non-convergence error quotes it first.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.empty(flat.size)
    live = np.arange(flat.size)
    term, total, small = np.ones(flat.size), np.ones(flat.size), np.zeros(flat.size, dtype=bool)
    start, stop = 0, FIRST_CHUNK_TERMS
    # Past an element's stopping term its running product may under- or
    # overflow; a scalar loop never computes those terms.
    with np.errstate(all="ignore"):
        while True:
            ratios = _ratio_range(a, b, c, start, stop)
            # The first column takes up the previous chunk's term and total, so
            # the running product and sum continue term *= ratio * z; total += term.
            terms = flat[live, None] * ratios
            terms[:, 0] *= term
            np.cumprod(terms, axis=1, out=terms)
            totals = terms.copy()
            totals[:, 0] += total
            np.cumsum(totals, axis=1, out=totals)
            negligible = np.empty((live.size, stop - start + 1), dtype=bool)
            negligible[:, 0] = small
            np.less_equal(np.abs(terms), SERIES_RTOL * np.abs(totals), out=negligible[:, 1:])
            ends = negligible[:, 1:] & negligible[:, :-1]
            rows, first = np.arange(live.size), ends.argmax(axis=1)
            # An element that goes on has its value overwritten by a later chunk.
            out[live] = totals[rows, first]
            going = ~ends[rows, first]
            if not going.any():
                return out.reshape(z.shape)
            if stop == MAX_TERMS:
                bad = flat[live[going][0]]
                where = f"z = {bad:.6g}" if caller_z is None else (
                    f"z = {caller_z:.6g} (Pfaff argument t = z/(z-1) = {bad:.12g})"
                )
                raise SpecialFunctionError(f"2F1 series did not converge within {MAX_TERMS} terms at {where}")
            live, term, total, small = live[going], terms[going, -1], totals[going, -1], negligible[going, -1]
            start, stop = stop, min(MAX_TERMS, 2 * stop)


def _check_c(c: float) -> None:
    if c <= 0.0 and c == math.floor(c):
        raise ParameterDomainError(f"c must not be a non-positive integer, got {c}")


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Evaluate F(a, b; c; z) for a scalar z <= 1/2."""
    _check_c(c)
    if z > 0.5:
        raise ParameterDomainError(f"z = {z:.6g} > 1/2 is unsupported")
    if z >= -0.5:
        return float(_series(a, b, c, z))
    return gauss_2f1_pfaff(a, b, c, z)


def gauss_2f1_series(a: float, b: float, c: float, z):
    """Direct series evaluation, elementwise over z; requires |z| < 1.

    A scalar z gives a float.
    """
    _check_c(c)
    z = np.asarray(z, dtype=float)
    outside = np.abs(z) >= 1.0
    if outside.any():
        raise ParameterDomainError(f"direct series diverges at |z| = {abs(z[outside][0]):.6g} >= 1")
    values = _series(a, b, c, z)
    return float(values) if values.ndim == 0 else values


def gauss_2f1_pfaff(a: float, b: float, c: float, z: float) -> float:
    """Pfaff-transformed evaluation; valid for any z <= 0."""
    _check_c(c)
    if z > 0.0:
        raise ParameterDomainError(f"z = {z:.6g} > 0 is unsupported")
    t = z / (z - 1.0)
    return (1.0 - z) ** (-a) * float(_series(a, c - b, c, t, caller_z=z))
