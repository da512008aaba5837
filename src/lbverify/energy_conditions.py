"""Orthonormal-frame effective stress and pointwise energy-condition margins.

The total effective source (scalar field plus the cosmological term moved to
the right-hand side) is read off the Einstein tensor of the metric in an
orthonormal frame, with units 8 pi G = 1.  For a diagonal metric the frame
components are the mixed ones, G^m_n = R^m_n - (R/2) delta^m_n, up to the
sign of the time row:

    rho = -G^t_t = R/2 - R^t_t,   p_i = G^i_i = R^i_i - R/2,

with R the sum of the mixed diagonal Ricci components.  No metric factor
enters, so the stresses do not carry the rounding of e^u.

For this family the trace identities

    rho + p_r = phi'^2,   rho + p_t = 0,   rho + p_r + 2 p_t = -2 lambda

hold pointwise, so the transverse null margin saturates, the strong-energy
margin is the constant -2 lambda (violated for every lambda > 0), and the
radial null margin equals the scalar-field gradient squared.

The stress takes ``curvature.ricci_mixed``'s pair (R^n_n, R^r_r), which
the caller computes once per grid block.  The three non-radial axes share
R^n_n, so phi and z share one transverse pressure p_t, one transverse
null margin and one transverse dominant margin, and each condition's
minimum is taken over the radial and the transverse margin.  R/2 is summed
as 0.5 (R^t_t + R^r_r + R^phi_phi + R^z_z), so every value has the bits of
the per-axis expressions, and rho + p_t is an exact zero.

Margins are the primitive output; whether a condition holds derives from its
minimum margin (``condition_minima``) and the single tolerance
``hold_tolerance(lambda)``, so that marginal saturation stays visible.  Every
frame stress is of the size of lambda, and the NEC, WEC and DEC margins,
>= 0 by the identities above, round to as low as about -0.8 eps lambda: the
tolerance is 4 eps lambda, raised to HOLD_TOL but never above lambda, so it
stays below half the SEC margin 2 lambda.  Each condition therefore holds on
the whole window or nowhere: NEC, WEC and DEC everywhere, SEC nowhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import EPS

#: ``hold_tolerance`` for lambda from HOLD_TOL to about 1126; below it the tolerance is lambda.
HOLD_TOL = 1e-12

CONDITIONS = ("NEC", "WEC", "SEC", "DEC")


@dataclass(frozen=True)
class FrameStress:
    """Effective density, radial pressure and the one transverse pressure in the orthonormal frame."""

    rho: float | np.ndarray
    p_r: float | np.ndarray
    p_t: float | np.ndarray


@dataclass(frozen=True)
class ConditionMargins:
    nec_r: float | np.ndarray
    nec_t: float | np.ndarray
    wec_extra: float | np.ndarray
    sec: float | np.ndarray
    dec_r: float | np.ndarray
    dec_t: float | np.ndarray


def stress_decompose(ricci) -> FrameStress:
    """Orthonormal-frame (rho, p_r, p_t) from the mixed Ricci pair (R^n_n, R^r_r)."""
    r_nn, r_rr = ricci
    half_r = r_nn + r_rr
    half_r += r_nn
    half_r += r_nn
    half_r *= 0.5
    p_r, p_t = r_rr - half_r, r_nn - half_r
    half_r -= r_nn
    return FrameStress(rho=half_r, p_r=p_r, p_t=p_t)


def strong_margin(stress: FrameStress):
    """The strong-condition margin rho + p_r + 2 p_t, the constant -2 lambda for this family."""
    sec = stress.rho + stress.p_r
    sec += stress.p_t
    sec += stress.p_t
    return sec


def condition_margins(stress: FrameStress) -> ConditionMargins:
    """Pure arithmetic margins of the four classical conditions, radial and transverse."""
    rho = stress.rho
    return ConditionMargins(
        nec_r=rho + stress.p_r,
        nec_t=rho + stress.p_t,
        wec_extra=rho,
        sec=strong_margin(stress),
        dec_r=rho - np.abs(stress.p_r),
        dec_t=rho - np.abs(stress.p_t),
    )


def condition_minima(margins: ConditionMargins) -> dict[str, float | np.ndarray]:
    """Minimum margin of each condition; every one includes the NEC minimum.

    A condition holds at r iff its minimum there is >= -``hold_tolerance``.
    """
    nec = np.minimum(margins.nec_r, margins.nec_t)
    dec = np.minimum(margins.dec_r, margins.dec_t)
    return {
        "NEC": nec,
        "WEC": np.minimum(nec, margins.wec_extra),
        "SEC": np.minimum(nec, margins.sec),
        "DEC": np.minimum(nec, dec),
    }


def hold_tolerance(lam: float) -> float:
    """A condition holds at r iff every one of its margins is >= -max(4 eps lambda, min(HOLD_TOL, lambda)).

    The floor is capped at lambda, half the SEC margin 2 lambda, so SEC
    cannot hold on rounding at any lambda > 0.
    """
    return max(4.0 * EPS * lam, min(HOLD_TOL, lam))
