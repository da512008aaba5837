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

    rho + p_r = phi'^2,   rho + p_phi = rho + p_z = 0,   rho + sum p_i = -2 lambda

hold pointwise, so the transverse null margins saturate, the strong-energy
margin is the constant -2 lambda (violated for every lambda > 0), and the
radial null margin equals the scalar-field gradient squared.

The stress takes ``curvature.ricci_mixed``'s four components, which the
caller computes once per grid block.  On a ``metric_eval`` sample the three
non-radial components are one array, so rho + p_phi and rho + p_z are exact
zeros there.  The expressions below are the general ones for every sample:
whether axes share an array is known to the curvature layer alone.
Margins are the primitive output; whether a condition holds derives from its
minimum margin (``_condition_minima``) and the single tolerance
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
    """Effective density and principal pressures in the orthonormal frame."""

    rho: float | np.ndarray
    p_r: float | np.ndarray
    p_phi: float | np.ndarray
    p_z: float | np.ndarray


@dataclass(frozen=True)
class ConditionMargins:
    nec_r: float | np.ndarray
    nec_phi: float | np.ndarray
    nec_z: float | np.ndarray
    wec_extra: float | np.ndarray
    sec: float | np.ndarray
    dec_r: float | np.ndarray
    dec_phi: float | np.ndarray
    dec_z: float | np.ndarray


def stress_decompose(ricci) -> FrameStress:
    """Orthonormal-frame (rho, p_r, p_phi, p_z) from the mixed Ricci (R^t_t, R^r_r, R^phi_phi, R^z_z)."""
    r_tt, r_rr, r_pp, r_zz = ricci
    half_r = 0.5 * (r_tt + r_rr + r_pp + r_zz)
    return FrameStress(rho=half_r - r_tt, p_r=r_rr - half_r, p_phi=r_pp - half_r, p_z=r_zz - half_r)


def condition_margins(stress: FrameStress) -> ConditionMargins:
    """Pure arithmetic margins of the four classical conditions, one per axis."""
    rho = stress.rho
    nec_r = rho + stress.p_r
    return ConditionMargins(
        nec_r=nec_r,
        nec_phi=rho + stress.p_phi,
        nec_z=rho + stress.p_z,
        wec_extra=rho,
        sec=nec_r + stress.p_phi + stress.p_z,
        dec_r=rho - np.abs(stress.p_r),
        dec_phi=rho - np.abs(stress.p_phi),
        dec_z=rho - np.abs(stress.p_z),
    )


def _condition_minima(margins: ConditionMargins) -> dict[str, float | np.ndarray]:
    """Minimum margin of each condition; every one includes the NEC minimum.

    A condition holds at r iff its minimum there is >= -``hold_tolerance``.
    """
    nec = np.minimum(np.minimum(margins.nec_r, margins.nec_phi), margins.nec_z)
    dec = np.minimum(np.minimum(margins.dec_r, margins.dec_phi), margins.dec_z)
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
