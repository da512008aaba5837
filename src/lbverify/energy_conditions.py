"""Orthonormal-frame effective stress and pointwise energy-condition margins.

The total effective source (scalar field plus the cosmological term moved to
the right-hand side) is read off the Einstein tensor of the metric in an
orthonormal frame, with units 8 pi G = 1:

    rho = G_tt(frame),   p_i = G_ii(frame).

For this family the trace identities

    rho + p_r = phi'^2,   rho + p_phi = rho + p_z = 0,   rho + sum p_i = -2 lambda

hold pointwise, so the transverse null margins saturate, the strong-energy
margin is the constant -2 lambda (violated for every lambda > 0), and the
radial null margin equals the scalar-field gradient squared.

Margins are the primitive output; booleans derive from the single tolerance
HOLD_TOL so that marginal saturation stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import ricci_diagonal
from .errors import ParameterDomainError
from .model import SolutionParams, metric_eval
from .numerics import bisect

#: A condition holds at r iff every one of its margins is >= -HOLD_TOL.
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


def stress_decompose(params: SolutionParams, r) -> FrameStress:
    """Orthonormal-frame (rho, p_r, p_phi, p_z) from the curvature oracle."""
    sample = metric_eval(params, r)
    r_tt, r_rr, r_pp, r_zz = ricci_diagonal(sample)
    u1, u2, u3 = sample.u
    g_tt = -np.exp(u1)
    g_pp = np.exp(u2)
    g_zz = np.exp(u3)
    ricci_scalar = r_tt / g_tt + r_rr + r_pp / g_pp + r_zz / g_zz
    rho = (r_tt - 0.5 * ricci_scalar * g_tt) / (-g_tt)
    p_r = r_rr - 0.5 * ricci_scalar
    p_phi = (r_pp - 0.5 * ricci_scalar * g_pp) / g_pp
    p_z = (r_zz - 0.5 * ricci_scalar * g_zz) / g_zz
    return FrameStress(rho=rho, p_r=p_r, p_phi=p_phi, p_z=p_z)


def condition_margins(stress: FrameStress) -> ConditionMargins:
    """Pure arithmetic margins of the four classical conditions."""
    rho = stress.rho
    return ConditionMargins(
        nec_r=rho + stress.p_r,
        nec_phi=rho + stress.p_phi,
        nec_z=rho + stress.p_z,
        wec_extra=rho,
        sec=rho + stress.p_r + stress.p_phi + stress.p_z,
        dec_r=rho - np.abs(stress.p_r),
        dec_phi=rho - np.abs(stress.p_phi),
        dec_z=rho - np.abs(stress.p_z),
    )


def _min_margin(margins: ConditionMargins, condition: str):
    """Minimum margin of one condition (NEC/WEC include their sub-margins)."""
    nec = np.minimum(np.minimum(margins.nec_r, margins.nec_phi), margins.nec_z)
    if condition == "NEC":
        return nec
    if condition == "WEC":
        return np.minimum(nec, margins.wec_extra)
    if condition == "SEC":
        return np.minimum(nec, margins.sec)
    if condition == "DEC":
        dec = np.minimum(np.minimum(margins.dec_r, margins.dec_phi), margins.dec_z)
        return np.minimum(nec, dec)
    raise ParameterDomainError(f"unknown condition {condition!r}")


def holds(margins: ConditionMargins, condition: str):
    """Boolean(s): does ``condition`` hold (all margins >= -HOLD_TOL)?"""
    return _min_margin(margins, condition) >= -HOLD_TOL


def region_scan(
    params: SolutionParams, r_min: float, r_max: float, samples: int
) -> dict[str, list[tuple[float, float]]]:
    """Sub-intervals of [r_min, r_max] where each condition holds.

    Holding runs are read off the sign of (minimum margin + HOLD_TOL) on the
    sample grid; run edges strictly inside the window are refined by
    bisection, and edges on the window boundary stay at the grid endpoints.
    A degenerate window (r_min == r_max) produces single-point intervals.
    """
    if samples < 2:
        raise ParameterDomainError(f"need at least 2 samples, got {samples}")
    if r_min == r_max:
        margins = condition_margins(stress_decompose(params, r_min))
        return {
            cond: ([(r_min, r_min)] if bool(holds(margins, cond)) else [])
            for cond in CONDITIONS
        }
    grid = np.linspace(r_min, r_max, samples)
    margins = condition_margins(stress_decompose(params, grid))
    out: dict[str, list[tuple[float, float]]] = {}
    for cond in CONDITIONS:
        ok = np.asarray(_min_margin(margins, cond)) + HOLD_TOL >= 0.0
        steps = np.diff(np.concatenate(([0], ok.astype(np.int8), [0])))
        starts = np.flatnonzero(steps == 1)
        ends = np.flatnonzero(steps == -1) - 1
        fn = lambda x: float(
            _min_margin(condition_margins(stress_decompose(params, x)), cond) + HOLD_TOL
        )
        out[cond] = [
            (
                float(grid[i] if i == 0 else bisect(fn, grid[i - 1], grid[i])),
                float(grid[j] if j == samples - 1 else bisect(fn, grid[j], grid[j + 1])),
            )
            for i, j in zip(starts, ends)
        ]
    return out
