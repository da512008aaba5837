"""Linear (Lyapunov) stability of the first-order reduction.

Writing x_i = u_i', the three non-radial field equations become the
autonomous system 2 x_i' = 4 lambda - x_i sum_j x_j.  Its stationary point
has all x_i = 2/a with a = sqrt(3/lambda); the rr equation then fixes
phi' = 0 there, and is treated as a constraint rather than an evolution law
(it supplies no evolution equation for phi', so the x-subsystem is the
dynamical content).  The linearization about the stationary point is

    2 dx_i' = -(sum_j x_j) dx_i - x_i sum_j dx_j
    =>  J = -(3/a) I - (1/a) ones(3, 3)

with spectrum {-3/a, -3/a, -6/a}: purely real and negative, hence the
stationary point is linearly stable for every lambda > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import params_from_xi

#: Note attached to every stability report: the quoted general solution of the
#: linearized profile equation f'' = 3 lambda omits the homogeneous linear
#: term c2 * r.
LINEAR_TERM_NOTE = (
    "quoted linearized profile f = (3 lambda / 2) r^2 + c1 omits the"
    " homogeneous linear term c2 * r of f'' = 3 lambda"
)


@dataclass(frozen=True)
class StabilityReport:
    fixed_point: tuple[float, float, float]
    eigenvalues: tuple[complex, complex, complex]
    verdict: str
    stationarity_residuals: tuple[float, float]


def fixed_point(lam: float) -> tuple[float, float, float]:
    """Stationary point (2/a, 2/a, 2/a) of the x-subsystem."""
    x = 2.0 / params_from_xi(lam, 0.0).a
    return (x, x, x)


def stationarity_residuals(point: tuple[float, float, float], lam: float) -> tuple[float, float]:
    """Residuals of both stationarity conditions at ``point``.

    Returns (max_i |x_i sum_j x_j - 4 lambda|, |sum_j x_j^2 - 4 lambda|);
    both vanish at the stationary point, and any inconsistency between the
    two conditions is reported rather than hidden.
    """
    total = math.fsum(point)
    res_linear = max(abs(x * total - 4.0 * lam) for x in point)
    res_quadratic = abs(math.fsum(x * x for x in point) - 4.0 * lam)
    return res_linear, res_quadratic


def jacobian(lam: float) -> np.ndarray:
    """Linearization -(3/a) I - (1/a) ones(3,3) about the stationary point."""
    a = params_from_xi(lam, 0.0).a
    return -(3.0 / a) * np.eye(3) - (1.0 / a) * np.ones((3, 3))


def jacobian_eigen(lam: float) -> StabilityReport:
    """Numeric eigenvalues of the linearization plus the stability verdict."""
    point = fixed_point(lam)
    eigs = np.linalg.eigvals(jacobian(lam))
    eigs = tuple(sorted((complex(e) for e in eigs), key=lambda e: (e.real, e.imag)))
    max_real = max(e.real for e in eigs)
    if max_real < 0.0:
        verdict = "stable"
    elif max_real > 0.0:
        verdict = "unstable"
    else:
        verdict = "marginal"
    return StabilityReport(
        fixed_point=point,
        eigenvalues=eigs,
        verdict=verdict,
        stationarity_residuals=stationarity_residuals(point, lam),
    )


def expected_eigenvalues(lam: float) -> tuple[float, float, float]:
    """Analytic spectrum {-6/a, -3/a, -3/a}, sorted ascending."""
    a = math.sqrt(3.0 / lam)
    return (-6.0 / a, -3.0 / a, -3.0 / a)
