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

The functions take the ``SolutionParams`` of ``model.params_from_xi``,
which has validated lambda; ``verdict`` is the one stability rule.
"""

from __future__ import annotations

import math

import numpy as np

from .model import SolutionParams

#: Note attached to every stability report: the quoted general solution of the
#: linearized profile equation f'' = 3 lambda omits the homogeneous linear
#: term c2 * r.
LINEAR_TERM_NOTE = (
    "quoted linearized profile f = (3 lambda / 2) r^2 + c1 omits the"
    " homogeneous linear term c2 * r of f'' = 3 lambda"
)


def fixed_point(params: SolutionParams) -> tuple[float, float, float]:
    """Stationary point (2/a, 2/a, 2/a) of the x-subsystem."""
    x = 2.0 / params.a
    return (x, x, x)


def stationarity_residuals(params: SolutionParams, point: tuple[float, float, float]) -> tuple[float, float]:
    """Residuals of both stationarity conditions at ``point``.

    Returns (max_i |x_i sum_j x_j - 4 lambda|, |sum_j x_j^2 - 4 lambda|);
    both vanish at the stationary point, and any inconsistency between the
    two conditions is reported rather than hidden.
    """
    total = math.fsum(point)
    res_linear = max(abs(x * total - 4.0 * params.lam) for x in point)
    res_quadratic = abs(math.fsum(x * x for x in point) - 4.0 * params.lam)
    return res_linear, res_quadratic


def jacobian(params: SolutionParams) -> np.ndarray:
    """Linearization -(3/a) I - (1/a) ones(3,3) about the stationary point."""
    a = params.a
    return -(3.0 / a) * np.eye(3) - (1.0 / a) * np.ones((3, 3))


def spectrum(params: SolutionParams) -> tuple[complex, complex, complex]:
    """Numeric eigenvalues of the linearization, sorted by real, then imaginary part."""
    return tuple(sorted((complex(e) for e in np.linalg.eigvals(jacobian(params))), key=lambda e: (e.real, e.imag)))


def expected_eigenvalues(params: SolutionParams) -> tuple[float, float, float]:
    """Analytic spectrum {-6/a, -3/a, -3/a}, sorted ascending."""
    a = params.a
    return (-6.0 / a, -3.0 / a, -3.0 / a)


def verdict(eigenvalues) -> str:
    """Lyapunov verdict of a spectrum: "stable" iff every real part is negative.

    "unstable" when some real part is positive, "marginal" when the largest is 0.
    """
    max_real = max(e.real for e in eigenvalues)
    if max_real < 0.0:
        return "stable"
    return "unstable" if max_real > 0.0 else "marginal"
