"""Symbolic ground truth for the congruence kinematics in x = w/E^2.

The 4-velocity of the marginally bound radial geodesics of
ds^2 = dr^2 + w(r)(-dt^2 + dphi^2 + dz^2) has u^r = sqrt(E^2/w - 1), and
sqrt|g| = w^{3/2}.  From it sympy derives the expansion
theta = w^{-3/2} (w^{3/2} u^r)', its proper-time rate theta' u^r, and the
printed null rate (1/w) sqrt(E^2 - w) [w'' - (3/2) w'^2 / w].  Substituting
w = E^2 x, w' = w u' and w'' = w (u'' + u'^2) must leave exactly the
package's forms, written out below.  The derived forms, evaluated on the
printed profile w = e^{-2r/a} (1 + xi^2 e^{6r/a})^{2/3}, are then compared
with a scan's columns.
"""

import numpy as np
import pytest

from lbverify.congruence import CongruenceConfig, kinematics_scan
from lbverify.model import metric_eval, params_from_xi

sp = pytest.importorskip("sympy")

r = sp.Symbol("r", real=True)
a, E, x, u_p, u_pp = sp.symbols("a E x u_p u_pp", positive=True)
xi = sp.Symbol("xi", nonnegative=True)
w = sp.Function("w")(r)

U_R = sp.sqrt(E**2 / w - 1)
THETA = sp.diff(w ** sp.Rational(3, 2) * U_R, r) / w ** sp.Rational(3, 2)
RATE = sp.diff(THETA, r) * U_R
NULL_RATE = sp.sqrt(E**2 - w) / w * (sp.diff(w, r, 2) - sp.Rational(3, 2) * sp.diff(w, r) ** 2 / w)

# The package's forms, as ``congruence._theta``, ``congruence._rate`` and
# ``KinematicsScan.null_rate`` compute them.
PACKAGE_FORMS = {
    "theta": u_p * (2 - 3 * x) / (2 * sp.sqrt(x) * sp.sqrt(1 - x)),
    "dtheta_dtau": ((u_pp + u_p**2) * (2 - 3 * x) - 3 * x * u_p**2) / (2 * x)
    - u_p**2 * (2 - 3 * x) * (3 - 4 * x) / (4 * x * (1 - x)),
    "null_rate": E * sp.sqrt(1 - x) * (u_pp - u_p**2 / 2),
}
DERIVED = {"theta": THETA, "dtheta_dtau": RATE, "null_rate": NULL_RATE, "u_r": U_R}


def _in_x(expr):
    """expr with w'' = w (u'' + u'^2), w' = w u' and then w = E^2 x substituted."""
    expr = expr.subs(sp.Derivative(w, (r, 2)), w * (u_pp + u_p**2)).subs(sp.Derivative(w, r), w * u_p)
    return expr.subs(w, E**2 * x)


@pytest.mark.parametrize("column", sorted(PACKAGE_FORMS))
def test_x_forms_are_the_derived_kinematics(column):
    assert sp.simplify(_in_x(DERIVED[column]) - PACKAGE_FORMS[column]) == 0


@pytest.mark.parametrize(
    ("lam", "xi_value", "e_tilde"),
    [(3.0, 0.0, 2.0), (3.0, 0.5, 2.0), (0.75, 1.3, 1.7), (12.0, 0.1, 3.0), (3.0, 1.0, 1e3)],
)
def test_scan_columns_match_the_derived_forms_on_the_printed_profile(lam, xi_value, e_tilde):
    profile = sp.exp(-2 * r / a) * (1 + xi**2 * sp.exp(6 * r / a)) ** sp.Rational(2, 3)
    params = params_from_xi(lam, xi_value)
    grid = np.linspace(-params.a, params.a, 9)
    scan = kinematics_scan(metric_eval(params, grid), CongruenceConfig(e_tilde=e_tilde))
    assert scan.r.size >= 3
    for column, expr in DERIVED.items():
        fn = sp.lambdify((r, a, xi, E), expr.subs(w, profile).doit(), "math")
        want = np.array([fn(radius, params.a, xi_value, e_tilde) for radius in scan.r.tolist()])
        got = getattr(scan, column)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), column
