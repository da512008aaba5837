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

The mixed Ricci tensor of ds^2 = dr^2 + e^{u(r)}(-dt^2 + dphi^2 + dz^2) is
derived from the metric alone, by Christoffel contraction, and must be
``ricci_mixed``'s pair in the package sign.  At xi = 0 the exponent is
u = -2r/a: every component is then 3/a^2 = lambda (the member without a
scalar field is de Sitter), and the tortoise integral of 1/sqrt(w) = e^{r/a}
is a e^{r/a}.  Both are compared with the package's floats.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from lbverify.congruence import CongruenceConfig, kinematics_scan, tortoise_series
from lbverify.curvature import ricci_mixed
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


# Coordinates (t, r, phi, z) and the metric of the ansatz, one exponent u on
# the three non-radial axes.
COORDS = (sp.Symbol("t"), r, sp.Symbol("phi"), sp.Symbol("z"))
u = sp.Function("u")(r)
METRIC = sp.diag(-sp.exp(u), 1, sp.exp(u), sp.exp(u))


def _mixed_ricci(metric, coords):
    """R^m_n by Christoffel contraction, in the package sign: minus the sphere-positive convention."""
    n, inverse = len(coords), metric.inv()
    axes = range(n)
    d = lambda expr, k: sp.diff(expr, coords[k])
    # Gamma^l_{mk} = g^{ls} (d_k g_sm + d_m g_sk - d_s g_mk) / 2
    gamma = {
        (l, m, k): sum(inverse[l, s] * (d(metric[s, m], k) + d(metric[s, k], m) - d(metric[m, k], s)) for s in axes) / 2
        for l, m, k in itertools.product(axes, repeat=3)
    }

    def ricci(m, k):
        """R_mk = d_l Gamma^l_mk - d_k Gamma^l_ml + Gamma^l_ls Gamma^s_mk - Gamma^l_ks Gamma^s_ml."""
        return sum(
            d(gamma[l, m, k], l) - d(gamma[l, m, l], k)
            + sum(gamma[l, l, s] * gamma[s, m, k] - gamma[l, k, s] * gamma[s, m, l] for s in axes)
            for l in axes
        )

    return sp.Matrix(n, n, lambda m, k: sp.simplify(-sum(inverse[m, l] * ricci(l, k) for l in axes)))


MIXED_RICCI = _mixed_ricci(METRIC, COORDS)
#: The vacuum exponent: u = -2r/a, so that w = e^u is the printed profile at xi = 0.
VACUUM_U = -2 * r / a


def test_derived_mixed_ricci_is_the_package_pair():
    u_p, u_pp = sp.diff(u, r), sp.diff(u, r, 2)
    pair = (u_pp / 2 + 3 * u_p**2 / 4, 3 * u_pp / 2 + 3 * u_p**2 / 4)
    # ricci_mixed's own arithmetic on symbols; its float coefficients are exact binary fractions.
    package = [sp.nsimplify(c) for c in ricci_mixed(SimpleNamespace(u_p=u_p, u_pp=u_pp))]
    assert [sp.simplify(p - q) for p, q in zip(package, pair)] == [0, 0]
    expected = sp.diag(pair[0], pair[1], pair[0], pair[0])
    assert sp.simplify(MIXED_RICCI - expected) == sp.zeros(4, 4)


def test_vacuum_member_is_de_sitter():
    vacuum = MIXED_RICCI.subs(u, VACUUM_U).doit()
    assert sp.simplify(vacuum - 3 / a**2 * sp.eye(4)) == sp.zeros(4, 4)
    for lam in (0.75, 3.0, 12.0, 1e6):
        params = params_from_xi(lam, 0.0)
        want = float((3 / a**2).subs(a, params.a))
        assert abs(want - lam) <= 2 * np.spacing(lam), lam
        sample = metric_eval(params, np.linspace(-params.a, params.a, 9))
        for component in ricci_mixed(sample):
            assert np.max(np.abs(component - want)) <= 4 * np.spacing(want), lam


def test_vacuum_tortoise_is_exponential():
    # 1/sqrt(w) on the printed profile at xi = 0, and its antiderivative.
    integrand = sp.simplify(1 / sp.sqrt(sp.exp(VACUUM_U)))
    assert sp.simplify(integrand - sp.exp(r / a)) == 0
    antiderivative = sp.integrate(integrand, r)
    assert sp.simplify(antiderivative - a * sp.exp(r / a)) == 0
    fn = sp.lambdify((r, a), antiderivative, "math")
    for lam in (0.75, 3.0, 12.0):
        params = params_from_xi(lam, 0.0)
        radii = np.linspace(-params.a, params.a, 5)
        want = np.array([fn(radius, params.a) for radius in radii.tolist()])
        assert np.max(np.abs(tortoise_series(params, radii) - want) / np.spacing(want)) <= 4, lam
