"""Independent curvature ground truth for the diagonal static ansatz.

Provides the diagonal Ricci tensor along two routes that share no code:

* closed forms in the exponent derivatives (u_i', u_i''), and
* a generic finite-difference assembly from the metric components alone
  (Christoffel contraction with numerically differentiated g_mu).

The closed forms are mixed components R^m_n.  For this ansatz they contain
no metric factor: R^n_n = (2 u_n'' + u_n' s)/4 on the non-radial axes, with
s = u1' + u2' + u3', and R^r_r = R_rr.  ``ricci_mixed`` computes the four
of them once per sample, and the field residual, phi'^2 and the frame
stresses read that one product, so none carries the rounding of e^u (about
xi^(4/3) at large xi).  ``ricci_diagonal`` lowers them to the covariant
components R_mn = g_mm R^m_m for the comparison with the finite-difference
route, which works in covariant components.

The three non-radial axes of a ``metric_eval`` sample hold one array.  This
module alone acts on that: ``ricci_mixed`` and ``field_residual`` compute a
per-axis quantity once for the three axes, with the bits the general
expressions give, and hand on components that are one array.  Every other
layer reads the components through the general expressions.

Sign convention (fixed, not an option): components are reported in the
convention for which the field equations of this family read
``R_mn = lambda g_mn + phi_,m phi_,n`` (mixed: ``R^m_n = lambda delta^m_n
+ phi'^2 delta^m_r delta^r_n``) with signature (-,+,+,+).  That is
minus the sphere-positive convention, hence the leading signs below.
Off-diagonal components vanish identically for this ansatz (no Christoffel
symbol mixes r with two distinct non-radial axes), so only the four
diagonal entries are carried.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import ParameterDomainError
from .model import MetricSample, SolutionParams, metric_eval
from .numerics import central_diff, five_point_diffs, rk4


def _one_array(axes) -> bool:
    """Whether the three axes hold one array, as in every ``metric_eval`` sample."""
    return axes[0] is axes[1] is axes[2]


def _per_axis(fn, *columns):
    """(fn of axis 0's entries of ``columns``, of axis 1's, of axis 2's).

    When every column holds one array for the three axes, fn is computed
    once and the three entries are that one value, which the general path
    would give bit for bit.
    """
    if all(_one_array(column) for column in columns):
        value = fn(*(column[0] for column in columns))
        return value, value, value
    return tuple(fn(*entries) for entries in zip(*columns))


def _axis_sum(axes):
    """axes[0] + axes[1] + axes[2].

    On one array it is 3.0 * axes[0], the same bits: x + x is exact, and
    both round 3x once.
    """
    return 3.0 * axes[0] if _one_array(axes) else axes[0] + axes[1] + axes[2]


def ricci_mixed(sample: MetricSample):
    """Closed-form mixed diagonal Ricci (R^t_t, R^r_r, R^phi_phi, R^z_z).

    R^n_n = (2 u_n'' + u_n' s)/4 on the non-radial axes, with
    s = u1' + u2' + u3', and R^r_r = sum(u_i'')/2 + sum(u_i'^2)/4.  When
    the three axes hold the same (u', u'') arrays, as every ``metric_eval``
    sample does, the non-radial components are one array, computed once,
    and so is u'^2.  Callers treat the four components as values, which the
    general expressions would give bit for bit.
    """
    s = _axis_sum(sample.u_p)
    r_tt, r_pp, r_zz = _per_axis(lambda up, upp: 0.25 * (2.0 * upp + up * s), sample.u_p, sample.u_pp)
    squares = _per_axis(lambda up: up**2, sample.u_p)
    r_rr = 0.5 * _axis_sum(sample.u_pp) + 0.25 * _axis_sum(squares)
    return r_tt, r_rr, r_pp, r_zz


def ricci_diagonal(sample: MetricSample):
    """Closed-form covariant diagonal Ricci (R_tt, R_rr, R_phiphi, R_zz).

    ``ricci_mixed``'s components lowered by (g_tt, g_rr, g_phiphi, g_zz) =
    (-e^{u1}, 1, e^{u2}, e^{u3}).
    """
    r_tt, r_rr, r_pp, r_zz = ricci_mixed(sample)
    u1, u2, u3 = sample.u
    return -np.exp(u1) * r_tt, r_rr, np.exp(u2) * r_pp, np.exp(u3) * r_zz


def ricci_diagonal_fd(metric_fn: Callable, r, h):
    """Diagonal Ricci from the metric components alone, by finite differences.

    ``metric_fn(r)`` must return the diagonal (g_tt, g_rr, g_phiphi, g_zz).
    First and second derivatives of each component come from one 5-point
    stencil with step ``h`` (the verify report takes ``FD_PAIR_STEP * a``).
    Assembly is the generic Christoffel contraction for a diagonal
    r-dependent metric; the result is flipped to the convention documented
    in this module.  Elementwise over an array of radii when ``metric_fn`` accepts arrays.
    """
    components = lambda x: np.array(metric_fn(x), dtype=float)
    g = components(r)
    gp, gpp = five_point_diffs(components, r, h)

    g1, g1p = g[1], gp[1]
    # Gamma^mu_{mu r} for all mu; Gamma^r_{nu nu} = -g_nu' / (2 g_rr) for nu != r.
    gamma_mur = gp / (2.0 * g)
    sum_gamma = np.sum(gamma_mur, axis=0)
    gamma_r_nunu = -gp / (2.0 * g1)
    d_gamma_r_nunu = -gpp / (2.0 * g1) + gp * g1p / (2.0 * g1**2)
    ricci_std = d_gamma_r_nunu + gamma_r_nunu * sum_gamma - 2.0 * gamma_mur * gamma_r_nunu
    # The rr row has its own contraction; (g'/g)^2 rather than g'^2/g^2
    # keeps the squares finite for large components.
    d_gamma_rr_sum = np.sum(gpp / (2.0 * g) - 0.5 * (gp / g) ** 2, axis=0)
    d_gamma_r_rr = gpp[1] / (2.0 * g1) - 0.5 * (g1p / g1) ** 2
    ricci_std[1] = d_gamma_r_rr - d_gamma_rr_sum + sum_gamma * gamma_mur[1] - np.sum(gamma_mur**2, axis=0)
    return tuple(-ricci_std)


def field_residual(ricci, lam: float) -> float:
    """max |R^m_m - lambda| over the t, phi and z axes of ``ricci_mixed``'s components.

    The rr equation R^r_r - lambda = phi'^2 is not checked: it is what
    defines phi'^2 (``phi_prime_sq_constraint`` returns R^r_r - lambda), so
    its residual is 0 by construction.  A NaN component makes the result NaN.
    """
    r_tt, _, r_pp, r_zz = ricci
    return float(np.max(_per_axis(lambda r_mm: np.abs(r_mm - lam).max(), (r_tt, r_pp, r_zz))))


def ode_integrate_f(params: SolutionParams, r0: float, r1: float, steps: int):
    """RK4 trajectory of f'' = 3 lambda - f'^2 started from the closed form.

    Returns (r_nodes, f_values, f_prime_values).  Fixed-step on purpose: the
    empirical convergence order of this integrator is itself a deliverable.
    """
    if steps < 16:
        raise ParameterDomainError(f"need at least 16 steps, got {steps}")
    start = metric_eval(params, r0)
    f0, fp0 = start.f, start.f_p
    if r0 == r1:
        return np.array([r0]), np.array([f0]), np.array([fp0])
    three_lam = 3.0 * params.lam

    def rhs(_r, y):
        return np.array([y[1], three_lam - y[1] ** 2])

    rs, ys = rk4(rhs, np.array([f0, fp0]), r0, r1, steps)
    return rs, ys[:, 0], ys[:, 1]


def alpha_deformation_sample(
    params: SolutionParams,
    alpha: tuple[float, float, float],
    r,
    form: str = "printed",
) -> MetricSample:
    """Metric sample with exponents u_i = base_i + alpha_i * T(r).

    ``form="printed"`` uses the quoted deformation term
    T = -(a / (3 |xi|)) artanh(|xi| e^{kr}), real only for |xi| e^{kr} < 1;
    ``form="arctan"`` uses its analytic continuation to this branch,
    T = -(a / (3 |xi|)) arctan(|xi| e^{kr}), which is the actual
    antiderivative of a multiple of e^{-f} here (T'' + f' T' = 0).
    """
    if abs(math.fsum(alpha)) > 1e-12:
        raise ParameterDomainError(f"alpha must sum to zero, got {alpha}")
    base = metric_eval(params, r)
    if all(a_i == 0.0 for a_i in alpha):
        return base
    if params.xi == 0.0:
        raise ParameterDomainError("the deformation term is undefined at xi = 0 (c1 = 0)")
    if form not in ("printed", "arctan"):
        raise ParameterDomainError(f"unknown deformation form {form!r}")
    k = params.k
    axi = abs(params.xi)
    m = axi * np.exp(k * np.asarray(r, dtype=float))
    if form == "printed":
        r_max = -math.log(axi) / k
        if np.any(m >= 1.0):
            raise ParameterDomainError(
                f"artanh argument |xi| e^(kr) >= 1; admissible interval is r < {r_max:.6g}"
            )
        t_val = -(params.a / (3.0 * axi)) * np.arctanh(m)
        t_p = -(m / axi) / (1.0 - m * m)  # equals -e^{kr}/(1 - xi^2 e^{2kr})
        t_pp = -k * (m / axi) * (1.0 + m * m) / (1.0 - m * m) ** 2
    else:
        t_val = -(params.a / (3.0 * axi)) * np.arctan(m)
        t_p = -(m / axi) / (1.0 + m * m)
        t_pp = -k * (m / axi) * (1.0 - m * m) / (1.0 + m * m) ** 2
    u = tuple(base.u[i] + alpha[i] * t_val for i in range(3))
    u_p = tuple(base.u_p[i] + alpha[i] * t_p for i in range(3))
    u_pp = tuple(base.u_pp[i] + alpha[i] * t_pp for i in range(3))
    # sum(alpha) = 0 leaves u1 + u2 + u3, and so f, unchanged.
    return MetricSample(
        r=r,
        f=base.f,
        f_p=base.f_p,
        f_pp=base.f_pp,
        u=u,
        u_p=u_p,
        u_pp=u_pp,
    )


def covariant_divergence_radial(
    sqrt_g_fn: Callable[[float], float],
    u_r_fn: Callable[[float], float],
    r: float,
    h: float,
) -> float:
    """(1/sqrt|g|) d/dr (sqrt|g| u^r) by central differences with step ``h``.

    For a static radial vector field this is the full covariant divergence.
    Near singular structure of the flux (e.g. a congruence turning point)
    ``h`` must stay well inside the distance to it.
    """
    flux = lambda x: sqrt_g_fn(x) * u_r_fn(x)
    return central_diff(flux, r, h) / sqrt_g_fn(r)
