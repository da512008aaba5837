"""Independent curvature ground truth for the diagonal static ansatz.

Provides the diagonal Ricci tensor along two routes that share no code:

* closed forms in the exponent derivatives (u', u''), and
* a generic assembly from the metric components alone (Christoffel
  contraction of g_mu given as second-order jets in r, ``numerics.Jet``).

The closed forms are mixed components R^m_n.  For this ansatz they contain
no metric factor: R^n_n = (2 u_n'' + u_n' s)/4 on the non-radial axes, with
s = u1' + u2' + u3', and R^r_r = R_rr.  Every member of the family has one
exponent u on the three non-radial axes, so ``ricci_mixed`` returns the pair
(R^n_n, R^r_r), n standing for t, phi and z, once per sample, and the field
residual, phi'^2 and the frame stresses read that one pair, so none carries
the rounding of e^u (about xi^(4/3) at large xi).  Fed each metric
component normalised at its own point, the generic route gives the same
mixed components, (-R^t_t, R^r_r, R^phi_phi, R^z_z); the verify report
compares them with the pair and lowers each difference once, by e^u.

The paper's general form, exponents u + alpha_i T(r) that differ per axis,
has no closed-form path: ``alpha_deformation_metric`` gives its metric as
jets, which the generic route alone reads.

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

import numpy as np

from .errors import ParameterDomainError
from .model import MetricSample, SolutionParams, metric_eval
from .numerics import Jet, rk4


def ricci_mixed(sample: MetricSample):
    """Closed-form mixed diagonal Ricci as the pair (R^n_n, R^r_r), n = t, phi, z.

    With one exponent u on the three non-radial axes, s = 3 u',
    R^n_n = (2 u'' + u' s)/4 and R^r_r = 3 u''/2 + 3 u'^2/4: the bits of
    the per-axis expressions, since u' + u' + u' and 3 u' both round 3 u'
    once.
    """
    u_p, u_pp = sample.u_p, sample.u_pp
    s = 3.0 * u_p
    s *= u_p
    r_nn = 2.0 * u_pp
    r_nn += s
    r_nn *= 0.25
    r_rr = 3.0 * u_pp
    r_rr *= 0.5
    s = u_p * u_p
    s *= 3.0
    s *= 0.25
    r_rr += s
    return r_nn, r_rr


def ricci_diagonal_generic(metric):
    """Diagonal Ricci from the metric components alone.

    ``metric`` holds jets (``numerics.Jet``) in r of the diagonal
    (g_tt, g_rr, g_phiphi, g_zz), whose parts may be constants or arrays of
    one shape.  Assembly is the generic Christoffel contraction for a
    diagonal r-dependent metric; the result is flipped to the convention
    documented in this module.
    """
    g, gp, gpp = (np.array(np.broadcast_arrays(*(getattr(c, part) for c in metric))) for part in ("v", "d1", "d2"))

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
    """max |R^n_n - lambda| of ``ricci_mixed``'s pair: the t, phi and z equations.

    The rr equation R^r_r - lambda = phi'^2 is not checked: it is what
    defines phi'^2 (``phi_prime_sq_constraint`` returns R^r_r - lambda), so
    its residual is 0 by construction.  A NaN component makes the result NaN.
    """
    return float(np.abs(ricci[0] - lam).max())


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


def alpha_deformation_metric(
    params: SolutionParams,
    alpha: tuple[float, float, float],
    r,
    form: str = "printed",
):
    """Metric jets (g_tt, g_rr, g_phiphi, g_zz) of the exponents u_i = u + alpha_i * T(r).

    For ``ricci_diagonal_generic``.  Each component is normalised at its
    own point, the exp of the jet (0, u' + alpha_i T', u'' + alpha_i T''):
    that rescales t, phi and z, which leaves the mixed components
    unchanged, so the generic Ricci is (-R^t_t, R^r_r, R^phi_phi, R^z_z).

    ``form="printed"`` uses the quoted deformation term
    T = -(a / (3 |xi|)) artanh(|xi| e^{kr}), real only for |xi| e^{kr} < 1;
    ``form="arctan"`` uses its analytic continuation to this branch,
    T = -(a / (3 |xi|)) arctan(|xi| e^{kr}), which is the actual
    antiderivative of a multiple of e^{-f} here (T'' + f' T' = 0).
    """
    if abs(math.fsum(alpha)) > 1e-12:
        raise ParameterDomainError(f"alpha must sum to zero, got {alpha}")
    base = metric_eval(params, r)
    t_p = t_pp = 0.0
    if any(a_i != 0.0 for a_i in alpha):
        if params.xi == 0.0:
            raise ParameterDomainError("the deformation term is undefined at xi = 0 (c1 = 0)")
        if form not in ("printed", "arctan"):
            raise ParameterDomainError(f"unknown deformation form {form!r}")
        k = params.k
        axi = abs(params.xi)
        m = axi * np.exp(k * np.asarray(r, dtype=float))
        if form == "printed":
            r_max = -params.log_abs_xi / k
            if np.any(m >= 1.0):
                raise ParameterDomainError(
                    f"artanh argument |xi| e^(kr) >= 1; admissible interval is r < {r_max:.6g}"
                )
            t_p = -(m / axi) / (1.0 - m * m)  # equals -e^{kr}/(1 - xi^2 e^{2kr})
            t_pp = -k * (m / axi) * (1.0 + m * m) / (1.0 - m * m) ** 2
        else:
            t_p = -(m / axi) / (1.0 + m * m)
            t_pp = -k * (m / axi) * (1.0 - m * m) / (1.0 + m * m) ** 2
    # sum(alpha) = 0 leaves u1 + u2 + u3, and so f, unchanged.
    zero = np.zeros_like(base.u_p)
    g_tt, g_pp, g_zz = (Jet(zero, base.u_p + a_i * t_p, base.u_pp + a_i * t_pp).exp() for a_i in alpha)
    return -g_tt, Jet(1.0, 0.0, 0.0), g_pp, g_zz
