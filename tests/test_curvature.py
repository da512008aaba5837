import math
from types import SimpleNamespace

import numpy as np
import pytest

from lbverify.curvature import (
    alpha_deformation_metric,
    field_residual,
    ode_integrate_f,
    ricci_diagonal_generic,
    ricci_mixed,
)
from lbverify.energy_conditions import _condition_minima, condition_margins, stress_decompose
from lbverify.errors import ParameterDomainError
from lbverify.model import log_w_jet, metric_eval, params_from_xi
from lbverify.numerics import EPS, Jet
from lbverify.scalar_field import phi_prime_sq_constraint
from lbverify.suites import build_verify_report


#: Bound of the dual-path gap in units of eps * max |R^m_m|: the worst of the
#: spot and random-draw radii below is 4.2.
DUAL_PATH_EPS = 64.0


def _generic_mixed_ricci(params, r):
    """Mixed Ricci (R^t_t, R^r_r, R^phi_phi, R^z_z) of the generic contraction, as the verify report builds it.

    Each component is normalised at its own point, a jet (1, l', l'' + l'^2)
    of l = log w, which leaves the mixed components; the generic path
    returns -R^t_t.
    """
    log_w = log_w_jet(params, r)
    unit = (log_w - log_w.v).exp()
    r_tt, r_rr, r_pp, r_zz = ricci_diagonal_generic((-unit, Jet(1.0, 0.0, 0.0), unit, unit))
    return -r_tt, r_rr, r_pp, r_zz


def _closed_mixed_ricci(params, r):
    """``ricci_mixed``'s pair spread over the four axes (R^t_t, R^r_r, R^phi_phi, R^z_z)."""
    r_nn, r_rr = ricci_mixed(metric_eval(params, r))
    return r_nn, r_rr, r_nn, r_nn


def _deformation_term(params, r, form):
    """The jet of T = -(a / (3 |xi|)) F(|xi| e^{kr}), F = artanh ("printed") or arctan, by the chain rule."""
    m = (Jet.variable(r) * params.k).exp() * abs(params.xi)
    if form == "printed":
        f0, f1, f2 = np.arctanh(m.v), 1.0 / (1.0 - m.v**2), 2.0 * m.v / (1.0 - m.v**2) ** 2
    else:
        f0, f1, f2 = np.arctan(m.v), 1.0 / (1.0 + m.v**2), -2.0 * m.v / (1.0 + m.v**2) ** 2
    return Jet(f0, f1 * m.d1, f1 * m.d2 + f2 * m.d1 * m.d1) * (-params.a / (3.0 * abs(params.xi)))


def _deformed_exponents(params, alpha, r, form):
    """Per axis, the jet (u_i, u_i', u_i'') of u_i = u + alpha_i T on ``metric_eval``'s u."""
    base, t = metric_eval(params, r), _deformation_term(params, r, form)
    return [Jet(base.u + a_i * t.v, base.u_p + a_i * t.d1, base.u_pp + a_i * t.d2) for a_i in alpha]


def test_flat_metric_has_zero_ricci():
    flat = SimpleNamespace(u_p=0.0, u_pp=0.0)
    assert ricci_mixed(flat) == (0.0, 0.0)


def test_dual_path_ricci_spot():
    params = params_from_xi(3.0, 1.0)
    for r in (0.3, np.array([-0.9, 0.3, 1.1])):
        closed = _closed_mixed_ricci(params, r)
        generic = _generic_mixed_ricci(params, r)
        assert np.max(np.abs(np.subtract(closed, generic))) <= DUAL_PATH_EPS * EPS * np.max(np.abs(closed))


def test_dual_path_huge_xi_raises_no_overflow_warning():
    # The components reach about 1e200 here, and RuntimeWarnings are errors
    # under the test configuration.
    rpt = build_verify_report(3.0, 1e150)
    row = next(row for row in rpt.rows if row.check == "ricci-dual-path")
    assert math.isfinite(row.value)


def test_dual_path_ricci_random_draws():
    rng = np.random.default_rng(61803)
    worst = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.75, 12.0))
        xi = float(rng.uniform(0.0, 2.0))
        params = params_from_xi(lam, xi)
        r = float(rng.uniform(-params.a, params.a))
        closed = _closed_mixed_ricci(params, r)
        generic = _generic_mixed_ricci(params, r)
        gap = max(abs(float(c) - d) for c, d in zip(closed, generic))
        worst = max(worst, gap / (EPS * max(abs(float(c)) for c in closed)))
    assert worst <= DUAL_PATH_EPS


def test_rr_component_reproduces_constraint():
    params = params_from_xi(3.0, 1.0)
    for r in (-1.5, 0.0, 0.8):
        sample = metric_eval(params, r)
        _, r_rr = ricci_mixed(sample)
        assert abs((r_rr - params.lam) - phi_prime_sq_constraint(ricci_mixed(sample), params.lam)) < 1e-9


@pytest.mark.parametrize("lam,xi", [(0.75, 0.5), (3.0, 1.0), (12.0, 2.0)])
def test_exponent_system_reproduced(lam, xi):
    # 2 u_i'' + u_i' sum_j u_j' - 4 lambda = 0 on the closed form.
    params = params_from_xi(lam, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 1024)
    s = metric_eval(params, grid)
    total = s.u_p + s.u_p + s.u_p
    assert np.max(np.abs(2.0 * s.u_pp + s.u_p * total - 4.0 * lam)) < 1e-9


def test_field_residual_exact_solution():
    params = params_from_xi(3.0, 1.0)
    assert field_residual(ricci_mixed(metric_eval(params, 0.0)), params.lam) < 1e-9


def test_field_residual_vacuum_member():
    # The xi = 0 member solves the vacuum equations with the constant term
    # exactly (within rounding): this is the scalar-free adjudication.
    params = params_from_xi(3.0, 0.0)
    grid = np.linspace(-2.0, 2.0, 1024)
    assert field_residual(ricci_mixed(metric_eval(params, grid)), params.lam) < 1e-12


def test_field_residual_detects_corruption():
    params = params_from_xi(3.0, 1.0)
    s = metric_eval(params, 0.4)
    corrupted = SimpleNamespace(u_p=s.u_p * 1.01, u_pp=s.u_pp * 1.01)
    assert field_residual(ricci_mixed(corrupted), params.lam) > 1e-3


@pytest.mark.parametrize("xi", (1e4, 1e8, 1e10))
def test_field_residual_free_of_metric_rounding_at_large_xi(xi):
    # e^u reaches about xi^(4/3) here.  The covariant residual R_mn - lambda
    # g_mn carried its rounding (1.5e-8 at xi = 1e4, above the 1e-8 row
    # tolerance); the mixed components contain no metric factor.
    params = params_from_xi(3.0, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    assert field_residual(ricci_mixed(metric_eval(params, grid)), params.lam) <= 1e-13


_DEFORMED_GRIDS = pytest.mark.parametrize(
    "form, r",
    (("arctan", np.linspace(-2.0, 2.0, 65)), ("printed", np.linspace(-2.0, -0.1, 65))),
    ids=("arctan", "printed"),
)


@_DEFORMED_GRIDS
def test_mixed_components_match_covariant_on_distinct_axes(form, r):
    # A deformed metric has three distinct exponents.  The generic Ricci of
    # alpha_deformation_metric, normalised at each point, gives the mixed
    # components (-R^t_t, R^r_r, R^phi_phi, R^z_z); they must equal the
    # generic covariant components of the metric itself divided by
    # |g_mm| = (e^u1, 1, e^u2, e^u3).
    params = params_from_xi(3.0, 1.0)
    alpha = (0.3, -0.1, -0.2)
    g_tt, g_pp, g_zz = (u.exp() for u in _deformed_exponents(params, alpha, r, form))
    covariant = ricci_diagonal_generic((-g_tt, Jet(1.0, 0.0, 0.0), g_pp, g_zz))
    mixed = ricci_diagonal_generic(alpha_deformation_metric(params, alpha, r, form))
    for got, r_mm, g_mm in zip(mixed, covariant, (g_tt.v, 1.0, g_pp.v, g_zz.v)):
        want = r_mm / g_mm
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), params.lam))


@_DEFORMED_GRIDS
def test_generic_path_matches_per_axis_closed_form_on_distinct_axes(form, r):
    # The closed forms with one bracket per axis, written out on the
    # deformed exponents: R^i_i = (2 u_i'' + u_i' s)/4 with s = sum u_j',
    # and R^r_r = sum(u_i'')/2 + sum(u_i'^2)/4.
    params = params_from_xi(3.0, 1.0)
    exponents = _deformed_exponents(params, (0.3, -0.1, -0.2), r, form)
    s = sum(u.d1 for u in exponents)
    closed_rr = 0.5 * sum(u.d2 for u in exponents) + 0.25 * sum(u.d1**2 for u in exponents)
    closed = [0.25 * (2.0 * u.d2 + u.d1 * s) for u in exponents]
    r_tt, r_rr, r_pp, r_zz = ricci_diagonal_generic(alpha_deformation_metric(params, (0.3, -0.1, -0.2), r, form))
    scale = max(float(np.max(np.abs(c))) for c in (*closed, closed_rr))
    for got, want in zip((-r_tt, r_rr, r_pp, r_zz), (closed[0], closed_rr, closed[1], closed[2])):
        assert np.max(np.abs(got - want)) <= DUAL_PATH_EPS * EPS * scale


def test_field_residual_max_is_over_tt_phi_z():
    # The rr residual R^r_r - lambda - phi'^2 is bitwise zero by
    # construction, so the residual reduces the t, phi and z component alone.
    params = params_from_xi(3.0, 1.0)
    s = metric_eval(params, np.linspace(-2.0, 2.0, 65))
    mixed = ricci_mixed(s)
    res = field_residual(mixed, params.lam)
    assert isinstance(res, float)
    r_rr = mixed[1]
    assert np.all(r_rr - params.lam - phi_prime_sq_constraint(mixed, params.lam) == 0.0)
    assert res == float(np.max(np.abs(mixed[0] - params.lam)))


def test_transverse_null_margins_exactly_zero_on_shared_axes():
    # rho + p_t = (R/2 - R^n_n) + (R^n_n - R/2), and IEEE subtraction is
    # antisymmetric, so the one transverse null margin is an exact zero,
    # not merely small.
    params = params_from_xi(3.0, 0.7)
    grid = np.linspace(-2.0, 2.0, 257)
    margins = condition_margins(stress_decompose(ricci_mixed(metric_eval(params, grid))))
    assert np.all(margins.nec_t == 0.0)


def test_ode_degenerate_interval():
    params = params_from_xi(3.0, 1.0)
    rs, fs, fps = ode_integrate_f(params, 0.5, 0.5, 100)
    start = metric_eval(params, 0.5)
    assert rs.tolist() == [0.5]
    assert fs[0] == start.f and fps[0] == start.f_p


def test_ode_matches_closed_form():
    params = params_from_xi(3.0, 1.0)
    rs, fs, fps = ode_integrate_f(params, 0.0, 2.0, 10_000)
    end = metric_eval(params, 2.0)
    assert abs(fs[-1] - end.f) < 1e-7
    assert abs(fps[-1] - end.f_p) < 1e-7


def test_ode_convergence_order():
    params = params_from_xi(3.0, 1.0)
    f_end = metric_eval(params, 2.0).f
    steps = [100, 200, 400, 800]
    errors = []
    for n in steps:
        _, fs, _ = ode_integrate_f(params, 0.0, 2.0, n)
        errors.append(abs(fs[-1] - f_end))
    slope = np.polyfit(np.log([1.0 / n for n in steps]), np.log(errors), 1)[0]
    assert slope >= 3.5


def test_ode_too_few_steps():
    params = params_from_xi(3.0, 1.0)
    with pytest.raises(ParameterDomainError, match="at least 16 steps"):
        ode_integrate_f(params, 0.0, 1.0, 8)


def _deformed_residual(params, alpha, r, form="printed"):
    """max |R^m_m - lambda| over t, phi and z of the generic Ricci of ``alpha_deformation_metric``."""
    r_tt, _, r_pp, r_zz = ricci_diagonal_generic(alpha_deformation_metric(params, alpha, r, form))
    return max(float(np.max(np.abs(r_mm - params.lam))) for r_mm in (-r_tt, r_pp, r_zz))


def test_deformation_zero_reduces_to_base():
    params = params_from_xi(3.0, 1.0)
    assert _deformed_residual(params, (0.0, 0.0, 0.0), 0.4) < 1e-8
    r_nn, r_rr = ricci_mixed(metric_eval(params, 0.4))
    generic_tt, generic_rr, generic_pp, generic_zz = ricci_diagonal_generic(
        alpha_deformation_metric(params, (0.0, 0.0, 0.0), 0.4)
    )
    bound = DUAL_PATH_EPS * EPS * max(abs(r_nn), abs(r_rr))
    for got, want in ((-generic_tt, r_nn), (generic_rr, r_rr), (generic_pp, r_nn), (generic_zz, r_nn)):
        assert abs(got - want) <= bound


def test_deformation_printed_form_breaks_equations_linearly():
    # The quoted deformation term is not a homogeneous solution on this
    # branch: the residual scales linearly with the deformation size.
    params = params_from_xi(3.0, 1.0)
    eps_values = (1e-2, 1e-3, 1e-4)
    residuals = [
        _deformed_residual(params, (e, -e, 0.0), -1.0, form="printed")
        for e in eps_values
    ]
    assert all(res > 0.0 for res in residuals)
    slope = np.polyfit(np.log(eps_values), np.log(residuals), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_deformation_continued_form_solves_equations():
    # The analytic continuation of the same term is the true homogeneous
    # solution: any zero-sum deformation built with it stays a solution.
    params = params_from_xi(3.0, 1.0)
    for eps in (1e-3, 0.1, 0.5):
        res = _deformed_residual(params, (eps, -eps, 0.0), -1.0, form="arctan")
        assert res < 1e-10
    res = _deformed_residual(params, (0.3, 0.2, -0.5), 0.7, form="arctan")
    assert res < 1e-10


def test_deformation_domain_error():
    params = params_from_xi(3.0, 1.0)
    with pytest.raises(ParameterDomainError, match="admissible"):
        _deformed_residual(params, (1.0, -1.0, 0.0), 0.0, form="printed")


def test_deformation_alpha_sum_enforced():
    params = params_from_xi(3.0, 1.0)
    with pytest.raises(ParameterDomainError):
        _deformed_residual(params, (1.0, 0.0, 0.0), -1.0)


def test_deformation_undefined_for_vacuum_member():
    params = params_from_xi(3.0, 0.0)
    with pytest.raises(ParameterDomainError, match="undefined at xi = 0"):
        _deformed_residual(params, (1e-3, -1e-3, 0.0), -1.0)


def test_deformation_rejects_an_unknown_form():
    # A nonzero alpha at xi != 0 reaches the form check.
    params = params_from_xi(3.0, 1.0)
    with pytest.raises(ParameterDomainError, match="unknown deformation form"):
        alpha_deformation_metric(params, (0.3, -0.1, -0.2), -1.0, form="bogus")


def test_covariant_divergence_of_static_vector():
    # For sqrt|g| = r^2 and u^r = 1/r^2 the divergence (sqrt|g| u^r)' / sqrt|g|
    # vanishes; jets in r give it as the flux's first derivative.
    r = Jet.variable(2.0)
    volume = r * r
    div = (volume * r**-2.0).d1 / volume.v
    assert abs(div) < 1e-10


def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("lam", (1e-12, 3.0, 1e12))
@pytest.mark.parametrize("xi", (0.0, 1.0, 1e154))
@pytest.mark.parametrize("nan", (False, True))
def test_shared_axis_path_gives_the_general_path_bits(lam, xi, nan):
    # The three non-radial axes share one exponent, so ricci_mixed,
    # field_residual, the frame stress and the margins compute each
    # transverse quantity once.  The three-axis general expressions,
    # written out here on three copies of the exponent columns, must give
    # the same bits, NaN and the sign of zero included.
    params = params_from_xi(lam, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    if nan:
        grid[1000] = np.nan
    sample = metric_eval(params, grid)
    u_p = [np.array(sample.u_p, copy=True) for _ in range(3)]
    u_pp = [np.array(sample.u_pp, copy=True) for _ in range(3)]
    s = u_p[0] + u_p[1] + u_p[2]
    r_tt, r_pp, r_zz = (0.25 * (2.0 * upp + up * s) for up, upp in zip(u_p, u_pp))
    r_rr = 0.5 * (u_pp[0] + u_pp[1] + u_pp[2]) + 0.25 * (u_p[0] ** 2 + u_p[1] ** 2 + u_p[2] ** 2)
    half_r = 0.5 * (r_tt + r_rr + r_pp + r_zz)
    rho, p_r, p_phi, p_z = half_r - r_tt, r_rr - half_r, r_pp - half_r, r_zz - half_r
    nec_r, nec_phi, nec_z = rho + p_r, rho + p_phi, rho + p_z
    dec_r, dec_phi, dec_z = rho - np.abs(p_r), rho - np.abs(p_phi), rho - np.abs(p_z)
    sec = nec_r + p_phi + p_z
    nec = np.minimum(np.minimum(nec_r, nec_phi), nec_z)
    minima = {
        "NEC": nec,
        "WEC": np.minimum(nec, rho),
        "SEC": np.minimum(nec, sec),
        "DEC": np.minimum(nec, np.minimum(np.minimum(dec_r, dec_phi), dec_z)),
    }

    ricci = ricci_mixed(sample)
    r_nn, pair_rr = ricci
    for got, want in ((r_nn, r_tt), (pair_rr, r_rr), (r_nn, r_pp), (r_nn, r_zz)):
        assert _same_bits(got, want)
    residual = field_residual(ricci, lam)
    assert _same_bits(residual, float(np.max([np.abs(r_mm - lam).max() for r_mm in (r_tt, r_pp, r_zz)])))
    assert np.isnan(residual) == nan

    stress = stress_decompose(ricci)
    for got, want in ((stress.rho, rho), (stress.p_r, p_r), (stress.p_t, p_phi), (stress.p_t, p_z)):
        assert _same_bits(got, want)
    margins = condition_margins(stress)
    pairs = {
        "nec_r": (margins.nec_r, nec_r), "nec_phi": (margins.nec_t, nec_phi), "nec_z": (margins.nec_t, nec_z),
        "wec_extra": (margins.wec_extra, rho), "sec": (margins.sec, sec),
        "dec_r": (margins.dec_r, dec_r), "dec_phi": (margins.dec_t, dec_phi), "dec_z": (margins.dec_t, dec_z),
    }
    for name, (got, want) in pairs.items():
        assert _same_bits(got, want), name
    for cond, minimum in _condition_minima(margins).items():
        assert _same_bits(minimum, minima[cond]), cond


@pytest.mark.parametrize("sigma", (0.25, 1.0))
def test_levi_civita_vacuum_is_ricci_flat_on_the_fd_path(sigma):
    # The static Levi-Civita vacuum
    #   ds^2 = -rho^{4s} dt^2 + rho^{4s(2s-1)} (drho^2 + dz^2) + rho^{2(1-2s)} dphi^2
    # is Ricci-flat for every s.  Its g_rr is not constant, unlike every
    # metric of the family, so the g_rr' terms of the generic contraction
    # are exercised, on jets of the rho powers.
    rho = Jet.variable(np.linspace(0.5, 2.0, 61))
    rr = rho ** (4.0 * sigma * (2.0 * sigma - 1.0))
    ricci = ricci_diagonal_generic((-(rho ** (4.0 * sigma)), rr, rho ** (2.0 * (1.0 - 2.0 * sigma)), rr))
    assert max(float(np.max(np.abs(r_mm))) for r_mm in ricci) <= 1e-6
