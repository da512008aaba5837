import math

import numpy as np
import pytest

from lbverify.curvature import (
    alpha_deformation_sample,
    covariant_divergence_radial,
    field_residual,
    ode_integrate_f,
    ricci_diagonal,
    ricci_diagonal_fd,
    ricci_mixed,
)
from lbverify.energy_conditions import _condition_minima, condition_margins, stress_decompose
from lbverify.errors import ParameterDomainError
from lbverify.model import MetricSample, metric_eval, params_from_xi
from lbverify.numerics import FD_FIRST_STEP, FD_PAIR_STEP
from lbverify.scalar_field import phi_prime_sq_constraint
from lbverify.suites import build_verify_report


def _metric_fn(params):
    def fn(r):
        m = metric_eval(params, r)
        return (-np.exp(m.u[0]), np.ones_like(m.u[0]), np.exp(m.u[1]), np.exp(m.u[2]))

    return fn


def test_flat_metric_has_zero_ricci():
    zero = 0.0
    flat = MetricSample(
        r=0.0, f=0.0, f_p=0.0, f_pp=0.0,
        u=(zero,) * 3, u_p=(zero,) * 3, u_pp=(zero,) * 3,
    )
    assert ricci_diagonal(flat) == (0.0, 0.0, 0.0, 0.0)


def test_dual_path_ricci_spot():
    params = params_from_xi(3.0, 1.0)
    for r in (0.3, np.array([-0.9, 0.3, 1.1])):
        closed = ricci_diagonal(metric_eval(params, r))
        fd = ricci_diagonal_fd(_metric_fn(params), r, FD_PAIR_STEP * params.a)
        assert np.max(np.abs(np.subtract(closed, fd))) < 1e-6


def test_dual_path_huge_xi_raises_no_overflow_warning():
    # g'^2 / (2 g^2) overflowed for components near 1e200; RuntimeWarnings
    # are errors under the test configuration.
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
        closed = ricci_diagonal(metric_eval(params, r))
        fd = ricci_diagonal_fd(_metric_fn(params), r, FD_PAIR_STEP * params.a)
        worst = max(worst, max(abs(float(c) - d) for c, d in zip(closed, fd)))
    assert worst < 1e-6


def test_rr_component_reproduces_constraint():
    params = params_from_xi(3.0, 1.0)
    for r in (-1.5, 0.0, 0.8):
        sample = metric_eval(params, r)
        _, r_rr, _, _ = ricci_diagonal(sample)
        assert abs((r_rr - params.lam) - phi_prime_sq_constraint(ricci_mixed(sample), params.lam)) < 1e-9


@pytest.mark.parametrize("lam,xi", [(0.75, 0.5), (3.0, 1.0), (12.0, 2.0)])
def test_exponent_system_reproduced(lam, xi):
    # 2 u_i'' + u_i' sum_j u_j' - 4 lambda = 0 on the closed form.
    params = params_from_xi(lam, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 1024)
    s = metric_eval(params, grid)
    total = s.u_p[0] + s.u_p[1] + s.u_p[2]
    for i in range(3):
        assert np.max(np.abs(2.0 * s.u_pp[i] + s.u_p[i] * total - 4.0 * lam)) < 1e-9


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
    corrupted = MetricSample(
        r=s.r, f=s.f, f_p=s.f_p, f_pp=s.f_pp,
        u=(s.u[0] * 1.01, s.u[1], s.u[2]),
        u_p=(s.u_p[0] * 1.01, s.u_p[1], s.u_p[2]),
        u_pp=(s.u_pp[0] * 1.01, s.u_pp[1], s.u_pp[2]),
    )
    assert field_residual(ricci_mixed(corrupted), params.lam) > 1e-3


@pytest.mark.parametrize("xi", (1e4, 1e8, 1e10))
def test_field_residual_free_of_metric_rounding_at_large_xi(xi):
    # e^u reaches about xi^(4/3) here.  The covariant residual R_mn - lambda
    # g_mn carried its rounding (1.5e-8 at xi = 1e4, above the 1e-8 row
    # tolerance); the mixed components contain no metric factor.
    params = params_from_xi(3.0, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    assert field_residual(ricci_mixed(metric_eval(params, grid)), params.lam) <= 1e-13


@pytest.mark.parametrize(
    "form, r",
    (("arctan", np.linspace(-2.0, 2.0, 65)), ("printed", np.linspace(-2.0, -0.1, 65))),
    ids=("arctan", "printed"),
)
def test_mixed_components_match_covariant_on_distinct_axes(form, r):
    # A deformed sample has three distinct exponent arrays, so the residual
    # and the stresses go through one bracket per axis, not the shared one.
    # Both must equal the covariant formulas divided by g_mm = (-e^u1, 1,
    # e^u2, e^u3), assembled here from ricci_diagonal.
    params = params_from_xi(3.0, 1.0)
    lam = params.lam
    s = alpha_deformation_sample(params, (0.3, -0.1, -0.2), r, form)
    assert len({id(u_p) for u_p in s.u_p}) == 3
    r_tt, r_rr, r_pp, r_zz = ricci_diagonal(s)
    g_tt, g_pp, g_zz = -np.exp(s.u[0]), np.exp(s.u[1]), np.exp(s.u[2])

    def close(got, covariant, g_mm):
        want = covariant / g_mm
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), lam))

    mixed = ricci_mixed(s)
    mixed_tt, _, mixed_pp, mixed_zz = mixed
    close(mixed_tt - lam, r_tt - lam * g_tt, g_tt)
    close(phi_prime_sq_constraint(mixed, lam), r_rr - lam, 1.0)
    close(mixed_pp - lam, r_pp - lam * g_pp, g_pp)
    close(mixed_zz - lam, r_zz - lam * g_zz, g_zz)

    ricci_scalar = r_tt / g_tt + r_rr + r_pp / g_pp + r_zz / g_zz
    stress = stress_decompose(mixed)
    close(stress.rho, r_tt - 0.5 * ricci_scalar * g_tt, -g_tt)
    close(stress.p_r, r_rr - 0.5 * ricci_scalar, 1.0)
    close(stress.p_phi, r_pp - 0.5 * ricci_scalar * g_pp, g_pp)
    close(stress.p_z, r_zz - 0.5 * ricci_scalar * g_zz, g_zz)
    if form == "printed":
        # Not a solution: the transverse null margin rho + p_phi = R^phi_phi
        # - R^t_t is visibly nonzero on distinct axes.
        assert np.max(np.abs(condition_margins(stress).nec_phi)) > 1e-3


@pytest.mark.parametrize("deformed", (False, True), ids=("metric_eval", "arctan"))
def test_field_residual_max_is_over_tt_phi_z(deformed):
    # The rr residual R^r_r - lambda - phi'^2 is bitwise zero by
    # construction, so the residual reduces the three other axes alone.
    params = params_from_xi(3.0, 1.0)
    r = np.linspace(-2.0, 2.0, 65)
    s = alpha_deformation_sample(params, (0.3, -0.1, -0.2), r, "arctan") if deformed else metric_eval(params, r)
    mixed = ricci_mixed(s)
    res = field_residual(mixed, params.lam)
    assert isinstance(res, float)
    r_rr = ricci_diagonal(s)[1]
    assert np.all(r_rr - params.lam - phi_prime_sq_constraint(mixed, params.lam) == 0.0)
    r_tt, _, r_pp, r_zz = mixed
    axes = tuple(r_mm - params.lam for r_mm in (r_tt, r_pp, r_zz))
    assert res == max(float(np.max(np.abs(res_m))) for res_m in axes)


def test_transverse_null_margins_exactly_zero_on_shared_axes():
    # rho + p_phi = R^phi_phi - R^t_t, and on a metric_eval sample the two
    # mixed components are one array (all axes share u), so the transverse
    # null margins are exact zeros there, not merely small.  Their energy
    # rows keep auditing distinct-axis samples, as in the test above.
    params = params_from_xi(3.0, 0.7)
    grid = np.linspace(-2.0, 2.0, 257)
    margins = condition_margins(stress_decompose(ricci_mixed(metric_eval(params, grid))))
    assert np.all(margins.nec_phi == 0.0) and np.all(margins.nec_z == 0.0)


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
    """field_residual of ``alpha_deformation_sample(params, alpha, r, form)``."""
    return field_residual(ricci_mixed(alpha_deformation_sample(params, alpha, r, form)), params.lam)


def test_deformation_zero_reduces_to_base():
    params = params_from_xi(3.0, 1.0)
    sample = alpha_deformation_sample(params, (0.0, 0.0, 0.0), 0.4)
    assert field_residual(ricci_mixed(sample), params.lam) < 1e-8
    base = metric_eval(params, 0.4)
    assert sample.u == base.u


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
        alpha_deformation_sample(params, (0.3, -0.1, -0.2), -1.0, form="bogus")


def test_covariant_divergence_of_static_vector():
    # For sqrt|g| = r^2 and u^r = 1/r^2 the divergence vanishes.
    div = covariant_divergence_radial(lambda r: r * r, lambda r: 1.0 / (r * r), 2.0, FD_FIRST_STEP)
    assert abs(div) < 1e-10


def _distinct_axes(sample):
    """A copy of ``sample`` whose three axes are distinct arrays: it takes the general path."""
    copies = lambda axes: tuple(np.array(axis, copy=True) for axis in axes)
    return MetricSample(
        r=sample.r, f=sample.f, f_p=sample.f_p, f_pp=sample.f_pp,
        u=copies(sample.u), u_p=copies(sample.u_p), u_pp=copies(sample.u_pp),
    )


def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("lam", (1e-12, 3.0, 1e12))
@pytest.mark.parametrize("xi", (0.0, 1.0, 1e154))
@pytest.mark.parametrize("nan", (False, True))
def test_shared_axis_path_gives_the_general_path_bits(lam, xi, nan):
    # A metric_eval sample has one array for the three axes, and ricci_mixed
    # and field_residual compute each per-axis quantity once on it.  A copy
    # with three distinct arrays goes through the general expressions, which
    # must give the same bits, NaN included, and so must every layer that
    # reads the components.
    params = params_from_xi(lam, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    if nan:
        grid[1000] = np.nan
    shared = metric_eval(params, grid)
    general = _distinct_axes(shared)
    assert shared.u_p[0] is shared.u_p[2] and general.u_p[0] is not general.u_p[2]

    ricci, ricci_general = ricci_mixed(shared), ricci_mixed(general)
    r_tt, _, r_pp, r_zz = ricci
    assert r_tt is r_pp is r_zz
    for got, want in zip(ricci, ricci_general):
        assert _same_bits(got, want)
    assert _same_bits(field_residual(ricci, lam), field_residual(ricci_general, lam))
    assert np.isnan(field_residual(ricci, lam)) == nan

    stress, stress_general = stress_decompose(ricci), stress_decompose(ricci_general)
    for name in ("rho", "p_r", "p_phi", "p_z"):
        assert _same_bits(getattr(stress, name), getattr(stress_general, name)), name
    margins, margins_general = condition_margins(stress), condition_margins(stress_general)
    for name in ("nec_r", "nec_phi", "nec_z", "wec_extra", "sec", "dec_r", "dec_phi", "dec_z"):
        assert _same_bits(getattr(margins, name), getattr(margins_general, name)), name
    minima, minima_general = _condition_minima(margins), _condition_minima(margins_general)
    for cond, minimum in minima.items():
        assert _same_bits(minimum, minima_general[cond]), cond


@pytest.mark.parametrize("sigma", (0.25, 1.0))
def test_levi_civita_vacuum_is_ricci_flat_on_the_fd_path(sigma):
    # The static Levi-Civita vacuum
    #   ds^2 = -rho^{4s} dt^2 + rho^{4s(2s-1)} (drho^2 + dz^2) + rho^{2(1-2s)} dphi^2
    # is Ricci-flat for every s.  Its g_rr is not constant, unlike every
    # metric of the family, so the g_rr' terms of the finite-difference
    # oracle are exercised.
    def metric_fn(rho):
        rr = rho ** (4.0 * sigma * (2.0 * sigma - 1.0))
        return (-(rho ** (4.0 * sigma)), rr, rho ** (2.0 * (1.0 - 2.0 * sigma)), rr)

    rho = np.linspace(0.5, 2.0, 61)
    ricci = ricci_diagonal_fd(metric_fn, rho, 1e-3)
    assert max(float(np.max(np.abs(r_mm))) for r_mm in ricci) <= 1e-6
