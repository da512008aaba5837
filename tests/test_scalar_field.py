import math
from types import SimpleNamespace

import numpy as np
import pytest

from lbverify import scalar_field
from lbverify.curvature import ricci_mixed
from lbverify.errors import ParameterDomainError
from lbverify.model import metric_eval, params_from_xi
from lbverify.scalar_field import (
    noether_charge,
    phi_accumulate,
    phi_prime_sq_constraint,
    phi_prime_sq_quoted,
    scalar_profile,
)


def test_gradient_sq_vanishes_for_vacuum_member():
    params = params_from_xi(3.0, 0.0)
    for r in (-1.0, 0.0, 2.0):
        assert phi_prime_sq_constraint(ricci_mixed(metric_eval(params, r)), 3.0) == pytest.approx(0.0, abs=1e-14)


def test_gradient_sq_at_origin_unit_xi():
    # f' = 0 there, so the constraint gives (2/3) * 3 lambda = 2 lambda = 6.
    params = params_from_xi(3.0, 1.0)
    val = phi_prime_sq_constraint(ricci_mixed(metric_eval(params, 0.0)), 3.0)
    assert val == pytest.approx(6.0, rel=1e-14)


@pytest.mark.parametrize("lam,xi", [(0.75, 0.5), (3.0, 1.0), (12.0, 2.0), (3.0, 0.1)])
def test_constraint_equals_two_thirds_f_second(lam, xi):
    params = params_from_xi(lam, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 2048)
    sample = metric_eval(params, grid)
    lhs = phi_prime_sq_constraint(ricci_mixed(sample), lam)
    assert np.max(np.abs(lhs - (2.0 / 3.0) * sample.f_pp)) < 1e-10
    assert np.max(np.abs(lhs - (2.0 / 3.0) * (3.0 * lam - sample.f_p**2))) < 1e-10


def test_constraint_nonnegative_on_grid():
    for lam in (0.75, 3.0, 12.0):
        for xi in (0.1, 0.5, 1.0, 2.0):
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 2048)
            vals = phi_prime_sq_constraint(ricci_mixed(metric_eval(params, grid)), lam)
            assert np.min(vals) >= 0.0


def test_quoted_integrand_zero_where_f_prime_sq_equals_lambda():
    params = params_from_xi(3.0, 1.0)
    # f' = k tanh(kr) here; solve f'^2 = lambda.
    r = math.atanh(1.0 / math.sqrt(3.0)) / 3.0
    val = phi_prime_sq_quoted(metric_eval(params, r), 3.0)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_quoted_integrand_matches_constraint_at_origin():
    params = params_from_xi(3.0, 1.0)
    sample = metric_eval(params, 0.0)
    assert phi_prime_sq_quoted(sample, 3.0) == pytest.approx(6.0, rel=1e-14)
    assert phi_prime_sq_quoted(sample, 3.0) == pytest.approx(
        phi_prime_sq_constraint(ricci_mixed(sample), 3.0), rel=1e-13
    )


def test_quoted_integrand_negative_for_vacuum_member():
    params = params_from_xi(3.0, 0.0)
    val = phi_prime_sq_quoted(metric_eval(params, 0.0), 3.0)
    assert val == pytest.approx(-12.0, rel=1e-14)


def test_quoted_integrand_goes_negative_at_large_radius():
    params = params_from_xi(3.0, 1.0)
    grid = np.linspace(-2.0, 2.0, 512)
    vals = phi_prime_sq_quoted(metric_eval(params, grid), 3.0)
    assert np.min(vals) < -1.0
    assert np.max(vals) > 0.0


def test_negative_constraint_is_flag_not_exception():
    fake = SimpleNamespace(u_p=0.0, u_pp=0.0)
    assert phi_prime_sq_constraint(ricci_mixed(fake), 3.0) == -3.0


def test_accumulate_empty_interval():
    params = params_from_xi(3.0, 1.0)
    assert phi_accumulate(params, 0.4, 0.4) == 0.0


def test_accumulate_orientation_reversal():
    params = params_from_xi(3.0, 1.0)
    forward = phi_accumulate(params, 0.0, 0.5)
    backward = phi_accumulate(params, 0.5, 0.0)
    assert forward == pytest.approx(-backward, rel=0, abs=1e-15)


def test_accumulate_against_midpoint_refinement():
    params = params_from_xi(3.0, 1.0)
    value = phi_accumulate(params, 0.0, 0.5)
    n = 1_000_000
    edges = np.linspace(0.0, 0.5, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    integrand = np.sqrt(phi_prime_sq_constraint(ricci_mixed(metric_eval(params, mids)), 3.0))
    oracle = float(np.sum(integrand) * (0.5 / n))
    assert value == pytest.approx(oracle, abs=1e-8)


def test_accumulate_domain_error_reports_interval(monkeypatch):
    params = params_from_xi(3.0, 1.0)
    bad = SimpleNamespace(u_p=0.0, u_pp=0.0)
    monkeypatch.setattr(scalar_field, "metric_eval", lambda p, r: bad)
    with pytest.raises(ParameterDomainError, match=r"\[0, 1\]"):
        phi_accumulate(params, 0.0, 1.0)


def test_noether_zero_for_vacuum_member():
    params = params_from_xi(3.0, 0.0)
    for r in (-1.0, 0.0, 1.5):
        assert noether_charge(params, r) == pytest.approx(0.0, abs=1e-15)


def test_noether_two_point_agreement():
    params = params_from_xi(3.0, 1.0)
    j0 = noether_charge(params, 0.0)
    j1 = noether_charge(params, 1.0)
    assert abs(j0 - j1) / abs(j0) < 1e-8


def test_noether_value_anchored_then_global():
    # J^2 = (2/3) xi^2 in the printed normalization of f; anchor at r = 0
    # and assert across the window.
    for xi in (0.1, 0.5, 1.0, 2.0):
        for lam in (0.75, 3.0, 12.0):
            params = params_from_xi(lam, xi)
            anchor = noether_charge(params, 0.0)
            assert anchor**2 == pytest.approx((2.0 / 3.0) * xi**2, rel=1e-12)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 257)
            j = noether_charge(params, grid)
            assert np.max(np.abs(j - anchor)) / abs(anchor) < 1e-8


def test_profile_phi_gauge_and_consistency():
    params = params_from_xi(3.0, 1.0)
    grid = np.linspace(-1.0, 1.0, 201)
    prof = scalar_profile(params, metric_eval(params, grid))
    assert prof.phi[0] == 0.0
    idx = 150
    direct = phi_accumulate(params, float(grid[0]), float(grid[idx]))
    assert prof.phi[idx] == pytest.approx(direct, abs=1e-9)
