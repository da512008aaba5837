import math

import numpy as np
import pytest

from lbverify.errors import ParameterDomainError, RangeError
from lbverify.model import (
    MAX_ABS_XI,
    f_eval,
    metric_eval,
    params_from_xi,
    radial_bound,
    validate_constants,
    w_eval,
)
from lbverify.numerics import central_diff, five_point_diffs

LAMBDAS = (0.75, 3.0, 12.0)
XIS = (0.0, 0.1, 0.5, 1.0, 2.0)


def test_params_canonical_vacuum_member():
    params, raw = params_from_xi(3.0, 0.0)
    assert raw.c1 == 0.0
    assert raw.c2 == -1.0
    assert raw.beta == (0.0, 0.0, 0.0)
    assert params.a == 1.0


def test_params_xi_identity():
    params, raw = params_from_xi(3.0, 1.0)
    assert raw.c1 == 1.0
    assert raw.c2 == -1.0
    assert -raw.c1 / raw.c2 == params.xi**2 == 1.0


def test_params_roundtrip():
    params, raw = params_from_xi(0.75, 0.5)
    assert params.a == 2.0
    assert raw.c1 == 0.25
    assert raw.c2 == -1.0
    assert math.sqrt(-raw.c1 / raw.c2) == pytest.approx(0.5, abs=0)
    assert params.a**2 * params.lam == pytest.approx(3.0, abs=1e-15)


def test_params_rejects_nonpositive_lambda():
    with pytest.raises(ParameterDomainError):
        params_from_xi(0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        params_from_xi(-1.0, 1.0)


@pytest.mark.parametrize(
    "lam, xi",
    [
        (math.inf, 1.0),
        (math.nan, 1.0),
        (1e-320, 1.0),  # a = sqrt(3/lambda) overflows
        (3.0, math.inf),
        (3.0, -math.inf),
        (3.0, math.nan),
        (3.0, 1e200),
        (3.0, -1e200),
    ],
)
def test_params_rejects_nonfinite_and_overflowing_inputs(lam, xi):
    with pytest.raises(ParameterDomainError):
        params_from_xi(lam, xi)


def test_params_accepts_largest_xi():
    _, raw = params_from_xi(3.0, MAX_ABS_XI)
    assert math.isfinite(raw.c1)


def test_negative_xi_gives_identical_metric():
    pos, _ = params_from_xi(3.0, 0.7)
    neg, _ = params_from_xi(3.0, -0.7)
    r = np.linspace(-2.0, 2.0, 64)
    assert np.array_equal(metric_eval(pos, r).w, metric_eval(neg, r).w)


def test_f_prime_vacuum_member():
    params, _ = params_from_xi(3.0, 0.0)
    _, f_p, _ = f_eval(params, 0.0)
    assert f_p == pytest.approx(-3.0, abs=1e-15)


def test_f_prime_vanishes_at_origin_for_unit_xi():
    params, _ = params_from_xi(3.0, 1.0)
    _, f_p, _ = f_eval(params, 0.0)
    assert f_p == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("xi", XIS)
def test_f_solves_its_ode(lam, xi):
    params, _ = params_from_xi(lam, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    _, f_p, f_pp = f_eval(params, grid)
    assert np.max(np.abs(f_pp + f_p**2 - 3.0 * lam)) < 1e-12 * max(1.0, 3.0 * lam)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("xi", XIS)
def test_exponent_first_order_form(lam, xi):
    # d/dr(u' e^f) = 2 lambda e^f, checked in the e^f-normalized form.
    params, _ = params_from_xi(lam, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    s = metric_eval(params, grid)
    residual = np.abs(s.u_pp[0] + s.u_p[0] * s.f_p - 2.0 * lam)
    assert np.max(residual) < 1e-8


def test_exponent_flux_form_finite_difference():
    # The same first-order equation checked literally, d/dr(u' e^f) against
    # 2 lambda e^f with a finite-difference outer derivative.
    params, _ = params_from_xi(3.0, 0.5)

    def flux(r):
        s = metric_eval(params, r)
        return float(s.u_p[0] * np.exp(s.f))

    for r in (-1.3, -0.2, 0.4, 1.1):
        s = metric_eval(params, r)
        lhs = central_diff(flux, r)
        rhs = 2.0 * params.lam * math.exp(float(s.f))
        assert abs(lhs - rhs) / rhs < 1e-8


def test_f_prime_squared_bounded():
    for lam in LAMBDAS:
        for xi in XIS:
            params, _ = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 2048)
            _, f_p, _ = f_eval(params, grid)
            assert np.max(f_p**2) <= 3.0 * lam + 1e-12


def test_sample_f_is_half_exponent_sum():
    params, _ = params_from_xi(0.75, 1.3)
    grid = np.linspace(-3.0, 3.0, 128)
    s = metric_eval(params, grid)
    assert np.allclose(s.f, 0.5 * (s.u[0] + s.u[1] + s.u[2]), rtol=0, atol=1e-14)


def test_w_unit_at_origin_for_vacuum_member():
    params, _ = params_from_xi(2.0, 0.0)
    assert metric_eval(params, 0.0).w == pytest.approx(1.0, abs=1e-15)


def test_w_at_origin_for_unit_xi():
    params, _ = params_from_xi(0.9, 1.0)
    assert metric_eval(params, 0.0).w == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)


@pytest.mark.parametrize("xi", (0.1, 0.7, 2.0))
def test_w_at_origin_general(xi):
    params, _ = params_from_xi(3.0, xi)
    assert metric_eval(params, 0.0).w == pytest.approx((1.0 + xi**2) ** (2.0 / 3.0), rel=1e-14)


def test_w_matches_exponential_of_u():
    params, _ = params_from_xi(3.0, 0.1)
    s = metric_eval(params, 0.5)
    assert abs(s.w - math.exp(s.u[0])) / s.w < 1e-12


def test_w_positive_everywhere():
    for lam in LAMBDAS:
        for xi in XIS:
            params, _ = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 1024)
            assert np.min(metric_eval(params, grid).w) > 0.0


@pytest.mark.parametrize("xi", (0.1, 0.5, 1.0, 2.0))
def test_w_has_one_interior_minimum(xi):
    params, _ = params_from_xi(3.0, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    _, w_p, _ = w_eval(params, grid)
    signs = np.sign(w_p)
    changes = np.nonzero(np.diff(signs) != 0)[0]
    assert len(changes) == 1
    # The stationary point is the closed-form r = -(a/3) log|xi|.
    r_min = -(params.a / 3.0) * math.log(abs(xi))
    assert grid[changes[0]] <= r_min <= grid[changes[0] + 1]


def test_metric_derivatives_match_finite_differences():
    params, _ = params_from_xi(0.75, 0.8)
    for r in (-2.5, -0.7, 0.0, 1.2, 3.1):
        w_fn = lambda x: float(w_eval(params, x)[0])
        d1, d2 = five_point_diffs(w_fn, r)
        w, w_p, w_pp = (float(v) for v in w_eval(params, r))
        assert d1 == pytest.approx(w_p, rel=1e-9, abs=1e-9)
        assert d2 == pytest.approx(w_pp, rel=1e-6, abs=1e-6)
        f_fn = lambda x: float(f_eval(params, x)[0])
        d1, d2 = five_point_diffs(f_fn, r)
        _, f_p, f_pp = f_eval(params, r)
        assert d1 == pytest.approx(f_p, rel=1e-9, abs=1e-9)
        assert d2 == pytest.approx(f_pp, rel=1e-6, abs=1e-6)


def test_range_error_reports_bound():
    params, _ = params_from_xi(3.0, 1.0)
    bound = radial_bound(params)
    with pytest.raises(RangeError) as excinfo:
        f_eval(params, bound * 1.01)
    assert excinfo.value.r_bound == bound
    with pytest.raises(RangeError):
        metric_eval(params, -bound * 1.01)


@pytest.mark.parametrize("fn", (f_eval, w_eval, metric_eval))
@pytest.mark.parametrize("kind", ("float", "int", "float64", "0-d", "array"))
def test_range_check_every_input_type(fn, kind):
    params, _ = params_from_xi(3.0, 1.0)
    bound = radial_bound(params)
    make = {
        "float": float,
        "int": int,
        "float64": np.float64,
        "0-d": np.array,
        "array": lambda x: np.array([0.0, x]),
    }[kind]
    if kind == "int":
        inside, beyond = math.floor(bound), math.floor(bound) + 1
    else:
        inside, beyond = bound, math.nextafter(bound, math.inf)
    for sign in (1, -1):
        fn(params, make(sign * inside))
        with pytest.raises(RangeError):
            fn(params, make(sign * beyond))


def test_validate_constants_canonical():
    params, raw = params_from_xi(3.0, 1.0)
    rows = {row.check: row for row in validate_constants(raw, params.lam)}
    assert rows["alpha-sum"].value == 0.0
    assert rows["alpha-sum"].verdict == "pass"
    # The canonical gauge absorbs the additive constants, so the quoted
    # beta condition is not met at lambda = 3: the residual is log(6).
    assert rows["beta-gauge-sum"].value == pytest.approx(math.log(6.0), rel=1e-14)
    assert rows["beta-gauge-sum"].verdict == "fail"


def test_validate_constants_alpha_pair():
    from lbverify.model import RawConstants

    raw = RawConstants(c1=1.0, c2=-1.0, beta=(0.0, 0.0, 0.0), alpha=(1.0, -1.0, 0.0))
    rows = {row.check: row for row in validate_constants(raw, 3.0)}
    assert rows["alpha-sum"].verdict == "pass"
    flagged = [c for c in rows if c.startswith("alpha-") and c.endswith("-nonzero")]
    assert len(flagged) == 2
    assert all(rows[c].verdict == "discrepancy-logged" for c in flagged)


def test_validate_constants_beta_at_special_lambda():
    from lbverify.model import RawConstants

    raw = RawConstants(c1=0.0, c2=-1.0, beta=(0.0, 0.0, 0.0), alpha=(0.0, 0.0, 0.0))
    rows = {row.check: row for row in validate_constants(raw, 1.0 / 12.0)}
    assert rows["beta-gauge-sum"].value == pytest.approx(0.0, abs=1e-15)
    assert rows["beta-gauge-sum"].verdict == "pass"
