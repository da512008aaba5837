import functools
import math

import numpy as np
import pytest

from lbverify import congruence, curvature, energy_conditions, model, scalar_field, suites
from lbverify.errors import NumericalError, ParameterDomainError
from lbverify.model import (
    MAX_ABS_XI,
    log_w_jet,
    metric_eval,
    params_from_xi,
    radial_bound,
)
from lbverify.numerics import FD_FIRST_STEP
from oracles import central_diff

LAMBDAS = (0.75, 3.0, 12.0)
XIS = (0.0, 0.1, 0.5, 1.0, 2.0)


def test_params_canonical_vacuum_member():
    # c1 = xi^2 = 0 and beta_j = 0: w is exactly e^{-2r/a}.
    params = params_from_xi(3.0, 0.0)
    assert params.a == 1.0
    assert metric_eval(params, 0.0).w == 1.0


def test_params_xi_identity():
    # Canonical gauge c1 = xi^2, c2 = -1: w(0) = (c1 - c2)^{2/3} = 2^{2/3}.
    params = params_from_xi(3.0, 1.0)
    assert params.xi**2 == 1.0
    assert metric_eval(params, 0.0).w == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)


def test_params_roundtrip():
    params = params_from_xi(0.75, 0.5)
    assert params.a == 2.0
    assert params.xi == 0.5
    assert metric_eval(params, 0.0).w == pytest.approx(1.25 ** (2.0 / 3.0), rel=1e-15)
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
    params = params_from_xi(3.0, MAX_ABS_XI)
    assert math.isfinite(params.xi**2)


def test_negative_xi_gives_identical_metric():
    pos = params_from_xi(3.0, 0.7)
    neg = params_from_xi(3.0, -0.7)
    r = np.linspace(-2.0, 2.0, 64)
    assert np.array_equal(metric_eval(pos, r).w, metric_eval(neg, r).w)


def test_f_prime_vacuum_member():
    params = params_from_xi(3.0, 0.0)
    assert metric_eval(params, 0.0).f_p == pytest.approx(-3.0, abs=1e-15)
    # q = -inf: the log(1 + e^q) term is exactly 0 and f exactly linear.
    r = np.linspace(-2.0, 2.0, 65)
    s = metric_eval(params, r)
    assert np.array_equal(s.f, -params.k * r - 0.5 * math.log(12.0 * params.lam))
    assert np.all(s.f_p == -params.k) and np.all(s.f_pp == 0.0)


def test_f_prime_vanishes_at_origin_for_unit_xi():
    params = params_from_xi(3.0, 1.0)
    assert metric_eval(params, 0.0).f_p == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("xi", XIS)
def test_f_solves_its_ode(lam, xi):
    params = params_from_xi(lam, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    s = metric_eval(params, grid)
    assert np.max(np.abs(s.f_pp + s.f_p**2 - 3.0 * lam)) < 1e-12 * max(1.0, 3.0 * lam)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("xi", XIS)
def test_exponent_first_order_form(lam, xi):
    # d/dr(u' e^f) = 2 lambda e^f, checked in the e^f-normalized form.
    params = params_from_xi(lam, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    s = metric_eval(params, grid)
    residual = np.abs(s.u_pp + s.u_p * s.f_p - 2.0 * lam)
    assert np.max(residual) < 1e-8


def test_exponent_flux_form_finite_difference():
    # The same first-order equation checked literally, d/dr(u' e^f) against
    # 2 lambda e^f with a finite-difference outer derivative.
    params = params_from_xi(3.0, 0.5)

    def flux(r):
        s = metric_eval(params, r)
        return float(s.u_p * np.exp(s.f))

    for r in (-1.3, -0.2, 0.4, 1.1):
        s = metric_eval(params, r)
        lhs = central_diff(flux, r, FD_FIRST_STEP * params.a)
        rhs = 2.0 * params.lam * math.exp(float(s.f))
        assert abs(lhs - rhs) / rhs < 1e-8


def test_f_prime_squared_bounded():
    for lam in LAMBDAS:
        for xi in XIS:
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 2048)
            f_p = metric_eval(params, grid).f_p
            assert np.max(f_p**2) <= 3.0 * lam + 1e-12


def test_sample_f_is_the_printed_closed_form():
    params = params_from_xi(0.75, 1.3)
    grid = np.linspace(-3.0, 3.0, 128)
    s = metric_eval(params, grid)
    # The three equal exponents sum to 2f + log(12 lambda) in the canonical gauge.
    assert np.allclose(s.f, 1.5 * s.u - 0.5 * math.log(12.0 * 0.75), rtol=0, atol=1e-14)
    # f, computed on first read, is the printed closed form
    # -kr + (1/2) log((c1 e^{2kr} - c2)^2 / (12 lambda)) with c1 = xi^2, c2 = -1.
    k = params.k
    printed = -k * grid + 0.5 * np.log((1.3**2 * np.exp(2.0 * k * grid) + 1.0) ** 2 / (12.0 * 0.75))
    assert np.allclose(s.f, printed, rtol=0, atol=1e-13)


def test_w_unit_at_origin_for_vacuum_member():
    params = params_from_xi(2.0, 0.0)
    assert metric_eval(params, 0.0).w == pytest.approx(1.0, abs=1e-15)


def test_w_at_origin_for_unit_xi():
    params = params_from_xi(0.9, 1.0)
    assert metric_eval(params, 0.0).w == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)


@pytest.mark.parametrize("xi", (0.1, 0.7, 2.0))
def test_w_at_origin_general(xi):
    params = params_from_xi(3.0, xi)
    assert metric_eval(params, 0.0).w == pytest.approx((1.0 + xi**2) ** (2.0 / 3.0), rel=1e-14)


def test_w_matches_exponential_of_u():
    params = params_from_xi(3.0, 0.1)
    s = metric_eval(params, 0.5)
    assert abs(s.w - math.exp(s.u)) / s.w < 1e-12


@pytest.mark.parametrize(
    "xi, r",
    (
        (1e154, np.linspace(-2.0, 2.0, 9)),
        (-1.3e154, np.linspace(-3.0, 3.0, 9)),
        (1e5, np.array([-116.0, -50.0, 0.0, 1.0])),
    ),
)
def test_w_through_log_xi_matches_exponential_of_u(xi, r):
    # xi^2 e^{6r/a} may overflow on these radii, so w is composed through
    # log|xi|; it must still agree with exp(u1) and raise no warning.
    params = params_from_xi(3.0, xi)
    s = metric_eval(params, r)
    assert np.max(np.abs(s.w - np.exp(s.u)) / s.w) < 1e-12


def _ulps(value, ref):
    """|value - ref| in units of the spacing at ref; 0 where both are equal (also infinite)."""
    with np.errstate(invalid="ignore"):
        return np.where(value == ref, 0.0, np.abs(value - ref) / np.spacing(np.abs(ref)))


def _log1p_exp(q):
    """f's log(1 + e^q) term, max(q, 0) + log1p(e^-|q|), from the columns of a
    ``metric_eval`` sample whose q is ``q``: at lambda = 1/12 and xi = 1,
    k = 1/2 and log|xi| = 0 exactly, so q = 2kr + 2 log|xi| is r."""
    params = params_from_xi(1.0 / 12.0, 1.0 if np.all(np.isfinite(q)) else 0.0)
    r = np.where(np.isfinite(q), q, 0.0)
    sample = model.MetricSample(params, r)
    assert np.array_equal(sample.q, q)
    return np.maximum(sample.q, 0.0) + sample.log1p_exp_neg_abs_q


def test_log1p_exp_matches_logaddexp():
    # f's log(1 + e^q) term is max(q, 0) + log1p(e^-|q|), with NumPy's array
    # exp/log1p; np.logaddexp rounds the same function through scalar ones.
    # On the integer grid of q the two agree to 1 ulp.  Off it they may round
    # to opposite sides of the exact value (3 ulp apart at one of 200,000
    # uniform draws in [-40, 40]), so the dense check is against the exact
    # value itself.
    mpmath = pytest.importorskip("mpmath")
    edges = np.array([0.0])
    coarse = np.concatenate([edges, np.arange(-1000.0, 1001.0)])
    assert np.max(_ulps(_log1p_exp(coarse), np.logaddexp(0.0, coarse))) <= 1.0
    # At xi = 0, q = -inf and the term is exactly 0.
    assert _log1p_exp(np.array([-np.inf])) == 0.0
    dense = np.random.default_rng(2718).uniform(-40.0, 40.0, 4000)
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.log1p(mpmath.exp(mpmath.mpf(q)))) for q in dense.tolist()])
    assert np.max(_ulps(_log1p_exp(dense), exact)) <= 2.0


@pytest.mark.parametrize("lam, xi", [(3.0, 1e5), (0.75, 1e10), (12.0, 1e3)])
def test_ricci_dual_path_tolerance_is_the_covariant_closed_form_scale(lam, xi):
    # The row lowers the mixed differences by e^u itself; its tolerance is
    # 1e-9 max |R_mn| of the covariant closed forms R_nn = g_nn (2 u_n'' +
    # u_n' s) / 4 and R_rr = sum(u_i'')/2 + sum(u_i'^2)/4, written out per
    # axis: the scaling by 1/4 is exact and u' + u' + u' rounds 3 u' once,
    # so the tolerance matches them bit for bit.  These members put that
    # scale above the absolute floor 1e-6.
    params = params_from_xi(lam, xi)
    row = next(row for row in suites.build_verify_report(lam, xi).rows if row.check == "ricci-dual-path")
    s = metric_eval(params, np.linspace(-2.0 * params.a, 2.0 * params.a, 25))
    g = np.exp(s.u)
    total = s.u_p + s.u_p + s.u_p
    r_nn = 0.25 * g * (2.0 * s.u_pp + s.u_p * total)
    r_rr = 0.5 * (s.u_pp + s.u_pp + s.u_pp) + 0.25 * (s.u_p**2 + s.u_p**2 + s.u_p**2)
    scale = float(np.max(np.abs((-r_nn, r_rr, r_nn, r_nn))))
    assert 1e-9 * scale > 1e-6
    assert row.tolerance == 1e-9 * scale
    assert row.verdict == "pass"


@pytest.mark.parametrize("xi, samples, residual_is_zero", [(1.0, 9000, False), (1e154, 4096, True)])
def test_exponent_system_residual_is_four_field_equation_residuals(xi, samples, residual_is_zero):
    # 2 u'' + u' (u1' + u2' + u3') - 4 lambda is 4 (R^n_n - lambda), and
    # scaling by 4 is exact: the row is 4 times the field residual bit for
    # bit, over several grid blocks and at the largest xi, where R^n_n
    # rounds to lambda on the whole grid.
    rows = {row.check: row.value for row in suites.build_verify_report(3.0, xi, samples=samples).rows}
    assert (rows["field-equation-residual"] == 0.0) == residual_is_zero
    assert rows["exponent-system-residual"] == 4.0 * rows["field-equation-residual"]


def test_reading_w_takes_no_log1p(monkeypatch):
    # The value of f is the only log1p of the model: reading w, w' and w''
    # never takes it, and a metric_eval sample takes it once, when its f is
    # first read.
    calls = []

    def counted(name):
        original = getattr(np, name)

        def fn(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return fn

    monkeypatch.setattr(np, "log1p", counted("log1p"))
    params = params_from_xi(3.0, 0.7)
    s = metric_eval(params, np.linspace(-2.0, 2.0, 17))
    for sample in (s, metric_eval(params, 0.3)):
        assert np.all(np.isfinite((sample.w, sample.w * sample.u_p, sample.w * (sample.u_pp + sample.u_p**2))))
    assert calls == []
    f = s.f
    assert s.f is f and np.all(np.isfinite(s.u))
    assert calls == ["log1p"]


def test_reading_w_takes_no_tanh_and_no_sech_sq(monkeypatch):
    # w is composed from its printed form alone: f' and f'' stay unread.
    def forbidden(*args):
        raise AssertionError("f' or f'' evaluated")

    sample = metric_eval(params_from_xi(3.0, 0.7), np.linspace(-2.0, 2.0, 17))
    monkeypatch.setattr(np, "tanh", forbidden)
    monkeypatch.setattr(vars(model.MetricSample)["f_pp"], "func", forbidden)
    assert np.all(sample.w > 0.0)


def test_sweep_evaluates_q_once_per_member(monkeypatch):
    # One sample per (lambda, xi) member feeds its residual rows and its
    # null-rate scans, so q = 2kr + 2 log|xi| is formed once per member.
    calls = []
    q = model._q

    def counting(params, r):
        calls.append(np.size(r))
        return q(params, r)

    monkeypatch.setattr(model, "_q", counting)
    suites.build_sweep_report("1:3:2", "0:1:2", "1.5:2:2")
    assert calls == [257] * 4


def test_each_block_forms_the_mixed_ricci_once(monkeypatch):
    # Every reader of a block (field residual, phi'^2, frame stress) takes
    # the one ricci_mixed product of that block; a sweep takes one per
    # (lambda, xi) member, shared by its E cells.
    calls = []
    original = curvature.ricci_mixed

    def counting(sample):
        calls.append(np.size(sample.r))
        return original(sample)

    monkeypatch.setattr(suites, "ricci_mixed", counting)
    suites.build_verify_report(3.0, 1.0, samples=9000)
    assert calls == [4096, 4096, 808, 25]
    calls.clear()
    suites.build_energy_report(12.0, 0.5, samples=9000)
    assert calls == [4096, 4096, 808]
    calls.clear()
    suites.build_sweep_report("1:3:2", "0:1:2", "1.5:2:2")
    assert calls == [257] * 4


def test_dense_blocks_evaluate_w_only_for_verify(monkeypatch):
    # Energy blocks never read w.  Verify blocks read its value, once per
    # block.
    calls = []
    value = model._w_value

    def counting(params, r):
        calls.append(np.size(r))
        return value(params, r)

    monkeypatch.setattr(model, "_w_value", counting)
    suites.build_energy_report(12.0, 0.5, samples=9000)
    assert calls == []
    suites.build_verify_report(3.0, 1.0, samples=9000)
    assert calls == [4096, 4096, 808]


def test_verify_w_row_is_the_whole_grid_value_across_the_w_branch():
    # At xi = 1e130, xi^2 e^{6r/a} passes e^709 at r = 18.38 a, where a
    # product form of w would overflow; on [17a, 19a] the 4096-point blocks
    # of a 9000-point grid lie on both sides of it.  w is elementwise, so
    # every block gives each of its radii the whole grid's w, and the row
    # is the whole-grid value.
    params = params_from_xi(3.0, 1e130)
    grid = np.linspace(17.0, 19.0, 9000)
    whole = metric_eval(params, grid).w
    rows = {row.check: row for row in suites.build_verify_report(3.0, 1e130, 17.0, 19.0, 9000).rows}
    assert rows["w-positivity-min"].value == whole.min()
    blocks = list(model.Window(3.0, 1e130, 17.0, 19.0, 9000, 2.0).blocks())
    assert [block.r.size for block in blocks] == [4096, 4096, 808]
    assert np.array_equal(np.concatenate([block.w for block in blocks]), whole)


_BOUND = radial_bound(params_from_xi(3.0, 1.0))


@pytest.mark.parametrize(
    ("r_min", "r_max", "samples"),
    [
        (-2.0, 2.0, 2),
        *((-2.0, 2.1, blocks * model.GRID_BLOCK + d) for blocks in (1, 2) for d in (-1, 0, 1)),
        # A step that rounds to 0 (linspace's branch for it), and a subnormal one.
        (0.0, math.nextafter(0.0, math.inf), 9000),
        (1e-310, math.nextafter(1e-310, math.inf), 9000),
        (0.0, 1e-310, 3),
        (-_BOUND, _BOUND, 9000),
        (0.95 * _BOUND, _BOUND, 9000),
        (-_BOUND, -0.95 * _BOUND, 4097),
    ],
)
def test_window_radii_are_linspace_bits(r_min, r_max, samples):
    # The blocks and the every-k-th radii are built without the whole grid,
    # yet each radius has the bits np.linspace gives it.
    window = model.Window(3.0, 1.0, r_min, r_max, samples, 2.0)
    grid = np.linspace(r_min, r_max, samples)
    assert np.concatenate([block.r for block in window.blocks()]).tobytes() == grid.tobytes()
    for k in {1, 2, 3, max(1, samples // 32), model.GRID_BLOCK + 1}:
        assert window.radii(range(0, samples, k)).tobytes() == grid[::k].tobytes(), k
    for n in (2, 9, 25):
        assert window.sample(n).r.tobytes() == np.linspace(r_min, r_max, n).tobytes(), n


def test_last_radius_of_the_largest_window_is_r_max():
    # k * step + r_min rounds to 2.0999999999999996 at k = 2^24 - 1; the
    # last radius is r_max itself, as in np.linspace.
    window = model.Window(3.0, 1.0, -2.0, 2.1, model.MAX_GRID_SIZE, 2.0)
    last = model.MAX_GRID_SIZE - 1
    assert (last * ((2.1 + 2.0) / last) - 2.0) != 2.1
    assert window.radii(range(last, last + 1)).tolist() == [2.1]
    assert window.block(last // model.GRID_BLOCK).r[-1] == 2.1


def test_scalar_radius_gets_the_array_bits():
    # Every column at a radius depends on that radius alone: a scalar r and
    # the same r inside a 3-point array give the same bits, in every column
    # and in the mixed Ricci pair.
    columns = ("q", "f_p", "f_pp", "f_p_sq", "u_p", "u_pp", "abs_q", "log1p_exp_neg_abs_q", "f", "u", "w")
    rng = np.random.default_rng(20260)
    mismatches = []
    for _ in range(3000):
        lam = rng.uniform(0.75, 12.0)
        xi = 10.0 ** rng.uniform(0.0, 154.0) if rng.random() < 0.1 else rng.uniform(0.0, 2.0)
        params = params_from_xi(lam, xi)
        radii = rng.uniform(-2.0, 2.0, 3) * params.a
        point, grid = metric_eval(params, float(radii[1])), metric_eval(params, radii)
        pairs = [(name, getattr(point, name), getattr(grid, name)[1]) for name in columns]
        for name, one, many in zip(("R^n_n", "R^r_r"), curvature.ricci_mixed(point), curvature.ricci_mixed(grid)):
            pairs.append((name, one, many[1]))
        mismatches += [(name, lam, xi, radii[1]) for name, one, many in pairs if np.float64(one).tobytes() != many.tobytes()]
    assert mismatches == []


def test_w_matches_the_printed_form_to_its_rounding_error_model():
    # w = e^E (1 + e^{-|q|})^{2/3} with t = 2r/a, L = log|xi|, M = (4/3)|L|,
    # E = max(-t, t + (4/3) L) and q = 3t + 2L.  With u = eps/2 the unit
    # roundoff, and exp, log and power each within one ulp (2u), the first
    # order relative errors against the printed form at the same float r,
    # a and xi (Higham, Accuracy and Stability of Numerical Algorithms,
    # ch. 1-2: exp turns an absolute error of its argument into a relative
    # error of its value) are:
    # - e^E: t rounds once (u|t|), log|xi| (2uM), the constant 4/3 and the
    #   product (uM each) and the sum (u(|t| + M)), all in the argument, and
    #   exp itself (2u): 2u|t| + 5uM + 2u;
    # - the power: q carries the roundings of t (3u|t|), of 3t (3u|t|), of
    #   log|xi| (3uM) and of the sum (u|q|), and exp(-|q|) adds 2u; the sum
    #   1 + e^{-|q|} passes them on weighted by e^{-|q|} / (1 + e^{-|q|})
    #   and adds u; the power multiplies by 2/3, adds 2u for itself and u/2
    #   for the rounded 2/3: omega (6|t| + 3M + |q| + 2) u + 19u/6, with
    #   omega = (2/3) e^{-|q|} / (1 + e^{-|q|}) <= 1/3;
    # - the product of the two factors: u.
    # In units of eps the sum is at most
    #   |t| + (5/2) M + 7/2 + omega (3|t| + (3/2) M + |q|/2 + 1),
    # an error model in eps (1 + 2|r|/a + (4/3)|log|xi||).  A product form
    # that rounds 6r/a into a 2/3 power carries 2|t| where this carries |t|.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    worst = 0.0
    with mpmath.workdps(60):
        for lam in (1e-300, 1e-12, 3.0, 1e12, 1e300):
            for xi in (0.0, 1e-300, 1e-6, 1.0, 1e5, 1e100, 1e154):
                params = params_from_xi(lam, xi)
                b = radial_bound(params)
                r = np.concatenate([np.linspace(-b, b, 41), np.linspace(0.95 * b, b, 21), np.linspace(-b, -0.95 * b, 21)])
                w = metric_eval(params, r).w
                a, xi_sq = mpmath.mpf(params.a), mpmath.mpf(xi) ** 2
                t, big_m = 2.0 * np.abs(r) / params.a, (4.0 / 3.0) * abs(params.log_abs_xi if xi else 0.0)
                q = np.abs(6.0 * r / params.a + 2.0 * params.log_abs_xi)
                omega = (2.0 / 3.0) * np.exp(-q) / (1.0 + np.exp(-q))
                # At xi = 0, q = inf and omega = 0: cap q so that omega |q| reads 0, not NaN.
                model_units = t + 2.5 * big_m + 3.5 + omega * (3.0 * t + 1.5 * big_m + np.minimum(q, 1e3) / 2.0 + 1.0)
                for r_i, w_i, units in zip(r, w, model_units):
                    x = mpmath.mpf(r_i)
                    printed = mpmath.exp(-2 * x / a) * (1 + xi_sq * mpmath.exp(6 * x / a)) ** (mpmath.mpf(2) / 3)
                    worst = max(worst, float(abs(w_i - printed) / printed) / (eps * units))
    assert worst <= 1.0


def test_mixed_curvature_takes_no_exp_on_metric_eval_sample(monkeypatch):
    from lbverify.energy_conditions import stress_decompose

    params = params_from_xi(3.0, 1e10)
    sample = metric_eval(params, np.linspace(-2.0, 2.0, 4096))
    # The sample's own exp, that of sech^2 in f'', is taken on first read:
    # take it before counting, so that only the curvature layers are counted.
    sample.u_pp
    calls = []
    exp = np.exp

    def counting(*args, **kwargs):
        calls.append(np.size(args[0]))
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    ricci = curvature.ricci_mixed(sample)
    assert curvature.field_residual(ricci, params.lam) <= 1e-13
    stress_decompose(ricci)
    assert calls == []


def _block_transcendentals(monkeypatch, build, samples):
    """{name: calls} of np.exp, np.log1p and np.tanh on arrays of GRID_BLOCK points or more."""
    calls = {"exp": 0, "log1p": 0, "tanh": 0}

    def counted(name):
        original = getattr(np, name)

        def fn(x, *args, **kwargs):
            if np.size(x) >= model.GRID_BLOCK:
                calls[name] += 1
            return original(x, *args, **kwargs)

        return fn

    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(np, name, counted(name))
        build(samples=samples)
    return calls


@pytest.mark.parametrize(("lam", "xi"), [(3.0, 1.0), (0.75, 0.0), (12.0, 1e154)])
def test_dense_blocks_keep_their_transcendental_budget(monkeypatch, lam, xi):
    # Per block, energy takes the exp of f'' and the tanh of f' alone, and
    # verify adds the exp and log1p of f (shared with log J), the exp of J
    # and the two exps of w.
    blocks = 3
    samples = blocks * model.GRID_BLOCK
    energy = _block_transcendentals(monkeypatch, lambda **kw: suites.build_energy_report(lam, xi, **kw), samples)
    assert energy["exp"] <= blocks and energy["tanh"] <= blocks and energy["log1p"] == 0, energy
    verify = _block_transcendentals(monkeypatch, lambda **kw: suites.build_verify_report(lam, xi, **kw), samples)
    assert verify["exp"] <= 5 * blocks and verify["log1p"] <= blocks and verify["tanh"] <= blocks, verify


def test_energy_report_reads_no_value_column(monkeypatch):
    def unread(self):
        raise AssertionError("an energy block read f or u")

    for name in ("f", "u"):
        monkeypatch.setattr(model.MetricSample, name, property(unread))
    rows = {row.check: row for row in suites.build_energy_report(3.0, 1.0, samples=9000).rows}
    assert rows["radial-null-vs-gradient-sq"].verdict == "pass"
    with pytest.raises(AssertionError, match="read f or u"):
        metric_eval(params_from_xi(3.0, 1.0), 0.5).f


def test_w_positive_everywhere():
    for lam in LAMBDAS:
        for xi in XIS:
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 1024)
            assert np.min(metric_eval(params, grid).w) > 0.0


@pytest.mark.parametrize("xi", (0.1, 0.5, 1.0, 2.0))
def test_w_has_one_interior_minimum(xi):
    params = params_from_xi(3.0, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    sample = metric_eval(params, grid)
    signs = np.sign(sample.w * sample.u_p)
    changes = np.nonzero(np.diff(signs) != 0)[0]
    assert len(changes) == 1
    # The stationary point is the closed-form r = -(a/3) log|xi|.
    r_min = -(params.a / 3.0) * math.log(abs(xi))
    assert grid[changes[0]] <= r_min <= grid[changes[0] + 1]


def test_metric_derivatives_match_finite_differences():
    # The sample's w' = w u', w'' = w (u'' + u'^2), f' and f'' against jets of the printed log w
    # (f = (3/2) log w - log(12 lambda)/2) and against mpmath's numerical
    # derivatives of the printed w and f at 30 digits.
    mpmath = pytest.importorskip("mpmath")
    params = params_from_xi(0.75, 0.8)
    radii = (-2.5, -0.7, 0.0, 1.2, 3.1)
    for r in (*radii, np.array(radii)):
        s = metric_eval(params, r)
        log_w = log_w_jet(params, r)
        w = log_w.exp()
        assert w.d1 == pytest.approx(s.w * s.u_p, rel=1e-13, abs=1e-13)
        assert w.d2 == pytest.approx(s.w * (s.u_pp + s.u_p**2), rel=1e-13, abs=1e-13)
        assert 1.5 * log_w.d1 == pytest.approx(s.f_p, rel=1e-13, abs=1e-13)
        assert 1.5 * log_w.d2 == pytest.approx(s.f_pp, rel=1e-13, abs=1e-13)

    with mpmath.workdps(30):
        a, xi_sq, lam = mpmath.mpf(params.a), mpmath.mpf(params.xi) ** 2, mpmath.mpf(params.lam)
        w_mp = lambda x: mpmath.exp(-2 * x / a) * (1 + xi_sq * mpmath.exp(6 * x / a)) ** (mpmath.mpf(2) / 3)
        f_mp = lambda x: -3 * x / a + mpmath.log(1 + xi_sq * mpmath.exp(6 * x / a)) - mpmath.log(12 * lam) / 2
        for r in radii:
            s = metric_eval(params, r)
            w_p, w_pp = s.w * s.u_p, s.w * (s.u_pp + s.u_p**2)
            for fn, d1, d2 in ((w_mp, w_p, w_pp), (f_mp, s.f_p, s.f_pp)):
                assert float(mpmath.diff(fn, r, 1)) == pytest.approx(d1, rel=1e-13, abs=1e-13)
                assert float(mpmath.diff(fn, r, 2)) == pytest.approx(d2, rel=1e-13, abs=1e-13)


def test_range_error_reports_bound():
    params = params_from_xi(3.0, 1.0)
    bound = radial_bound(params)
    with pytest.raises(ParameterDomainError, match=f"overflow bound {bound:.6g} "):
        metric_eval(params, bound * 1.01)
    with pytest.raises(ParameterDomainError, match="overflow bound"):
        metric_eval(params, -bound * 1.01)


@pytest.mark.parametrize("fn", (metric_eval,))
@pytest.mark.parametrize("kind", ("float", "int", "float64", "0-d", "array"))
def test_range_check_every_input_type(fn, kind):
    params = params_from_xi(3.0, 1.0)
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
        with pytest.raises(ParameterDomainError, match="overflow bound"):
            fn(params, make(sign * beyond))


def _constant_rows(lam):
    rows = suites.build_verify_report(lam, 1.0, samples=64).rows
    return {row.check: row for row in rows if row.check in ("alpha-sum", "beta-gauge-sum")}


def test_validate_constants_canonical():
    rows = _constant_rows(3.0)
    assert (rows["alpha-sum"].location, rows["alpha-sum"].value) == ("constants", 0.0)
    assert rows["alpha-sum"].verdict == "pass"
    # The canonical gauge absorbs the additive constants, so the quoted
    # beta condition is not met at lambda = 3: the residual is log(6), a
    # quoted-form comparison.
    assert rows["beta-gauge-sum"].value == pytest.approx(math.log(6.0), rel=1e-14)
    assert rows["beta-gauge-sum"].location == "canonical-gauge"
    assert rows["beta-gauge-sum"].verdict == "discrepancy-logged"


def test_validate_constants_beta_at_special_lambda():
    row = _constant_rows(1.0 / 12.0)["beta-gauge-sum"]
    assert row.value == pytest.approx(0.0, abs=1e-15)
    assert row.verdict == "pass"


def test_builders_evaluate_each_report_grid_once(monkeypatch):
    # Every metric sample, a window's or metric_eval's, is a MetricSample:
    # record the arrays they are built on.
    # Beside the report grid, verify only evaluates the 25-point Ricci
    # stencils, and energy evaluates nothing else.
    arrays = []
    core = model.MetricSample.__init__

    def recording(self, params, r):
        arrays.append(np.array(r))
        core(self, params, r)

    monkeypatch.setattr(model.MetricSample, "__init__", recording)
    for samples in (9000, 65536):
        grid = np.linspace(-2.0, 2.0, samples)
        for build in (suites.build_energy_report, suites.build_verify_report):
            arrays.clear()
            build(3.0, 1.0, samples=samples)
            assert max(r.size for r in arrays) <= model.GRID_BLOCK
            dense = [r for r in arrays if r.size > 25]
            # Each report-grid radius once, in order: no midpoint pass.
            assert np.array_equal(np.concatenate(dense), grid), (build.__name__, samples)


def test_each_window_is_range_checked_once(monkeypatch):
    # The window checks its two ends against the radial bound; every radius
    # it hands out lies between them, so no sample is checked again: verify
    # and energy check once per report (blocks and the 25 Ricci radii
    # included), a sweep once per member.
    calls = []
    check = model._check_range

    def counting(params, r):
        calls.append(np.size(r))
        check(params, r)

    monkeypatch.setattr(model, "_check_range", counting)
    for build in (suites.build_verify_report, suites.build_energy_report):
        calls.clear()
        build(3.0, 1.0, samples=9000)
        assert calls == [2], build.__name__
    calls.clear()
    suites.build_sweep_report("3", "0:1:2", "-2:2:3", samples=65)
    assert calls == [2, 2]


def test_congruence_report_takes_one_potential_quadrature(monkeypatch):
    # The potential-gradient stencil is one adaptive_gauss_kronrod call over
    # the scalar interval [mid - h, mid + h]; no other congruence row integrates.
    calls = []
    quadrature = congruence.adaptive_gauss_kronrod

    def counting(fn, a, b, tol):
        calls.append((np.ndim(a), np.ndim(b)))
        return quadrature(fn, a, b, tol)

    monkeypatch.setattr(congruence, "adaptive_gauss_kronrod", counting)
    suites.build_congruence_report(3.0, 1.0, 2.0)
    assert calls == [(0, 0)]


def test_congruence_scans_each_block_once(monkeypatch):
    # A one-block window is scanned once.  At 9108 samples (three blocks)
    # the middle admissible radius, grid index 5080, lies in the second
    # block, which alone is scanned again for the potential-gradient row.
    scans = []
    scan = congruence.kinematics_scan

    def recording(sample, cfg):
        scans.append((sample.r.size, float(sample.r[0])))
        return scan(sample, cfg)

    monkeypatch.setattr(congruence, "kinematics_scan", recording)
    suites.build_congruence_report(3.0, 0.5, 2.0)
    assert scans == [(257, -2.0)]
    scans.clear()
    rows = suites.build_congruence_report(3.0, 0.5, 2.0, samples=9108).rows
    second = (model.GRID_BLOCK, float(np.linspace(-2.0, 2.0, 9108)[model.GRID_BLOCK]))
    assert scans == [(model.GRID_BLOCK, -2.0), second, (916, scans[2][1]), second]
    assert [row.location for row in rows if row.check == "potential-gradient-covector"] == [
        f"r={np.linspace(-2.0, 2.0, 9108)[5080]:.9g}"
    ]


def test_verify_folds_noether_rows_across_blocks(monkeypatch):
    # A non-constant stand-in for log J makes both Noether rows depend on
    # every block: the folded values must be the whole-grid ones.
    monkeypatch.setattr(scalar_field, "log_noether", lambda params, sample: np.sin(3.0 * sample.r) - 5.0)
    samples = 9000
    j = np.exp(np.sin(3.0 * np.linspace(-2.0, 2.0, samples)) - 5.0)
    rows = {row.check: row.value for row in suites.build_verify_report(3.0, 1.0, samples=samples).rows}
    assert rows["noether-constancy-rel"] == pytest.approx((j.max() - j.min()) / j.mean(), rel=1e-13)


def test_a_nan_in_a_later_block_reaches_the_folded_row(monkeypatch):
    # A NaN at grid index 5000, in the second of three blocks, makes that
    # block's field-equation-residual maximum NaN; the fold keeps it, as a
    # whole-grid max would, and the first row that reads it raises.
    r_nan = np.linspace(-2.0, 2.0, 9000)[5000]
    ricci_mixed = curvature.ricci_mixed

    def nan_at_r_nan(sample):
        r_nn, r_rr = ricci_mixed(sample)
        return np.where(sample.r == r_nan, np.nan, r_nn), r_rr

    monkeypatch.setattr(suites, "ricci_mixed", nan_at_r_nan)
    with pytest.raises(NumericalError, match="'exponent-system-residual'"):
        suites.build_verify_report(3.0, 1.0, samples=9000)


#: Grid index 5000 of a 9000-point grid: in the second of its three blocks.
R_SPOILED = np.linspace(-2.0, 2.0, 9000)[5000]


def _spoiled_column(name, value):
    """A stand-in for the MetricSample column ``name`` with ``value`` at R_SPOILED."""
    column = vars(model.MetricSample)[name]
    return model.MetricSample, name, property(
        lambda sample: np.where(sample.r == R_SPOILED, value, column.__get__(sample, model.MetricSample))
    )


def _spoiled_result(module, name, radii, value):
    """A stand-in for ``module.name`` with ``value`` at R_SPOILED; ``radii`` takes its arguments to its radii."""
    original = getattr(module, name)
    return module, name, lambda *args: np.where(radii(*args) == R_SPOILED, value, original(*args))


def _spoiled_ricci(component, value):
    """A stand-in for the verify and energy blocks' ``ricci_mixed`` with ``value`` at R_SPOILED in one component."""

    def ricci(sample):
        pair = list(curvature.ricci_mixed(sample))
        pair[component] = np.where(sample.r == R_SPOILED, value, pair[component])
        return tuple(pair)

    return suites, "ricci_mixed", ricci


# Each row reduced in place by a block, with the stand-in that feeds its
# reduction, and the first row that reads it.  R^n_n feeds the field
# residual, and R^r_r the constraint phi'^2 alone.  The quoted integrand and
# phi'^2 are reduced by their own minimum rows first, so an inf in both
# makes the NaN in their difference alone.
SPOILED_ROWS = {
    "f-ode-residual": ("verify", lambda: [_spoiled_column("f_p_sq", np.nan)], "f-ode-residual"),
    "exponent-ode-residual": ("verify", lambda: [_spoiled_column("u_pp", np.nan)], "exponent-ode-residual"),
    "field-equation-residual": ("verify", lambda: [_spoiled_ricci(0, np.nan)], "exponent-system-residual"),
    "noether": (
        "verify",
        lambda: [_spoiled_result(scalar_field, "log_noether", lambda params, sample: sample.r, np.nan)],
        "noether-constancy-rel",
    ),
    "scalar-gradient-sq-min": ("verify", lambda: [_spoiled_ricci(1, np.nan)], "scalar-gradient-sq-min"),
    "w-positivity-min": (
        "verify", lambda: [_spoiled_result(model, "_w_value", lambda params, r: r, np.nan)], "w-positivity-min"
    ),
    "quoted-scalar-integrand-min": (
        "verify",
        lambda: [_spoiled_result(scalar_field, "phi_prime_sq_quoted", lambda sample, lam: sample.r, np.nan)],
        "quoted-scalar-integrand-min",
    ),
    "quoted-integrand-vs-constraint": (
        "verify",
        lambda: [
            _spoiled_result(scalar_field, "phi_prime_sq_quoted", lambda sample, lam: sample.r, np.inf),
            _spoiled_ricci(1, np.inf),
        ],
        "quoted-integrand-vs-constraint",
    ),
    "margins": ("energy", lambda: [_spoiled_ricci(0, np.nan)], "transverse-null-margin-phi"),
}


@pytest.mark.parametrize("case", sorted(SPOILED_ROWS))
def test_a_nan_in_a_later_block_reaches_every_row_reduced_in_place(monkeypatch, case):
    # Every block temporary is reduced in its own buffer by NaN-propagating
    # maximum and minimum reductions: a NaN at grid index 5000 reaches the
    # folded row, as a whole-grid reduction would, and the first row that
    # reads it raises.
    report, stand_ins, first_row = SPOILED_ROWS[case]
    for owner, name, stand_in in stand_ins():
        monkeypatch.setattr(owner, name, stand_in)
    build = suites.build_verify_report if report == "verify" else suites.build_energy_report
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=f"'{first_row}'"):
        build(3.0, 1.0, samples=9000)


#: Every cached column of a MetricSample.
SAMPLE_COLUMNS = ("q", "f_p", "f_pp", "f_p_sq", "u_p", "u_pp", "abs_q", "log1p_exp_neg_abs_q", "f", "u", "w")


def _record_columns(monkeypatch):
    """Record each MetricSample column as it is computed: [(name, value, bytes at that moment)]."""
    records = []
    for name, column in vars(model.MetricSample).items():
        if isinstance(column, functools.cached_property):

            def recorded(sample, fn=column.func, name=name):
                value = fn(sample)
                records.append((name, value, np.asarray(value).tobytes()))
                return value

            monkeypatch.setattr(column, "func", recorded)
    return records


def _written_columns(records):
    return [name for name, value, first in records if np.asarray(value).tobytes() != first]


@pytest.mark.parametrize("radius", ["block", "0-d"])
def test_no_reader_writes_into_a_sample_column(monkeypatch, radius):
    # A column is one fresh array, never written once it is cached: the
    # curvature, scalar-field and energy readers finish their values in
    # arrays of their own, and at a 0-d radius every column stays a scalar.
    records = _record_columns(monkeypatch)
    params = params_from_xi(3.0, 0.7)
    r = np.linspace(-2.0, 2.0, model.GRID_BLOCK) if radius == "block" else np.float64(0.3)
    sample = metric_eval(params, r)
    for name in SAMPLE_COLUMNS:
        getattr(sample, name)
    ricci = curvature.ricci_mixed(sample)
    curvature.field_residual(ricci, params.lam)
    scalar_field.log_noether(params, sample)
    scalar_field.phi_prime_sq_quoted(sample, params.lam)
    margins = energy_conditions.condition_margins(energy_conditions.stress_decompose(ricci))
    energy_conditions.condition_minima(margins)
    assert [name for name, _, _ in records] == list(SAMPLE_COLUMNS)
    assert _written_columns(records) == []
    if radius == "0-d":
        assert [name for name, value, _ in records if not isinstance(value, np.float64)] == []


def test_no_report_writes_into_a_sample_column(monkeypatch):
    # The same for every column the verify, energy and sweep builders read
    # in their blocks, where each row temporary is reduced in its own buffer.
    records = _record_columns(monkeypatch)
    suites.build_verify_report(3.0, 0.7, samples=9000)
    suites.build_energy_report(3.0, 0.7, samples=9000)
    suites.build_sweep_report("3", "0.7", "2", samples=9000)
    assert {name for name, _, _ in records} == set(SAMPLE_COLUMNS)
    assert _written_columns(records) == []
