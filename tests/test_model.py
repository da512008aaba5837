import math

import numpy as np
import pytest

from lbverify import congruence, curvature, model, scalar_field, suites
from lbverify.errors import ParameterDomainError
from lbverify.model import (
    MAX_ABS_XI,
    metric_eval,
    params_from_xi,
    radial_bound,
    w_eval,
    w_value,
)
from lbverify.numerics import FD_FIRST_STEP, FD_PAIR_STEP, central_diff, five_point_diffs

LAMBDAS = (0.75, 3.0, 12.0)
XIS = (0.0, 0.1, 0.5, 1.0, 2.0)


def test_params_canonical_vacuum_member():
    # c1 = xi^2 = 0 and beta_j = 0: w is exactly e^{-2r/a}.
    params = params_from_xi(3.0, 0.0)
    assert params.a == 1.0
    assert w_value(params, 0.0) == 1.0


def test_params_xi_identity():
    # Canonical gauge c1 = xi^2, c2 = -1: w(0) = (c1 - c2)^{2/3} = 2^{2/3}.
    params = params_from_xi(3.0, 1.0)
    assert params.xi**2 == 1.0
    assert w_value(params, 0.0) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)


def test_params_roundtrip():
    params = params_from_xi(0.75, 0.5)
    assert params.a == 2.0
    assert params.xi == 0.5
    assert w_value(params, 0.0) == pytest.approx(1.25 ** (2.0 / 3.0), rel=1e-15)
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
    assert np.array_equal(w_value(pos, r), w_value(neg, r))


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
    residual = np.abs(s.u_pp[0] + s.u_p[0] * s.f_p - 2.0 * lam)
    assert np.max(residual) < 1e-8


def test_exponent_flux_form_finite_difference():
    # The same first-order equation checked literally, d/dr(u' e^f) against
    # 2 lambda e^f with a finite-difference outer derivative.
    params = params_from_xi(3.0, 0.5)

    def flux(r):
        s = metric_eval(params, r)
        return float(s.u_p[0] * np.exp(s.f))

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
    # The exponents sum to 2f + log(12 lambda) in the canonical gauge.
    assert np.allclose(s.f, 0.5 * (s.u[0] + s.u[1] + s.u[2]) - 0.5 * math.log(12.0 * 0.75), rtol=0, atol=1e-14)
    # f, computed on first read, is the printed closed form
    # -kr + (1/2) log((c1 e^{2kr} - c2)^2 / (12 lambda)) with c1 = xi^2, c2 = -1.
    k = params.k
    printed = -k * grid + 0.5 * np.log((1.3**2 * np.exp(2.0 * k * grid) + 1.0) ** 2 / (12.0 * 0.75))
    assert np.allclose(s.f, printed, rtol=0, atol=1e-13)


def test_w_unit_at_origin_for_vacuum_member():
    params = params_from_xi(2.0, 0.0)
    assert w_value(params, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_w_at_origin_for_unit_xi():
    params = params_from_xi(0.9, 1.0)
    assert w_value(params, 0.0) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)


@pytest.mark.parametrize("xi", (0.1, 0.7, 2.0))
def test_w_at_origin_general(xi):
    params = params_from_xi(3.0, xi)
    assert w_value(params, 0.0) == pytest.approx((1.0 + xi**2) ** (2.0 / 3.0), rel=1e-14)


def test_w_matches_exponential_of_u():
    params = params_from_xi(3.0, 0.1)
    s, w = metric_eval(params, 0.5), w_value(params, 0.5)
    assert abs(w - math.exp(s.u[0])) / w < 1e-12


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
    s, w = metric_eval(params, r), w_value(params, r)
    assert np.max(np.abs(w - np.exp(s.u[0])) / w) < 1e-12


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
    sample = model._ClosedFormSample(params, r)
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


def test_ricci_diagonal_is_exp_u_times_mixed_components():
    params = params_from_xi(3.0, 0.5)
    r = np.linspace(-2.0, 0.5, 33)
    base = metric_eval(params, r)
    deformed = curvature.alpha_deformation_sample(params, (0.3, -0.1, -0.2), r, "arctan")
    # The three exponents of a metric_eval sample are one array: one bracket
    # serves every non-radial axis.  Distinct axes get brackets of their own.
    r_tt, _, r_pp, r_zz = curvature.ricci_mixed(base)
    assert r_tt is r_pp is r_zz
    r_tt, _, r_pp, r_zz = curvature.ricci_mixed(deformed)
    assert len({id(c) for c in (r_tt, r_pp, r_zz)}) == 3
    for s in (base, deformed):
        r_tt, r_rr, r_pp, r_zz = curvature.ricci_mixed(s)
        lowered = (-np.exp(s.u[0]) * r_tt, r_rr, np.exp(s.u[1]) * r_pp, np.exp(s.u[2]) * r_zz)
        covariant = curvature.ricci_diagonal(s)
        for got, want in zip(covariant, lowered):
            assert np.array_equal(got, want)
        # The covariant closed forms R_nn = g_nn (2 u_n'' + u_n' s) / 4,
        # written out: the scaling by 1/4 is exact, so lowering the mixed
        # components reproduces them bit for bit, and ricci-dual-path with
        # them.
        g1, g2, g3 = (np.exp(u) for u in s.u)
        (u1p, u2p, u3p), (u1pp, u2pp, u3pp) = s.u_p, s.u_pp
        total = u1p + u2p + u3p
        assert np.array_equal(covariant[0], -0.25 * g1 * (2.0 * u1pp + u1p * total))
        assert np.array_equal(covariant[2], 0.25 * g2 * (2.0 * u2pp + u2p * total))
        assert np.array_equal(covariant[3], 0.25 * g3 * (2.0 * u3pp + u3p * total))


def test_w_eval_never_evaluates_f_value(monkeypatch):
    # The value of f is the only log1p of the model: w_eval and w_value never
    # take it, and a metric_eval sample takes it once, when its f is first read.
    calls = []

    def counted(name):
        original = getattr(np, name)

        def fn(*args):
            calls.append(name)
            return original(*args)

        return fn

    monkeypatch.setattr(np, "log1p", counted("log1p"))
    params = params_from_xi(3.0, 0.7)
    w, w_p, w_pp = w_eval(params, np.linspace(-2.0, 2.0, 17))
    w_eval(params, 0.3)
    assert calls == []
    w_value(params, 0.3)
    assert calls == []
    s = metric_eval(params, np.linspace(-2.0, 2.0, 17))
    assert calls == []
    f = s.f
    assert s.f is f and s.u[0] is s.u[2]
    assert calls == ["log1p"]
    s_w = w_value(params, s.r)
    assert np.allclose(w, s_w, rtol=1e-14, atol=0.0)
    assert np.allclose(w_p, s_w * s.u_p[0], rtol=1e-14, atol=0.0)
    assert np.allclose(w_pp, s_w * (s.u_pp[0] + s.u_p[0] ** 2), rtol=1e-14, atol=0.0)


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
    assert calls == [4096, 4096, 808]
    calls.clear()
    suites.build_energy_report(12.0, 0.5, samples=9000)
    assert calls == [4096, 4096, 808]
    calls.clear()
    suites.build_sweep_report("1:3:2", "0:1:2", "1.5:2:2")
    assert calls == [257] * 4


def test_dense_blocks_evaluate_w_only_for_verify(monkeypatch):
    # Energy blocks never read w.  Verify blocks read its value alone, once
    # per block, through w_value and never through w_eval (which would also
    # compute w' and w'').
    calls = []
    value = model._w_value

    def counting(params, r, reach):
        calls.append(np.size(r))
        return value(params, r, reach)

    def forbidden(*args):
        raise AssertionError("w_eval called by a dense report")

    monkeypatch.setattr(model, "_w_value", counting)
    monkeypatch.setattr(model, "w_eval", forbidden)
    suites.build_energy_report(12.0, 0.5, samples=9000)
    assert calls == []
    suites.build_verify_report(3.0, 1.0, samples=9000)
    assert calls == [4096, 4096, 808]


def test_verify_w_row_is_the_whole_grid_value_across_the_w_branch():
    # At xi = 1e130, xi^2 e^{6r/a} passes e^709 at r = 18.38 a.  On
    # [17a, 19a] the whole grid takes w_value's log|xi| branch, while the
    # first 4096-point block alone, reaching 17.9 a, would take the direct
    # one, which rounds the minimum of w 4 ulps apart.  Each block takes the
    # window's branch, so the row is the whole-grid value.
    params = params_from_xi(3.0, 1e130)
    grid = np.linspace(17.0, 19.0, 9000)
    rows = {row.check: row for row in suites.build_verify_report(3.0, 1e130, 17.0, 19.0, 9000).rows}
    assert rows["w-positivity-min"].value == w_value(params, grid).min()
    assert w_value(params, grid[: suites.GRID_BLOCK]).min() != rows["w-positivity-min"].value


def test_mixed_curvature_takes_no_exp_on_metric_eval_sample(monkeypatch):
    from lbverify.energy_conditions import stress_decompose

    params = params_from_xi(3.0, 1e10)
    sample = metric_eval(params, np.linspace(-2.0, 2.0, 4096))
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
            if np.size(x) >= suites.GRID_BLOCK:
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
    samples = blocks * suites.GRID_BLOCK
    energy = _block_transcendentals(monkeypatch, lambda **kw: suites.build_energy_report(lam, xi, **kw), samples)
    assert energy["exp"] <= blocks and energy["tanh"] <= blocks and energy["log1p"] == 0, energy
    verify = _block_transcendentals(monkeypatch, lambda **kw: suites.build_verify_report(lam, xi, **kw), samples)
    assert verify["exp"] <= 5 * blocks and verify["log1p"] <= blocks and verify["tanh"] <= blocks, verify


def test_energy_report_reads_no_value_column(monkeypatch):
    def unread(self):
        raise AssertionError("an energy block read f or u")

    for name in ("f", "u"):
        monkeypatch.setattr(model._ClosedFormSample, name, property(unread))
    rows = {row.check: row for row in suites.build_energy_report(3.0, 1.0, samples=9000).rows}
    assert rows["radial-null-vs-gradient-sq"].verdict == "pass"
    with pytest.raises(AssertionError, match="read f or u"):
        metric_eval(params_from_xi(3.0, 1.0), 0.5).f


def test_w_positive_everywhere():
    for lam in LAMBDAS:
        for xi in XIS:
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 1024)
            assert np.min(w_value(params, grid)) > 0.0


@pytest.mark.parametrize("xi", (0.1, 0.5, 1.0, 2.0))
def test_w_has_one_interior_minimum(xi):
    params = params_from_xi(3.0, xi)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 4096)
    _, w_p, _ = w_eval(params, grid)
    signs = np.sign(w_p)
    changes = np.nonzero(np.diff(signs) != 0)[0]
    assert len(changes) == 1
    # The stationary point is the closed-form r = -(a/3) log|xi|.
    r_min = -(params.a / 3.0) * math.log(abs(xi))
    assert grid[changes[0]] <= r_min <= grid[changes[0] + 1]


def test_metric_derivatives_match_finite_differences():
    params = params_from_xi(0.75, 0.8)
    radii = (-2.5, -0.7, 0.0, 1.2, 3.1)
    for r in (*radii, np.array(radii)):
        w_fn = lambda x: w_eval(params, x)[0]
        d1, d2 = five_point_diffs(w_fn, r, FD_PAIR_STEP * params.a)
        w, w_p, w_pp = w_eval(params, r)
        assert d1 == pytest.approx(w_p, rel=1e-9, abs=1e-9)
        assert d2 == pytest.approx(w_pp, rel=1e-6, abs=1e-6)
        f_fn = lambda x: metric_eval(params, x).f
        d1, d2 = five_point_diffs(f_fn, r, FD_PAIR_STEP * params.a)
        s = metric_eval(params, r)
        assert d1 == pytest.approx(s.f_p, rel=1e-9, abs=1e-9)
        assert d2 == pytest.approx(s.f_pp, rel=1e-6, abs=1e-6)


def test_range_error_reports_bound():
    params = params_from_xi(3.0, 1.0)
    bound = radial_bound(params)
    with pytest.raises(ParameterDomainError, match=f"overflow bound {bound:.6g} "):
        metric_eval(params, bound * 1.01)
    with pytest.raises(ParameterDomainError, match="overflow bound"):
        metric_eval(params, -bound * 1.01)


@pytest.mark.parametrize("fn", (w_eval, metric_eval))
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
    # Every metric_eval sample is a _ClosedFormSample (w_eval builds none,
    # and neither builder calls it): record the arrays they are built on.
    # Beside the report grid, verify only evaluates the 25-point Ricci
    # stencils, and energy evaluates nothing else.
    arrays = []
    core = model._ClosedFormSample.__init__

    def recording(self, params, r):
        arrays.append(np.array(r))
        core(self, params, r)

    monkeypatch.setattr(model._ClosedFormSample, "__init__", recording)
    for samples in (9000, 65536):
        grid = np.linspace(-2.0, 2.0, samples)
        for build in (suites.build_energy_report, suites.build_verify_report):
            arrays.clear()
            build(3.0, 1.0, samples=samples)
            assert max(r.size for r in arrays) <= suites.GRID_BLOCK
            dense = [r for r in arrays if r.size > 25]
            # Each report-grid radius once, in order: no midpoint pass.
            assert np.array_equal(np.concatenate(dense), grid), (build.__name__, samples)


def test_congruence_report_takes_one_potential_quadrature(monkeypatch):
    # The potential-gradient stencil is one adaptive_simpson call over the
    # scalar interval [mid - h, mid + h]; no other congruence row integrates.
    calls = []
    simpson = congruence.adaptive_simpson

    def counting(fn, a, b, tol):
        calls.append((np.ndim(a), np.ndim(b)))
        return simpson(fn, a, b, tol)

    monkeypatch.setattr(congruence, "adaptive_simpson", counting)
    suites.build_congruence_report(3.0, 1.0, 2.0)
    assert calls == [(0, 0)]


def test_verify_folds_noether_rows_across_blocks(monkeypatch):
    # A non-constant stand-in for log J makes both Noether rows depend on
    # every block: the folded values must be the whole-grid ones.
    monkeypatch.setattr(scalar_field, "log_noether", lambda params, sample: np.sin(3.0 * sample.r) - 5.0)
    samples = 9000
    j = np.exp(np.sin(3.0 * np.linspace(-2.0, 2.0, samples)) - 5.0)
    rows = {row.check: row.value for row in suites.build_verify_report(3.0, 1.0, samples=samples).rows}
    assert rows["noether-constancy-rel"] == pytest.approx((j.max() - j.min()) / j.mean(), rel=1e-13)
    rows = {row.check: row.value for row in suites.build_verify_report(3.0, 0.0, samples=samples).rows}
    assert rows["noether-zero"] == j.max()
