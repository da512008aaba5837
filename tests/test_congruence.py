import math

import numpy as np
import pytest

from lbverify import congruence
from lbverify.congruence import (
    CongruenceConfig,
    QUOTED_FOCUSING_ROOTS,
    QUOTED_ROOT_RADIUS_FACTOR,
    TURNING_GUARD_REL,
    expansion_rate,
    expansion_rate_scaled_scan,
    expansion_timelike,
    focusing_polynomial,
    focusing_polynomial_reduced,
    focusing_polynomial_roots,
    focusing_sign_map,
    four_velocity,
    hypersurface_potential,
    null_rate,
    null_rate_bracket,
    null_rate_sign_scan,
    radius_candidates,
    timelike_scan,
    tortoise_quadrature,
    tortoise_series,
)
from lbverify.curvature import covariant_divergence_radial
from lbverify.errors import (
    DomainError,
    ForbiddenRegionError,
    ParameterDomainError,
    PoleError,
)
from lbverify.model import params_from_xi, w_eval
from lbverify.numerics import adaptive_simpson, bracket_sign_changes, central_diff


@pytest.fixture
def vacuum():
    params, _ = params_from_xi(3.0, 0.0)
    return params


@pytest.fixture
def unit_xi():
    params, _ = params_from_xi(3.0, 1.0)
    return params


OUT2 = CongruenceConfig(e_tilde=2.0, direction=1)


def test_config_rejects_subunit_energy():
    with pytest.raises(ParameterDomainError):
        CongruenceConfig(e_tilde=0.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterDomainError):
            CongruenceConfig(e_tilde=bad)
    with pytest.raises(ParameterDomainError):
        CongruenceConfig(e_tilde=2.0, direction=0)


def test_four_velocity_turning_point(vacuum):
    assert four_velocity(vacuum, CongruenceConfig(e_tilde=1.0), 0.0) == (1.0, 0.0, 0.0, 0.0)


def test_four_velocity_values_and_norm(vacuum):
    u = four_velocity(vacuum, OUT2, 0.0)
    assert u == (2.0, math.sqrt(3.0), 0.0, 0.0)
    w = float(w_eval(vacuum, 0.0)[0])
    assert -w * u[0] ** 2 + u[1] ** 2 == pytest.approx(-1.0, abs=1e-12)
    ingoing = four_velocity(vacuum, CongruenceConfig(e_tilde=2.0, direction=-1), 0.0)
    assert ingoing[1] == -u[1]


def test_four_velocity_forbidden_region(unit_xi):
    # w(0) = 2^(2/3) > 1 = E^2.
    with pytest.raises(ForbiddenRegionError):
        four_velocity(unit_xi, CongruenceConfig(e_tilde=1.0), 0.0)


def test_normalization_random_admissible():
    rng = np.random.default_rng(555)
    count = 0
    while count < 50:
        lam = float(rng.uniform(0.75, 12.0))
        xi = float(rng.uniform(0.0, 2.0))
        e_tilde = float(rng.uniform(1.0, 4.0))
        params, _ = params_from_xi(lam, xi)
        r = float(rng.uniform(-params.a, params.a))
        w = float(w_eval(params, r)[0])
        if w > e_tilde**2:
            continue
        u = four_velocity(params, CongruenceConfig(e_tilde=e_tilde), r)
        assert -w * u[0] ** 2 + u[1] ** 2 == pytest.approx(-1.0, abs=1e-12)
        count += 1


def test_potential_empty_interval(vacuum):
    assert hypersurface_potential(vacuum, OUT2, 0.3, 0.3) == 0.0


def test_potential_against_elementary_antiderivative(vacuum):
    # For the vacuum member sqrt(E^2/w - 1) = sqrt(4 e^{2r} - 1), whose
    # antiderivative is q - arctan(q) with q = sqrt(4 e^{2r} - 1).
    def antiderivative(r):
        q = math.sqrt(4.0 * math.exp(2.0 * r) - 1.0)
        return q - math.atan(q)

    got = hypersurface_potential(vacuum, OUT2, 0.0, 0.4)
    expected = -(antiderivative(0.4) - antiderivative(0.0))
    assert got == pytest.approx(expected, abs=1e-8)
    # Integrand value sqrt(3) at the origin, via the derivative.
    grad = central_diff(lambda x: hypersurface_potential(vacuum, OUT2, 0.0, x), 0.0)
    assert grad == pytest.approx(-math.sqrt(3.0), abs=1e-6)


def test_potential_gradient_is_minus_velocity_covector(vacuum, unit_xi):
    for params, base in ((vacuum, 0.1), (unit_xi, 0.2)):
        for direction in (1, -1):
            cfg = CongruenceConfig(e_tilde=2.0, direction=direction)
            grad = central_diff(lambda x: hypersurface_potential(params, cfg, base, x), base + 0.05)
            u_r = four_velocity(params, cfg, base + 0.05)[1]
            assert grad + u_r == pytest.approx(0.0, abs=1e-6)


def test_potential_turning_point_endpoint(vacuum):
    # w = 4 = E^2 at r = -log(4)/2: integrable square-root endpoint.
    r_turn = -0.5 * math.log(4.0)
    s_max = math.sqrt(-r_turn)
    oracle = -adaptive_simpson(
        lambda s: math.sqrt(max(4.0 * math.exp(2.0 * (r_turn + s * s)) - 1.0, 0.0)) * 2.0 * s,
        0.0,
        s_max,
        1e-12,
    )
    # The turning point as the upper and as the lower limit.
    for r0, r1, orientation in ((0.0, r_turn, 1.0), (r_turn, 0.0, -1.0)):
        got = hypersurface_potential(vacuum, OUT2, r0, r1)
        assert got == pytest.approx(-orientation * oracle, abs=1e-8)


def test_potential_forbidden_interval(unit_xi):
    with pytest.raises(ForbiddenRegionError):
        hypersurface_potential(unit_xi, CongruenceConfig(e_tilde=1.2), -1.0, 1.0)


def test_expansion_zero_at_stationary_w(unit_xi):
    # w has its minimum at r = 0 for xi = 1; both derivative terms carry w'.
    assert expansion_timelike(unit_xi, OUT2, 0.0) == 0.0


def test_expansion_hand_value(vacuum):
    expected = -5.0 / math.sqrt(3.0)
    assert expansion_timelike(vacuum, OUT2, 0.0) == pytest.approx(expected, rel=1e-14)
    ingoing = CongruenceConfig(e_tilde=2.0, direction=-1)
    assert expansion_timelike(vacuum, ingoing, 0.0) == pytest.approx(-expected, rel=1e-14)


def test_expansion_matches_covariant_divergence(vacuum, unit_xi):
    for params, r in ((vacuum, 0.1), (vacuum, -0.4), (unit_xi, 0.25), (unit_xi, -0.2)):
        theta = expansion_timelike(params, OUT2, r)
        div = covariant_divergence_radial(
            lambda x: float(w_eval(params, x)[0]) ** 1.5,
            lambda x: four_velocity(params, OUT2, x)[1],
            r,
        )
        assert theta == pytest.approx(div, abs=1e-6)


def test_expansion_divergence_flag_at_turning_point(vacuum):
    r_turn = -0.5 * math.log(4.0)
    assert math.isinf(expansion_timelike(vacuum, OUT2, r_turn))
    assert math.isinf(expansion_rate(vacuum, OUT2, r_turn))


def test_rate_frozen_value(vacuum):
    # Elementary reduction at the vacuum member gives exactly -28/3 here.
    assert expansion_rate(vacuum, OUT2, 0.0) == pytest.approx(-28.0 / 3.0, rel=1e-14)


def test_rate_direction_independent(unit_xi):
    ingoing = CongruenceConfig(e_tilde=2.0, direction=-1)
    assert expansion_rate(unit_xi, OUT2, 0.3) == expansion_rate(unit_xi, ingoing, 0.3)


def test_rate_chain_rule_random_admissible():
    rng = np.random.default_rng(987123)
    count = 0
    while count < 100:
        lam = float(rng.uniform(0.75, 12.0))
        xi = float(rng.uniform(0.0, 2.0))
        e_tilde = float(rng.uniform(1.1, 3.0))
        params, _ = params_from_xi(lam, xi)
        r = float(rng.uniform(-params.a, params.a))
        w = float(w_eval(params, r)[0])
        if w > e_tilde**2 * (1.0 - 1e-3):
            continue
        cfg = CongruenceConfig(e_tilde=e_tilde)
        rate = expansion_rate(params, cfg, r)
        if abs(rate) < 1e-2:
            continue
        h = congruence.chain_rule_fd_step(params, cfg, r)
        theta_prime = central_diff(lambda x: expansion_timelike(params, cfg, x), r, h)
        u_r = four_velocity(params, cfg, r)[1]
        assert abs(theta_prime * u_r - rate) / abs(rate) < 1e-5
        count += 1


def test_scaled_form_comparison_pair():
    params, _ = params_from_xi(3.0, 0.1)
    pair = expansion_rate_scaled_scan(params, OUT2, np.array([0.0]))
    x = float(w_eval(params, 0.0)[0]) / OUT2.e_tilde**2
    b = abs(params.xi / OUT2.e_tilde)
    assert pair.quoted[0] == pytest.approx(
        0.5 * 3.0 * focusing_polynomial(x, b) / (x * (1.0 - x)), rel=1e-14
    )
    assert pair.direct[0] == pytest.approx(expansion_rate(params, OUT2, 0.0), rel=1e-14)
    # The two forms disagree wildly: that disagreement is the report.
    assert pair.quoted[0] > 0.0 > pair.direct[0]
    assert abs(pair.difference[0]) > 10.0


def test_scaled_form_shared_singularity_flags(vacuum):
    # x -> 1 is exactly the turning point: the quoted form diverges through
    # 1/(1-x) where the direct form diverges too; both come back as flags.
    r_turn = -0.5 * math.log(4.0)
    pair = expansion_rate_scaled_scan(vacuum, OUT2, np.array([r_turn]))
    assert math.isinf(pair.quoted[0])
    assert math.isinf(pair.direct[0])


def test_scaled_b_invariant_under_common_scale():
    for scale in (1.0, 2.0, 3.0):
        p1, _ = params_from_xi(3.0, 0.2)
        p2, _ = params_from_xi(3.0, 0.2 * scale)
        cfg1 = CongruenceConfig(e_tilde=1.5)
        cfg2 = CongruenceConfig(e_tilde=1.5 * scale)
        assert abs(p2.xi / cfg2.e_tilde) == pytest.approx(abs(p1.xi / cfg1.e_tilde), rel=1e-15)


def test_focusing_polynomial_corner_values():
    assert focusing_polynomial(1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert focusing_polynomial(1.0, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_focusing_polynomial_reduction_identity():
    rng = np.random.default_rng(31415)
    for x in rng.uniform(1e-3, 1.0, size=1000):
        x = float(x)
        assert abs(focusing_polynomial(x, 0.0) - focusing_polynomial_reduced(x)) < 1e-12


def test_focusing_polynomial_errors():
    with pytest.raises(DomainError):
        focusing_polynomial(0.5, 0.49)  # x^3 < 4 b^2
    with pytest.raises(PoleError):
        focusing_polynomial(-0.5, 0.0)  # y = |x|^3 cancels x^3


def test_roots_none_for_b_zero():
    scan = focusing_polynomial_roots(0.0)
    assert scan.roots == ()
    assert scan.reduced_discriminant == -359.0
    assert scan.reduced_roots == ()
    # The quoted roots are not zeros of the reduction.
    for quoted in QUOTED_FOCUSING_ROOTS:
        assert abs(focusing_polynomial_reduced(quoted)) > 1.0


def test_roots_appear_near_half(unit_xi):
    scan = focusing_polynomial_roots(0.49)
    assert len(scan.roots) == 1
    root = scan.roots[0]
    assert (4.0 * 0.49**2) ** (1.0 / 3.0) < root < 1.0
    assert abs(focusing_polynomial(root, 0.49)) < 1e-10


def test_boundary_root_at_exactly_half():
    scan = focusing_polynomial_roots(0.5)
    assert scan.roots == ()
    assert scan.boundary_roots == (1.0,)


def test_roots_reject_bad_b():
    with pytest.raises(ParameterDomainError):
        focusing_polynomial_roots(0.6)
    with pytest.raises(ParameterDomainError):
        focusing_polynomial_roots(-0.1)


def test_sign_map_contradicts_negativity_claim():
    sign_map = focusing_sign_map((0.0, 0.1, 0.25, 0.49), nx=512)
    for b in (0.0, 0.1, 0.25):
        _, vals = sign_map[b]
        assert np.all(vals > 0.0)
    _, vals49 = sign_map[0.49]
    assert np.any(vals49 < 0.0)
    assert np.any(vals49 > 0.0)


def test_radius_quoted_anchor(unit_xi):
    candidates = radius_candidates(unit_xi, QUOTED_FOCUSING_ROOTS[1])
    assert abs(candidates.from_exponential / unit_xi.a - QUOTED_ROOT_RADIUS_FACTOR) < 5e-4
    # The w channel has no solution: 1.178 < min w = 2^(2/3).
    assert candidates.from_w == ()


def test_radius_trivial_value(unit_xi):
    assert radius_candidates(unit_xi, 1.0).from_exponential == 0.0


def test_radius_w_channel_vacuum(vacuum):
    candidates = radius_candidates(vacuum, 0.377)
    assert len(candidates.from_w) == 1
    assert candidates.from_w[0] == pytest.approx(-math.log(0.377) / 2.0, abs=1e-10)
    assert candidates.from_exponential == pytest.approx(math.log(0.377) / 6.0, rel=1e-14)


def test_radius_w_channel_two_solutions(unit_xi):
    # Above the minimum of w there are two radii.
    candidates = radius_candidates(unit_xi, 3.0)
    assert len(candidates.from_w) == 2


def test_radius_rejects_nonpositive(unit_xi):
    with pytest.raises(ParameterDomainError):
        radius_candidates(unit_xi, 0.0)


def test_tortoise_vacuum_exponential(vacuum):
    for r in (-1.0, 0.0, 0.5, 1.0):
        series = tortoise_series(vacuum, r)
        assert series == pytest.approx(math.exp(r), rel=1e-14)
        assert abs(series - tortoise_quadrature(vacuum, r)) <= 1e-8 * max(1.0, abs(series))


def test_tortoise_constant_pinned_by_improper_integral(unit_xi):
    # r*(0) equals the integral of 1/sqrt(w) from far below, where r* -> 0.
    value = tortoise_series(unit_xi, 0.0)
    oracle = adaptive_simpson(
        lambda x: 1.0 / math.sqrt(float(w_eval(unit_xi, x)[0])), -40.0, 0.0, 1e-12
    )
    assert value == pytest.approx(oracle, abs=1e-8)


def test_tortoise_channels_agree(unit_xi):
    for r in (-0.8, -0.2, 0.0, 0.4, 1.0):
        assert abs(tortoise_series(unit_xi, r) - tortoise_quadrature(unit_xi, r)) < 1e-8


def test_tortoise_derivative_identity():
    for xi in (0.1, 0.5, 1.0):
        params, _ = params_from_xi(3.0, xi)
        for r in (-0.7, 0.0, 0.3):
            d = central_diff(lambda x: tortoise_series(params, x), r)
            w = float(w_eval(params, r)[0])
            assert d * math.sqrt(w) == pytest.approx(1.0, abs=1e-6)


def test_tortoise_series_nonconvergence_error():
    # Far out on the window at large xi the transformed argument approaches 1
    # and the term cap is exceeded: that is a reported evaluation error.
    from lbverify.errors import SpecialFunctionError

    params, _ = params_from_xi(3.0, 2.0)
    with pytest.raises(SpecialFunctionError):
        tortoise_series(params, 2.0)


def test_tortoise_series_nonconvergence_quotes_caller_argument():
    # The error names the caller's z = -xi^2 e^{6r/a}, not only the Pfaff
    # argument z/(z-1), which sits just below 1 and would look harmless.
    from lbverify.errors import SpecialFunctionError

    params, _ = params_from_xi(3.0, 2.0)
    z = -(2.0**2) * math.exp(6.0 * 2.0 / params.a)
    with pytest.raises(SpecialFunctionError) as excinfo:
        tortoise_series(params, 2.0)
    message = str(excinfo.value)
    assert f"at z = {z:.6g} " in message
    assert f"t = z/(z-1) = {z / (z - 1.0):.12g}" in message


def test_null_rate_zero_for_constant_profile(monkeypatch, unit_xi):
    monkeypatch.setattr(congruence, "w_eval", lambda p, r: (2.0, 0.0, 0.0))
    assert null_rate(unit_xi, OUT2, 0.3) == 0.0


def test_null_rate_vacuum_reduction(vacuum):
    # w = e^{-2r/a} gives bracket -2 w / a^2, so the rate is
    # -(2/a^2) sqrt(E^2 - w).
    for r in (-0.5, 0.0, 0.4):
        w = float(w_eval(vacuum, r)[0])
        expected = -2.0 * math.sqrt(4.0 - w)
        assert null_rate(vacuum, OUT2, r) == pytest.approx(expected, abs=1e-9)
        assert null_rate_bracket(vacuum, r) == pytest.approx(-2.0 * w, rel=1e-12)


def test_null_rate_forbidden(unit_xi):
    with pytest.raises(ForbiddenRegionError):
        null_rate(unit_xi, CongruenceConfig(e_tilde=1.0), 0.0)


def test_null_sign_scan_vacuum_negative_everywhere(vacuum):
    scan = null_rate_sign_scan(vacuum, OUT2, np.linspace(-0.6, 2.0, 257))
    ok = [s for s in scan if s.status == "ok"]
    assert ok
    assert all(s.dtheta_dtau < 0.0 for s in ok)


@pytest.mark.parametrize("xi", (0.5, 1.0))
def test_null_sign_scan_violations_itemized(xi):
    params, _ = params_from_xi(3.0, xi)
    scan = null_rate_sign_scan(params, OUT2, np.linspace(-2.0, 2.0, 257))
    ok = [s for s in scan if s.status == "ok"]
    violations = [s for s in ok if s.dtheta_dtau >= 0.0]
    assert violations, "expected sign violations of the always-negative claim"
    # The bracket changes sign where 12 p = (p - 1)^2, p = xi^2 e^{6r/a}.
    assert any(s.dtheta_dtau > 0.1 for s in violations)


def test_scan_statuses(unit_xi):
    scan = null_rate_sign_scan(unit_xi, OUT2, np.linspace(-2.0, 2.0, 65))
    statuses = {s.status for s in scan}
    assert "forbidden" in statuses and "ok" in statuses


def _rel_close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("xi", (0.0, 0.5, 1.0))
def test_array_scans_match_scalar_point_functions(xi):
    params, _ = params_from_xi(3.0, xi)
    e2 = OUT2.e_tilde**2
    # The grid includes the turning points w = E^2 themselves.
    turning = radius_candidates(params, e2).from_w
    grid = np.sort(np.concatenate([np.linspace(-2.0 * params.a, 2.0 * params.a, 257), turning]))
    timelike = timelike_scan(params, OUT2, grid)
    null = null_rate_sign_scan(params, OUT2, grid)
    seen = set()
    for r, t, n in zip(grid.tolist(), timelike, null):
        assert t.r == n.r == r
        w = float(w_eval(params, r)[0])
        if w > e2:
            expected = "forbidden"
            for point_fn in (expansion_timelike, expansion_rate, null_rate):
                with pytest.raises(ForbiddenRegionError):
                    point_fn(params, OUT2, r)
        elif abs(e2 - w) < TURNING_GUARD_REL * e2:
            expected = "turning"
        else:
            expected = "ok"
        assert t.status == n.status == expected
        seen.add(expected)
        if expected == "ok":
            assert _rel_close(t.theta, expansion_timelike(params, OUT2, r), 1e-12)
            assert _rel_close(t.dtheta_dtau, expansion_rate(params, OUT2, r), 1e-12)
            assert _rel_close(n.dtheta_dtau, null_rate(params, OUT2, r), 1e-12)
        else:
            assert math.isnan(t.theta) and math.isnan(t.dtheta_dtau) and math.isnan(n.dtheta_dtau)
        assert math.isnan(n.theta)
    assert seen == {"forbidden", "turning", "ok"}


def test_scans_of_empty_grid():
    params, _ = params_from_xi(3.0, 1.0)
    assert timelike_scan(params, OUT2, np.array([])) == []
    assert null_rate_sign_scan(params, OUT2, np.array([])) == []


def test_scaled_rate_scan_marks_points_outside_quoted_domain(unit_xi):
    # b = 1/2 at xi = 1, E = 2: y^2 < 0 wherever x < 1, so the polynomial raises.
    r = np.array([-0.2, 0.0, 0.3])
    scan = expansion_rate_scaled_scan(unit_xi, OUT2, r)
    for i, r_i in enumerate(r.tolist()):
        with pytest.raises(DomainError):
            focusing_polynomial(float(w_eval(unit_xi, r_i)[0]) / OUT2.e_tilde**2, 0.5)
        assert math.isnan(scan.quoted[i]) and math.isnan(scan.difference[i])
        assert scan.direct[i] == pytest.approx(expansion_rate(unit_xi, OUT2, r_i), rel=1e-12)


def test_sign_map_matches_scalar_polynomial():
    b_values = (0.0, 0.1, 0.25, 0.49)
    sign_map = focusing_sign_map(b_values, nx=512)
    for b in b_values:
        xs, vals = sign_map[b]
        for x, v in zip(xs.tolist(), vals.tolist()):
            assert _rel_close(v, focusing_polynomial(x, b), 1e-13)


def test_focusing_polynomial_array_errors():
    with pytest.raises(DomainError):
        focusing_polynomial(np.array([0.9, 0.5]), 0.49)
    with pytest.raises(PoleError):
        focusing_polynomial(np.array([0.5, -0.5]), 0.0)


def test_point_functions_vectorize(unit_xi):
    r = np.array([-0.3, 0.0, 0.25])
    u_t, u_r, _, _ = four_velocity(unit_xi, OUT2, r)
    h = congruence.chain_rule_fd_step(unit_xi, OUT2, r)
    theta = expansion_timelike(unit_xi, OUT2, r)
    for i, r_i in enumerate(r.tolist()):
        u = four_velocity(unit_xi, OUT2, r_i)
        assert (u_t[i], u_r[i]) == (u[0], u[1])
        assert h[i] == congruence.chain_rule_fd_step(unit_xi, OUT2, r_i)
        assert theta[i] == expansion_timelike(unit_xi, OUT2, r_i)
    with pytest.raises(ForbiddenRegionError):
        four_velocity(unit_xi, OUT2, np.array([0.0, -2.0]))


def test_bracket_scan_calls_fn_once_on_the_grid():
    calls = []

    def fn(x):
        calls.append(np.shape(x))
        return (x - 0.5) * (x - 0.8)

    # Grid 0, 0.25, 0.5, 0.75, 1: an exact zero at 0.5, a sign change in [0.75, 1].
    assert bracket_sign_changes(fn, 0.0, 1.0, 4) == [(0.5, 0.5), (0.75, 1.0)]
    assert calls == [(5,)]
    assert bracket_sign_changes(lambda x: x - 1.0, 0.0, 1.0, 4) == [(1.0, 1.0)]
    assert bracket_sign_changes(lambda x: x + 1.0, 0.0, 1.0, 4) == []
