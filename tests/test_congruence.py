import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lbverify import congruence, model, suites
from lbverify.congruence import (
    CongruenceConfig,
    KinematicsScan,
    QUOTED_FOCUSING_ROOTS,
    QUOTED_ROOT_RADIUS_FACTOR,
    SIGN_MAP_NX,
    TURNING_GUARD_REL,
    focusing_polynomial,
    focusing_polynomial_reduced,
    focusing_polynomial_roots,
    focusing_sign_map,
    hypersurface_potential,
    kinematics_scan,
    quoted_scaled_rate,
    radius_candidates,
    tortoise_quadrature,
    tortoise_series,
)
from lbverify.errors import ParameterDomainError
from lbverify.model import log_w_jet, metric_eval, params_from_xi
from lbverify.numerics import (
    EPS,
    FD_FIRST_STEP,
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    QUAD_DEPTH_CAP,
    QUAD_ROUNDING_FLOOR,
    adaptive_gauss_kronrod,
    bracket_sign_changes,
    sign_change_roots,
)
from oracles import central_diff


@pytest.fixture
def vacuum():
    params = params_from_xi(3.0, 0.0)
    return params


@pytest.fixture
def unit_xi():
    params = params_from_xi(3.0, 1.0)
    return params


OUT2 = CongruenceConfig(e_tilde=2.0)


def _w_columns(params, r):
    """(w, w', w'') at r, from the ``metric_eval`` sample's w, u' and u''."""
    sample = metric_eval(params, r)
    return sample.w, sample.w * sample.u_p, sample.w * (sample.u_pp + sample.u_p * sample.u_p)


def _x_columns(params, e_tilde, r):
    """(x, u', u'') at r, x = w/E^2, as a scan reads them."""
    sample = metric_eval(params, r)
    return sample.w / e_tilde**2, sample.u_p, sample.u_pp


def _rate_closed_form(params, e_tilde, r):
    """d theta / d tau written out from (w, w', w'') at one radius."""
    w, w_p, w_pp = (float(v) for v in _w_columns(params, r))
    e2 = e_tilde**2
    first = (w_pp * (2.0 * e2 - 3.0 * w) - 3.0 * w_p**2) / (2.0 * w * w)
    return first - w_p**2 * (2.0 * e2 - 3.0 * w) * (3.0 * e2 - 4.0 * w) / (4.0 * w**3 * (e2 - w))


def _null_rate_closed_form(params, e_tilde, r):
    """(1/w) sqrt(E^2 - w) [w'' - (3/2) w'^2 / w] at one radius."""
    w, w_p, w_pp = (float(v) for v in _w_columns(params, r))
    return math.sqrt(e_tilde**2 - w) / w * (w_pp - 1.5 * w_p * w_p / w)


def _theta_closed_form(params, e_tilde, r):
    """w'(2E^2 - 3w) / (2 w^{3/2} sqrt(E^2 - w)) at one radius."""
    w, w_p, _ = (float(v) for v in _w_columns(params, r))
    e2 = e_tilde**2
    return w_p * (2.0 * e2 - 3.0 * w) / (2.0 * w**1.5 * math.sqrt(e2 - w))


def _scan_at(params, cfg, r):
    """The scan of the one radius r."""
    return kinematics_scan(metric_eval(params, np.array([r])), cfg)


def _scan_rate(params, cfg, r):
    """The scan's d theta / d tau at one admissible radius."""
    return float(_scan_at(params, cfg, r).dtheta_dtau[0])


def _scan_theta(params, cfg, r):
    """The scan's expansion theta at one admissible radius."""
    return float(_scan_at(params, cfg, r).theta[0])


def _scan_velocity(params, cfg, r):
    """The scan's (x, u^r) at one admissible radius; u^t = E/w enters the norm as -w (u^t)^2 = -1/x."""
    scan = _scan_at(params, cfg, r)
    return float(scan.x[0]), float(scan.u_r[0])


def test_config_rejects_subunit_energy():
    with pytest.raises(ParameterDomainError):
        CongruenceConfig(e_tilde=0.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterDomainError):
            CongruenceConfig(e_tilde=bad)


def test_four_velocity_turning_point(vacuum):
    # w(0) = 1 = E^2: a scan drops the radius into its guard band, so the
    # columns are read on a scan built at x = 1 itself.
    s = metric_eval(vacuum, np.array([0.0]))
    scan = KinematicsScan(r=s.r, x=s.w / 1.0, u_p=s.u_p, u_pp=s.u_pp, e_tilde=1.0)
    assert (scan.x.tolist(), scan.u_r.tolist()) == ([1.0], [0.0])


def test_four_velocity_values_and_norm(vacuum):
    # w(0) = 1: x = 1/4, u^t = E/w = 2 and u^r = sqrt(3).
    x, u_r = _scan_velocity(vacuum, OUT2, 0.0)
    assert (x, u_r) == (0.25, math.sqrt(3.0))
    w = float(metric_eval(vacuum, 0.0).w)
    assert x == w / OUT2.e_tilde**2
    assert -w * (OUT2.e_tilde / w) ** 2 == -1.0 / x
    assert -1.0 / x + u_r**2 == pytest.approx(-1.0, abs=1e-12)


def test_four_velocity_forbidden_region(unit_xi):
    # w(0) = 2^(2/3) > 1 = E^2: the scan drops the radius, so it has no 4-velocity there.
    scan = _scan_at(unit_xi, CongruenceConfig(e_tilde=1.0), 0.0)
    assert scan.x.size == scan.u_r.size == 0


def test_normalization_random_admissible():
    rng = np.random.default_rng(555)
    count = 0
    while count < 50:
        lam = float(rng.uniform(0.75, 12.0))
        xi = float(rng.uniform(0.0, 2.0))
        e_tilde = float(rng.uniform(1.0, 4.0))
        params = params_from_xi(lam, xi)
        r = float(rng.uniform(-params.a, params.a))
        w = float(metric_eval(params, r).w)
        if w > e_tilde**2:
            continue
        x, u_r = _scan_velocity(params, CongruenceConfig(e_tilde=e_tilde), r)
        assert x == pytest.approx(w / e_tilde**2, rel=1e-15)
        assert -1.0 / x + u_r**2 == pytest.approx(-1.0, abs=1e-12)
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
    grad = central_diff(lambda x: hypersurface_potential(vacuum, OUT2, 0.0, x), 0.0, FD_FIRST_STEP * vacuum.a)
    assert grad == pytest.approx(-math.sqrt(3.0), abs=1e-6)


def test_potential_gradient_is_minus_velocity_covector(vacuum, unit_xi):
    for params, base in ((vacuum, 0.1), (unit_xi, 0.2)):
        h = FD_FIRST_STEP * params.a
        grad = central_diff(lambda x: hypersurface_potential(params, OUT2, base, x), base + 0.05, h)
        u_r = _scan_velocity(params, OUT2, base + 0.05)[1]
        assert grad + u_r == pytest.approx(0.0, abs=1e-6)


def test_potential_turning_point_endpoint(vacuum, unit_xi):
    # w = 4 = E^2 at r = -log(4)/2: integrable square-root endpoint.  The
    # oracle removes the cusp with r = r_turn + s^2.
    r_turn = -0.5 * math.log(4.0)
    s_max = math.sqrt(-r_turn)
    oracle = -adaptive_gauss_kronrod(
        lambda s: np.sqrt(np.maximum(4.0 * np.exp(2.0 * (r_turn + s * s)) - 1.0, 0.0)) * 2.0 * s,
        0.0,
        s_max,
        1e-12,
    )
    # The turning point as the upper and as the lower limit.
    for r0, r1, orientation in ((0.0, r_turn, 1.0), (r_turn, 0.0, -1.0)):
        got = hypersurface_potential(vacuum, OUT2, r0, r1)
        assert got == pytest.approx(-orientation * oracle, abs=1e-8)
    # A reversed interval without a turning end is minus the forward one.
    assert hypersurface_potential(vacuum, OUT2, 0.4, -0.3) == -hypersurface_potential(vacuum, OUT2, -0.3, 0.4)
    # At xi = 1 the profile meets E^2 = 4 on both sides of its minimum.  The
    # oracle splits the interval at its midpoint and integrates each half
    # with the substitution from its turning end; the potential itself is
    # one plain quadrature over the interval.
    left, right = radius_candidates(unit_xi, 4.0).from_w
    mid = 0.5 * (left + right)

    def from_end(end, step):
        integrand = lambda r: np.sqrt(np.maximum(4.0 / metric_eval(unit_xi, r).w - 1.0, 0.0))
        return adaptive_gauss_kronrod(
            lambda s: integrand(end + step * s * s) * 2.0 * s, 0.0, math.sqrt(abs(mid - end)), 1e-12
        )

    oracle = from_end(left, 1.0) + from_end(right, -1.0)
    forward = hypersurface_potential(unit_xi, OUT2, left, right)
    assert forward == pytest.approx(-oracle, abs=1e-8)
    assert hypersurface_potential(unit_xi, OUT2, right, left) == -forward


def test_potential_interval_with_both_ends_near_turning_point(vacuum):
    # Both ends within 1e-9 E^2 of E^2 = 4 (r_turn = -log 2), the second
    # interval one ulp wide: the potential is the plain quadrature there too.
    r_turn = -math.log(2.0)
    for r0, r1 in ((r_turn + 2e-10, r_turn + 4e-10), (-0.6931471803099453, np.nextafter(-0.6931471803099453, 0.0))):
        e2_minus_w = 4.0 - metric_eval(vacuum, np.array([r0, r1])).w
        assert np.all((e2_minus_w > 0.0) & (e2_minus_w <= 4e-9))
        plain = -adaptive_gauss_kronrod(lambda r: congruence._sqrt_integrand(vacuum, OUT2, r), r0, r1, 1e-10)
        assert hypersurface_potential(vacuum, OUT2, r0, r1) == plain
        # q - arctan(q) with q = sqrt(4 e^{2r} - 1), as above.
        q0, q1 = (math.sqrt(4.0 * math.exp(2.0 * r) - 1.0) for r in (r0, r1))
        assert plain == pytest.approx(-((q1 - math.atan(q1)) - (q0 - math.atan(q0))), abs=1e-15)


def test_potential_forbidden_interval(unit_xi):
    with pytest.raises(ParameterDomainError, match=r"> E\^2"):
        hypersurface_potential(unit_xi, CongruenceConfig(e_tilde=1.2), -1.0, 1.0)
    # w(-21.4) = 3.87e18 > E^2 = 1e16, a forbidden radius of the scans: the
    # guard reads E^2/w - 1, which never drops below -1, so it must not
    # scale with E^2.  The radius it names is a node inside the interval.
    with pytest.raises(ParameterDomainError, match=r"> E\^2 at r = \S+ inside") as excinfo:
        hypersurface_potential(unit_xi, CongruenceConfig(e_tilde=1e8), -21.4, -17.4)
    r = float(re.search(r"at r = (\S+) inside", str(excinfo.value)).group(1))
    assert -21.4 < r < -17.4
    assert float(metric_eval(unit_xi, r).w) > 1e16


def test_expansion_zero_at_stationary_w(unit_xi):
    # w has its minimum at r = 0 for xi = 1; both derivative terms carry w'.
    assert _scan_theta(unit_xi, OUT2, 0.0) == 0.0


def test_expansion_hand_value(vacuum):
    expected = -5.0 / math.sqrt(3.0)
    assert _scan_theta(vacuum, OUT2, 0.0) == pytest.approx(expected, rel=1e-14)


def test_expansion_matches_covariant_divergence(vacuum, unit_xi):
    # (1/sqrt|g|) d/dr (sqrt|g| u^r) with sqrt|g| = w^{3/2}, from a jet of w.
    for params, r in ((vacuum, 0.1), (vacuum, -0.4), (unit_xi, 0.25), (unit_xi, -0.2)):
        theta = _scan_theta(params, OUT2, r)
        w = log_w_jet(params, r).exp()
        volume = w**1.5
        div = (volume * (OUT2.e_tilde**2 * w**-1.0 - 1.0) ** 0.5).d1 / volume.v
        assert theta == pytest.approx(div, abs=1e-6)


def test_expansion_divergence_flag_at_turning_point(vacuum):
    r_turn = -0.5 * math.log(4.0)
    assert math.isinf(congruence._theta(*_x_columns(vacuum, OUT2.e_tilde, r_turn)[:2]))
    assert math.isinf(congruence._rate(*_x_columns(vacuum, OUT2.e_tilde, r_turn)))


def test_rate_frozen_value(vacuum):
    # Elementary reduction at the vacuum member gives exactly -28/3 here.
    assert _scan_rate(vacuum, OUT2, 0.0) == pytest.approx(-28.0 / 3.0, rel=1e-14)


def test_rate_chain_rule_random_admissible():
    rng = np.random.default_rng(987123)
    count = 0
    while count < 100:
        lam = float(rng.uniform(0.75, 12.0))
        xi = float(rng.uniform(0.0, 2.0))
        e_tilde = float(rng.uniform(1.1, 3.0))
        params = params_from_xi(lam, xi)
        r = float(rng.uniform(-params.a, params.a))
        w = float(metric_eval(params, r).w)
        if w > e_tilde**2 * (1.0 - 1e-3):
            continue
        cfg = CongruenceConfig(e_tilde=e_tilde)
        rate = _scan_rate(params, cfg, r)
        if abs(rate) < 1e-2:
            continue
        h = congruence.chain_rule_fd_step(params, cfg, r)
        theta_prime = central_diff(lambda x: _scan_theta(params, cfg, x), r, h)
        u_r = _scan_velocity(params, cfg, r)[1]
        assert abs(theta_prime * u_r - rate) / abs(rate) < 1e-5
        count += 1


def test_scaled_form_comparison_pair():
    params = params_from_xi(3.0, 0.1)
    grid = np.array([0.0])
    scan = kinematics_scan(metric_eval(params, grid), OUT2)
    quoted = quoted_scaled_rate(params, OUT2, scan.x)
    direct = scan.dtheta_dtau[0]
    x = float(metric_eval(params, 0.0).w) / OUT2.e_tilde**2
    b = abs(params.xi / OUT2.e_tilde)
    assert quoted[0] == pytest.approx(
        0.5 * 3.0 * focusing_polynomial(x, b) / (x * (1.0 - x)), rel=1e-14
    )
    assert direct == pytest.approx(_rate_closed_form(params, OUT2.e_tilde, 0.0), rel=1e-14)
    # The two forms disagree wildly: that disagreement is the report.
    assert quoted[0] > 0.0 > direct
    assert abs(quoted[0] - direct) > 10.0


def test_scaled_form_shared_singularity_flags(vacuum):
    # x -> 1 is exactly the turning point: the quoted form diverges through
    # 1/(1-x) where the direct form diverges too; both come back as flags.
    r_turn = -0.5 * math.log(4.0)
    x, u_p, u_pp = _x_columns(vacuum, OUT2.e_tilde, np.array([r_turn]))
    assert x.tolist() == [1.0]
    assert math.isinf(quoted_scaled_rate(vacuum, OUT2, x)[0])
    assert math.isinf(congruence._rate(x, u_p, u_pp)[0])


def test_scaled_rate_is_nan_where_x_cubed_underflows(unit_xi):
    # For x > 0 the denominator x^3 + y is positive, so where x = w/E^2 is
    # so small that x^3 underflows to 0, its zero is rounding: the quoted
    # rate marks the point outside its domain.  focusing_polynomial keeps
    # its pole check for direct callers.
    cfg = CongruenceConfig(e_tilde=1e60)
    x = _x_columns(unit_xi, cfg.e_tilde, np.array([-1.0, 0.0, 1.0]))[0]
    assert np.all(x > 0.0) and np.all(x**3 == 0.0)
    assert np.all(np.isnan(quoted_scaled_rate(unit_xi, cfg, x)))
    with pytest.raises(ParameterDomainError, match=r"x\^3 \+ y = 0"):
        focusing_polynomial(x, abs(unit_xi.xi / cfg.e_tilde))


def test_scaled_b_invariant_under_common_scale():
    for scale in (1.0, 2.0, 3.0):
        p1 = params_from_xi(3.0, 0.2)
        p2 = params_from_xi(3.0, 0.2 * scale)
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
    with pytest.raises(ParameterDomainError, match=r"y\^2 = .* < 0"):
        focusing_polynomial(0.5, 0.49)  # x^3 < 4 b^2
    with pytest.raises(ParameterDomainError, match=r"x\^3 \+ y = 0"):
        focusing_polynomial(-0.5, 0.0)  # y = |x|^3 cancels x^3


def test_focusing_polynomial_noise_band_edge():
    # y^2 = x^6 - 4 b^2 x^3 vanishes at x0 = cbrt(4 b^2).  Just below x0 it
    # is cancellation noise, clamped down to -8 eps S with
    # S = |x|^6 + 4 b^2 |x|^3.  At b = 0.25, 6 ulps below x0 y^2 is
    # -7.0 eps S (clamped) and 7 ulps below it is -8.25 eps S (a domain
    # error).  A band that read S with 4 b^2 / |x|^3 would be 8.5 times as
    # wide here and accept both.
    b = 0.25
    x0 = np.cbrt(4.0 * b * b)
    eps = np.finfo(float).eps
    for ulps, ratio in ((6, -7.0), (7, -8.25)):
        x = x0 - ulps * np.spacing(x0)
        scale = np.abs(x) ** 6 + 4.0 * b * b * np.abs(x) ** 3
        assert (x**6 - 4.0 * b * b * x**3) / (eps * scale) == pytest.approx(ratio, rel=1e-12)
    assert np.isfinite(focusing_polynomial(x0 - 6 * np.spacing(x0), b))
    with pytest.raises(ParameterDomainError, match=r"y\^2 = .* < 0"):
        focusing_polynomial(x0 - 7 * np.spacing(x0), b)


def test_roots_none_for_b_zero():
    assert focusing_polynomial_roots(0.0) == ()
    # The reduction's minimum, at its vertex x = 91/108, is -D / (24 * 54)
    # for the discriminant D = 91^2 - 4 * 54 * 40 = -359 of 54 x^2 - 91 x + 40.
    assert focusing_polynomial_reduced(91.0 / 108.0) == pytest.approx(359.0 / 1296.0, rel=1e-14)
    # The quoted roots are not zeros of the reduction.
    for quoted in QUOTED_FOCUSING_ROOTS:
        assert abs(focusing_polynomial_reduced(quoted)) > 1.0


def test_roots_appear_near_half(unit_xi):
    roots = focusing_polynomial_roots(0.49)
    assert len(roots) == 1
    root = roots[0]
    assert (4.0 * 0.49**2) ** (1.0 / 3.0) < root < 1.0
    assert abs(focusing_polynomial(root, 0.49)) < 1e-10


def test_boundary_root_at_exactly_half():
    # The domain shrinks to its edge x = 1, a zero of the polynomial that
    # the open-domain scan does not count as a root.
    assert focusing_polynomial_roots(0.5) == ()
    assert abs(focusing_polynomial(1.0, 0.5)) <= 1e-12


def test_roots_keep_their_pinned_values():
    # Exact values: a change to the root scan that moves one bit shows
    # here.  1e-170 is below b ~ 7.9e-163, where the scan steps off x = 0.
    assert focusing_polynomial_roots(0.3) == (0.7162135804572667,)
    assert focusing_polynomial_roots(0.45) == (0.9412193960056652,)
    assert focusing_polynomial_roots(0.49) == (0.9871121589332663,)
    assert focusing_polynomial_roots(0.5) == ()
    assert focusing_polynomial_roots(1e-170) == ()


def test_roots_reject_bad_b():
    with pytest.raises(ParameterDomainError):
        focusing_polynomial_roots(0.6)
    with pytest.raises(ParameterDomainError):
        focusing_polynomial_roots(-0.1)


def _positive_cells_point_by_point(b):
    """Positive values of the focusing polynomial on the sign map's x grid, one scalar call per point."""
    lo = (4.0 * b * b) ** (1.0 / 3.0)
    xs = np.linspace(lo, 1.0, SIGN_MAP_NX + 2)[1:-1]
    return sum(focusing_polynomial(x, b) > 0.0 for x in xs.tolist())


def test_sign_map_contradicts_negativity_claim():
    sign_map = focusing_sign_map((0.0, 0.1, 0.25, 0.49))
    for b in (0.0, 0.1, 0.25):
        assert sign_map[b] == SIGN_MAP_NX
    assert 0 < sign_map[0.49] < SIGN_MAP_NX


def test_radius_quoted_anchor(unit_xi):
    candidates = radius_candidates(unit_xi, QUOTED_FOCUSING_ROOTS[1])
    assert abs(candidates.from_exponential / unit_xi.a - QUOTED_ROOT_RADIUS_FACTOR) < 5e-4
    # The w channel has no solution: 1.178 < min w = 2^(2/3).
    assert candidates.from_w == ()


def test_radius_trivial_value(unit_xi):
    assert radius_candidates(unit_xi, 1.0).from_exponential == 0.0


def test_radius_w_channel_at_the_minimum_of_w():
    # X^(3/2) = 2|xi| exactly: m = 1.5 ln 1 - ln 2 - ln 0.5 is 0.0, and the
    # arccosh pair meets in the one radius -(a/3) ln|xi|.
    params = params_from_xi(3.0, 0.5)
    assert radius_candidates(params, 1.0).from_w == (params.a / 3.0 * math.log(2.0),)


def test_radius_w_channel_vacuum(vacuum):
    candidates = radius_candidates(vacuum, 0.377)
    assert len(candidates.from_w) == 1
    assert candidates.from_w[0] == pytest.approx(-math.log(0.377) / 2.0, abs=1e-10)
    assert candidates.from_exponential == pytest.approx(math.log(0.377) / 6.0, rel=1e-14)


def test_radius_w_channel_two_solutions(unit_xi):
    # Above the minimum of w there are two radii.
    candidates = radius_candidates(unit_xi, 3.0)
    assert len(candidates.from_w) == 2


def test_radius_w_channel_evaluates_no_w(monkeypatch):
    # The w channel is the closed-form arccosh pair: it evaluates no w at all.
    calls = []

    def counting(params, r):
        calls.append(np.size(r))
        return metric_eval(params, r)

    monkeypatch.setattr(congruence, "metric_eval", counting)
    params = params_from_xi(3.0, 0.3)
    candidates = radius_candidates(params, QUOTED_FOCUSING_ROOTS[1])
    assert len(candidates.from_w) == 2
    assert len(calls) == 0
    for root in candidates.from_w:
        assert float(metric_eval(params, root).w) == pytest.approx(QUOTED_FOCUSING_ROOTS[1], rel=1e-12)


def _scanned_w_roots(params, X):
    """The w channel as a 4096-interval root scan on [-2a, 2a] (the oracle)."""
    half = 2.0 * params.a
    return tuple(sorted(set(sign_change_roots(lambda r: metric_eval(params, r).w - X, -half, half, 4096))))


def _catalog_congruence_members():
    """(lambda, xi) of every congruence call in the scan-scalar benchmark catalog."""
    entries = json.loads((Path(__file__).parents[1] / "perfbench" / "catalog" / "scan-scalar.json").read_text())
    calls = [argv for entry in entries for argv in entry["calls"] if argv[0] == "congruence"]
    return [(float(argv[argv.index("--lambda") + 1]), float(argv[argv.index("--xi") + 1])) for argv in calls]


def test_radius_w_channel_closed_form_matches_the_scan():
    X = QUOTED_FOCUSING_ROOTS[1]
    members = _catalog_congruence_members()
    assert len(members) == 64
    cases = [(lam, xi, X) for lam, xi in members] + [
        (1e12, 0.3, X),
        (3.0 * 4.0**20, 0.3, X),
        (3.0, 0.0, 0.377),
        (3.0, 1e-300, X),  # the second root, near r = 461a, is outside the window
        (3.0, 0.0, 1e-3),  # the one root, r = 3.45a, is outside the window
        (3.0, 1.0, X),  # X^(3/2) < 2|xi|: no root
    ]
    counts = set()
    for lam, xi, x_value in cases:
        params = params_from_xi(lam, xi)
        closed = radius_candidates(params, x_value).from_w
        scanned = _scanned_w_roots(params, x_value)
        assert len(closed) == len(scanned), (lam, xi, x_value)
        for got, oracle in zip(closed, scanned):
            assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)
        counts.add(len(closed))
    assert counts == {0, 1, 2}


def test_radius_w_channel_near_tangent_pair():
    # Just above the minimum (2|xi|)^(2/3) of w the two roots lie 1e-4 a
    # apart, inside one scan interval, which has no sign change.
    params = params_from_xi(3.0, 0.5)
    X = 1.0 + 1e-8
    assert _scanned_w_roots(params, X) == ()
    closed = radius_candidates(params, X).from_w
    assert len(closed) == 2
    assert closed[1] - closed[0] < 4.0 * params.a / 4096
    for root in closed:
        assert float(metric_eval(params, root).w) == pytest.approx(X, rel=1e-14)


def test_radius_rejects_nonpositive(unit_xi):
    with pytest.raises(ParameterDomainError):
        radius_candidates(unit_xi, 0.0)


def test_tortoise_vacuum_exponential(vacuum):
    constant = tortoise_series(vacuum, 0.0)
    for r in (-1.0, 0.0, 0.5, 1.0):
        series = tortoise_series(vacuum, r)
        assert series == pytest.approx(math.exp(r), rel=1e-14)
        assert abs(series - (constant + tortoise_quadrature(vacuum, r))) <= 1e-8 * max(1.0, abs(series))


def test_tortoise_constant_pinned_by_improper_integral(unit_xi):
    # r*(0) equals the integral of 1/sqrt(w) from far below, where r* -> 0.
    value = tortoise_series(unit_xi, 0.0)
    oracle = adaptive_gauss_kronrod(
        lambda x: 1.0 / np.sqrt(metric_eval(unit_xi, x).w), -40.0, 0.0, 1e-12
    )
    assert value == pytest.approx(oracle, abs=1e-8)


def test_tortoise_channels_agree(unit_xi):
    # The quadrature is the integral from 0; the series carries T(0).
    constant = tortoise_series(unit_xi, 0.0)
    radii = (-0.8, -0.2, 0.0, 0.4, 1.0)
    for r in radii:
        assert abs(tortoise_series(unit_xi, r) - (constant + tortoise_quadrature(unit_xi, r))) < 1e-8
    series = np.array([tortoise_series(unit_xi, r) for r in radii])
    assert np.max(np.abs(series - (constant + tortoise_quadrature(unit_xi, np.array(radii))))) < 1e-8


@pytest.mark.parametrize(
    ("lam", "xi"), ((3.0272, 0.410624), (1.14417, 0.540746), (0.75, 10.0), (3.0, 0.0))
)
def test_tortoise_quadrature_within_its_tolerance_on_the_report_grid(lam, xi):
    # The 33 radii the report checks at --samples 65, against a 30-digit 2F1.
    mpmath = pytest.importorskip("mpmath")

    params = params_from_xi(lam, xi)
    a = params.a
    radii = np.linspace(-a, a, 65)[::2]
    with mpmath.workdps(30):
        sixth = mpmath.mpf(1) / 6
        expected = [
            float(a * mpmath.exp(r / a) * mpmath.hyp2f1(sixth, 2 * sixth, 7 * sixth, -(mpmath.mpf(xi) ** 2) * mpmath.exp(6 * r / a)))
            for r in map(mpmath.mpf, radii.tolist())
        ]
    constant = tortoise_series(params, 0.0)
    assert np.max(np.abs(constant + tortoise_quadrature(params, radii) - expected)) <= 1e-11


def test_tortoise_report_integrates_each_panel_once(monkeypatch):
    intervals = []
    quadrature = congruence.adaptive_gauss_kronrod

    def recording(fn, lo, hi, tol):
        intervals.append((np.array(lo), np.array(hi)))
        return quadrature(fn, lo, hi, tol)

    def forbidden(self):
        raise AssertionError("u' or u'' read")

    monkeypatch.setattr(congruence, "adaptive_gauss_kronrod", recording)
    for name in ("u_p", "u_pp"):
        monkeypatch.setattr(model.MetricSample, name, property(forbidden))
    rpt = suites.build_tortoise_report(3.0, 0.5, samples=65)
    assert rpt.exit_code() == 0
    assert len(intervals) == 1
    lo, hi = intervals[0]
    a = model.params_from_xi(3.0, 0.5).a
    grid = np.linspace(-a, a, 65)[::2]
    nodes = np.sort(np.append(grid, 0.0))
    assert np.array_equal(lo, nodes[:-1]) and np.array_equal(hi, nodes[1:])
    assert np.max(hi - lo) <= (grid[1] - grid[0]) * (1.0 + 1e-12)


@pytest.mark.parametrize(
    ("xi", "samples"), [(0.5, 65), (0.5, 513), (0.0, 65), (0.0, 513)], ids=("65", "513", "vacuum-65", "vacuum-513")
)
def test_tortoise_report_runs_2f1_only_at_the_radii_it_reads(monkeypatch, xi, samples):
    # 33 channel radii, the 9-point derivative stencil's 18 and the r = 0
    # constant of the channel: 52, whatever the grid density or member
    # (the vacuum member too), in one call.
    calls = []
    series = congruence.gauss_2f1_series

    def counted(a, b, c, z):
        calls.append(np.shape(z))
        return series(a, b, c, z)

    monkeypatch.setattr(congruence, "gauss_2f1_series", counted)
    assert suites.build_tortoise_report(3.0, xi, samples=samples).exit_code() == 0
    assert calls == [(52,)]


def test_tortoise_report_makes_one_series_and_one_quadrature_call(monkeypatch):
    calls = []
    for name in ("tortoise_series", "tortoise_quadrature"):
        original = getattr(congruence, name)

        def recording(params, r, name=name, original=original):
            calls.append((name, np.shape(r)))
            return original(params, r)

        monkeypatch.setattr(congruence, name, recording)
    assert suites.build_tortoise_report(3.0, 0.5, samples=65).exit_code() == 0
    # The series at 33 checked radii, both sides of the 9-point stencil and
    # r = 0; the quadrature at the 33 checked radii.
    assert calls == [("tortoise_series", (52,)), ("tortoise_quadrature", (33,))]


def test_tortoise_series_is_elementwise(unit_xi):
    radii = np.array([[-0.8, 0.0, 0.4], [1.0, -0.2, 0.4]])
    values = tortoise_series(unit_xi, radii)
    assert values.shape == radii.shape
    assert values.tolist() == [[tortoise_series(unit_xi, r) for r in row] for row in radii.tolist()]
    assert type(tortoise_series(unit_xi, 0.4)) is float
    assert tortoise_series(unit_xi, np.array([])).shape == (0,)


def test_tortoise_report_rejects_a_window_past_the_radial_bound(unit_xi):
    message = "|r| exceeds the overflow bound 116.667 for lambda=3.0"
    with pytest.raises(ParameterDomainError, match=re.escape(message)):
        tortoise_series(unit_xi, np.array([0.0, 1000.0, 2000.0]))
    # The first grid radius past the bound is not one the channel row reads;
    # the report checks its window once, with the model's message.
    a = unit_xi.a
    grid = np.linspace(-a, 200.0, 101)
    first = int(np.flatnonzero(grid > model.radial_bound(unit_xi))[0])
    assert first % 3 != 0
    with pytest.raises(ParameterDomainError, match=re.escape(message)):
        suites.build_tortoise_report(3.0, 1.0, r_max=200.0, samples=101)


def test_tortoise_quadrature_scalar_is_one_panel_from_zero(unit_xi):
    integrand = lambda x: 1.0 / np.sqrt(metric_eval(unit_xi, x).w)
    for r in (-0.7, 0.0, 0.4):
        value = tortoise_quadrature(unit_xi, r)
        assert type(value) is float
        assert value == adaptive_gauss_kronrod(integrand, 0.0, r, 1e-11)
    # Unsorted, repeated and 2-D radii share the panels of their sorted nodes.
    radii = np.array([[0.4, -0.7, 0.4], [0.0, -0.2, -0.7]])
    values = tortoise_quadrature(unit_xi, radii)
    assert values.shape == radii.shape
    assert values[0, 0] == values[0, 2] and values[0, 1] == values[1, 2]
    assert values[1, 0] == 0.0
    for r, value in zip(radii.ravel().tolist(), values.ravel().tolist()):
        assert value == pytest.approx(tortoise_quadrature(unit_xi, r), abs=2e-11)


def _kronrod_one_interval_at_a_time(fn, a, b, tol):
    """``numerics.adaptive_gauss_kronrod`` with one ``fn`` call and 1-D weighted sums per subinterval (the reference).

    Each interval is refined on its own, level by level, its kept halves
    ordered left halves first, as the batched level loop orders them.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    totals = []
    for lo, hi in zip(np.minimum(a, b).ravel().tolist(), np.maximum(a, b).ravel().tolist()):
        total, pending = 0.0, [(lo, hi)] if lo < hi else []
        for depth in range(QUAD_DEPTH_CAP + 1):
            level, lefts, rights = 0.0, [], []
            for lo_i, hi_i in pending:
                mid, half = 0.5 * (lo_i + hi_i), 0.5 * (hi_i - lo_i)
                values = fn(mid + half * KRONROD_NODES)
                kronrod = half * (values * KRONROD_WEIGHTS).sum()
                size = abs(kronrod - half * (values[1::2] * GAUSS_WEIGHTS).sum())
                if size < tol / 2.0**depth or size <= QUAD_ROUNDING_FLOOR * EPS * abs(kronrod) or depth == QUAD_DEPTH_CAP:
                    level += kronrod
                else:
                    lefts.append((lo_i, mid))
                    rights.append((mid, hi_i))
            total += level
            pending = lefts + rights
        totals.append(total)
    total = np.array(totals).reshape(a.shape)
    total = np.where(b < a, -total, total)
    return float(total) if total.ndim == 0 else total


@pytest.mark.parametrize("xi", (0.0, 0.5, 1.0))
def test_kronrod_rows_are_bit_identical_to_one_interval_at_a_time(monkeypatch, xi):
    # The tortoise report's panels, and the congruence report's potential
    # stencil plus an interval with a turning end, which refines deep.
    params = params_from_xi(3.0, xi)
    radii = np.linspace(-params.a, params.a, 513)[::16]
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 257)
    admissible = kinematics_scan(metric_eval(params, grid), OUT2).r
    mid = admissible[admissible.size // 2]
    h = congruence.chain_rule_fd_step(params, OUT2, mid)
    turning = radius_candidates(params, OUT2.e_tilde**2).from_w[0]
    intervals = ((mid - h, mid + h), (turning, mid))

    def results():
        potentials = [hypersurface_potential(params, OUT2, r0, r1) for r0, r1 in intervals]
        return tortoise_quadrature(params, radii), np.array(potentials)

    rows = results()
    monkeypatch.setattr(congruence, "adaptive_gauss_kronrod", _kronrod_one_interval_at_a_time)
    single = results()
    assert np.array_equal(rows[0], single[0]) and np.array_equal(rows[1], single[1])


def test_chain_rule_step_with_subnormal_slope(unit_xi):
    # w'(5e-324) is subnormal; the cap 1e-4 (E^2 - w) / |w'| overflows to inf,
    # which is no bound, under the suite's error::RuntimeWarning filter.
    r = np.array([0.0, 5e-324])
    assert np.array_equal(congruence.chain_rule_fd_step(unit_xi, OUT2, r), np.full(2, FD_FIRST_STEP * unit_xi.a))


def test_tortoise_derivative_identity():
    for xi in (0.1, 0.5, 1.0):
        params = params_from_xi(3.0, xi)
        for r in (-0.7, 0.0, 0.3):
            d = central_diff(lambda x: tortoise_series(params, x), r, FD_FIRST_STEP * params.a)
            w = float(metric_eval(params, r).w)
            assert d * math.sqrt(w) == pytest.approx(1.0, abs=1e-6)


def test_tortoise_series_past_old_term_cap_matches_mpmath():
    # z = -4 e^12 sent the Pfaff series (t = z/(z-1) -> 1) past its term cap;
    # the beta form's series argument is 1/(1 - z) instead.
    mpmath = pytest.importorskip("mpmath")

    params = params_from_xi(3.0, 2.0)
    z = -(2.0**2) * math.exp(6.0 * 2.0 / params.a)
    with mpmath.workdps(40):
        expected = float(params.a * mpmath.exp(2.0 / params.a) * mpmath.hyp2f1(
            mpmath.mpf(1) / 6, mpmath.mpf(1) / 3, mpmath.mpf(7) / 6, z))
    assert tortoise_series(params, 2.0) == pytest.approx(expected, rel=1e-14)


def _mpmath_tortoise(mpmath, params, r):
    """a e^(r/a) F(1/6, 1/3; 7/6; -xi^2 e^(6r/a)) at 40 digits, at the float inputs."""
    with mpmath.workdps(40):
        a, xi, r = (mpmath.mpf(v) for v in (params.a, params.xi, r))
        sixth = mpmath.mpf(1) / 6
        return float(a * mpmath.exp(r / a) * mpmath.hyp2f1(sixth, 2 * sixth, 7 * sixth, -(xi**2) * mpmath.exp(6 * r / a)))


@pytest.mark.parametrize("lam", (1e-6, 3.0, 1e12))
@pytest.mark.parametrize("xi", (5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e100))
def test_tortoise_beta_form_matches_mpmath(lam, xi):
    mpmath = pytest.importorskip("mpmath")
    params = params_from_xi(lam, xi)
    a = params.a
    bound = model.radial_bound(params)
    # q = 6r/a + 2 log|xi| is 0 at r0 (exactly, at xi = 1), and r0 -/+ 1e-9 a
    # have q = -/+6e-9, on both sides of the reflection.  Below xi ~ 1e-152,
    # q = 0 lies past the range bound and every radius up to it has q < 0.
    r0 = -a * math.log(xi) / 3.0
    near = [r0 + d * a for d in (-2.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 2.0)]
    radii = [r for r in np.linspace(-a, a, 9).tolist() + near if abs(r) <= bound]
    values = tortoise_series(params, np.array(radii))
    for r, value in zip(radii, values.tolist()):
        assert value == pytest.approx(_mpmath_tortoise(mpmath, params, r), rel=1e-14, abs=0.0), r


def test_pfaff_nonconvergence_quotes_caller_argument():
    # The error names the caller's z = -xi^2 e^{6r/a}, not only the Pfaff
    # argument z/(z-1), which sits just below 1 and would look harmless.
    from lbverify.errors import SpecialFunctionError
    from lbverify.special_functions import gauss_2f1_pfaff

    params = params_from_xi(3.0, 2.0)
    z = -(2.0**2) * math.exp(6.0 * 2.0 / params.a)
    with pytest.raises(SpecialFunctionError) as excinfo:
        gauss_2f1_pfaff(1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0, z)
    message = str(excinfo.value)
    assert f"at z = {z:.6g} " in message
    assert f"t = z/(z-1) = {z / (z - 1.0):.12g}" in message


def test_tortoise_series_asymptote():
    # F(1/6, 1/3; 7/6; z) -> G(7/6)G(1/6)/G(1/3) (-z)^(-1/6) as z -> -inf, so
    # r* -> a G(7/6)G(1/6)/G(1/3) xi^(-1/3) as r -> inf.
    limit = math.gamma(7.0 / 6.0) * math.gamma(1.0 / 6.0) / math.gamma(1.0 / 3.0)
    assert limit == pytest.approx(1.9276212966599988, rel=1e-15)
    params = params_from_xi(3.0, 2.0)
    assert tortoise_series(params, 100.0) == pytest.approx(
        params.a * limit * 2.0 ** (-1.0 / 3.0), rel=1e-15)


def test_tortoise_series_takes_the_model_radial_range(unit_xi):
    # -xi^2 e^{6r/a} overflows at xi = 1e154, r = 1, but the beta form never
    # computes it: the radius is inside the model's range and has a value.
    mpmath = pytest.importorskip("mpmath")
    params = params_from_xi(3.0, 1e154)
    assert tortoise_series(params, 1.0) == pytest.approx(_mpmath_tortoise(mpmath, params, 1.0), rel=1e-14, abs=0.0)
    with pytest.raises(ParameterDomainError, match=re.escape("|r| exceeds the overflow bound 116.667 for lambda=3.0")):
        tortoise_series(unit_xi, 1000.0)


def test_null_rate_zero_for_constant_profile():
    r = np.array([0.3])
    constant = SimpleNamespace(r=r, w=np.full(r.shape, 2.0), u_p=np.zeros(r.shape), u_pp=np.zeros(r.shape))
    assert kinematics_scan(constant, OUT2).null_rate.tolist() == [0.0]


def test_null_rate_vacuum_reduction(vacuum):
    # w = e^{-2r/a} gives bracket -2 w / a^2, so the rate is
    # -(2/a^2) sqrt(E^2 - w).
    radii = np.array([-0.5, 0.0, 0.4])
    rates = kinematics_scan(metric_eval(vacuum, radii), OUT2).null_rate
    for r, rate in zip(radii.tolist(), rates.tolist()):
        w = float(metric_eval(vacuum, r).w)
        expected = -2.0 * math.sqrt(4.0 - w)
        assert rate == pytest.approx(expected, abs=1e-9)
        bracket = rate * w / math.sqrt(4.0 - w)
        assert bracket == pytest.approx(-2.0 * w, rel=1e-12)


def test_turning_guard_band_is_relative_to_e_squared():
    # At E = 2 the band is |E^2 - w| < 4 TURNING_GUARD_REL: half of it
    # inside the band is dropped, twice of it outside is kept, and so is
    # an ordinary radius, while w > E^2 is forbidden.
    e2 = OUT2.e_tilde**2
    w = np.array([e2 * (1.0 - 0.5 * TURNING_GUARD_REL), e2 * (1.0 - 2.0 * TURNING_GUARD_REL), 1.0, 5.0])
    r = np.arange(w.size, dtype=float)
    scan = kinematics_scan(SimpleNamespace(r=r, w=w, u_p=np.ones_like(w), u_pp=np.zeros_like(w)), OUT2)
    assert scan.r.tolist() == [1.0, 2.0]
    assert scan.x.tolist() == (w[1:3] / e2).tolist()


def test_null_rate_forbidden(unit_xi):
    # w(0) = 2^(2/3) > 1 = E^2: the scan drops the radius and leaves no rate.
    grid = np.array([0.0])
    scan = kinematics_scan(metric_eval(unit_xi, grid), CongruenceConfig(e_tilde=1.0))
    assert scan.r.size == 0
    assert scan.null_rate.size == 0


def test_null_sign_scan_vacuum_negative_everywhere(vacuum):
    grid = np.linspace(-0.6, 2.0, 257)
    scan = kinematics_scan(metric_eval(vacuum, grid), OUT2)
    assert scan.r.size
    assert np.all(scan.null_rate < 0.0)


@pytest.mark.parametrize("xi", (0.5, 1.0))
def test_null_sign_scan_violations_itemized(xi):
    params = params_from_xi(3.0, xi)
    grid = np.linspace(-2.0, 2.0, 257)
    scan = kinematics_scan(metric_eval(params, grid), OUT2)
    violations = scan.null_rate[scan.null_rate >= 0.0]
    assert violations.size, "expected sign violations of the always-negative claim"
    # The bracket changes sign where 12 p = (p - 1)^2, p = xi^2 e^{6r/a}.
    assert np.any(violations > 0.1)


def test_scan_statuses(unit_xi):
    grid = np.linspace(-2.0, 2.0, 65)
    scan = kinematics_scan(metric_eval(unit_xi, grid), OUT2)
    kept = np.isin(grid, scan.r)
    assert kept.any() and not kept.all()
    assert np.all(metric_eval(unit_xi, grid[~kept]).w > OUT2.e_tilde**2)


def _rel_close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("xi", (0.0, 0.5, 1.0))
def test_array_scans_match_scalar_point_functions(xi):
    params = params_from_xi(3.0, xi)
    e2 = OUT2.e_tilde**2
    # The grid includes the turning points w = E^2 themselves.
    turning = radius_candidates(params, e2).from_w
    grid = np.sort(np.concatenate([np.linspace(-2.0 * params.a, 2.0 * params.a, 257), turning]))
    scan = kinematics_scan(metric_eval(params, grid), OUT2)
    admissible, seen = [], set()
    for r in grid.tolist():
        w = float(metric_eval(params, r).w)
        if w > e2:
            seen.add("forbidden")
        elif abs(e2 - w) < TURNING_GUARD_REL * e2:
            seen.add("turning")
        else:
            seen.add("ok")
            admissible.append(r)
    assert seen == {"forbidden", "turning", "ok"}
    # The scan keeps the admissible radii, in grid order, and nothing else.
    assert scan.r.tolist() == admissible
    for i, r in enumerate(admissible):
        assert _rel_close(scan.theta[i], _theta_closed_form(params, OUT2.e_tilde, r), 1e-12)
        assert _rel_close(scan.dtheta_dtau[i], _rate_closed_form(params, OUT2.e_tilde, r), 1e-12)
        assert _rel_close(scan.null_rate[i], _null_rate_closed_form(params, OUT2.e_tilde, r), 1e-12)


def test_scan_keeps_a_radius_exactly_at_the_guard_band_edge():
    # E = 3125/2048 gives E^2 = 5^10 / 2^22 and TURNING_GUARD_REL * E^2 =
    # 2^-32 exactly, so w = E^2 - 2^-32 lies exactly on the edge of the band
    # |E^2 - w| < TURNING_GUARD_REL * E^2: it is admissible, and the next
    # float toward E^2, E^2 itself and the float above it are not.
    cfg = CongruenceConfig(e_tilde=3125 / 2048)
    e2 = cfg.e_tilde**2
    assert TURNING_GUARD_REL * e2 == 2.0**-32
    edge = e2 - 2.0**-32
    assert e2 - edge == 2.0**-32
    w = np.array([edge, np.nextafter(edge, e2), e2, np.nextafter(e2, 3.0)])
    sample = SimpleNamespace(r=np.arange(4.0), w=w, u_p=np.ones(4), u_pp=np.ones(4))
    assert kinematics_scan(sample, cfg).r.tolist() == [0.0]


def test_scans_of_empty_grid():
    params = params_from_xi(3.0, 1.0)
    grid = np.array([])
    scan = kinematics_scan(metric_eval(params, grid), OUT2)
    columns = [field.name for field in dataclasses.fields(scan) if field.name != "e_tilde"]
    columns += ["theta", "dtheta_dtau", "null_rate", "u_r"]
    assert all(getattr(scan, column).size == 0 for column in columns)


def test_builders_take_one_kinematics_scan_per_congruence(monkeypatch):
    # The timelike and null rows of a congruence report read one scan of
    # one grid; a sweep scans each point with |E| >= 1 and none below.
    calls = []
    scan = congruence.kinematics_scan

    def counting(sample, cfg):
        calls.append((cfg.e_tilde, np.size(sample.r)))
        return scan(sample, cfg)

    monkeypatch.setattr(congruence, "kinematics_scan", counting)
    suites.build_congruence_report(3.0, 1.0, 2.0)
    assert calls == [(2.0, 257)]
    calls.clear()
    suites.build_sweep_report("3", "0:1:2", "-2:2:3", samples=65)
    assert calls == [(-2.0, 65), (2.0, 65)] * 2
    for name in ("KinematicsSample", "timelike_scan", "null_rate_sign_scan"):
        assert not hasattr(congruence, name)


def test_sweep_evaluates_each_member_once_and_reads_only_the_null_rate(monkeypatch):
    # Two members (xi = 0, 1), three E values: -2 and 2 are scanned, 0 is
    # sub-unit.  Each member takes one metric sample, of its whole grid, and
    # the sweep's only scan row reads the null rate, never theta or the rate.
    expected = suites.build_sweep_report("3", "0:1:2", "-2:2:3", samples=65).rows
    calls = []
    core = model.MetricSample.__init__

    def counted(self, params, r):
        calls.append((params.xi, np.size(r)))
        core(self, params, r)

    def unread(*args):
        raise AssertionError("the sweep evaluated a timelike column")

    monkeypatch.setattr(model.MetricSample, "__init__", counted)
    monkeypatch.setattr(congruence, "_theta", unread)
    monkeypatch.setattr(congruence, "_rate", unread)
    rows = suites.build_sweep_report("3", "0:1:2", "-2:2:3", samples=65).rows
    assert calls == [(0.0, 65), (1.0, 65)]
    assert rows == expected
    assert len(rows) == 2 * (3 * 3 + 2)


def test_congruence_report_reads_w_from_its_scan(monkeypatch, unit_xi):
    # Outside the potential-gradient stencil and its quadrature, nothing is
    # evaluated after the scan: w, x, the 4-velocity, the rates and the
    # quoted form are read from the scan's columns.
    grid = np.linspace(-2.0, 2.0, 257)
    admissible = kinematics_scan(metric_eval(unit_xi, grid), OUT2).r
    assert admissible.size > 1
    arrays, depth = [], [0]

    core = model.MetricSample.__init__

    def recording(self, params, r):
        if not depth[0]:
            arrays.append(np.array(r, dtype=float))
        core(self, params, r)

    def oracle(fn):
        def wrapped(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return wrapped

    monkeypatch.setattr(model.MetricSample, "__init__", recording)
    monkeypatch.setattr(congruence, "chain_rule_fd_step", oracle(congruence.chain_rule_fd_step))
    monkeypatch.setattr(congruence, "_sqrt_integrand", oracle(congruence._sqrt_integrand))
    suites.build_congruence_report(3.0, 1.0, 2.0)
    assert len(arrays) == 1 and np.array_equal(arrays[0], grid)
    for name in ("expansion_rate_scaled_scan", "ScaledRateComparison", "_turning_end_potential", "four_velocity"):
        assert not hasattr(congruence, name)


def test_scaled_rate_scan_marks_points_outside_quoted_domain(unit_xi):
    # b = 1/2 at xi = 1, E = 2: y^2 < 0 wherever x < 1, so the polynomial raises.
    r = np.array([-0.2, 0.0, 0.3])
    scan = kinematics_scan(metric_eval(unit_xi, r), OUT2)
    assert np.array_equal(scan.r, r)
    quoted = quoted_scaled_rate(unit_xi, OUT2, scan.x)
    difference = quoted - scan.dtheta_dtau
    for i, r_i in enumerate(r.tolist()):
        with pytest.raises(ParameterDomainError, match=r"y\^2 = .* < 0"):
            focusing_polynomial(float(metric_eval(unit_xi, r_i).w) / OUT2.e_tilde**2, 0.5)
        assert math.isnan(quoted[i]) and math.isnan(difference[i])
        assert scan.dtheta_dtau[i] == pytest.approx(_rate_closed_form(unit_xi, OUT2.e_tilde, r_i), rel=1e-12)


def test_sign_map_matches_scalar_polynomial():
    b_values = (0.0, 0.1, 0.25, 0.49)
    assert focusing_sign_map(b_values) == {b: _positive_cells_point_by_point(b) for b in b_values}


# Runs in a fresh interpreter: argv[1] is src/, argv[2] the JSON list of --b
# values, one congruence report per value.  Prints, per report, the b values
# that reached the focusing polynomial and the report's CSV.
_FRESH_PROCESS = r"""
import json, sys

sys.path.insert(0, sys.argv[1])
from lbverify import congruence, report, suites

polynomial = congruence.focusing_polynomial
seen = []

def counting(x, b):
    seen[-1].add(float(b))
    return polynomial(x, b)

congruence.focusing_polynomial = counting
out = []
for b in json.loads(sys.argv[2]):
    seen.append(set())
    rpt = suites.build_congruence_report(3.0, 1.0, 2.0, samples=64, b=b)
    out.append({"b_values": sorted(seen[-1]), "csv": report.emit_csv(rpt).decode()})
json.dump(out, sys.stdout)
"""


def test_focusing_facts_computed_once_per_process():
    # The run's own b = |xi/E| = 0.5 reaches the polynomial through the
    # quoted scaled rate on every report.
    run_b = 0.5
    b_sequence = [None, 0.3, 0.3, -0.0, 0.0, 0.49, None]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, str(src), json.dumps(b_sequence)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    seen = [set(entry["b_values"]) for entry in reports]
    # The fixed sign-map b values and b = 0 are evaluated during the first
    # report only; a nonzero --b value during every report that names it.
    # --b 0 and --b -0 add no row, so they evaluate no root scan.
    assert seen == [
        set(suites.SIGN_MAP_B_VALUES) | {run_b},
        {0.3, run_b},
        {0.3, run_b},
        {run_b},
        {run_b},
        {0.49, run_b},
        {run_b},
    ]
    # No --b value leaves a trace in a later report of the process.
    assert reports[-1]["csv"] == reports[0]["csv"]
    assert reports[2]["csv"] == reports[1]["csv"]


def test_focusing_polynomial_array_errors():
    with pytest.raises(ParameterDomainError, match=r"y\^2 = .* < 0"):
        focusing_polynomial(np.array([0.9, 0.5]), 0.49)
    with pytest.raises(ParameterDomainError, match=r"x\^3 \+ y = 0"):
        focusing_polynomial(np.array([0.5, -0.5]), 0.0)


def test_point_functions_vectorize(unit_xi):
    r = np.array([-0.3, 0.0, 0.25])
    scan = kinematics_scan(metric_eval(unit_xi, r), OUT2)
    h = congruence.chain_rule_fd_step(unit_xi, OUT2, r)
    assert np.array_equal(scan.r, r)
    for i, r_i in enumerate(r.tolist()):
        assert (scan.x[i], scan.u_r[i]) == _scan_velocity(unit_xi, OUT2, r_i)
        assert h[i] == congruence.chain_rule_fd_step(unit_xi, OUT2, r_i)


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
