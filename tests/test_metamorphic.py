"""Metamorphic relations of the solution family at report level.

M1, xi-sign: the solution reads xi only through xi^2 (q = 6r/a + 2 log|xi|),
so xi -> -xi gives byte-identical CSV from every single-member report, or
the same rejection.  The CSV carries no xi column; JSON does, in its meta
object.

M3, lambda-scale: (lambda, r) -> (c lambda, r / sqrt(c)) maps the family
onto itself.  With lambda = 3 * 4^k the de Sitter length a = sqrt(3/lambda)
is 2^-k, so every radius of a default window, and every stencil step (a
fixed fraction of a), scales by an exact power of two.  Rows on
dimensionless quantities then reproduce their k = 0 values bit for bit, a
row on a rate scales by exactly 2^k, and a root radius by exactly 2^-k.

M2, xi-shift, at model level: (xi, r) -> (xi e^{3s/a}, r - s) leaves q, and
so f' and f'', unchanged; every exponent u moves by the constant 2s/a, and
w scales by e^{2s/a}.  Large xi is a window far out along one profile.

M4, E-scale, at scan level: at xi = 0, w = e^{-2r/a}, so
(E, r) -> (E e^s, r - s a) leaves x = w/E^2, u' and u'' unchanged.  The
expansion and its proper-time rate read E only through x, so they keep
their values; the null rate carries the factor |E| and scales by e^s.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lbverify import congruence, model, suites
from lbverify.errors import LBVerifyError
from lbverify.report import emit_csv

SCALE_FREE_ROWS = (
    "tortoise-derivative-identity",
    "potential-gradient-covector",
    "rate-chain-rule-rel",
    "four-velocity-normalization",
)


def _rows(lam, xi, e_tilde):
    return suites.build_congruence_report(lam, xi, e_tilde).rows + suites.build_tortoise_report(lam, xi).rows


@pytest.mark.parametrize("xi, e_tilde", [(0.5, 2.0), (1.3, 1.7)])
@pytest.mark.parametrize("k", [-10, -3, 3, 10, 20])
def test_lambda_scale_rows_are_bitwise_covariant(k, xi, e_tilde):
    base_rows, scaled_rows = _rows(3.0, xi, e_tilde), _rows(3.0 * 4.0**k, xi, e_tilde)
    base, scaled = ({row.check: row.value for row in rows} for rows in (base_rows, scaled_rows))
    for check in SCALE_FREE_ROWS:
        assert scaled[check] == base[check], check
    # theta is a rate, 1/length: it scales by 1/a = 2^k.
    assert scaled["expansion-covariant-divergence"] * 2.0**-k == base["expansion-covariant-divergence"]
    assert scaled["timelike-admissible-points"] == base["timelike-admissible-points"] > 0.0
    # The w-channel roots are radii: they scale by a = 2^-k, since the root
    # refiner stops at a width relative to the root.
    base_radii, scaled_radii = (
        [row.value for row in rows if row.check == "radius-w-channel"] for rows in (base_rows, scaled_rows)
    )
    assert scaled_radii == [2.0**-k * radius for radius in base_radii]


SIGN_BUILDERS = {
    "verify": lambda xi: suites.build_verify_report(3.0, xi),
    "energy": lambda xi: suites.build_energy_report(3.0, xi),
    "tortoise": lambda xi: suites.build_tortoise_report(3.0, xi),
    "congruence": lambda xi: suites.build_congruence_report(3.0, xi, 2.0),
}


def _csv_or_rejection(report, xi):
    try:
        return emit_csv(SIGN_BUILDERS[report](xi))
    except LBVerifyError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("xi", [0.7, 1.3, 9.9, 1e-300, 1e10, 1e154])
@pytest.mark.parametrize("report", sorted(SIGN_BUILDERS))
def test_xi_sign_gives_byte_identical_csv(report, xi):
    outcome = _csv_or_rejection(report, xi)
    assert _csv_or_rejection(report, -xi) == outcome
    # Every window is inside the model's radial bound, so no pair is rejected.
    assert isinstance(outcome, bytes)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lam=_log_uniform(1e-3, 1e3), xi=_log_uniform(1e-8, 1e20), shift=st.floats(-5.0, 5.0))
def test_xi_shift_moves_the_profile_along_r(lam, xi, shift):
    # shift is s/a; the radii are 33 points of [-2a, 2a].
    shifted_xi = xi * math.exp(3.0 * shift)
    assume(1e-8 <= shifted_xi <= 1e20)
    params, shifted = model.params_from_xi(lam, xi), model.params_from_xi(lam, shifted_xi)
    r = np.linspace(-2.0 * params.a, 2.0 * params.a, 33)
    r_shifted = r - shift * params.a
    s, s_shifted = model.metric_eval(params, r), model.metric_eval(shifted, r_shifted)
    assert np.max(np.abs(s_shifted.f_p - s.f_p)) / params.k <= 1e-12
    assert np.max(np.abs(s_shifted.f_pp - s.f_pp)) / params.k**2 <= 1e-12
    assert np.max(np.abs(s_shifted.u - s.u - 2.0 * shift) / np.maximum(1.0, np.abs(s.u))) <= 1e-12
    w_ratio = s_shifted.w / s.w
    assert np.max(np.abs(w_ratio / math.exp(2.0 * shift) - 1.0)) <= 1e-12


@pytest.mark.parametrize("shift", [0.25, 1.0, 3.0])
@pytest.mark.parametrize("e_tilde", [1.5, 2.0, 100.0])
@pytest.mark.parametrize("lam", [0.75, 3.0, 12.0])
def test_e_scale_at_xi_zero_is_a_shift_along_r(lam, e_tilde, shift):
    # Each column agrees to 64 eps of its largest |value|.
    params = model.params_from_xi(lam, 0.0)
    grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 257)
    base, scaled = (
        congruence.kinematics_scan(model.metric_eval(params, radii), congruence.CongruenceConfig(e_tilde=energy))
        for radii, energy in ((grid, e_tilde), (grid - shift * params.a, e_tilde * math.exp(shift)))
    )
    assert base.r.size > 0
    assert np.array_equal(scaled.r, base.r - shift * params.a)
    pairs = (
        (scaled.theta, base.theta),
        (scaled.dtheta_dtau, base.dtheta_dtau),
        (scaled.null_rate, math.exp(shift) * base.null_rate),
    )
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 64.0 * np.finfo(float).eps * np.max(np.abs(want))
