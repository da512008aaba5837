import math

import numpy as np
import pytest

from lbverify import special_functions
from lbverify.errors import ParameterDomainError, SpecialFunctionError
from lbverify.special_functions import (
    CACHED_TERMS,
    MAX_TERMS,
    SERIES_RTOL,
    gauss_2f1_connection,
    gauss_2f1_pfaff,
    gauss_2f1_series,
    hyp2f1,
)

# Frozen from the averaged brute-force series oracle below (and agreeing
# with the quadrature pin of the tortoise test to ~1e-13).
F_SIXTH_AT_MINUS_ONE = 0.9638106483299994

TORTOISE_ABC = (1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0)


def brute_force_alternating(a, b, c, n=1_000_000, levels=2):
    """Partial sums of the z = -1 series with repeated tail averaging."""
    term = 1.0
    total = 1.0
    tail = []
    keep = 2**levels + 2
    for k in range(n):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * (-1.0)
        total += term
        if k >= n - keep:
            tail.append(total)
    seq = tail
    for _ in range(levels):
        seq = [0.5 * (x + y) for x, y in zip(seq, seq[1:])]
    return seq[-1]


def test_value_at_zero():
    assert hyp2f1(1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0, 0.0) == 1.0


def test_binomial_identity_spot():
    # F(a, b; a; z) = (1-z)^{-b}: F(1, 2, 1; -1) = 2^{-2}.
    assert hyp2f1(1.0, 2.0, 1.0, -1.0) == pytest.approx(0.25, abs=1e-14)


def test_value_at_minus_one_dual_path():
    abc = (1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0)
    pfaff = gauss_2f1_pfaff(*abc, -1.0)
    oracle = brute_force_alternating(*abc)
    assert abs(pfaff - oracle) < 1e-12
    assert abs(pfaff - F_SIXTH_AT_MINUS_ONE) < 1e-12
    assert hyp2f1(*abc, -1.0) == pfaff


def test_binomial_identity_random():
    rng = np.random.default_rng(7121)
    for _ in range(100):
        a = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.05, 2.0))
        z = float(rng.uniform(-10.0, 0.0))
        expected = (1.0 - z) ** (-b)
        assert abs(hyp2f1(a, b, a, z) - expected) < 1e-12


def test_series_vs_pfaff_random():
    rng = np.random.default_rng(40312)
    for _ in range(100):
        a, b, c = (float(x) for x in rng.uniform(0.05, 2.0, size=3))
        z = float(rng.uniform(-0.95, 0.0))
        assert abs(gauss_2f1_series(a, b, c, z) - gauss_2f1_pfaff(a, b, c, z)) < 1e-12


def test_derivative_contiguity():
    # d/dz F(a,b;c;z) = (a b / c) F(a+1, b+1; c+1; z).
    rng = np.random.default_rng(90210)
    for _ in range(20):
        a, b, c = (float(x) for x in rng.uniform(0.1, 2.0, size=3))
        z = float(rng.uniform(-5.0, -0.1))
        h = 1e-6 * max(1.0, abs(z))
        fd = (hyp2f1(a, b, c, z + h) - hyp2f1(a, b, c, z - h)) / (2.0 * h)
        analytic = a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
        assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-6)


def test_large_negative_argument_converges():
    # Tortoise arguments reach about -e^6 xi^2 on the acceptance window.
    val = hyp2f1(1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0, -math.exp(6.0))
    assert 0.0 < val < 1.0


def test_positive_argument_rejected():
    with pytest.raises(ParameterDomainError, match="unsupported"):
        hyp2f1(0.5, 0.5, 1.5, 0.25)


def test_nonpositive_integer_c_rejected():
    for c in (0.0, -1.0, -7.0):
        with pytest.raises(ParameterDomainError):
            hyp2f1(0.5, 0.5, c, -0.25)


def test_series_outside_unit_disc_rejected():
    with pytest.raises(ParameterDomainError, match="diverges"):
        gauss_2f1_series(0.5, 0.5, 1.5, -1.5)


def test_connection_continuous_with_pfaff_at_cut():
    # hyp2f1 switches from Pfaff to the connection formula below z = -2.
    pfaff = gauss_2f1_pfaff(*TORTOISE_ABC, -2.0)
    assert hyp2f1(*TORTOISE_ABC, -2.0) == pfaff
    assert gauss_2f1_connection(*TORTOISE_ABC, -2.0) == pytest.approx(pfaff, rel=1e-14)
    assert hyp2f1(*TORTOISE_ABC, math.nextafter(-2.0, -math.inf)) == pytest.approx(pfaff, rel=1e-14)


@pytest.mark.parametrize("z", [-3.0, -1e2, -1e4, -1e8, -1e300])
def test_connection_matches_mpmath(z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        third = mpmath.mpf(1) / 3
        expected = float(mpmath.hyp2f1(third / 2, third, 1 + third / 2, z))
    assert hyp2f1(*TORTOISE_ABC, z) == pytest.approx(expected, rel=1e-14)
    assert gauss_2f1_connection(*TORTOISE_ABC, z) == hyp2f1(*TORTOISE_ABC, z)


@pytest.mark.parametrize("z", [-10.0, -1e6])
def test_connection_reciprocal_gamma_pole(z):
    # c = a puts Gamma(c - a) = Gamma(0) in a denominator: that term drops out
    # and the binomial F(a, b; a; z) = (1 - z)^(-b) remains.
    for a, b in ((0.3, 1.7), (1.25, 0.4)):
        assert hyp2f1(a, b, a, z) == pytest.approx((1.0 - z) ** (-b), rel=1e-14)


def test_connection_integer_b_minus_a_uses_pfaff():
    for a, b, c, z in ((0.5, 1.5, 1.2, -10.0), (0.7, 0.7, 2.1, -3.0), (1.4, -0.6, 0.9, -50.0)):
        assert gauss_2f1_connection(a, b, c, z) == gauss_2f1_pfaff(a, b, c, z)
        assert hyp2f1(a, b, c, z) == gauss_2f1_pfaff(a, b, c, z)


def test_connection_rejects_argument_inside_unit_disc():
    with pytest.raises(ParameterDomainError, match="connection formula needs"):
        gauss_2f1_connection(*TORTOISE_ABC, -0.5)


def test_tortoise_argument_sweep_never_raises():
    values = np.array([hyp2f1(*TORTOISE_ABC, float(z)) for z in -np.logspace(-3, 300, 2000)])
    assert np.all(np.isfinite(values))
    assert np.all((values > 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) <= 0.0)


def test_connection_gamma_overflow_uses_pfaff():
    # Gamma(200.1) overflows a float; the Pfaff series still converges.
    a, b, c, z = 0.5, 200.3, 200.1, -10.0
    assert gauss_2f1_connection(a, b, c, z) == gauss_2f1_pfaff(a, b, c, z)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        expected = float(mpmath.hyp2f1(a, b, c, z))
    assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-13)


def plain_series(a, b, c, z):
    """The defining series with every term ratio recomputed in the loop: (sum, terms)."""
    total = 1.0
    term = 1.0
    small_streak = 0
    for k in range(MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total, k + 1
        else:
            small_streak = 0
    return None, MAX_TERMS


def plain_hyp2f1(a, b, c, z):
    """``hyp2f1`` with no cached ratio or coefficient: the three branches as written out."""
    if z == 0.0:
        return 1.0
    if z >= -0.5:
        return plain_series(a, b, c, z)[0]
    if z >= -2.0 or b - a == math.floor(b - a):
        return (1.0 - z) ** (-a) * plain_series(a, c - b, c, z / (z - 1.0))[0]
    gamma_c = math.gamma(c)
    coef_a = gamma_c * math.gamma(b - a) * special_functions._rgamma(b) * special_functions._rgamma(c - a)
    coef_b = gamma_c * math.gamma(a - b) * special_functions._rgamma(a) * special_functions._rgamma(c - b)
    t = 1.0 / z
    term_a = coef_a * (-z) ** (-a) * plain_series(a, a - c + 1.0, a - b + 1.0, t)[0]
    term_b = coef_b * (-z) ** (-b) * plain_series(b, b - c + 1.0, b - a + 1.0, t)[0]
    return term_a + term_b


def test_cached_series_is_bit_identical_to_the_plain_recurrence():
    # The tortoise coordinate's z spans every branch; its four series triples
    # all run from cached ratios.
    rng = np.random.default_rng(6150)
    zs = -np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 2000))
    for z in zs.tolist() + [-0.5, -2.0, -1e300]:
        assert hyp2f1(*TORTOISE_ABC, z) == plain_hyp2f1(*TORTOISE_ABC, z)
    for _ in range(200):
        a, b, c = (float(x) for x in rng.uniform(0.05, 3.0, size=3))
        z = -float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        assert hyp2f1(a, b, c, z) == plain_hyp2f1(a, b, c, z)


def test_series_past_the_cached_ratios_is_bit_identical():
    z = -0.99
    expected, terms = plain_series(*TORTOISE_ABC, z)
    assert terms > CACHED_TERMS
    assert gauss_2f1_series(*TORTOISE_ABC, z) == expected


def test_series_term_cap_message_unchanged():
    z = -(1.0 - 1e-9)
    assert plain_series(0.5, 0.5, 1.5, z)[0] is None
    with pytest.raises(SpecialFunctionError) as excinfo:
        gauss_2f1_series(0.5, 0.5, 1.5, z)
    assert str(excinfo.value) == f"2F1 series did not converge within {MAX_TERMS} terms at z = {z:.6g}"


def test_connection_coefficients_computed_once_per_triple():
    a, b, c = TORTOISE_ABC
    coefficients = special_functions._connection_coefficients
    coefficients.cache_clear()
    for z in (-3.0, -1e2, -1e8):
        assert gauss_2f1_connection(a, b, c, z) == plain_hyp2f1(a, b, c, z)
    info = coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # Integer b - a and Gamma overflow fall back to Pfaff on every call,
    # cached or not.
    for abc, z in (((0.5, 1.5, 1.2), -10.0), ((0.5, 200.3, 200.1), -10.0)):
        assert coefficients(*abc) is None
        for _ in range(2):
            assert gauss_2f1_connection(*abc, z) == gauss_2f1_pfaff(*abc, z)
