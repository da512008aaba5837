import math

import numpy as np
import pytest

from lbverify.errors import ParameterDomainError, RangeError
from lbverify.special_functions import gauss_2f1_connection, gauss_2f1_pfaff, gauss_2f1_series, hyp2f1

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
    with pytest.raises(RangeError):
        hyp2f1(0.5, 0.5, 1.5, 0.25)


def test_nonpositive_integer_c_rejected():
    for c in (0.0, -1.0, -7.0):
        with pytest.raises(ParameterDomainError):
            hyp2f1(0.5, 0.5, c, -0.25)


def test_series_outside_unit_disc_rejected():
    with pytest.raises(RangeError):
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
    with pytest.raises(RangeError):
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
