import math

import numpy as np
import pytest

from lbverify.congruence import tortoise_series
from lbverify.errors import ParameterDomainError, SpecialFunctionError
from lbverify.model import params_from_xi
from lbverify.special_functions import (
    FIRST_CHUNK_TERMS,
    MAX_TERMS,
    SERIES_RTOL,
    gauss_2f1_pfaff,
    gauss_2f1_series,
    hyp2f1,
)

# Frozen from the averaged brute-force series oracle below (and agreeing
# with the quadrature pin of the tortoise test to ~1e-13).
F_SIXTH_AT_MINUS_ONE = 0.9638106483299994

#: The tortoise coordinate's 2F1, F(2p, 1; p + 1; x) of B_x(p, p) at p = 1/6.
TORTOISE_ABC = (1.0 / 3.0, 1.0, 7.0 / 6.0)


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
    assert gauss_2f1_pfaff(1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0, 0.0) == 1.0


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
    # The Pfaff argument t = e^6/(e^6 + 1) is within 0.0025 of 1 here.
    val = hyp2f1(1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0, -math.exp(6.0))
    assert 0.0 < val < 1.0


def test_positive_argument_rejected():
    with pytest.raises(ParameterDomainError, match="unsupported"):
        hyp2f1(0.5, 0.5, 1.5, 0.75)
    # The Pfaff branch on its own takes z <= 0 only.
    with pytest.raises(ParameterDomainError, match=r"^z = 0\.25 > 0 is unsupported$"):
        gauss_2f1_pfaff(0.5, 0.5, 1.5, 0.25)


def test_nonpositive_integer_c_rejected():
    for c in (0.0, -1.0, -7.0):
        with pytest.raises(ParameterDomainError):
            hyp2f1(0.5, 0.5, c, -0.25)


def test_series_outside_unit_disc_rejected():
    with pytest.raises(ParameterDomainError, match="diverges"):
        gauss_2f1_series(0.5, 0.5, 1.5, -1.5)


@pytest.mark.parametrize("z", [-3.0, -1e2, -1e4, -1e8, -1e300])
def test_connection_matches_mpmath(z):
    # The reflection B_s = B(1/6, 1/6) - B_(1-s) connects the tortoise at
    # q = log(-z) > 0, where its 2F1 form a e^(r/a) F(1/6, 1/3; 7/6; z) has
    # z = -xi^2 e^(6r/a), with its series at 1 - s <= 1/2.
    mpmath = pytest.importorskip("mpmath")
    params = params_from_xi(3.0, 1.0)
    r = math.log(-z) / 6.0
    with mpmath.workdps(40):
        third = mpmath.mpf(1) / 3
        mp_r = mpmath.mpf(r)
        expected = float(mpmath.exp(mp_r) * mpmath.hyp2f1(third / 2, third, 1 + third / 2, -mpmath.exp(6 * mp_r)))
    assert tortoise_series(params, r) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("z", [-10.0])
def test_connection_reciprocal_gamma_pole(z):
    # c = a gives the binomial F(a, b; a; z) = (1 - z)^(-b); below z = -1/2
    # the Pfaff branch reaches it as (1 - z)^(-a) F(a, a - b; a; t).
    for a, b in ((0.3, 1.7), (1.25, 0.4)):
        assert hyp2f1(a, b, a, z) == pytest.approx((1.0 - z) ** (-b), rel=1e-14)


def test_tortoise_series_matches_mpmath_on_its_argument_range():
    # The tortoise's series argument x = min(s, 1 - s) lies in [0, 1/2].
    mpmath = pytest.importorskip("mpmath")
    for x in np.linspace(0.0, 0.5, 51)[1:].tolist() + [1e-300, 5e-324]:
        with mpmath.workdps(40):
            expected = float(mpmath.hyp2f1(mpmath.mpf(1) / 3, 1, mpmath.mpf(7) / 6, x))
        assert hyp2f1(*TORTOISE_ABC, x) == pytest.approx(expected, rel=1e-15, abs=0.0), x


def test_tortoise_argument_sweep_never_raises():
    # The radii where -xi^2 e^(6r/a) runs from -1e-3 to -1e300 (xi = 1, a = 1):
    # 0 < r* <= a e^(r/a), the 2F1 form with F <= 1, and r* grows with r.
    params = params_from_xi(3.0, 1.0)
    radii = np.log(np.logspace(-3, 300, 2000)) / 6.0
    values = tortoise_series(params, radii)
    assert np.all(np.isfinite(values))
    assert np.all((values > 0.0) & (values <= np.exp(radii)))
    assert np.all(np.diff(values) >= 0.0)


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
    """``hyp2f1`` with no cached ratio: the two branches as written out."""
    if z == 0.0:
        return 1.0
    if z >= -0.5:
        return plain_series(a, b, c, z)[0]
    return (1.0 - z) ** (-a) * plain_series(a, c - b, c, z / (z - 1.0))[0]


def test_cached_series_is_bit_identical_to_the_plain_recurrence():
    # The tortoise coordinate's series argument spans [0, 1/2]; its one
    # triple runs from cached ratios.
    rng = np.random.default_rng(6150)
    xs = rng.uniform(0.0, 0.5, 2000)
    for x in xs.tolist() + [0.5, 1e-300, 5e-324]:
        assert hyp2f1(*TORTOISE_ABC, x) == plain_hyp2f1(*TORTOISE_ABC, x)
    for _ in range(200):
        a, b, c = (float(x) for x in rng.uniform(0.05, 3.0, size=3))
        z = -float(np.exp(rng.uniform(math.log(1e-3), math.log(1e2))))
        assert hyp2f1(a, b, c, z) == plain_hyp2f1(a, b, c, z)
        z = float(rng.uniform(0.0, 0.5))
        assert hyp2f1(a, b, c, z) == plain_hyp2f1(a, b, c, z)


def test_series_past_the_cached_ratios_is_bit_identical():
    z = -0.99
    expected, terms = plain_series(*TORTOISE_ABC, z)
    assert terms > FIRST_CHUNK_TERMS
    assert gauss_2f1_series(*TORTOISE_ABC, z) == expected


def test_array_series_is_bit_identical_to_the_plain_recurrence_elementwise():
    # One call on a mixed array: z = -0.99 runs past the cached ratios while
    # the others stop inside them, and z = 0 stops at its first two terms.
    z = np.array([[0.3, -0.99, 0.0], [1e-300, -0.5, 0.49]])
    values = gauss_2f1_series(*TORTOISE_ABC, z)
    assert values.shape == z.shape
    assert values.tolist() == [[plain_series(*TORTOISE_ABC, x)[0] for x in row] for row in z.tolist()]
    assert plain_series(*TORTOISE_ABC, -0.99)[1] > FIRST_CHUNK_TERMS
    assert gauss_2f1_series(*TORTOISE_ABC, np.array([])).shape == (0,)
    with pytest.raises(ParameterDomainError, match=r"diverges at \|z\| = 1\.5 >= 1"):
        gauss_2f1_series(*TORTOISE_ABC, np.array([0.2, -1.5]))


def test_series_term_cap_message_unchanged():
    z = -(1.0 - 1e-9)
    assert plain_series(0.5, 0.5, 1.5, z)[0] is None
    with pytest.raises(SpecialFunctionError) as excinfo:
        gauss_2f1_series(0.5, 0.5, 1.5, z)
    assert str(excinfo.value) == f"2F1 series did not converge within {MAX_TERMS} terms at z = {z:.6g}"
