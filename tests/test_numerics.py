import math

import numpy as np
import pytest

from lbverify.errors import NumericalError
from lbverify.numerics import SIMPSON_DEPTH_CAP, adaptive_simpson, bisect, bracket_sign_changes


def _integrand(x):
    return np.sin(x) * np.exp(-x * x)


def _counted(fn):
    """``fn`` plus the list of the array sizes it was called with."""
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return fn(x)

    return counted, sizes


def test_batched_endpoints_match_single_intervals_bit_for_bit():
    a = np.array([[-3.0, 0.0], [2.0, 0.5]])
    b = np.array([[5.0, 1.0], [-1.0, 0.5]])
    batch = adaptive_simpson(_integrand, a, b, 1e-12)
    assert batch.shape == a.shape
    single = [[adaptive_simpson(_integrand, lo, hi, 1e-12) for lo, hi in zip(*row)] for row in zip(a, b)]
    assert batch.tolist() == single
    # A scalar endpoint broadcasts against an array of the other.
    fan = adaptive_simpson(_integrand, 0.0, np.array([-1.0, 0.4, 2.0]), 1e-12)
    assert fan.tolist() == [adaptive_simpson(_integrand, 0.0, hi, 1e-12) for hi in (-1.0, 0.4, 2.0)]


def test_reversed_interval_is_exactly_minus_forward():
    forward = adaptive_simpson(_integrand, -3.0, 5.0, 1e-12)
    assert adaptive_simpson(_integrand, 5.0, -3.0, 1e-12) == -forward
    both = adaptive_simpson(_integrand, np.array([-3.0, 5.0]), np.array([5.0, -3.0]), 1e-12)
    assert both.tolist() == [forward, -forward]


def test_zero_length_interval_is_zero():
    assert adaptive_simpson(_integrand, 1.5, 1.5, 1e-10) == 0.0
    assert adaptive_simpson(_integrand, np.array([1.5, 0.0]), np.array([1.5, 1.0]), 1e-10)[0] == 0.0


def test_integrand_calls_bounded_by_depth_cap():
    # The subinterval holding the jump never meets its tolerance, so it is
    # refined down to the depth cap; every other one is accepted at once.
    step, sizes = _counted(lambda x: np.where(x > 0.3, 1.0, 0.0))
    value = adaptive_simpson(step, -1024.0, 1024.0, 1e-12)
    assert len(sizes) == SIMPSON_DEPTH_CAP + 2
    assert value == pytest.approx(1024.0 - 0.3, abs=1e-12)


def test_rounding_floor_stops_refinement_of_a_large_integral():
    # At tol 1e-20 an O(1e6) integral has no subinterval whose error estimate
    # can meet tol / 2**depth: rounding alone puts it near 1e-10.  Each one is
    # accepted at its rounding floor instead of splitting down to the depth
    # cap (over a million integrand evaluations here before).
    assert adaptive_simpson(lambda x: np.ones_like(x), 0.0, 1e6, 1e-20) == 1e6
    fn, sizes = _counted(lambda x: np.exp(x / 1e6))
    value = adaptive_simpson(fn, 0.0, 1e6, 1e-20)
    assert value == pytest.approx(1e6 * math.expm1(1.0), rel=1e-14)
    assert len(sizes) < SIMPSON_DEPTH_CAP and sum(sizes) < 10_000


def test_node_set_matches_recursive_count():
    # 3001 integrand evaluations is what the one-point-at-a-time recursive
    # form of this rule needs here; the level loop visits the same nodes.
    fn, sizes = _counted(_integrand)
    value = adaptive_simpson(fn, -3.0, 5.0, 1e-12)
    assert sum(sizes) == 3001
    x = np.linspace(-3.0, 5.0, 200_001)
    fx = _integrand(x)
    composite = (x[1] - x[0]) / 3.0 * (fx[0] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum() + fx[-1])
    assert value == pytest.approx(composite, abs=1e-12)


@pytest.mark.parametrize("scale", (1e200, 1e-200))
def test_sign_tests_neither_overflow_nor_underflow(scale):
    # The product of two neighbouring values overflows at 1e200 (a
    # RuntimeWarning, an error under the test configuration) and underflows
    # to -0.0 at 1e-200, which would hide the sign change.
    fn = lambda x: scale * (np.asarray(x) - 0.3)
    brackets = bracket_sign_changes(fn, -1.0, 1.0, 8)
    assert brackets == [(0.25, 0.5)]
    root = bisect(lambda x: float(fn(x)), *brackets[0])
    assert root == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(NumericalError, match="no sign change"):
        bisect(lambda x: float(fn(x)), 0.5, 1.0)


def test_bisect_returns_an_endpoint_without_halving():
    # An empty bracket and a root at either end need no sign test.
    never = lambda x: pytest.fail("fn called")
    assert bisect(never, 0.4, 0.4) == 0.4
    assert bisect(lambda x: x - 0.25, 0.25, 1.0) == 0.25
    assert bisect(lambda x: x - 1.0, 0.25, 1.0) == 1.0


def test_bisect_without_a_sign_change_is_a_numerical_failure():
    with pytest.raises(NumericalError, match="no sign change"):
        bisect(lambda x: 1.0, 0.0, 1.0)
