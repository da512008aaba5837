import math

import numpy as np
import pytest

from lbverify.errors import NumericalError
from lbverify.numerics import (
    BISECT_ROUNDS,
    BISECT_SECTIONS,
    EPS,
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    QUAD_DEPTH_CAP,
    QUAD_MAX_INTERVALS,
    Jet,
    adaptive_gauss_kronrod,
    bracket_sign_changes,
    sign_change_roots,
)


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
    batch = adaptive_gauss_kronrod(_integrand, a, b, 1e-12)
    assert batch.shape == a.shape
    single = [[adaptive_gauss_kronrod(_integrand, lo, hi, 1e-12) for lo, hi in zip(*row)] for row in zip(a, b)]
    assert batch.tolist() == single
    # A scalar endpoint broadcasts against an array of the other.
    fan = adaptive_gauss_kronrod(_integrand, 0.0, np.array([-1.0, 0.4, 2.0]), 1e-12)
    assert fan.tolist() == [adaptive_gauss_kronrod(_integrand, 0.0, hi, 1e-12) for hi in (-1.0, 0.4, 2.0)]


def test_reversed_interval_is_exactly_minus_forward():
    forward = adaptive_gauss_kronrod(_integrand, -3.0, 5.0, 1e-12)
    assert adaptive_gauss_kronrod(_integrand, 5.0, -3.0, 1e-12) == -forward
    both = adaptive_gauss_kronrod(_integrand, np.array([-3.0, 5.0]), np.array([5.0, -3.0]), 1e-12)
    assert both.tolist() == [forward, -forward]


def test_zero_length_interval_is_zero():
    assert adaptive_gauss_kronrod(_integrand, 1.5, 1.5, 1e-10) == 0.0
    assert adaptive_gauss_kronrod(_integrand, np.array([1.5, 0.0]), np.array([1.5, 1.0]), 1e-10)[0] == 0.0


def test_integrand_calls_bounded_by_depth_cap():
    # The jump at 0 sits a third of the way into every subinterval that holds
    # it, so one of the 15 nodes on each side sees it: that subinterval never
    # meets its tolerance and is refined down to the depth cap, while every
    # other one is accepted at once.  One call per level, depths 0 to the cap.
    step, sizes = _counted(lambda x: np.where(x > 0.0, 1.0, 0.0))
    value = adaptive_gauss_kronrod(step, -1024.0, 2048.0, 1e-12)
    assert len(sizes) == QUAD_DEPTH_CAP + 1
    assert value == pytest.approx(2048.0, abs=1e-12)


def test_rounding_floor_stops_refinement_of_a_large_integral():
    # At tol 1e-20 an O(1e6) integral has no subinterval whose error estimate
    # can meet tol / 2**depth: rounding alone puts it near 1e-10.  Each one is
    # accepted at its rounding floor instead of splitting down to the depth
    # cap (over a million integrand evaluations for adaptive Simpson before it).
    assert adaptive_gauss_kronrod(lambda x: np.ones_like(x), 0.0, 1e6, 1e-20) == 1e6
    fn, sizes = _counted(lambda x: np.exp(x / 1e6))
    value = adaptive_gauss_kronrod(fn, 0.0, 1e6, 1e-20)
    assert value == pytest.approx(1e6 * math.expm1(1.0), rel=1e-14)
    assert len(sizes) < QUAD_DEPTH_CAP and sum(sizes) < 10_000


def test_noise_above_every_acceptance_test_raises_at_the_interval_bound():
    # Noise of relative size 1e-9 is above the rounding floor, and its
    # error estimate stays near 500 times a subinterval's share of tol:
    # almost no subinterval is accepted, and the open ones nearly double
    # each level.  The quadrature raises once they pass the bound, long
    # before the depth cap, and no level evaluates more than the bound's
    # nodes.
    fn, sizes = _counted(lambda x: 1.0 + 1e-9 * np.sin(1e9 * x))
    with pytest.raises(NumericalError, match=f"more than {QUAD_MAX_INTERVALS}"):
        adaptive_gauss_kronrod(fn, 0.0, 1.0, 1e-12)
    assert max(sizes) <= KRONROD_NODES.size * QUAD_MAX_INTERVALS
    assert len(sizes) < QUAD_DEPTH_CAP


def test_node_set_matches_recursive_count():
    # 315 integrand evaluations, 15 per subinterval, is what the
    # one-interval-at-a-time recursive form of this rule needs here (3001
    # for adaptive Simpson); the level loop visits the same nodes.
    fn, sizes = _counted(_integrand)
    value = adaptive_gauss_kronrod(fn, -3.0, 5.0, 1e-12)
    assert sum(sizes) == 315
    x = np.linspace(-3.0, 5.0, 200_001)
    fx = _integrand(x)
    composite = (x[1] - x[0]) / 3.0 * (fx[0] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum() + fx[-1])
    assert value == pytest.approx(composite, abs=1e-12)


def test_kronrod_rule_is_exact_for_polynomials_through_degree_22():
    # K15 integrates x^d over [-1, 1] exactly for d <= 3 * 7 + 1 = 22, and
    # its odd entries are the nodes of the 7-point Gauss-Legendre rule.
    for d in range(23):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert (KRONROD_WEIGHTS * KRONROD_NODES**d).sum() == pytest.approx(exact, abs=4 * EPS), d
    assert (KRONROD_WEIGHTS * KRONROD_NODES**24).sum() != pytest.approx(2.0 / 25, abs=1e-12)
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(KRONROD_NODES[1::2] - gauss_nodes)) <= EPS
    assert np.max(np.abs(GAUSS_WEIGHTS - gauss_weights)) <= 2 * EPS
    assert KRONROD_WEIGHTS.sum() == 2.0 and np.array_equal(KRONROD_NODES, -KRONROD_NODES[::-1])


@pytest.mark.parametrize("scale", (1e200, 1e-200))
def test_sign_tests_neither_overflow_nor_underflow(scale):
    # The product of two neighbouring values overflows at 1e200 (a
    # RuntimeWarning, an error under the test configuration) and underflows
    # to -0.0 at 1e-200, which would hide the sign change.
    fn = lambda x: scale * (np.asarray(x) - 0.3)
    brackets = bracket_sign_changes(fn, -1.0, 1.0, 8)
    assert brackets == [(0.25, 0.5)]
    (root,) = sign_change_roots(fn, -1.0, 1.0, 8)
    assert root == pytest.approx(0.3, abs=1e-12)
    assert sign_change_roots(fn, 0.5, 1.0, 8) == []


def test_root_scan_returns_a_zero_endpoint_without_narrowing():
    # A zero at either end is a degenerate bracket: the scan's one call on
    # (lo, hi) is the only one.
    for root in (0.25, 1.0):
        fn, sizes = _counted(lambda x: np.asarray(x) - root)
        assert sign_change_roots(fn, 0.25, 1.0, 1) == [root]
        assert sizes == [2]


def test_root_scan_without_a_sign_change_finds_no_root():
    for n in (1, 8):
        assert sign_change_roots(np.ones_like, 0.0, 1.0, n) == []


def _binary_bisection(fn, lo, hi):
    """Plain one-point-per-step bisection to the width ``sign_change_roots`` stops at (the reference)."""
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or (hi - lo) < 1e-13 * abs(mid):
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_multisection_matches_plain_bisection_on_monotone_functions():
    # Both brackets keep the one root and stop below 1e-13 |mid| wide.
    rng = np.random.default_rng(2024)
    for _ in range(300):
        root = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 3.0))
        scale = float(10.0 ** rng.uniform(-3.0, 2.0))
        slope = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        cubic = float(rng.uniform(0.0, 5.0))
        fn = lambda x: slope * (np.sinh((x - root) / scale) + cubic * ((x - root) / scale) ** 3)
        lo = root - scale * float(rng.uniform(1e-6, 2.0))
        hi = root + scale * float(rng.uniform(1e-6, 2.0))
        # One interval: the scan's one bracket is (lo, hi).
        (got,) = sign_change_roots(fn, lo, hi, 1)
        want = _binary_bisection(lambda x: float(fn(x)), lo, hi)
        assert abs(got - want) <= 2e-13 * abs(want), (root, scale, slope, cubic, lo, hi)


def test_multisection_ends_around_an_exact_zero():
    # 0 is neither a point of the one-interval scan of [-1, 2] nor a
    # section point: the width never falls below 1e-13 |mid|, and the round
    # cap ends the search next to 0.
    fn, sizes = _counted(lambda x: np.asarray(x))
    (root,) = sign_change_roots(fn, -1.0, 2.0, 1)
    assert abs(root) <= 3.0 * BISECT_SECTIONS**-BISECT_ROUNDS
    assert sizes == [2] + [BISECT_SECTIONS + 1] * BISECT_ROUNDS


def test_multisection_brackets_a_sign_change_of_non_monotone_functions():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        k, phase, tilt = rng.uniform(0.5, 40.0), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-0.5, 0.5)
        fn = lambda x: np.sin(k * x + phase) + tilt * np.cos(3.0 * k * x)
        lo, hi = sorted(rng.uniform(-50.0, 50.0, 2).tolist())
        if np.sign(fn(lo)) * np.sign(fn(hi)) >= 0.0:
            continue
        (x,) = sign_change_roots(fn, lo, hi, 1)
        width = 2e-13 * max(1.0, abs(x))
        assert lo <= x <= hi
        assert fn(x) == 0.0 or np.sign(fn(x - width)) != np.sign(fn(x + width)), (k, phase, tilt, lo, hi)
        checked += 1


def test_multisection_returns_a_zero_at_a_section_point():
    # 1/4 is the 16th of 64 section points of [0, 1]: one round after the
    # scan of the endpoints.  1/4 + 3/4096 is a section point of the second
    # round.  A zero found is a degenerate bracket, and no round follows it.
    for root, rounds in ((0.25, 1), (0.25 + 3.0 / 4096.0, 2)):
        fn, sizes = _counted(lambda x: np.asarray(x) - root)
        assert sign_change_roots(fn, 0.0, 1.0, 1) == [root]
        assert sizes == [2] + [BISECT_SECTIONS + 1] * rounds


def _operands(x):
    """Jets of a = e^{2x} and b = 1 + x^2, written out by hand."""
    e = np.exp(2.0 * x)
    return Jet(e, 2.0 * e, 4.0 * e), Jet(1.0 + x * x, 2.0 * x, np.full_like(x, 2.0))


JET_PRIMITIVES = {
    "add": (lambda a, b: a + b, None),
    "add-constant": (lambda a, b: 3.0 + a, None),
    "sub": (lambda a, b: a - b, None),
    "sub-from-constant": (lambda a, b: 3.0 - b, None),
    "neg": (lambda a, b: -a, None),
    "mul": (lambda a, b: a * b, None),
    "mul-constant": (lambda a, b: 3.0 * a, None),
    "pow": (lambda a, b: b**1.5, None),
    "pow-negative": (lambda a, b: b**-2.5, None),
    "exp": (lambda a, b: b.exp(), lambda mpmath, a, b: mpmath.exp(b)),
    "sqrt": (lambda a, b: b**0.5, lambda mpmath, a, b: mpmath.sqrt(b)),
    # b - 2 = x^2 - 1 changes sign on the radii, so both softplus branches run.
    "softplus": (lambda a, b: (b - 2.0).softplus(), lambda mpmath, a, b: mpmath.log(1 + mpmath.exp(b - 2))),
}


@pytest.mark.parametrize("name", sorted(JET_PRIMITIVES))
def test_jet_primitive_matches_mpmath_derivatives(name):
    mpmath = pytest.importorskip("mpmath")
    on_jets, on_mp = JET_PRIMITIVES[name]
    on_mp = on_mp or (lambda mpmath, a, b: on_jets(a, b))
    x = np.array([-1.3, -0.2, 0.4, 1.1])
    jet = on_jets(*_operands(x))
    with mpmath.workdps(30):
        fn = lambda t: on_mp(mpmath, mpmath.exp(2 * t), 1 + t * t)
        for i, t in enumerate(x.tolist()):
            for order, part in enumerate((jet.v, jet.d1, jet.d2)):
                assert part[i] == pytest.approx(float(mpmath.diff(fn, t, order)), rel=1e-14, abs=1e-14), (order, t)


def test_jet_softplus_takes_any_argument_without_overflow():
    # RuntimeWarnings are errors under the test configuration.
    y = Jet(np.array([-np.inf, -800.0, 800.0]), np.full(3, 2.0), np.zeros(3))
    out = y.softplus()
    assert out.v.tolist() == [0.0, 0.0, 800.0]
    assert out.d1.tolist() == [0.0, 0.0, 2.0]
    assert out.d2.tolist() == [0.0, 0.0, 0.0]
    variable = Jet.variable([0.5, 2.0])
    assert variable.d1.tolist() == [1.0, 1.0] and variable.d2.tolist() == [0.0, 0.0]
