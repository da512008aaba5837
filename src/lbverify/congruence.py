"""Outgoing radial timelike and null congruences of the isotropic line
element ``ds^2 = dr^2 + w(r)(-dt^2 + dphi^2 + dz^2)``.

Covers the 4-velocity of marginally bound radial geodesics, the potential
whose gradient they follow, the expansion scalar and its proper-time rate
(in closed form from w and its derivatives, and in the quoted form in the
scaled variables x = w/E^2, b = |xi/E|), the focusing polynomial and its
root scan, the tortoise coordinate, the radii where the profile equals a
value, and the null expansion rate.  The tortoise coordinate and those
radii are closed forms of the identity w = (2|xi| cosh(q/2))^{2/3},
q = 6r/a + 2 log|xi|: the tortoise coordinate is a symmetric incomplete
beta function of s = 1/(1 + e^{-q}), and w equals a value at an arccosh
pair of radii.  The kinematics read w and the exponent's u' and u'' from
a ``MetricSample``, and E only through x = w/E^2 and the |E|
factor of the null rate: with w' = w u' and w'' = w (u'' + u'^2)
no E^2 w or E^4 product forms, and the direct rates meet the quoted form
in its own variables (E. Poisson, *A Relativist's Toolkit*, 2004, §2.4).

Quoted numeric anchors (root values 0.377 / 1.178 and the radius factor
0.0273) are never used as inputs; they live in comparison reports only.
Turning points (w = E^2) are flags, not exceptions, in the expansion-rate
evaluations: the divergence there is genuine, and ``kinematics_scan``, one
pass over a grid for both congruences, keeps only the admissible radii: it
drops the forbidden ones (w > E^2) and a relative guard band
``TURNING_GUARD_REL`` around the turning points.  Its columns are what a
report reads at those radii.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .model import MAX_ABS_XI, MetricSample, SolutionParams, metric_eval
from .numerics import EPS, FD_FIRST_STEP, adaptive_gauss_kronrod, sign_change_roots
from .special_functions import gauss_2f1_series

#: Scans skip radii with |E^2 - w| < TURNING_GUARD_REL * E^2.
TURNING_GUARD_REL = 1e-10

#: Root values quoted for the focusing polynomial, and the radius factor
#: quoted for the larger one; recorded verbatim for comparison reports.
QUOTED_FOCUSING_ROOTS = (0.377, 1.178)
QUOTED_ROOT_RADIUS_FACTOR = 0.0273

#: B(1/6, 1/6) = Gamma(1/6)^2 / Gamma(1/3), the complete beta function of the tortoise.
_BETA_SIXTH = math.gamma(1.0 / 6.0) ** 2 / math.gamma(1.0 / 3.0)

#: Interior x points per b of the focusing-polynomial sign map.
SIGN_MAP_NX = 512


@dataclass(frozen=True)
class CongruenceConfig:
    """Conserved energy per unit rest mass of the outgoing radial congruence.

    |E| >= 1 for a real radial velocity; |E| <= MAX_ABS_XI keeps E^2 finite.
    """

    e_tilde: float

    def __post_init__(self):
        if not 1.0 <= abs(self.e_tilde) <= MAX_ABS_XI:
            raise ParameterDomainError(
                f"|e_tilde| must be finite with 1 <= |e_tilde| <= {MAX_ABS_XI:.6g}, got {self.e_tilde}"
            )


@dataclass(frozen=True)
class KinematicsScan:
    """Timelike and null kinematics at the admissible radii of a scan grid.

    The fields are the admissible radii r, in grid order, x = w/E^2 and
    the exponent's u' and u'' at them, and E.  The columns theta,
    dtheta_dtau (the timelike rate), null_rate and the 4-velocity's radial
    component u_r are computed on first read, so a caller pays only for the
    ones it reads.  The time component u^t = E/w is not a column: the
    normalization reads it as -w (u^t)^2 = -1/x.
    """

    r: np.ndarray
    x: np.ndarray
    u_p: np.ndarray
    u_pp: np.ndarray
    e_tilde: float

    @functools.cached_property
    def theta(self) -> np.ndarray:
        return _theta(self.x, self.u_p)

    @functools.cached_property
    def dtheta_dtau(self) -> np.ndarray:
        return _rate(self.x, self.u_p, self.u_pp)

    @functools.cached_property
    def null_rate(self) -> np.ndarray:
        """The null expansion rate as quoted, (1/w) sqrt(E^2 - w) [w'' - (3/2) w'^2 / w].

        That is |E| sqrt(1 - x) (u'' - u'^2/2).  It keeps the printed energy
        factor (an affine-null congruence has no rest-mass normalization; the
        bracket u'' - u'^2/2 alone carries the energy-independent content).
        """
        return abs(self.e_tilde) * np.sqrt(1.0 - self.x) * (self.u_pp - 0.5 * self.u_p * self.u_p)

    @functools.cached_property
    def u_r(self) -> np.ndarray:
        """u^r = sqrt(E^2/w - 1) = sqrt(1/x - 1); u^phi = u^z = 0, so u is normalized to -1."""
        return np.sqrt(np.maximum(1.0 / self.x - 1.0, 0.0))


@dataclass(frozen=True)
class RadiusCandidates:
    """Both readings of "the radius where the profile equals X"."""

    from_exponential: float
    from_w: tuple[float, ...]


def _first(values, mask):
    """The entry of ``values`` (scalar or array) at the first true entry of ``mask``."""
    return np.atleast_1d(values)[int(np.argmax(np.atleast_1d(mask)))]


def _sqrt_integrand(params: SolutionParams, cfg: CongruenceConfig, r: np.ndarray) -> np.ndarray:
    val = cfg.e_tilde**2 / metric_eval(params, r).w - 1.0
    # E^2/w - 1 is dimensionless: nodes inside the scans' turning band are
    # clamped to 0, nodes beyond it are forbidden.
    bad = val < -TURNING_GUARD_REL
    if np.any(bad):
        raise ParameterDomainError(f"w > E^2 at r = {_first(r, bad):.6g} inside the integration interval")
    return np.sqrt(np.maximum(val, 0.0))


def hypersurface_potential(params: SolutionParams, cfg: CongruenceConfig, r0: float, r1: float) -> float:
    """Radial part of the potential the congruence is orthogonal to.

    Normalized so that the full potential is E * t + (this value) and the
    covector relation u_alpha = -d_alpha(potential) holds; the gauge is
    potential(r0) = 0.  One ``adaptive_gauss_kronrod`` call integrates
    sqrt(E^2/w - 1) over [r0, r1] (either orientation) to an absolute 1e-10.
    A turning point (w = E^2) may be an endpoint: the integrand's
    square-root cusp there is integrable, no node lies on it, and the
    quadrature refines toward it until its error estimate or its rounding
    floor is met, or to its depth cap.
    """
    return -adaptive_gauss_kronrod(lambda r: _sqrt_integrand(params, cfg, r), r0, r1, 1e-10)


def _theta(x, u_p):
    """u'(2 - 3x) / (2 sqrt(x) sqrt(1 - x)) for 0 < x = w/E^2 <= 1.

    The divergence w'(2E^2 - 3w) / (2 w^{3/2} sqrt(E^2 - w)) of the
    4-velocity, with w' = w u'.  At x = 1 (w = E^2) the IEEE quotient is the
    turning-point flag: +/-inf with the sign of the numerator, NaN where
    the numerator vanishes too.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(u_p * (2.0 - 3.0 * x), 2.0 * np.sqrt(x) * np.sqrt(1.0 - x))


def _rate(x, u_p, u_pp):
    """Proper-time rate of the expansion, d theta / d tau = theta' u^r, for 0 < x <= 1.

    Closed form in (x, u', u''):

        [(u'' + u'^2)(2 - 3x) - 3x u'^2] / (2x)
          - u'^2 (2 - 3x)(3 - 4x) / (4x (1 - x)).

    At x = 1 the second term's IEEE quotient carries the flag, as in
    ``_theta``; the first term stays finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        u_p_sq = u_p * u_p
        s = 2.0 - 3.0 * x
        first = ((u_pp + u_p_sq) * s - 3.0 * x * u_p_sq) / (2.0 * x)
        return first - np.divide(u_p_sq * s * (3.0 - 4.0 * x), 4.0 * x * (1.0 - x))


def chain_rule_fd_step(params: SolutionParams, cfg: CongruenceConfig, r):
    """Step of the potential-gradient stencil in r (elementwise).

    ``FD_FIRST_STEP * a``, capped by 1e-4 (E^2 - w)/|w'| with w' = w u', a
    ten-thousandth of the linear distance to the turning point, so that a
    stencil of that step never crosses it.
    """
    sample = metric_eval(params, r)
    q2 = cfg.e_tilde**2 - sample.w
    w_p = sample.w * sample.u_p
    # A subnormal w' overflows the cap to inf, which np.minimum then drops.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cap = np.where((q2 > 0.0) & (w_p != 0.0), 1e-4 * q2 / np.abs(w_p), np.inf)
    return np.minimum(FD_FIRST_STEP * params.a, cap)


def focusing_polynomial(x, b: float):
    """The quoted rational form in (x, y(x, b)) whose sign decides focusing.

    y = sqrt(x^6 - 4 b^2 x^3); raises ParameterDomainError for y^2 < 0 and
    where the denominator 3 (x^3 + y) vanishes, at any point of an array x.
    """
    x = np.asarray(x, dtype=float)
    y_sq = x**6 - 4.0 * b * b * x**3
    # Clamp cancellation noise at the y = 0 domain edge; genuine violations
    # sit far above this scale.
    noise = 8.0 * EPS * (np.abs(x) ** 6 + 4.0 * b * b * np.abs(x) ** 3)
    outside = y_sq < -noise
    if np.any(outside):
        raise ParameterDomainError(
            f"y^2 = {_first(y_sq, outside):.6g} < 0 at x = {_first(x, outside):.6g}, b = {b:.6g}"
        )
    y = np.sqrt(np.maximum(y_sq, 0.0))
    denominator = 3.0 * (x**3 + y)
    pole = denominator == 0.0
    if np.any(pole):
        raise ParameterDomainError(f"x^3 + y = 0 at x = {_first(x, pole):.6g}, b = {b:.6g}")
    numerator = (
        (27.0 * x * x - 45.0 * x + 20.0) * y
        - 36.0 * b * b * x * x
        - 46.0 * x**4
        + 27.0 * x**5
        + 64.0 * b * b * x
        + 20.0 * x**3
        - 32.0 * b * b
    )
    return numerator / denominator


def focusing_polynomial_reduced(x: float) -> float:
    """The b = 0 reduction (54 x^2 - 91 x + 40) / 6 (y = x^3 for x > 0)."""
    return (54.0 * x * x - 91.0 * x + 40.0) / 6.0


def quoted_scaled_rate(params: SolutionParams, cfg: CongruenceConfig, x):
    """The quoted closed form (lambda/2) * poly / (x (1 - x)) of d theta / d tau.

    Elementwise over scaled profile values x = w/E^2 <= 1, a scan's x
    column, with b = |xi/E| and y^2 = x^6 - 4 b^2 x^3.  Where x^3 < 4 b^2
    (outside the quoted domain) the value is NaN, and so it is where x^3
    underflows to 0: for x > 0 the denominator x^3 + y is positive, so a
    zero there is rounding, not a pole.  The domain test compares x with
    cbrt(4 b^2) itself, because x^6 and 4 b^2 x^3 underflow to 0 together
    while x^3 is still a positive subnormal.  At x = 1 the form diverges
    through 1/(1 - x) exactly where the direct rate diverges through the
    turning point, and the IEEE quotient comes back as an inf flag.
    """
    x = np.asarray(x, dtype=float)
    b = abs(params.xi / cfg.e_tilde)
    inside = (x >= (4.0 * b * b) ** (1.0 / 3.0)) & (x**3 > 0.0)
    x_in = x[inside]
    quoted = np.full_like(x, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        quoted[inside] = np.divide(0.5 * params.lam * focusing_polynomial(x_in, b), x_in * (1.0 - x_in))
    return quoted


def focusing_polynomial_roots(b: float) -> tuple[float, ...]:
    """Root scan (``sign_change_roots``) over the quoted domain x in (cbrt(4b^2), 1).

    Returns the sorted distinct roots.  An empty tuple is a valid result;
    zeros on the domain boundary are not roots.
    """
    if not 0.0 <= b <= 0.5:
        raise ParameterDomainError(f"b must lie in [0, 1/2], got {b}")
    lo = (4.0 * b * b) ** (1.0 / 3.0)
    hi = 1.0
    if not lo < hi:
        return ()
    # Stay clear of x = 0, where the expression is 0/0: at b = 0, and
    # below b ~ 7.9e-163, where 4 b^2 rounds to 0.
    scan_lo = lo if lo > 0.0 else lo + (hi - lo) * 1e-9
    roots = sign_change_roots(lambda x: focusing_polynomial(x, b), scan_lo, hi, 4096)
    return tuple(sorted({root for root in roots if lo < root < hi}))


def radius_candidates(params: SolutionParams, X: float) -> RadiusCandidates:
    """Radii from both readings of "the profile equals X".

    Channel one solves e^{6r/a} = X, giving r = (a/6) ln X.  Channel two
    solves w(r) = X in closed form: with q = 6r/a + 2 log|xi|,
    w = (2|xi| cosh(q/2))^{2/3}, so w = X where cosh(q/2) = X^{3/2}/(2|xi|),
    at r = (a/3)(+/-arccosh(X^{3/2}/(2|xi|)) - log|xi|); at xi = 0,
    w = e^{-2r/a} gives r = -(a/2) ln X.  It keeps the radii inside the
    default window [-2a, 2a] and may return zero, one or two of them (empty
    means no solution there; there is none anywhere when X^{3/2} < 2|xi|,
    below the minimum (2|xi|)^{2/3} of w).
    """
    if not X > 0.0:
        raise ParameterDomainError(f"X must be positive, got {X}")
    a = params.a
    from_exponential = a / 6.0 * math.log(X)
    if params.xi == 0.0:
        roots = [-0.5 * a * math.log(X)]
    else:
        log_xi = params.log_abs_xi
        # log(X^{3/2}/(2|xi|)) = m, taken in log form because the ratio itself
        # over- or underflows at extreme X or xi; arccosh(e^m) for m >= 0 is
        # m + log(1 + sqrt(1 - e^{-2m})).
        m = 1.5 * math.log(X) - math.log(2.0) - log_xi
        roots = []
        if m >= 0.0:
            arccosh = m + math.log1p(math.sqrt(-math.expm1(-2.0 * m)))
            roots = [a / 3.0 * (-arccosh - log_xi), a / 3.0 * (arccosh - log_xi)]
    from_w = tuple(sorted({r for r in roots if -2.0 * a <= r <= 2.0 * a}))
    return RadiusCandidates(from_exponential=from_exponential, from_w=from_w)


def tortoise_series(params: SolutionParams, r):
    """Tortoise coordinate int_{-inf}^r dr'/sqrt(w), a symmetric incomplete beta function.

    With q = 6r/a + 2 log|xi| and s = 1/(1 + e^{-q}), the profile is
    w = (2|xi| cosh(q/2))^{2/3}, and the integral is
    (a/6) |xi|^{-1/3} B_s(1/6, 1/6).  For q > 0 the reflection
    B_s = B(1/6, 1/6) - B_{1-s} leaves x = min(s, 1 - s) <= 1/2 as the only
    argument, and (DLMF 8.17.8)

        B_x(p, p) = x^p (1 - x)^p / p * F(2p, 1; p + 1; x),   p = 1/6,

    whose 2F1 series converges at least like 2^{-k}.  In the prefactor,
    (x (1 - x))^{1/6} = e^{-|q|/6} (1 + e^{-|q|})^{-1/3}, and e^{-|q|/6}
    |xi|^{-1/3} is taken as e^{r/a} (q <= 0) or e^{-r/a} |xi|^{-2/3} (q > 0):
    log|xi| reaches the value only through e^{-|q|}, so no xi down to 5e-324
    underflows, and the rounding of a large log|xi| stays out of the
    exponentials.  At xi = 0 (q = -inf) the value is a e^{r/a}.
    Every finite q is accepted, so the radii are the model's: |r| up to
    ``radial_bound``, past which ParameterDomainError is raised as for w.
    Elementwise over an array of radii, with one ``gauss_2f1_series`` call
    for all of them; a scalar r gives a float.
    """
    r = metric_eval(params, r).r
    a = params.a
    xi = abs(params.xi)
    log_xi = params.log_abs_xi
    radius = r.ravel()
    q = 6.0 * radius / a + 2.0 * log_xi
    e = np.exp(-np.abs(q))
    # (1 + e^{-|q|})^{-1/3} F(1/3, 1; 7/6; x) at x = e^{-|q|} / (1 + e^{-|q|}).
    g = np.exp(-np.log1p(e) / 3.0) * gauss_2f1_series(1.0 / 3.0, 1.0, 7.0 / 6.0, e / (1.0 + e))
    values = np.empty(radius.size)
    low = q <= 0.0
    values[low] = a * np.exp(radius[low] / a) * g[low]
    if xi:
        # At xi = 0 every q is -inf: no radius takes this branch, whose 1/cbrt|xi| is infinite.
        high = ~low
        cbrt_xi = math.cbrt(xi)
        values[high] = a / cbrt_xi * (_BETA_SIXTH / 6.0 - np.exp(-radius[high] / a) / cbrt_xi * g[high])
    values = values.reshape(r.shape)
    return float(values) if r.ndim == 0 else values


def tortoise_quadrature(params: SolutionParams, r):
    """The integral int_0^r dr'/sqrt(w), elementwise over an array of radii.

    To an absolute 1e-11 per radius; the tortoise coordinate is this plus
    its value at r = 0, which the quadrature does not read.  The sorted
    nodes {0} and r cut the axis into panels, and one
    ``adaptive_gauss_kronrod`` call integrates every panel once, each to
    1e-11 / (number of panels); the integral to r_i is the sum of the
    panels between 0 and r_i, so its error stays within 1e-11.  A repeated
    node gives a zero-length panel, which integrates to 0.  A scalar r is
    the one panel between 0 and r, and gives a float.
    """
    r = np.asarray(r, dtype=float)
    points = np.append(r, 0.0)
    order = np.argsort(points, kind="stable")
    nodes = points[order]
    panels = adaptive_gauss_kronrod(
        lambda x: 1.0 / np.sqrt(metric_eval(params, x).w), nodes[:-1], nodes[1:], 1e-11 / max(1, nodes.size - 1)
    )
    cum = np.empty(points.size)
    cum[order] = np.concatenate(([0.0], np.cumsum(panels)))
    total = (cum[:-1] - cum[-1]).reshape(r.shape)
    return float(total) if r.ndim == 0 else total


def kinematics_scan(sample: MetricSample, cfg: CongruenceConfig) -> KinematicsScan:
    """Expansion, its proper-time rate and the null rate at the admissible radii of a grid.

    ``sample`` is a ``MetricSample`` of the grid, read through its r, w, u'
    and u'': one sample serves both congruences, and any number of
    energies.  A radius is admissible unless w > E^2 (forbidden) or
    |E^2 - w| < TURNING_GUARD_REL * E^2 (the guard band around a turning
    point); a NaN w counts as admissible.  Each column is derived from the
    admissible x, u' and u'' when first read (see ``KinematicsScan``).
    """
    w = sample.w
    e2 = cfg.e_tilde**2
    ok = ~((w > e2) | (np.abs(e2 - w) < TURNING_GUARD_REL * e2))
    return KinematicsScan(r=sample.r[ok], x=w[ok] / e2, u_p=sample.u_p[ok], u_pp=sample.u_pp[ok], e_tilde=cfg.e_tilde)


def focusing_sign_map(b_values) -> dict[float, int]:
    """Positive cells of the focusing polynomial on ``SIGN_MAP_NX`` interior points of its quoted domain.

    Returns {b: count}; each positive cell contradicts the quoted
    everywhere-negative claim, and the report counts them.
    """
    counts = {}
    for b in map(float, b_values):
        xs = np.linspace((4.0 * b * b) ** (1.0 / 3.0), 1.0, SIGN_MAP_NX + 2)[1:-1]
        counts[b] = int(np.count_nonzero(focusing_polynomial(xs, b) > 0.0))
    return counts
