"""Radial timelike and null congruences of the isotropic line element
``ds^2 = dr^2 + w(r)(-dt^2 + dphi^2 + dz^2)``.

Covers the 4-velocity of marginally bound radial geodesics, the potential
whose gradient they follow, the expansion scalar and its proper-time rate
(evaluated both directly from w and via the quoted closed form in the scaled
variables x = w/E^2, b = |xi/E|), the focusing polynomial and its root scan,
the tortoise coordinate, and the null expansion rate.

Quoted numeric anchors (root values 0.377 / 1.178 and the radius factor
0.0273) are never used as inputs; they live in comparison reports only.
Turning points (w = E^2) are flags, not exceptions, in the expansion-rate
evaluations: the divergence there is genuine, and scans exclude a relative
guard band ``TURNING_GUARD_REL`` around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ForbiddenRegionError,
    ParameterDomainError,
    PoleError,
)
from .model import SolutionParams, w_eval
from .numerics import adaptive_simpson, bisect, bracket_sign_changes, fd_step
from .special_functions import hyp2f1

#: Scans skip radii with |E^2 - w| < TURNING_GUARD_REL * E^2.
TURNING_GUARD_REL = 1e-10

#: Root values quoted for the focusing polynomial, and the radius factor
#: quoted for the larger one; recorded verbatim for comparison reports.
QUOTED_FOCUSING_ROOTS = (0.377, 1.178)
QUOTED_ROOT_RADIUS_FACTOR = 0.0273


@dataclass(frozen=True)
class CongruenceConfig:
    """Conserved energy per unit rest mass and radial direction (+1 out, -1 in)."""

    e_tilde: float
    direction: int = 1

    def __post_init__(self):
        if not (abs(self.e_tilde) >= 1.0 and math.isfinite(self.e_tilde)):
            raise ParameterDomainError(
                f"|e_tilde| must be finite and >= 1 for a real radial velocity, got {self.e_tilde}"
            )
        if self.direction not in (1, -1):
            raise ParameterDomainError(f"direction must be +1 or -1, got {self.direction}")


@dataclass(frozen=True)
class KinematicsSample:
    r: float
    theta: float
    dtheta_dtau: float
    channel: str
    status: str  # "ok", "turning", "forbidden"


@dataclass(frozen=True)
class ScaledRateComparison:
    """Quoted-closed-form versus direct focusing rate over a grid of radii."""

    quoted: np.ndarray
    direct: np.ndarray
    difference: np.ndarray


@dataclass(frozen=True)
class FocusingRootScan:
    b: float
    roots: tuple[float, ...]
    boundary_roots: tuple[float, ...]
    reduced_discriminant: float | None
    reduced_roots: tuple[float, ...]


@dataclass(frozen=True)
class RadiusCandidates:
    """Both readings of "the radius where the profile equals X"."""

    from_exponential: float
    from_w: tuple[float, ...]


def _w_scalar(params: SolutionParams, r: float) -> float:
    return float(w_eval(params, r)[0])


def _first(values, mask):
    """The entry of ``values`` (scalar or array) at the first true entry of ``mask``."""
    return np.atleast_1d(values)[int(np.argmax(np.atleast_1d(mask)))]


def _require_allowed(w, e2: float, r) -> None:
    """Raise ForbiddenRegionError at the first radius where w > E^2."""
    forbidden = w > e2
    if np.any(forbidden):
        raise ForbiddenRegionError(
            f"w(r) = {_first(w, forbidden):.6g} > E^2 = {e2:.6g} at r = {_first(r, forbidden):.6g}"
        )


def four_velocity(params: SolutionParams, cfg: CongruenceConfig, r):
    """u^mu = (E/w, dir * sqrt(E^2/w - 1), 0, 0); exactly normalized to -1.

    Elementwise over an array of radii; raises ForbiddenRegionError if any
    radius has w > E^2.
    """
    w = w_eval(params, r)[0]
    e2 = cfg.e_tilde**2
    _require_allowed(w, e2, r)
    u_r = cfg.direction * np.sqrt(np.maximum(e2 / w - 1.0, 0.0))
    return (cfg.e_tilde / w, u_r, 0.0, 0.0)


def _sqrt_integrand(params: SolutionParams, cfg: CongruenceConfig, r: float) -> float:
    w = _w_scalar(params, r)
    val = cfg.e_tilde**2 / w - 1.0
    if val < -1e-14 * cfg.e_tilde**2:
        raise ForbiddenRegionError(f"w > E^2 at r = {r:.6g} inside the integration interval")
    return math.sqrt(max(val, 0.0))


def hypersurface_potential(
    params: SolutionParams, cfg: CongruenceConfig, r0: float, r1: float, tol: float = 1e-10
) -> float:
    """Radial part of the potential the congruence is orthogonal to.

    Normalized so that the full potential is E * t + (this value) and the
    covector relation u_alpha = -d_alpha(potential) holds; the gauge is
    potential(r0) = 0.  An endpoint at a turning point is handled with the
    substitution r = end + step * s^2 from the turning end, with step = +/-1
    pointing to the other end, which removes the square-root cusp.
    """
    if r0 == r1:
        return 0.0
    g = lambda r: _sqrt_integrand(params, cfg, r)
    e2 = cfg.e_tilde**2
    turn0 = abs(e2 - _w_scalar(params, r0)) <= 1e-9 * e2
    turn1 = abs(e2 - _w_scalar(params, r1)) <= 1e-9 * e2
    if turn0 and turn1:
        mid = 0.5 * (r0 + r1)
        return hypersurface_potential(params, cfg, r0, mid, tol) + hypersurface_potential(
            params, cfg, mid, r1, tol
        )
    if turn0 or turn1:
        sgn = 1.0 if r1 > r0 else -1.0
        end, step = (r1, -sgn) if turn1 else (r0, sgn)
        integral = sgn * adaptive_simpson(
            lambda s: g(end + step * s * s) * 2.0 * s, 0.0, math.sqrt(abs(r1 - r0)), tol
        )
    else:
        integral = adaptive_simpson(g, r0, r1, tol)
    return -cfg.direction * integral


def _theta(w, w_p, e2: float, direction: int):
    """dir * w'(2E^2 - 3w) / (2 w^{3/2} sqrt(E^2 - w)) for w <= E^2.

    At w = E^2 the IEEE quotient is the turning-point flag: +/-inf with the
    sign of the numerator, NaN where the numerator vanishes too.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(direction * w_p * (2.0 * e2 - 3.0 * w), 2.0 * w**1.5 * np.sqrt(e2 - w))


def _rate(w, w_p, w_pp, e2: float):
    """The closed-form d theta / d tau of ``expansion_rate`` for w <= E^2.

    At w = E^2 the second term's IEEE quotient carries the flag, as in
    ``_theta``; the first term stays finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (w_pp * (2.0 * e2 - 3.0 * w) - 3.0 * w_p**2) / (2.0 * w * w)
        tail = -(w_p**2) * (2.0 * e2 - 3.0 * w) * (3.0 * e2 - 4.0 * w)
        return first + np.divide(tail, 4.0 * w**3 * (e2 - w))


def expansion_timelike(params: SolutionParams, cfg: CongruenceConfig, r):
    """Expansion scalar theta = dir * w^{-3/2} d/dr (w sqrt(E^2 - w)).

    Evaluates to dir * w'(2E^2 - 3w) / (2 w^{3/2} sqrt(E^2 - w)); both terms
    of the derivative are proportional to w', so theta vanishes wherever w
    is stationary.  At a turning point the value diverges and +/-inf is
    returned as the flag.  Elementwise over an array of radii.
    """
    w, w_p, _ = w_eval(params, r)
    e2 = cfg.e_tilde**2
    _require_allowed(w, e2, r)
    return _theta(w, w_p, e2, cfg.direction)


def chain_rule_fd_step(params: SolutionParams, cfg: CongruenceConfig, r):
    """Step for finite-differencing the expansion in r (elementwise).

    The derivatives of theta grow like powers of w'/(E^2 - w) toward a
    turning point, so the usual eps^(1/3) step must shrink with the distance
    to it for the chain-rule oracle to keep its relative accuracy.
    """
    w, w_p, _ = w_eval(params, r)
    q2 = cfg.e_tilde**2 - w
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.where((q2 > 0.0) & (w_p != 0.0), 1e-4 * q2 / np.abs(w_p), np.inf)
    return np.minimum(np.minimum(fd_step(r), cap), 0.02 * params.a)


def expansion_rate(params: SolutionParams, cfg: CongruenceConfig, r):
    """Proper-time rate of the expansion, d theta / d tau = theta' u^r.

    Closed form in (w, w', w''), independent of the congruence direction:

        [w''(2E^2 - 3w) - 3 w'^2] / (2 w^2)
          - w'^2 (2E^2 - 3w)(3E^2 - 4w) / (4 w^3 (E^2 - w)).

    Elementwise over an array of radii.
    """
    w, w_p, w_pp = w_eval(params, r)
    e2 = cfg.e_tilde**2
    _require_allowed(w, e2, r)
    return _rate(w, w_p, w_pp, e2)


def _scaled_vars(params: SolutionParams, cfg: CongruenceConfig, w):
    """x = w/E^2, b = |xi/E| and y^2 = x^6 - 4 b^2 x^3."""
    x = w / cfg.e_tilde**2
    b = abs(params.xi / cfg.e_tilde)
    return x, b, x**6 - 4.0 * b * b * x**3


def focusing_polynomial(x, b: float):
    """The quoted rational form in (x, y(x, b)) whose sign decides focusing.

    y = sqrt(x^6 - 4 b^2 x^3); raises DomainError for y^2 < 0 and PoleError
    where the denominator 3 (x^3 + y) vanishes, at any point of an array x.
    """
    x = np.asarray(x, dtype=float)
    y_sq = x**6 - 4.0 * b * b * x**3
    # Clamp cancellation noise at the y = 0 domain edge; genuine violations
    # sit far above this scale.
    noise = 8.0 * np.finfo(float).eps * (np.abs(x) ** 6 + 4.0 * b * b * np.abs(x) ** 3)
    outside = y_sq < -noise
    if np.any(outside):
        raise DomainError(
            f"y^2 = {_first(y_sq, outside):.6g} < 0 at x = {_first(x, outside):.6g}, b = {b:.6g}"
        )
    y = np.sqrt(np.maximum(y_sq, 0.0))
    denominator = 3.0 * (x**3 + y)
    pole = denominator == 0.0
    if np.any(pole):
        raise PoleError(f"x^3 + y = 0 at x = {_first(x, pole):.6g}, b = {b:.6g}")
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


def _quoted_rate(lam: float, poly, x):
    """(lambda/2) * poly / (x (1 - x)); at x = 1 the IEEE quotient is the flag."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(0.5 * lam * poly, x * (1.0 - x))


def expansion_rate_scaled_scan(
    params: SolutionParams, cfg: CongruenceConfig, r_grid
) -> ScaledRateComparison:
    """Quoted closed form (lambda/2) * poly / (x (1 - x)) next to the direct rate.

    Elementwise over a grid of allowed radii, in the scaled variables
    x = w/E^2, b = |xi/E|, y^2 = x^6 - 4 b^2 x^3.  Where y^2 < 0 (outside the
    quoted domain) the quoted value and the difference are NaN.  At x = 1 the
    quoted form diverges through 1/(1 - x) exactly where the direct rate
    diverges through the turning point, and both come back as inf flags.
    Raises ForbiddenRegionError if any radius has w > E^2.
    """
    r = np.asarray(r_grid, dtype=float)
    w, w_p, w_pp = w_eval(params, r)
    e2 = cfg.e_tilde**2
    _require_allowed(w, e2, r)
    x, b, y_sq = _scaled_vars(params, cfg, w)
    inside = y_sq >= 0.0
    quoted = np.full_like(r, np.nan)
    quoted[inside] = _quoted_rate(params.lam, focusing_polynomial(x[inside], b), x[inside])
    direct = _rate(w, w_p, w_pp, e2)
    return ScaledRateComparison(quoted=quoted, direct=direct, difference=quoted - direct)


def focusing_polynomial_roots(b: float, brackets: int = 4096) -> FocusingRootScan:
    """Bracketing + bisection root scan over the quoted domain x in (cbrt(4b^2), 1).

    For b = 0 the reduced quadratic 54 x^2 - 91 x + 40 is additionally
    solved in closed form and its discriminant reported.  An empty root list
    is a valid result; zeros sitting exactly on the domain boundary are
    reported separately.
    """
    if not 0.0 <= b <= 0.5:
        raise ParameterDomainError(f"b must lie in [0, 1/2], got {b}")
    lo = (4.0 * b * b) ** (1.0 / 3.0)
    hi = 1.0
    roots: list[float] = []
    boundary: list[float] = []
    if lo < hi:
        # Stay clear of x = 0 where the b = 0 expression is 0/0.
        scan_lo = lo if b > 0.0 else lo + (hi - lo) * 1e-9
        fn = lambda x: focusing_polynomial(x, b)
        for blo, bhi in bracket_sign_changes(fn, scan_lo, hi, brackets):
            root = bisect(fn, blo, bhi)
            if lo < root < hi:
                roots.append(root)
            else:
                boundary.append(root)
    for edge in {lo, hi}:
        if b > 0.0 or edge > 0.0:
            if abs(focusing_polynomial(edge, b)) <= 1e-12:
                boundary.append(edge)
    reduced_disc = None
    reduced_roots: tuple[float, ...] = ()
    if b == 0.0:
        reduced_disc = 91.0**2 - 4.0 * 54.0 * 40.0
        if reduced_disc >= 0.0:
            sq = math.sqrt(reduced_disc)
            reduced_roots = ((91.0 - sq) / 108.0, (91.0 + sq) / 108.0)
    return FocusingRootScan(
        b=b,
        roots=tuple(sorted(set(roots))),
        boundary_roots=tuple(sorted(set(boundary))),
        reduced_discriminant=reduced_disc,
        reduced_roots=reduced_roots,
    )


def radius_candidates(
    params: SolutionParams, X: float, half_width_in_a: float = 2.0, brackets: int = 4096
) -> RadiusCandidates:
    """Radii from both readings of "the profile equals X".

    Channel one solves e^{6r/a} = X, giving r = (a/6) ln X; channel two
    solves w(r) = X by bracketing bisection on the default window and may
    return zero, one or two radii (empty means no solution there).
    """
    if not X > 0.0:
        raise ParameterDomainError(f"X must be positive, got {X}")
    from_exponential = params.a / 6.0 * math.log(X)
    half = half_width_in_a * params.a
    fn = lambda r: w_eval(params, r)[0] - X
    w_roots = [bisect(fn, blo, bhi) for blo, bhi in bracket_sign_changes(fn, -half, half, brackets)]
    return RadiusCandidates(from_exponential=from_exponential, from_w=tuple(sorted(set(w_roots))))


def tortoise_series(params: SolutionParams, r: float) -> float:
    """Tortoise coordinate a e^{r/a} F(1/6, 1/3; 7/6; -xi^2 e^{6r/a}).

    This is the antiderivative of 1/sqrt(w) that vanishes as r -> -inf.
    """
    a = params.a
    z = -params.xi**2 * math.exp(6.0 * r / a)
    return a * math.exp(r / a) * hyp2f1(1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0, z)


def tortoise_quadrature(params: SolutionParams, r: float, tol: float = 1e-11) -> float:
    """Tortoise coordinate as int_0^r dr'/sqrt(w) plus the r = 0 constant."""
    constant = params.a * hyp2f1(1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0, -params.xi**2)
    if r == 0.0:
        return constant
    integral = adaptive_simpson(lambda x: 1.0 / math.sqrt(_w_scalar(params, x)), 0.0, r, tol)
    return constant + integral


def _null_bracket(w, w_p, w_pp):
    return w_pp - 1.5 * w_p * w_p / w


def _null_rate(w, w_p, w_pp, e2: float):
    with np.errstate(invalid="ignore"):
        return np.sqrt(e2 - w) / w * _null_bracket(w, w_p, w_pp)


def null_rate_bracket(params: SolutionParams, r: float) -> float:
    """The energy-independent bracket w'' - (3/2) w'^2 / w of the null rate."""
    return _null_bracket(*w_eval(params, r))


def null_rate(params: SolutionParams, cfg: CongruenceConfig, r: float) -> float:
    """Null expansion rate as quoted: (1/w) sqrt(E^2 - w) [w'' - (3/2) w'^2 / w].

    Kept exactly as printed, including the energy factor (an affine-null
    congruence has no rest-mass normalization; the bracket alone carries the
    energy-independent content and is exposed separately).
    """
    w, w_p, w_pp = w_eval(params, r)
    e2 = cfg.e_tilde**2
    _require_allowed(w, e2, r)
    return _null_rate(w, w_p, w_pp, e2)


def _scan_profile(params: SolutionParams, cfg: CongruenceConfig, r_grid):
    """(r, w, w', w'', status, ok) from one ``w_eval`` over a scan grid.

    status is "forbidden" where w > E^2, "turning" inside the guard band
    |E^2 - w| < TURNING_GUARD_REL * E^2 and "ok" elsewhere.
    """
    r = np.asarray(r_grid, dtype=float)
    w, w_p, w_pp = w_eval(params, r)
    e2 = cfg.e_tilde**2
    turning = np.abs(e2 - w) < TURNING_GUARD_REL * e2
    status = np.where(w > e2, "forbidden", np.where(turning, "turning", "ok"))
    return r, w, w_p, w_pp, status, status == "ok"


def _samples(r, theta, rate, channel: str, status) -> list[KinematicsSample]:
    rows = zip(r.tolist(), theta.tolist(), rate.tolist(), status.tolist())
    return [KinematicsSample(r_i, theta_i, rate_i, channel, s) for r_i, theta_i, rate_i, s in rows]


def null_rate_sign_scan(
    params: SolutionParams, cfg: CongruenceConfig, r_grid
) -> list[KinematicsSample]:
    """Per-point sign map of the null rate over a grid.

    Radii in the forbidden region or inside the turning-point guard band are
    carried with the matching status and NaN values.
    """
    r, w, w_p, w_pp, status, ok = _scan_profile(params, cfg, r_grid)
    rate = np.where(ok, _null_rate(w, w_p, w_pp, cfg.e_tilde**2), np.nan)
    return _samples(r, np.full_like(r, np.nan), rate, "null", status)


def timelike_scan(
    params: SolutionParams, cfg: CongruenceConfig, r_grid
) -> list[KinematicsSample]:
    """Expansion and proper-time rate over a grid, with the same statuses."""
    r, w, w_p, w_pp, status, ok = _scan_profile(params, cfg, r_grid)
    e2 = cfg.e_tilde**2
    theta = np.where(ok, _theta(w, w_p, e2, cfg.direction), np.nan)
    rate = np.where(ok, _rate(w, w_p, w_pp, e2), np.nan)
    return _samples(r, theta, rate, "timelike", status)


def focusing_sign_map(
    b_values, nx: int = 512
) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """Values of the focusing polynomial on a grid over its quoted domain.

    Returns {b: (x_grid, values)}; cells with positive values contradict the
    quoted everywhere-negative claim and are itemized by the report layer.
    """
    out = {}
    for b in b_values:
        lo = (4.0 * b * b) ** (1.0 / 3.0)
        xs = np.linspace(lo, 1.0, nx + 2)[1:-1]
        vals = focusing_polynomial(xs, float(b))
        out[float(b)] = (xs, vals)
    return out
