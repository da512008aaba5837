"""Report builders behind the command-line subcommands.

Each builder returns a :class:`~lbverify.report.Report`.  It adds each row
as a check or a comparison, saying whether the row holds where the default
rule does not apply; :mod:`lbverify.report` holds the verdict rule.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from collections.abc import Callable

import numpy as np

from . import congruence as cg
from . import energy_conditions as ec
from . import model, scalar_field, stability
from .curvature import field_residual, ricci_diagonal_generic, ricci_mixed
from .errors import NumericalError, ParameterDomainError
from .numerics import FD_FIRST_STEP, Jet
from .report import Report

#: Residual tolerance for the integration-constant sum checks.
CONSTANT_SUM_TOL = 1e-12

#: Tolerance of each row that ``build_sweep_report`` shares with verify and energy, in the sweep's row order.
_MEMBER_TOL = {"f-ode-residual": 1e-9, "field-equation-residual": 1e-8, "strong-margin-constant": 1e-8}

#: Fixed b values of the focusing-polynomial sign map.
SIGN_MAP_B_VALUES = (0.0, 0.1, 0.25, 0.49)


def _max_abs(values) -> float:
    """Largest |value|, 0 for an empty array."""
    return float(np.abs(values).max(initial=0.0))


def _abs_peak(temp) -> float:
    """``_max_abs`` of a temporary the caller made: |temp| is formed in its buffer."""
    return float(np.maximum.reduce(np.abs(temp, out=temp), initial=0.0))


def _peak(values) -> float:
    """The largest of a row's block values, NaN if any is NaN, as ``np.max`` folds them."""
    return math.nan if any(map(math.isnan, values)) else float(max(values))


def _add_member_row(rpt: Report, check: str, location: str, value: float) -> None:
    """A row that ``build_sweep_report`` shares with verify and energy, at its one tolerance."""
    rpt.add_check(check, location, value, _MEMBER_TOL[check])


def _f_ode_residual(sample, lam) -> float:
    """Largest |f'' + f'^2 - 3 lambda| on a metric sample."""
    residual = np.add(sample.f_pp, sample.f_p_sq)
    residual -= 3.0 * lam
    return _abs_peak(residual)


def _strong_margin_error(sec, lam) -> float:
    """Largest |rho + sum p + 2 lambda| of a strong margin ``sec``, which is -2 lambda."""
    return _abs_peak(sec + 2.0 * lam)


def build_verify_report(
    lam: float, xi: float, r_min: float | None = None, r_max: float | None = None, samples: int = 4096
) -> Report:
    """Internal-consistency suite for one family member."""
    window = model.Window(lam, xi, r_min, r_max, samples, 2.0)
    params, loc = window.params, window.location()
    rpt = Report(lam=lam, xi=xi, rows=[])

    # Row values are folded across the grid blocks: NaN-propagating max/min
    # of the block maxima/minima, and the Noether mean as sum / samples.
    # Each row temporary is reduced in a buffer that no other row reads.
    fold = defaultdict(list)
    for sample in window.blocks():
        fold["f-ode-residual"].append(_f_ode_residual(sample, lam))
        exponent_res = np.multiply(sample.u_p, sample.f_p)
        np.add(sample.u_pp, exponent_res, out=exponent_res)
        exponent_res -= 2.0 * lam
        fold["exponent-ode-residual"].append(_abs_peak(exponent_res))
        ricci = ricci_mixed(sample)
        fold["field-equation-residual"].append(field_residual(ricci, lam))
        if xi != 0.0:
            # J / |xi| is O(1) for every xi; the constancy ratio is scale-free.
            j = scalar_field.log_noether(params, sample)
            j -= params.log_abs_xi
            np.exp(j, out=j)
            fold["noether-max"].append(np.maximum.reduce(j))
            fold["noether-min"].append(np.minimum.reduce(j))
            fold["noether-sum"].append(np.add.reduce(j))
        constraint = scalar_field.phi_prime_sq_constraint(ricci, lam)
        quoted = scalar_field.phi_prime_sq_quoted(sample, lam)
        fold["scalar-gradient-sq-min"].append(np.minimum.reduce(constraint))
        fold["w-positivity-min"].append(np.minimum.reduce(sample.w))
        fold["quoted-scalar-integrand-min"].append(np.minimum.reduce(quoted))
        fold["quoted-integrand-vs-constraint"].append(_abs_peak(quoted - constraint))
    peak = lambda check: _peak(fold[check])
    least = lambda check: float(np.min(fold[check]))

    _add_member_row(rpt, "f-ode-residual", loc, peak("f-ode-residual"))
    rpt.add_check("exponent-ode-residual", loc, peak("exponent-ode-residual"), 1e-8)
    # 2 u'' + u' (u1' + u2' + u3') - 4 lambda is 4 (R^n_n - lambda), and
    # scaling by 4 is exact.
    peak_residual = peak("field-equation-residual")
    rpt.add_check("exponent-system-residual", loc, 4.0 * peak_residual, 1e-9)
    _add_member_row(rpt, "field-equation-residual", loc, peak_residual)

    # The generic path reads each component normalised at its own point,
    # e^{l(r) - l(r0)} with l = log w: the jet (1, l', l'' + l'^2).  That
    # rescales t, phi and z, which leaves mixed components unchanged, so it
    # returns (-R^t_t, R^r_r, R^phi_phi, R^z_z), and e^u lowers each
    # difference from ``ricci_mixed``'s pair once.  The tolerance scales with
    # the covariant Ricci magnitude, max(e^u |R^n_n|, |R^r_r|), once it
    # exceeds what an absolute 1e-6 can mean.
    sample = window.sample(25)
    r_nn, r_rr = ricci_mixed(sample)
    log_w = model.log_w_jet(params, sample.r)
    unit = (log_w - log_w.v).exp()
    gen_tt, gen_rr, gen_pp, gen_zz = ricci_diagonal_generic((-unit, Jet(1.0, 0.0, 0.0), unit, unit))
    g = np.exp(sample.u)
    gap = (g * (r_nn + gen_tt), r_rr - gen_rr, g * (r_nn - gen_pp), g * (r_nn - gen_zz))
    tol = max(1e-6, 1e-9 * max(_max_abs(g * r_nn), _max_abs(r_rr)))
    rpt.add_check("ricci-dual-path", window.location(25), _max_abs(gap), tol)

    if xi != 0.0:
        mean = float(np.sum(fold["noether-sum"])) / samples
        constancy = (peak("noether-max") - least("noether-min")) / abs(mean)
        rpt.add_check("noether-constancy-rel", loc, constancy, 1e-8)
    min_constraint = least("scalar-gradient-sq-min")
    rpt.add_check("scalar-gradient-sq-min", loc, min_constraint, 1e-12, holds=min_constraint >= -1e-12)
    min_w = least("w-positivity-min")
    rpt.add_check("w-positivity-min", loc, min_w, 0.0, holds=min_w > 0.0)

    # The canonical gauge of ``params_from_xi`` has alpha_i = beta_i = 0: the
    # alpha sum vanishes, and the quoted beta condition sum(beta_i) +
    # log(12 lambda)/2 = 0 is off by |log(12 lambda)/2|, a quoted-form comparison.
    rpt.add_check("alpha-sum", "constants", 0.0, CONSTANT_SUM_TOL)
    rpt.add_comparison("beta-gauge-sum", "canonical-gauge", abs(0.5 * math.log(12.0 * lam)), CONSTANT_SUM_TOL)

    quoted_min = least("quoted-scalar-integrand-min")
    rpt.add_comparison("quoted-scalar-integrand-min", loc, quoted_min, 1e-12, holds=quoted_min >= -1e-12)
    rpt.add_comparison("quoted-integrand-vs-constraint", loc, peak("quoted-integrand-vs-constraint"), 1e-10)
    rpt.add_comparison(
        "quoted-linear-coefficient-gap",
        "u_i linear term (derived -2/a vs quoted -1/a)",
        -1.0 / params.a,
        0.0,
    )
    return rpt


def build_stability_report(lam: float) -> Report:
    params = model.params_from_xi(lam, 0.0)
    rpt = Report(lam=lam, xi=0.0, rows=[])
    point = stability.fixed_point(params)
    rpt.add_check("fixed-point-offset", "stationary point", max(abs(x - 2.0 / params.a) for x in point), 1e-14)
    res_linear, res_quadratic = stability.stationarity_residuals(params, point)
    rpt.add_check("stationarity-linear", "stationary point", res_linear, 1e-12)
    rpt.add_check("stationarity-quadratic", "stationary point", res_quadratic, 1e-12)
    eigs = stability.spectrum(params)
    eig_err = max(abs(e.real - x) for e, x in zip(eigs, stability.expected_eigenvalues(params)))
    rpt.add_check("eigenvalue-error", "spectrum {-6/a;-3/a;-3/a}", eig_err, 1e-10)
    rpt.add_check("eigenvalue-imag", "spectrum", max(abs(e.imag) for e in eigs), 1e-12)
    verdict = stability.verdict(eigs)
    max_real = max(e.real for e in eigs)
    rpt.add_check("lyapunov-verdict", f"verdict={verdict}", max_real, 0.0, holds=verdict == "stable")
    rpt.add_comparison("linearized-profile-note", stability.LINEAR_TERM_NOTE, 0.0, 0.0, holds=False)
    return rpt


def build_energy_report(
    lam: float, xi: float, r_min: float | None = None, r_max: float | None = None, samples: int = 4096
) -> Report:
    window = model.Window(lam, xi, r_min, r_max, samples, 2.0)
    loc = window.location()
    rpt = Report(lam=lam, xi=xi, rows=[])

    hold_tol = ec.hold_tolerance(lam)
    fold = defaultdict(list)
    for sample in window.blocks():
        ricci = ricci_mixed(sample)
        margins = ec.condition_margins(ec.stress_decompose(ricci))
        # A condition holds on the whole block iff its least minimum does, and
        # somewhere iff its largest does.  A NaN margin makes both False
        # here, but it also makes a margin row below non-finite, which
        # raises before the holds are read.
        for cond, minimum in ec.condition_minima(margins).items():
            fold[f"{cond}-everywhere"].append(bool(np.minimum.reduce(minimum) >= -hold_tol))
            fold[f"{cond}-somewhere"].append(bool(np.maximum.reduce(minimum) >= -hold_tol))
        fold["radial-null-margin-min"].append(np.minimum.reduce(margins.nec_r))
        fold["radial-dominant-margin-min"].append(np.minimum.reduce(margins.dec_r))
        fold["transverse-null-margin"].append(_max_abs(margins.nec_t))
        fold["strong-margin-constant"].append(_strong_margin_error(margins.sec, lam))
        null_gap = margins.nec_r - scalar_field.phi_prime_sq_constraint(ricci, lam)
        fold["radial-null-vs-gradient-sq"].append(_abs_peak(null_gap))

    # The phi and z rows read the one transverse margin.
    transverse = _peak(fold["transverse-null-margin"])
    rpt.add_check("transverse-null-margin-phi", loc, transverse, 1e-9)
    rpt.add_check("transverse-null-margin-z", loc, transverse, 1e-9)
    _add_member_row(rpt, "strong-margin-constant", loc, _peak(fold["strong-margin-constant"]))
    rpt.add_check("radial-null-vs-gradient-sq", loc, _peak(fold["radial-null-vs-gradient-sq"]), 1e-9)
    for check in ("radial-null-margin-min", "radial-dominant-margin-min"):
        least = float(np.min(fold[check]))
        rpt.add_check(check, loc, least, 1e-9, holds=least >= -1e-9)

    # By the identities of ``energy_conditions`` each condition holds on the
    # whole window or nowhere; a partial hold is a rounding the hold
    # tolerance does not cover.
    interval = f"[{window.r_min:.9g};{window.r_max:.9g}]"
    for cond in ec.CONDITIONS:
        everywhere = all(fold[f"{cond}-everywhere"])
        if everywhere != any(fold[f"{cond}-somewhere"]):
            raise NumericalError(f"{cond} holds on part of the window {loc} only, at tolerance {hold_tol:.3g}")
        rpt.add_check(f"energy-{cond}-holds-fraction", loc, float(everywhere), hold_tol, holds=True)
        if everywhere:
            rpt.add_check(f"energy-{cond}-interval", interval, window.r_max - window.r_min, hold_tol, holds=True)
    return rpt


@functools.cache
def _focusing_facts() -> tuple[tuple[tuple[float, int], ...], tuple[float, ...]]:
    """The sign-map counts at ``SIGN_MAP_B_VALUES`` as (b, count) pairs, and the b = 0 roots.

    No input changes them, so a process computes them on its first
    congruence report.
    """
    return tuple(cg.focusing_sign_map(SIGN_MAP_B_VALUES).items()), cg.focusing_polynomial_roots(0.0)


def build_congruence_report(
    lam: float,
    xi: float,
    e_tilde: float,
    r_min: float | None = None,
    r_max: float | None = None,
    samples: int = 257,
    b: float | None = None,
) -> Report:
    # b = 0 lies in the range, and its root count is a row of every report.
    roots_b = None if b is None or b == 0.0 else cg.focusing_polynomial_roots(b)
    window = model.Window(lam, xi, r_min, r_max, samples, 2.0)
    params, loc = window.params, window.location()
    cfg = cg.CongruenceConfig(e_tilde=e_tilde)
    rpt = Report(lam=lam, xi=xi, rows=[])

    # Each block's scan feeds every row on its admissible radii; only the
    # oracles evaluate w again.  The rows fold the block values: counts add,
    # maxima take the NaN-propagating max, and the null-rate violations are
    # the first 16 in grid order.
    fold, violations = defaultdict(list), []
    for sample in window.blocks():
        scan = cg.kinematics_scan(sample, cfg)
        r, x, theta, rate, u_r = scan.r, scan.x, scan.theta, scan.dtheta_dtau, scan.u_r
        fold["timelike-admissible-points"].append(r.size)
        # -w (u^t)^2 with u^t = E/w is -E^2/w = -1/x.
        fold["four-velocity-normalization"].append(_max_abs(-1.0 / x + u_r**2 + 1.0))
        # theta = F'/G, the divergence of u, and theta' = (F'' - theta G')/G: F = sqrt|g| u^r = |E| w sqrt(1 - x),
        # G = sqrt|g| = w^{3/2}.  Divided by w, with s = e^{l - l0} the jet of w/w(r0) at every
        # admissible radius, F = |E| w F~ and G = w^{3/2} G~ with F~ = s sqrt(1 - s x) and G~ = s^{3/2}, so that
        # theta = F~'/sqrt(x) and theta' = F~''/sqrt(x) - theta G~' (|E|/sqrt(w) = 1/sqrt(x)): no E w product forms.
        log_w = model.log_w_jet(params, r)
        scale = (log_w - log_w.v).exp()
        flux, volume = scale * (1.0 - scale * x) ** 0.5, scale**1.5
        root_x = np.sqrt(x)
        theta_jet = flux.d1 / root_x
        theta_p = flux.d2 / root_x - theta_jet * volume.d1
        fold["rate-chain-rule"].append(_max_abs(theta_p * u_r - rate))
        fold["rate"].append(_max_abs(rate))
        fold["expansion-covariant-divergence"].append(_max_abs(theta_jet - theta))
        # The quoted form is NaN outside its domain y^2 >= 0.
        difference = cg.quoted_scaled_rate(params, cfg, x) - rate
        difference = difference[np.isfinite(difference)]
        fold["quoted-scaled-rate-points"].append(difference.size)
        fold["quoted-scaled-rate-vs-direct"].append(_max_abs(difference))
        violation = scan.null_rate >= 0.0
        fold["null-rate-nonnegative-cells"].append(np.count_nonzero(violation))
        room = 16 - len(violations)
        violations += zip(r[violation][:room].tolist(), scan.null_rate[violation][:room].tolist())
        if xi == 0.0:
            expected_rate = -(2.0 / params.a**2) * abs(cfg.e_tilde) * np.sqrt(1.0 - x)
            fold["null-rate-exponential-reduction"].append(_max_abs(scan.null_rate - expected_rate))
    peak = lambda check: _peak(fold[check])
    count = lambda check: float(sum(fold[check]))

    admissible = fold["timelike-admissible-points"]
    total = sum(admissible)
    rpt.add_check("timelike-admissible-points", loc, float(total), 0.0, holds=True)
    # Relative to the largest rate, so a root of the rate divides by nothing; 1/a^2 on an empty scan.
    chain_err = peak("rate-chain-rule") / (peak("rate") or params.a**-2)
    rpt.add_check("four-velocity-normalization", loc, peak("four-velocity-normalization"), 1e-12)
    rpt.add_check("rate-chain-rule-rel", loc, chain_err, 1e-5)
    rpt.add_check("expansion-covariant-divergence", loc, peak("expansion-covariant-divergence"), 1e-6)

    if total > 1:
        # The central difference of the potential at the middle admissible
        # radius is its integral over the stencil [mid - h, mid + h],
        # divided by 2h.  The last block's scan is at hand; an earlier
        # block holding that radius is scanned again.
        i, j = total // 2, 0
        while i >= admissible[j]:
            i, j = i - admissible[j], j + 1
        if j < len(admissible) - 1:
            scan = cg.kinematics_scan(window.block(j), cfg)
        r_mid = scan.r[i]
        h = cg.chain_rule_fd_step(params, cfg, r_mid)
        pot_grad = cg.hypersurface_potential(params, cfg, r_mid - h, r_mid + h) / (2.0 * h)
        rpt.add_check("potential-gradient-covector", f"r={r_mid:.9g}", abs(pot_grad + scan.u_r[i]), 1e-6)

    quoted_points = count("quoted-scaled-rate-points")
    rpt.add_check("quoted-scaled-rate-points", loc, quoted_points, 0.0, holds=True)
    if quoted_points:
        rpt.add_comparison("quoted-scaled-rate-vs-direct", loc, peak("quoted-scaled-rate-vs-direct"), 1e-8)

    cells, roots0 = _focusing_facts()
    sign_map = dict(cells)
    if b is not None and b not in sign_map:
        sign_map.update(cg.focusing_sign_map([b]))
    for b_value, positives in sign_map.items():
        rpt.add_comparison(
            f"focusing-positive-cells[b={b_value:.9g}]", f"x-domain grid x{cg.SIGN_MAP_NX}", float(positives), 0.0
        )

    # The discriminant of the b = 0 reduction 54 x^2 - 91 x + 40.
    discriminant = 91.0**2 - 4.0 * 54.0 * 40.0
    rpt.add_check("focusing-reduced-discriminant", "54x^2-91x+40", discriminant, 0.0, holds=discriminant == -359.0)
    rpt.add_check("focusing-roots-found[b=0]", "x in (0;1)", float(len(roots0)), 0.0, holds=True)
    for quoted in cg.QUOTED_FOCUSING_ROOTS:
        location = f"x={quoted:.9g}" + ("" if quoted < 1.0 else " (outside (0;1))")
        rpt.add_comparison(
            f"quoted-root-polynomial-value[x={quoted:.9g}]",
            location,
            cg.focusing_polynomial_reduced(quoted),
            1e-6,
        )
    if roots_b is not None:
        rpt.add_check(f"focusing-roots-found[b={b:.9g}]", "x-domain", float(len(roots_b)), 0.0, holds=True)
        for root in roots_b:
            rpt.add_check(f"focusing-root[b={b:.9g}]", f"x={root:.9g}", root, 0.0, holds=True)

    candidates = cg.radius_candidates(params, cg.QUOTED_FOCUSING_ROOTS[1])
    rpt.add_comparison(
        "quoted-radius-exponential-channel",
        f"X={cg.QUOTED_FOCUSING_ROOTS[1]:.9g}",
        candidates.from_exponential / params.a - cg.QUOTED_ROOT_RADIUS_FACTOR,
        5e-4,
    )
    x_root = f"X={cg.QUOTED_FOCUSING_ROOTS[1]:.9g}"
    rpt.add_check("radius-w-channel-solutions", x_root, float(len(candidates.from_w)), 0.0, holds=True)
    for root in candidates.from_w:
        rpt.add_check("radius-w-channel", x_root, root, 0.0, holds=True)

    rpt.add_comparison("null-rate-nonnegative-cells", loc, count("null-rate-nonnegative-cells"), 0.0)
    for r_v, rate_v in violations:
        rpt.add_comparison("null-rate-violation", f"r={r_v:.9g}", rate_v, 0.0, holds=False)
    if xi == 0.0:
        rpt.add_check("null-rate-exponential-reduction", loc, peak("null-rate-exponential-reduction"), 1e-9)
    return rpt


def build_tortoise_report(
    lam: float, xi: float, r_min: float | None = None, r_max: float | None = None, samples: int = 513
) -> Report:
    # Narrower default window than the other scans.  The series channel's
    # term count is bounded for every r; the window stays [-a, a] only
    # because widening it would change the default reports.
    window = model.Window(lam, xi, r_min, r_max, samples, 1.0)
    params, loc = window.params, window.location()
    rpt = Report(lam=lam, xi=xi, rows=[])

    # The channel row evaluates the series only at the radii it compares.
    checked = window.radii(range(0, samples, max(1, samples // 32)))
    # Stencil centres clipped so that every stencil point stays within the radial bound.
    h = FD_FIRST_STEP * params.a
    edge = model.radial_bound(params) - h
    deriv_r = np.clip(window.radii(range(9), 9), -edge, edge)
    # One series call: the checked radii, the stencil's two sides and r = 0.
    series = cg.tortoise_series(params, np.concatenate([checked, deriv_r + h, deriv_r - h, [0.0]]))
    n, m = checked.size, deriv_r.size
    at_checked, plus, minus = series[:n], series[n : n + m], series[n + m : -1]

    # The quadrature is the integral from r = 0: the series' T(r) - T(0).
    channel_gap = _max_abs(at_checked - series[-1] - cg.tortoise_quadrature(params, checked))
    rpt.add_check("tortoise-channel-agreement", loc, channel_gap, 1e-8)

    # The central difference of T, with the stencil's values from that call.
    d = (plus - minus) / (2.0 * h)
    deriv_err = _max_abs(d * np.sqrt(model.MetricSample(params, deriv_r).w) - 1.0)
    rpt.add_check("tortoise-derivative-identity", loc, deriv_err, 1e-6)

    return rpt


def _parse_triple(text: str, name: str) -> tuple[int, Callable[[], np.ndarray]]:
    """Count and values of a number or a ``start:stop:count`` triple.

    The values are built on demand, so that a caller can bound the counts
    before any array is allocated.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ParameterDomainError(f"{name} must be a number or start:stop:count, got {text!r}")
    try:
        if len(parts) == 1:
            value = float(parts[0])
            return 1, lambda: np.array([value])
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterDomainError(f"malformed {name} range {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ParameterDomainError(f"{name} range bounds must be finite, got {text!r}")
    if count < 1:
        raise ParameterDomainError(f"{name} count must be >= 1, got {count}")
    return count, lambda: np.linspace(start, stop, count)


def build_sweep_report(lam_spec: str, xi_spec: str, e_spec: str, samples: int = 257) -> Report:
    """Compact verification rows over a (lambda, xi, e_tilde) grid, in grid order.

    Each (lambda, xi) member streams the blocks of its window's grid once;
    each block feeds the rows that depend on (lambda, xi) alone and the
    null-rate scans of the member's E cells, whose rows fold the blocks.
    """
    specs = [_parse_triple(lam_spec, "lambda"), _parse_triple(xi_spec, "xi"), _parse_triple(e_spec, "e-tilde")]
    cells = math.prod(count for count, _ in specs)
    if cells > model.MAX_GRID_SIZE:
        raise ParameterDomainError(f"sweep cell count must be <= {model.MAX_GRID_SIZE}, got {cells}")
    lams, xis, es = (values() for _, values in specs)
    es = es.tolist()
    rpt = Report(lam=float(lams[0]), xi=float(xis[0]), rows=[])
    for lam, xi in itertools.product(lams.tolist(), xis.tolist()):
        window = model.Window(lam, xi, None, None, samples, 2.0)
        fold = defaultdict(list)
        # Null-rate cells of each E cell, by its position in es.
        null_cells = [0] * len(es)
        for sample in window.blocks():
            ricci = ricci_mixed(sample)
            fold["f-ode-residual"].append(_f_ode_residual(sample, lam))
            fold["field-equation-residual"].append(field_residual(ricci, lam))
            strong = ec.strong_margin(ec.stress_decompose(ricci))
            fold["strong-margin-constant"].append(_strong_margin_error(strong, lam))
            for k, e_tilde in enumerate(es):
                # Sub-unit |E| has no timelike congruence to scan; CongruenceConfig
                # rejects a non-finite E and one whose square overflows.
                if not abs(e_tilde) < 1.0:
                    scan = cg.kinematics_scan(sample, cg.CongruenceConfig(e_tilde=e_tilde))
                    null_cells[k] += np.count_nonzero(scan.null_rate >= 0.0)
        peaks = {check: _peak(fold[check]) for check in _MEMBER_TOL}
        for e_tilde, cells_at_e in zip(es, null_cells):
            tag = f"lambda={lam:.9g};xi={xi:.9g};E={e_tilde:.9g}"
            for check, value in peaks.items():
                _add_member_row(rpt, check, tag, value)
            if not abs(e_tilde) < 1.0:
                rpt.add_comparison("null-rate-nonnegative-cells", tag, float(cells_at_e), 0.0)
    return rpt
