"""Report builders behind the command-line subcommands.

Each builder returns a :class:`~lbverify.report.Report` whose rows follow the
verdict contract: "fail" is reserved for internal-consistency breakage and
drives the exit code; comparisons of quoted formulas/values against the
toolkit's own oracles can only "pass" or end up "discrepancy-logged".
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import congruence as cg
from . import energy_conditions as ec
from . import model, scalar_field, stability
from .curvature import (
    covariant_divergence_radial,
    field_residual,
    ricci_diagonal,
    ricci_diagonal_fd,
)
from .errors import ParameterDomainError
from .numerics import central_diff
from .report import Report

#: Fixed b values of the focusing-polynomial sign map.
SIGN_MAP_B_VALUES = (0.0, 0.1, 0.25, 0.49)


def _window(params, r_min, r_max):
    if r_min is None:
        r_min = -2.0 * params.a
    if r_max is None:
        r_max = 2.0 * params.a
    return float(r_min), float(r_max)


def _loc(r_min, r_max, samples):
    return f"grid[{r_min:.9g};{r_max:.9g}]x{samples}"


def _max_abs(values) -> float:
    """Largest |value|, 0 for an empty array."""
    return float(np.max(np.abs(values), initial=0.0))


def build_verify_report(
    lam: float, xi: float, r_min: float | None = None, r_max: float | None = None, samples: int = 4096
) -> Report:
    """Internal-consistency suite for one family member."""
    params, raw = model.params_from_xi(lam, xi)
    r_min, r_max = _window(params, r_min, r_max)
    grid = np.linspace(r_min, r_max, samples)
    loc = _loc(r_min, r_max, samples)
    rpt = Report(lam=lam, xi=xi, rows=[])

    sample = model.metric_eval(params, grid)
    lam3 = 3.0 * lam
    rpt.add_check("f-ode-residual", loc, float(np.max(np.abs(sample.f_pp + sample.f_p**2 - lam3))), 1e-9)
    exponent_res = np.abs(sample.u_pp[0] + sample.u_p[0] * sample.f_p - 2.0 * lam)
    rpt.add_check("exponent-ode-residual", loc, float(np.max(exponent_res)), 1e-8)
    sum_up = sample.u_p[0] + sample.u_p[1] + sample.u_p[2]
    eq_three = np.abs(2.0 * sample.u_pp[0] + sample.u_p[0] * sum_up - 4.0 * lam)
    rpt.add_check("exponent-system-residual", loc, float(np.max(eq_three)), 1e-9)

    rpt.add_check("field-equation-residual", loc, field_residual(params, grid).max_abs, 1e-8)

    def metric_fn(x):
        m = model.metric_eval(params, x)
        return (-math.exp(m.u[0]), 1.0, math.exp(m.u[1]), math.exp(m.u[2]))

    # The FD stencil step scales with the de Sitter length (all radial
    # structure does), and the row tolerance scales with the Ricci magnitude
    # once it exceeds what an absolute 1e-6 can mean in double precision.
    dual_diff = 0.0
    ricci_scale = 1.0
    fd_h = 1e-3 * params.a
    for r in np.linspace(r_min, r_max, 25):
        cf = ricci_diagonal(model.metric_eval(params, float(r)))
        fd = ricci_diagonal_fd(metric_fn, float(r), h=fd_h)
        dual_diff = max(dual_diff, max(abs(float(c) - d) for c, d in zip(cf, fd)))
        ricci_scale = max(ricci_scale, max(abs(float(c)) for c in cf))
    rpt.add_check(
        "ricci-dual-path", loc.replace(f"x{samples}", "x25"), dual_diff, max(1e-6, 1e-9 * ricci_scale)
    )

    profile = scalar_field.scalar_profile(params, grid)
    if xi != 0.0:
        j = profile.noether
        constancy = float((np.max(j) - np.min(j)) / abs(np.mean(j)))
        rpt.add_check("noether-constancy-rel", loc, constancy, 1e-8)
    else:
        rpt.add_check("noether-zero", loc, float(np.max(np.abs(profile.noether))), 1e-12)
    min_constraint = float(np.min(profile.phi_p_sq_constraint))
    rpt.add(
        "scalar-gradient-sq-min",
        loc,
        min_constraint,
        1e-12,
        "pass" if min_constraint >= -1e-12 else "fail",
    )
    min_w = float(np.min(sample.w))
    rpt.add("w-positivity-min", loc, min_w, 0.0, "pass" if min_w > 0.0 else "fail")

    for row in model.validate_constants(raw, lam):
        if row.check == "beta-gauge-sum":
            # The canonical gauge absorbs additive constants instead of
            # matching the quoted beta condition: a quoted-form comparison.
            rpt.add_comparison(row.check, "canonical-gauge", row.value, row.tolerance)
        else:
            rpt.add(row.check, row.location, row.value, row.tolerance, row.verdict)

    quoted_min = float(np.min(profile.phi_p_sq_quoted))
    rpt.add(
        "quoted-scalar-integrand-min",
        loc,
        quoted_min,
        1e-12,
        "pass" if quoted_min >= -1e-12 else "discrepancy-logged",
    )
    form_gap = float(np.max(np.abs(profile.phi_p_sq_quoted - profile.phi_p_sq_constraint)))
    rpt.add_comparison("quoted-integrand-vs-constraint", loc, form_gap, 1e-10)
    rpt.add_comparison(
        "quoted-linear-coefficient-gap",
        "u_i linear term (derived -2/a vs quoted -1/a)",
        -1.0 / params.a,
        0.0,
    )
    return rpt


def build_stability_report(lam: float) -> Report:
    rpt = Report(lam=lam, xi=0.0, rows=[])
    sr = stability.jacobian_eigen(lam)
    a = math.sqrt(3.0 / lam)
    rpt.add_check("fixed-point-offset", "stationary point", max(abs(x - 2.0 / a) for x in sr.fixed_point), 1e-14)
    rpt.add_check("stationarity-linear", "stationary point", sr.stationarity_residuals[0], 1e-12)
    rpt.add_check("stationarity-quadratic", "stationary point", sr.stationarity_residuals[1], 1e-12)
    expected = stability.expected_eigenvalues(lam)
    eig_err = max(abs(e.real - x) for e, x in zip(sr.eigenvalues, expected))
    rpt.add_check("eigenvalue-error", "spectrum {-6/a;-3/a;-3/a}", eig_err, 1e-10)
    rpt.add_check("eigenvalue-imag", "spectrum", max(abs(e.imag) for e in sr.eigenvalues), 1e-12)
    max_real = max(e.real for e in sr.eigenvalues)
    rpt.add("lyapunov-verdict", f"verdict={sr.verdict}", max_real, 0.0, "pass" if max_real < 0.0 else "fail")
    rpt.add("linearized-profile-note", stability.LINEAR_TERM_NOTE, 0.0, 0.0, "discrepancy-logged")
    return rpt


def build_energy_report(
    lam: float, xi: float, r_min: float | None = None, r_max: float | None = None, samples: int = 4096
) -> Report:
    params, _ = model.params_from_xi(lam, xi)
    r_min, r_max = _window(params, r_min, r_max)
    grid = np.linspace(r_min, r_max, samples)
    loc = _loc(r_min, r_max, samples)
    rpt = Report(lam=lam, xi=xi, rows=[])

    stress = ec.stress_decompose(params, grid)
    margins = ec.condition_margins(stress)
    sample = model.metric_eval(params, grid)
    phi_sq = scalar_field.phi_prime_sq_constraint(sample, lam)

    rpt.add_check("transverse-null-margin-phi", loc, float(np.max(np.abs(margins.nec_phi))), 1e-9)
    rpt.add_check("transverse-null-margin-z", loc, float(np.max(np.abs(margins.nec_z))), 1e-9)
    rpt.add_check("strong-margin-constant", loc, float(np.max(np.abs(margins.sec + 2.0 * lam))), 1e-8)
    rpt.add_check("radial-null-vs-gradient-sq", loc, float(np.max(np.abs(margins.nec_r - phi_sq))), 1e-9)
    min_nec_r = float(np.min(margins.nec_r))
    rpt.add("radial-null-margin-min", loc, min_nec_r, 1e-9, "pass" if min_nec_r >= -1e-9 else "fail")
    min_dec_r = float(np.min(margins.dec_r))
    rpt.add("radial-dominant-margin-min", loc, min_dec_r, 1e-9, "pass" if min_dec_r >= -1e-9 else "fail")

    intervals = ec.region_scan(params, r_min, r_max, samples)
    width = r_max - r_min
    for cond in ec.CONDITIONS:
        held = sum(hi - lo for lo, hi in intervals[cond])
        fraction = held / width if width > 0.0 else float(bool(intervals[cond]))
        rpt.add(f"energy-{cond}-holds-fraction", loc, fraction, ec.HOLD_TOL, "pass")
        for lo, hi in intervals[cond]:
            rpt.add(f"energy-{cond}-interval", f"[{lo:.9g};{hi:.9g}]", hi - lo, ec.HOLD_TOL, "pass")
    return rpt


def build_congruence_report(
    lam: float,
    xi: float,
    e_tilde: float,
    r_min: float | None = None,
    r_max: float | None = None,
    samples: int = 4096,
    b_extra: float | None = None,
) -> Report:
    params, _ = model.params_from_xi(lam, xi)
    cfg = cg.CongruenceConfig(e_tilde=e_tilde)
    r_min, r_max = _window(params, r_min, r_max)
    scan_samples = min(samples, 257)
    loc = _loc(r_min, r_max, scan_samples)
    rpt = Report(lam=lam, xi=xi, rows=[])

    scan = cg.timelike_scan(params, cfg, np.linspace(r_min, r_max, scan_samples))
    admissible = [s for s in scan if s.status == "ok"]
    rpt.add("timelike-admissible-points", loc, float(len(admissible)), 0.0, "pass")
    r = np.array([s.r for s in admissible])
    theta = np.array([s.theta for s in admissible])
    rate = np.array([s.dtheta_dtau for s in admissible])

    e2 = cfg.e_tilde**2
    w = model.w_eval(params, r)[0]
    u_t, u_r, _, _ = cg.four_velocity(params, cfg, r)
    norm_err = _max_abs(-w * u_t**2 + u_r**2 + 1.0)
    # The chain-rule and divergence oracles need finite differences that
    # stay clear of the turning-point divergence.
    fd = (e2 - w >= 1e-3 * e2) & (np.abs(rate) >= 1e-2)
    h = cg.chain_rule_fd_step(params, cfg, r[fd])
    theta_fd = central_diff(lambda x: cg.expansion_timelike(params, cfg, x), r[fd], h)
    chain_err = _max_abs((theta_fd * u_r[fd] - rate[fd]) / rate[fd])
    div = covariant_divergence_radial(
        lambda x: model.w_eval(params, x)[0] ** 1.5,
        lambda x: cg.four_velocity(params, cfg, x)[1],
        r[fd],
        h,
    )
    div_err = _max_abs(div - theta[fd])
    rpt.add_check("four-velocity-normalization", loc, norm_err, 1e-12)
    rpt.add_check("rate-chain-rule-rel", loc, chain_err, 1e-5)
    rpt.add_check("expansion-covariant-divergence", loc, div_err, 1e-6)

    if admissible:
        mid = admissible[len(admissible) // 2]
        other = admissible[len(admissible) // 4]
        if mid.r != other.r:
            pot_grad = central_diff(
                lambda x: cg.hypersurface_potential(params, cfg, other.r, x), mid.r
            )
            rpt.add_check(
                "potential-gradient-covector",
                f"r={mid.r:.9g}",
                abs(pot_grad + cg.four_velocity(params, cfg, mid.r)[1]),
                1e-6,
            )

    # NaN differences are points outside the quoted domain or divergence flags.
    difference = cg.expansion_rate_scaled_scan(params, cfg, r).difference
    difference = difference[np.isfinite(difference)]
    rpt.add("quoted-scaled-rate-points", loc, float(difference.size), 0.0, "pass")
    if difference.size:
        rpt.add_comparison("quoted-scaled-rate-vs-direct", loc, _max_abs(difference), 1e-8)

    b_values = list(SIGN_MAP_B_VALUES)
    if b_extra is not None and b_extra not in b_values:
        b_values.append(b_extra)
    sign_map = cg.focusing_sign_map(b_values, nx=512)
    for b in b_values:
        _, vals = sign_map[b]
        positives = int(np.sum(vals > 0.0))
        rpt.add_comparison(f"focusing-positive-cells[b={b:.9g}]", "x-domain grid x512", float(positives), 0.0)

    scan0 = cg.focusing_polynomial_roots(0.0)
    rpt.add(
        "focusing-reduced-discriminant",
        "54x^2-91x+40",
        scan0.reduced_discriminant,
        0.0,
        "pass" if scan0.reduced_discriminant == -359.0 else "fail",
    )
    rpt.add("focusing-roots-found[b=0]", "x in (0;1)", float(len(scan0.roots)), 0.0, "pass")
    for quoted in cg.QUOTED_FOCUSING_ROOTS:
        location = f"x={quoted:.9g}" + ("" if quoted < 1.0 else " (outside (0;1))")
        rpt.add_comparison(
            f"quoted-root-polynomial-value[x={quoted:.9g}]",
            location,
            cg.focusing_polynomial_reduced(quoted),
            1e-6,
        )
    if b_extra is not None:
        scan_b = cg.focusing_polynomial_roots(b_extra)
        rpt.add(f"focusing-roots-found[b={b_extra:.9g}]", "x-domain", float(len(scan_b.roots)), 0.0, "pass")
        for root in scan_b.roots:
            rpt.add(f"focusing-root[b={b_extra:.9g}]", f"x={root:.9g}", root, 0.0, "pass")

    candidates = cg.radius_candidates(params, cg.QUOTED_FOCUSING_ROOTS[1])
    rpt.add_comparison(
        "quoted-radius-exponential-channel",
        f"X={cg.QUOTED_FOCUSING_ROOTS[1]:.9g}",
        candidates.from_exponential / params.a - cg.QUOTED_ROOT_RADIUS_FACTOR,
        5e-4,
    )
    rpt.add(
        "radius-w-channel-solutions",
        f"X={cg.QUOTED_FOCUSING_ROOTS[1]:.9g}",
        float(len(candidates.from_w)),
        0.0,
        "pass",
    )
    for root in candidates.from_w:
        rpt.add("radius-w-channel", f"X={cg.QUOTED_FOCUSING_ROOTS[1]:.9g}", root, 0.0, "pass")

    null_scan = cg.null_rate_sign_scan(params, cfg, np.linspace(r_min, r_max, scan_samples))
    ok = [s for s in null_scan if s.status == "ok"]
    violations = [s for s in ok if s.dtheta_dtau >= 0.0]
    rpt.add_comparison("null-rate-nonnegative-cells", loc, float(len(violations)), 0.0)
    for s in violations[:16]:
        rpt.add("null-rate-violation", f"r={s.r:.9g}", s.dtheta_dtau, 0.0, "discrepancy-logged")
    if xi == 0.0:
        r_ok = np.array([s.r for s in ok])
        rate_ok = np.array([s.dtheta_dtau for s in ok])
        expected_rate = -(2.0 / params.a**2) * np.sqrt(e2 - model.w_eval(params, r_ok)[0])
        rpt.add_check("null-rate-exponential-reduction", loc, _max_abs(rate_ok - expected_rate), 1e-9)
    return rpt


def build_tortoise_report(
    lam: float, xi: float, r_min: float | None = None, r_max: float | None = None, samples: int = 513
) -> Report:
    params, _ = model.params_from_xi(lam, xi)
    # Narrower default window than the other scans: the series channel term
    # count grows with e^{6r/a}.
    if r_min is None:
        r_min = -params.a
    if r_max is None:
        r_max = params.a
    loc = _loc(r_min, r_max, samples)
    rpt = Report(lam=lam, xi=xi, rows=[])

    grid = np.linspace(r_min, r_max, samples)
    series_vals = np.array([cg.tortoise_series(params, float(r)) for r in grid])
    channel_gap = 0.0
    for idx in range(0, samples, max(1, samples // 32)):
        r = float(grid[idx])
        channel_gap = max(channel_gap, abs(series_vals[idx] - cg.tortoise_quadrature(params, r)))
    rpt.add_check("tortoise-channel-agreement", loc, channel_gap, 1e-8)

    deriv_err = 0.0
    for r in np.linspace(r_min, r_max, 9):
        d = central_diff(lambda x: cg.tortoise_series(params, float(x)), float(r))
        deriv_err = max(deriv_err, abs(d * math.sqrt(cg._w_scalar(params, float(r))) - 1.0))
    rpt.add_check("tortoise-derivative-identity", loc, deriv_err, 1e-6)

    if xi == 0.0:
        exact_err = float(np.max(np.abs(series_vals - params.a * np.exp(grid / params.a))))
        rpt.add_check("tortoise-exponential-form", loc, exact_err, 1e-12)
    return rpt


def _parse_triple(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ParameterDomainError(f"{name} must be a number or start:stop:count, got {text!r}")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterDomainError(f"malformed {name} range {text!r}") from exc
    if count < 1:
        raise ParameterDomainError(f"{name} count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def build_sweep_report(lam_spec: str, xi_spec: str, e_spec: str, samples: int = 257) -> Report:
    """Compact verification rows over a (lambda, xi, e_tilde) grid, in grid order."""
    lams = _parse_triple(lam_spec, "lambda")
    xis = _parse_triple(xi_spec, "xi")
    es = _parse_triple(e_spec, "e-tilde")
    rpt = Report(lam=float(lams[0]), xi=float(xis[0]), rows=[])
    for lam, xi, e_tilde in itertools.product(lams.tolist(), xis.tolist(), es.tolist()):
        params, _ = model.params_from_xi(lam, xi)
        grid = np.linspace(-2.0 * params.a, 2.0 * params.a, samples)
        sample = model.metric_eval(params, grid)
        tag = f"lambda={lam:.9g};xi={xi:.9g};E={e_tilde:.9g}"
        rpt.add_check("f-ode-residual", tag, float(np.max(np.abs(sample.f_pp + sample.f_p**2 - 3.0 * lam))), 1e-9)
        rpt.add_check("field-equation-residual", tag, field_residual(params, grid).max_abs, 1e-8)
        margins = ec.condition_margins(ec.stress_decompose(params, grid))
        rpt.add_check("strong-margin-constant", tag, float(np.max(np.abs(margins.sec + 2.0 * lam))), 1e-8)
        if abs(e_tilde) >= 1.0:
            cfg = cg.CongruenceConfig(e_tilde=e_tilde)
            null_scan = cg.null_rate_sign_scan(params, cfg, grid)
            violations = sum(1 for s in null_scan if s.status == "ok" and s.dtheta_dtau >= 0.0)
            rpt.add_comparison("null-rate-nonnegative-cells", tag, float(violations), 0.0)
    return rpt
