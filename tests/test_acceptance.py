"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lbverify import congruence as cg
from lbverify import suites
from lbverify.congruence import (
    CongruenceConfig,
    focusing_polynomial_reduced,
    focusing_polynomial_roots,
    kinematics_scan,
    radius_candidates,
    tortoise_quadrature,
    tortoise_series,
)
from lbverify.curvature import field_residual, ode_integrate_f, ricci_mixed
from lbverify.energy_conditions import condition_margins, stress_decompose
from lbverify.model import metric_eval, params_from_xi
from lbverify.numerics import FD_FIRST_STEP, central_diff
from lbverify.scalar_field import noether_charge, phi_prime_sq_constraint, scalar_profile
from lbverify.special_functions import gauss_2f1_pfaff, gauss_2f1_series, hyp2f1

LAMBDAS = (0.75, 3.0, 12.0)
XIS = (0.0, 0.1, 0.5, 1.0, 2.0)
GRID_SAMPLES = 4096


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_exact_solution_residuals():
    start = time.perf_counter()
    worst_f = 0.0
    worst_u = 0.0
    for lam in LAMBDAS:
        for xi in XIS:
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, GRID_SAMPLES)
            s = metric_eval(params, grid)
            worst_f = max(worst_f, float(np.max(np.abs(s.f_pp + s.f_p**2 - 3.0 * lam))))
            # |d/dr(u' e^f) - 2 lam e^f| / e^f  ==  |u'' + u' f' - 2 lam|
            worst_u = max(
                worst_u, float(np.max(np.abs(s.u_pp + s.u_p * s.f_p - 2.0 * lam)))
            )
    elapsed = time.perf_counter() - start
    ok = worst_f < 1e-9 and worst_u < 1e-8 and elapsed < 1.0
    _report("1", ok, f"f-residual {worst_f:.3e}, u-residual {worst_u:.3e}, {elapsed:.2f}s")


def test_criterion_02_field_equation_residual():
    start = time.perf_counter()
    worst = 0.0
    for lam in LAMBDAS:
        for xi in XIS:
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, GRID_SAMPLES)
            worst = max(worst, field_residual(ricci_mixed(metric_eval(params, grid)), params.lam))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report("2", ok, f"componentwise max {worst:.3e}, {elapsed:.2f}s")


def test_criterion_03_ode_oracle():
    params = params_from_xi(3.0, 1.0)
    span = 2.0 * params.a
    _, fs, _ = ode_integrate_f(params, 0.0, span, 10_000)
    f_end = metric_eval(params, span).f
    endpoint_err = abs(fs[-1] - f_end)
    steps = [100, 200, 400, 800]
    errors = []
    for n in steps:
        _, fn, _ = ode_integrate_f(params, 0.0, span, n)
        errors.append(abs(fn[-1] - f_end))
    slope = float(np.polyfit(np.log([1.0 / n for n in steps]), np.log(errors), 1)[0])
    ok = endpoint_err < 1e-7 and slope >= 3.5
    _report("3", ok, f"endpoint error {endpoint_err:.3e}, convergence order {slope:.2f}")


def test_criterion_04_scalar_first_integral_and_discrepancy_report():
    worst_constancy = 0.0
    min_constraint = math.inf
    for lam in LAMBDAS:
        for xi in XIS:
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, GRID_SAMPLES)
            prof = scalar_profile(params, metric_eval(params, grid))
            min_constraint = min(min_constraint, float(np.min(prof.phi_p_sq_constraint)))
            if xi != 0.0:
                j = prof.noether
                worst_constancy = max(
                    worst_constancy, float((np.max(j) - np.min(j)) / abs(np.mean(j)))
                )
    report = suites.build_verify_report(3.0, 1.0, samples=1024)
    rows = {row.check: row for row in report.rows}
    integrand_row = rows["quoted-scalar-integrand-min"]
    report_ok = (
        integrand_row.verdict == "discrepancy-logged"
        and integrand_row.value < 0.0
        and rows["quoted-integrand-vs-constraint"].verdict == "discrepancy-logged"
    )
    ok = worst_constancy < 1e-8 and min_constraint >= 0.0 and report_ok
    _report(
        "4",
        ok,
        f"constancy {worst_constancy:.3e}, min phi'^2 {min_constraint:.3e}, "
        f"discrepancy rows logged: {report_ok}",
    )


def test_criterion_05_stability():
    from lbverify.stability import expected_eigenvalues, fixed_point, spectrum, verdict

    ok = True
    detail = []
    for lam in LAMBDAS:
        params = params_from_xi(lam, 0.0)
        eigs = spectrum(params)
        a = math.sqrt(3.0 / lam)
        fp_exact = all(x == 2.0 / a for x in fixed_point(params))
        eig_err = max(abs(e.real - x) for e, x in zip(eigs, expected_eigenvalues(params)))
        imag_max = max(abs(e.imag) for e in eigs)
        ok = ok and fp_exact and eig_err < 1e-10 and imag_max < 1e-12 and verdict(eigs) == "stable"
        detail.append(f"lam={lam}: eig err {eig_err:.1e}")
    _report("5", ok, "; ".join(detail))


def test_criterion_06_energy_condition_margins():
    worst_transverse = worst_sec = worst_radial = 0.0
    min_radial = math.inf
    for lam in LAMBDAS:
        for xi in XIS:
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, GRID_SAMPLES)
            ricci = ricci_mixed(metric_eval(params, grid))
            margins = condition_margins(stress_decompose(ricci))
            phi_sq = phi_prime_sq_constraint(ricci, lam)
            worst_transverse = max(worst_transverse, float(np.max(np.abs(margins.nec_t))))
            worst_sec = max(worst_sec, float(np.max(np.abs(margins.sec + 2.0 * lam))))
            worst_radial = max(worst_radial, float(np.max(np.abs(margins.nec_r - phi_sq))))
            min_radial = min(min_radial, float(np.min(margins.nec_r)))
    ok = (
        worst_transverse < 1e-9
        and worst_sec < 1e-8
        and worst_radial < 1e-9
        and min_radial >= -1e-9
    )
    _report(
        "6",
        ok,
        f"|rho+p_t| {worst_transverse:.1e}, "
        f"|rho+sum p+2lam| {worst_sec:.1e}, radial-vs-phi'^2 {worst_radial:.1e}",
    )


def test_criterion_07_timelike_focusing_and_comparison_report():
    rng = np.random.default_rng(170)
    worst_rel = 0.0
    count = 0
    while count < 100:
        lam = float(rng.uniform(0.75, 12.0))
        xi = float(rng.uniform(0.0, 2.0))
        e_tilde = float(rng.uniform(1.1, 3.0))
        params = params_from_xi(lam, xi)
        r = float(rng.uniform(-params.a, params.a))
        if float(metric_eval(params, r).w) > e_tilde**2 * (1.0 - 1e-3):
            continue
        cfg = CongruenceConfig(e_tilde=e_tilde)
        scan = kinematics_scan(metric_eval(params, np.array([r])), cfg)
        rate = float(scan.dtheta_dtau[0])
        if abs(rate) < 1e-2:
            continue
        h = cg.chain_rule_fd_step(params, cfg, r)
        theta = lambda x: float(kinematics_scan(metric_eval(params, np.array([x])), cfg).theta[0])
        theta_prime = central_diff(theta, r, h)
        u_r = float(scan.u_r[0])
        worst_rel = max(worst_rel, abs(theta_prime * u_r - rate) / abs(rate))
        count += 1

    report = suites.build_congruence_report(3.0, 0.1, 2.0, samples=257)
    rows = {row.check: row for row in report.rows}
    reduction_ok = (
        focusing_polynomial_roots(0.0) == ()
        and abs(focusing_polynomial_reduced(0.7) - (54 * 0.49 - 91 * 0.7 + 40) / 6.0) < 1e-14
    )
    sign_rows = [
        rows[f"focusing-positive-cells[b={b:.9g}]"] for b in suites.SIGN_MAP_B_VALUES
    ]
    report_ok = (
        all(row.verdict == "discrepancy-logged" and row.value > 0 for row in sign_rows)
        and rows["quoted-root-polynomial-value[x=0.377]"].verdict == "discrepancy-logged"
        and rows["quoted-root-polynomial-value[x=1.178]"].verdict == "discrepancy-logged"
        and "outside" in rows["quoted-root-polynomial-value[x=1.178]"].location
        and rows["quoted-scaled-rate-vs-direct"].verdict == "discrepancy-logged"
        and rows["focusing-reduced-discriminant"].value == -359.0
    )
    ok = worst_rel < 1e-5 and reduction_ok and report_ok
    _report(
        "7",
        ok,
        f"chain-rule rel {worst_rel:.3e} over {count} points, "
        f"discriminant -359, comparison rows logged: {report_ok}",
    )


def test_criterion_08_quoted_radius_anchor():
    params = params_from_xi(3.0, 1.0)
    candidates = radius_candidates(params, 1.178)
    deviation = abs(candidates.from_exponential / params.a - 0.0273)
    ok = deviation < 5e-4
    _report("8", ok, f"r/a = {candidates.from_exponential / params.a:.7f}, |dev| {deviation:.1e}")


def test_criterion_09_tortoise():
    worst_channel = 0.0
    for xi in (0.1, 0.5, 1.0):
        params = params_from_xi(3.0, xi)
        for r in np.linspace(-params.a, params.a, 33):
            r = float(r)
            worst_channel = max(
                worst_channel, abs(tortoise_series(params, r) - tortoise_quadrature(params, r))
            )
    vacuum = params_from_xi(3.0, 0.0)
    worst_exact = max(
        abs(tortoise_series(vacuum, float(r)) - vacuum.a * math.exp(float(r) / vacuum.a))
        for r in np.linspace(-1.0, 1.0, 17)
    )
    worst_deriv = 0.0
    for xi in (0.1, 0.5, 1.0):
        params = params_from_xi(3.0, xi)
        for r in np.linspace(-params.a, params.a, 9):
            d = central_diff(lambda x: tortoise_series(params, x), float(r), FD_FIRST_STEP * params.a)
            worst_deriv = max(
                worst_deriv, abs(d * math.sqrt(float(metric_eval(params, float(r)).w)) - 1.0)
            )
    ok = worst_channel < 1e-8 and worst_exact < 1e-12 and worst_deriv < 1e-6
    _report(
        "9",
        ok,
        f"channel gap {worst_channel:.2e}, exponential form {worst_exact:.2e}, "
        f"derivative identity {worst_deriv:.2e}",
    )


def test_criterion_10_null_rate():
    vacuum = params_from_xi(3.0, 0.0)
    cfg = CongruenceConfig(e_tilde=2.0)
    grid = np.linspace(-0.6, 2.0, 65)
    scan = kinematics_scan(metric_eval(vacuum, grid), cfg)
    expected = -(2.0 / vacuum.a**2) * np.sqrt(cfg.e_tilde**2 - metric_eval(vacuum, scan.r).w)
    # NaN (a point the scan did not rate) propagates and fails the bound.
    worst_reduction = float(np.max(np.abs(scan.null_rate - expected)))

    report_xi1 = suites.build_congruence_report(3.0, 1.0, 2.0, samples=257)
    rows1 = {row.check: row for row in report_xi1.rows}
    violations_row = rows1["null-rate-nonnegative-cells"]
    itemized = [row for row in report_xi1.rows if row.check == "null-rate-violation"]
    report_xi0 = suites.build_congruence_report(3.0, 0.0, 2.0, samples=257)
    rows0 = {row.check: row for row in report_xi0.rows}
    scan_ok = (
        violations_row.verdict == "discrepancy-logged"
        and violations_row.value > 0
        and len(itemized) > 0
        and rows0["null-rate-nonnegative-cells"].verdict == "pass"
        and rows0["null-rate-nonnegative-cells"].value == 0.0
    )
    ok = worst_reduction < 1e-9 and scan_ok
    _report(
        "10",
        ok,
        f"vacuum reduction {worst_reduction:.2e}, violations itemized "
        f"({violations_row.value:.0f} cells at xi=1, 0 at xi=0)",
    )


def test_criterion_11_hypergeometric():
    rng = np.random.default_rng(2026)
    worst_binomial = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.05, 2.0))
        z = float(rng.uniform(-10.0, 0.0))
        worst_binomial = max(worst_binomial, abs(hyp2f1(a, b, a, z) - (1.0 - z) ** (-b)))
    worst_dual = 0.0
    for _ in range(100):
        a, b, c = (float(x) for x in rng.uniform(0.05, 2.0, size=3))
        z = float(rng.uniform(-0.95, 0.0))
        worst_dual = max(worst_dual, abs(gauss_2f1_series(a, b, c, z) - gauss_2f1_pfaff(a, b, c, z)))
    ok = worst_binomial < 1e-12 and worst_dual < 1e-12
    _report("11", ok, f"binomial identity {worst_binomial:.2e}, series-vs-Pfaff {worst_dual:.2e}")


def test_criterion_12_cli_contract():
    start = time.perf_counter()
    first = subprocess.run(
        [sys.executable, "-m", "lbverify", "verify"], capture_output=True
    )
    elapsed = time.perf_counter() - start
    second = subprocess.run(
        [sys.executable, "-m", "lbverify", "verify"], capture_output=True
    )
    invalid = subprocess.run(
        [sys.executable, "-m", "lbverify", "verify", "--lambda", "-1"], capture_output=True
    )
    ok = (
        first.returncode == 0
        and elapsed < 10.0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
        and invalid.returncode == 2
    )
    _report(
        "12",
        ok,
        f"exit {first.returncode} in {elapsed:.2f}s, byte-identical reruns, invalid exit 2",
    )
