import compare_reports
import numpy as np
import pytest

from lbverify import cli, suites
from lbverify.curvature import ricci_diagonal_generic, ricci_mixed
from lbverify.energy_conditions import (
    CONDITIONS,
    HOLD_TOL,
    FrameStress,
    condition_margins,
    condition_minima,
    hold_tolerance,
    stress_decompose,
)
from lbverify.errors import NumericalError
from lbverify.model import GRID_BLOCK, log_w_jet, metric_eval, params_from_xi
from lbverify.numerics import Jet
from lbverify.scalar_field import phi_prime_sq_constraint
from lbverify.suites import build_energy_report


def _holds(margins, tol):
    """Per condition, where it holds: every one of its margins is >= -tol, so its minimum is."""
    return {cond: minimum >= -tol for cond, minimum in condition_minima(margins).items()}


def test_trace_identities_random_points():
    rng = np.random.default_rng(24601)
    for _ in range(100):
        lam = float(rng.uniform(0.75, 12.0))
        xi = float(rng.uniform(0.0, 2.0))
        params = params_from_xi(lam, xi)
        r = float(rng.uniform(-params.a, params.a))
        ricci = ricci_mixed(metric_eval(params, r))
        stress = stress_decompose(ricci)
        phi_sq = phi_prime_sq_constraint(ricci, lam)
        assert stress.rho + stress.p_r == pytest.approx(phi_sq, abs=1e-9)
        assert stress.rho + stress.p_t == pytest.approx(0.0, abs=1e-9)
        total = stress.rho + stress.p_r + stress.p_t + stress.p_t
        assert total == pytest.approx(-2.0 * lam, abs=1e-8)


def test_transverse_pressures_equal():
    # The generic contraction of the metric alone gives p_phi and p_z from
    # components of their own; both are the one transverse pressure.  Each
    # component is normalised at its own point, so the generic covariant
    # Ricci is (-R^t_t, R^r_r, R^phi_phi, R^z_z) there.
    params = params_from_xi(3.0, 1.0)
    grid = np.linspace(-2.0, 2.0, 257)
    stress = stress_decompose(ricci_mixed(metric_eval(params, grid)))
    log_w = log_w_jet(params, grid)
    unit = (log_w - log_w.v).exp()
    r_tt, r_rr, r_pp, r_zz = ricci_diagonal_generic((-unit, Jet(1.0, 0.0, 0.0), unit, unit))
    half_r = 0.5 * (-r_tt + r_rr + r_pp + r_zz)
    assert np.max(np.abs(r_pp - half_r - stress.p_t)) < 1e-12
    assert np.max(np.abs(r_zz - half_r - stress.p_t)) < 1e-12


def test_vacuum_member_margins():
    params = params_from_xi(3.0, 0.0)
    stress = stress_decompose(ricci_mixed(metric_eval(params, 0.7)))
    margins = condition_margins(stress)
    assert margins.nec_r == pytest.approx(0.0, abs=1e-12)
    assert margins.nec_t == pytest.approx(0.0, abs=1e-12)
    assert margins.wec_extra == pytest.approx(3.0, rel=1e-12)
    assert margins.sec == pytest.approx(-6.0, rel=1e-12)
    assert margins.dec_r == pytest.approx(0.0, abs=1e-12)


def test_radial_margin_at_origin_unit_xi():
    params = params_from_xi(3.0, 1.0)
    stress = stress_decompose(ricci_mixed(metric_eval(params, 0.0)))
    assert stress.rho + stress.p_r == pytest.approx(6.0, abs=1e-9)
    margins = condition_margins(stress)
    assert margins.sec == pytest.approx(-6.0, abs=1e-9)


def test_margin_arithmetic():
    stress = FrameStress(rho=1.0, p_r=1.0, p_t=-1.0)
    margins = condition_margins(stress)
    assert (margins.nec_r, margins.nec_t) == (2.0, 0.0)
    assert margins.sec == 0.0
    assert (margins.dec_r, margins.dec_t) == (0.0, 0.0)
    held = _holds(margins, HOLD_TOL)
    assert bool(held["NEC"])
    assert bool(held["SEC"])
    assert bool(held["DEC"])


def test_z_margins_shared_only_when_p_z_is_p_phi():
    # p_z is p_phi on every member of the family, so the phi and z rows of
    # the energy report both read the one transverse null margin.
    params = params_from_xi(3.0, 1.0)
    margins = condition_margins(stress_decompose(ricci_mixed(metric_eval(params, np.linspace(-2.0, 2.0, 65)))))
    rows = {row.check: row.value for row in build_energy_report(3.0, 1.0, -2.0, 2.0, 65).rows}
    assert rows["transverse-null-margin-phi"] == rows["transverse-null-margin-z"] == np.max(np.abs(margins.nec_t))


def test_sec_margin_constant_in_radius():
    params = params_from_xi(3.0, 1.0)
    grid = np.linspace(-2.0, 2.0, 513)
    margins = condition_margins(stress_decompose(ricci_mixed(metric_eval(params, grid))))
    assert np.max(np.abs(margins.sec + 6.0)) < 1e-8


def _energy_rows(*args, **kwargs):
    """The ``energy-*`` rows of an energy report as {check: [(location, value, tolerance)]}."""
    rows = {}
    for row in build_energy_report(*args, **kwargs).rows:
        if row.check.startswith("energy-"):
            rows.setdefault(row.check, []).append((row.location, row.value, row.tolerance))
    return rows


def test_energy_report_vacuum_member():
    rows = _energy_rows(3.0, 0.0, -2.0, 2.0, 257)
    for cond in ("NEC", "WEC", "DEC"):
        assert [value for _, value, _ in rows[f"energy-{cond}-holds-fraction"]] == [1.0]
        assert [(loc, value) for loc, value, _ in rows[f"energy-{cond}-interval"]] == [("[-2;2]", 4.0)]
    assert [value for _, value, _ in rows["energy-SEC-holds-fraction"]] == [0.0]
    assert "energy-SEC-interval" not in rows


def _synthetic_ricci(margin_of_r):
    """A stand-in for ``ricci_mixed`` whose radial null margin is c = margin_of_r(r).

    The pair (R^n_n, R^r_r) = (0, c) gives R/2 = c/2, rho = p_r = c/2 and
    p_t = -c/2: rho + p_r = c, and the transverse and strong margins are 0.
    The WEC margin rho and the dominant margins c/2 - |c|/2 are >= 0
    wherever c is, so every condition holds exactly where c >= -tolerance.
    """

    def synthetic(sample):
        return 0.0, margin_of_r(np.asarray(sample.r, dtype=float))

    return synthetic


def _cubic_stress(roots, sign):
    # The family's own margins never change sign inside a window, so a
    # synthetic stress with the radial null margin +/-(r - r1)(r - r2)(r - r3)
    # - HOLD_TOL stands in: every condition then holds exactly where the
    # cubic is >= 0, with edges at its roots.
    return _synthetic_ricci(lambda r: sign * (r - roots[0]) * (r - roots[1]) * (r - roots[2]) - HOLD_TOL)


def test_a_partial_hold_is_a_numerical_error(monkeypatch):
    roots = (-0.6123, 0.1357, 0.7071)
    for sign in (1.0, -1.0):
        monkeypatch.setattr(suites, "ricci_mixed", _cubic_stress(roots, sign))
        with pytest.raises(NumericalError, match="NEC holds on part of the window"):
            build_energy_report(3.0, 1.0, -1.0, 1.0, 41)


def _block_masks(params, grid):
    # The hold masks of the report's GRID_BLOCK blocks of 2 blocks + 808 points.
    return [
        _holds(condition_margins(stress_decompose(suites.ricci_mixed(metric_eval(params, r)))), HOLD_TOL)
        for r in np.split(grid, [GRID_BLOCK, 2 * GRID_BLOCK])
    ]


def test_a_partial_hold_in_the_last_block_only_is_a_numerical_error(monkeypatch):
    # On 2 blocks + 808 points of [-1, 1] the block boundaries sit at
    # r = -0.0897 and 0.8206; the one edge, at 0.9071, lies in the last block.
    params = params_from_xi(3.0, 1.0)
    samples = 2 * GRID_BLOCK + 808
    monkeypatch.setattr(suites, "ricci_mixed", _cubic_stress((0.9071, 1.5, 2.0), -1.0))
    first, second, last = _block_masks(params, np.linspace(-1.0, 1.0, samples))
    for cond in CONDITIONS:
        assert first[cond].all() and second[cond].all(), cond
        assert last[cond].any() and not last[cond].all(), cond
    with pytest.raises(NumericalError, match="NEC holds on part of the window"):
        build_energy_report(3.0, 1.0, -1.0, 1.0, samples)


def test_a_hold_across_both_block_boundaries_is_one_window_interval(monkeypatch):
    params = params_from_xi(3.0, 1.0)
    samples = 2 * GRID_BLOCK + 808
    monkeypatch.setattr(suites, "ricci_mixed", _cubic_stress((1.5, 2.0, 3.0), -1.0))
    for block in _block_masks(params, np.linspace(-1.0, 1.0, samples)):
        assert all(block[cond].all() for cond in CONDITIONS)
    rows = _energy_rows(3.0, 1.0, -1.0, 1.0, samples)
    for cond in CONDITIONS:
        assert [value for _, value, _ in rows[f"energy-{cond}-holds-fraction"]] == [1.0], cond
        assert [(loc, value) for loc, value, _ in rows[f"energy-{cond}-interval"]] == [("[-1;1]", 2.0)], cond


def test_a_nan_margin_is_a_non_finite_row_before_any_hold(monkeypatch):
    # The hold flags are the least and the largest minimum against the
    # tolerance; a NaN makes both False.  A NaN margin also makes a margin
    # row non-finite, and that row raises before the holds are read.
    monkeypatch.setattr(suites, "ricci_mixed", _synthetic_ricci(lambda r: np.where(r > 0.5, np.nan, 1.0)))
    with pytest.raises(NumericalError, match="non-finite row value"):
        build_energy_report(3.0, 1.0, -1.0, 1.0, 41)


def test_cli_partial_hold_exits_3(monkeypatch, tmp_path):
    monkeypatch.setattr(suites, "ricci_mixed", _cubic_stress((-0.6123, 0.1357, 0.7071), 1.0))
    argv = ["energy", "--r-min", "-1", "--r-max", "1", "--samples", "41"]
    result = compare_reports.run_call(cli.main, argv, str(tmp_path / "report"))
    assert (result["rc"], result["report"]) == (3, None)
    assert result["stderr"].count("\n") == 1
    assert result["stderr"].startswith("lbverify: numerical failure: NEC holds on part of the window")


def test_dec_radial_margin_nonnegative():
    for lam in (0.75, 3.0, 12.0):
        for xi in (0.0, 0.5, 1.0, 2.0):
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 513)
            margins = condition_margins(stress_decompose(ricci_mixed(metric_eval(params, grid))))
            assert float(np.min(margins.dec_r)) >= -1e-9


def test_all_conditions_scanned():
    rows = _energy_rows(3.0, 1.0, -1.0, 1.0, 65)
    assert {check for check in rows if check.endswith("-holds-fraction")} == {
        f"energy-{cond}-holds-fraction" for cond in CONDITIONS
    }


def test_hold_tolerance_follows_the_stress_scale():
    eps = np.finfo(float).eps
    for lam in (1e-12, 3.0, 12.0, 1000.0):
        assert hold_tolerance(lam) == HOLD_TOL
    for lam in (1e5, 1e13, 1e300):
        assert hold_tolerance(lam) == 4.0 * eps * lam
    # Below HOLD_TOL the tolerance is lambda, half the SEC margin 2 lambda.
    for lam in (1e-13, 1e-300):
        assert hold_tolerance(lam) == lam


_SWEEP_LAMBDAS = [float(f"1e{e}") for e in range(-300, 301, 20)] + [
    1e-13, 4e-13, 5e-13, np.nextafter(5e-13, 1.0), np.nextafter(np.nextafter(5e-13, 1.0), 1.0),
    1e-12, 2e-12, 1126.0, 1e5, 1e13,
]


@pytest.mark.parametrize("lam", _SWEEP_LAMBDAS)
def test_each_condition_holds_on_the_whole_window_or_nowhere(lam):
    # NEC, WEC and DEC hold on the whole window and SEC nowhere, for every
    # lambda > 0: the hold floor stays below the SEC margin 2 lambda.
    tol = hold_tolerance(lam)
    for xi in (0.0, 1e-300, 1e-6, 1.0, 1e10, 1e154):
        a = params_from_xi(lam, xi).a
        window = f"[{-2.0 * a:.9g};{2.0 * a:.9g}]"
        rows = _energy_rows(lam, xi, samples=64)
        for cond in CONDITIONS:
            held = float(cond != "SEC")
            assert [value for _, value, _ in rows[f"energy-{cond}-holds-fraction"]] == [held], (cond, xi)
            intervals = [loc for loc, _, _ in rows.get(f"energy-{cond}-interval", [])]
            assert intervals == ([window] if held else []), (cond, xi)
        assert {t for entries in rows.values() for _, _, t in entries} == {tol}, xi


@pytest.mark.parametrize(("lam", "xi"), [(1e5, 0.0), (1e13, 1e-6)])
def test_large_lambda_conditions_hold_on_the_whole_window(lam, xi):
    # The margins that are >= 0 in exact arithmetic round down to -0.66 and
    # -0.88 eps lambda here: below -HOLD_TOL, inside 4 eps lambda.
    rpt = build_energy_report(lam, xi)
    a = params_from_xi(lam, xi).a
    tol = hold_tolerance(lam)
    rows = {(row.check, row.location): row for row in rpt.rows if row.check.startswith("energy-")}
    window = f"[{-2.0 * a:.9g};{2.0 * a:.9g}]"
    fractions = {check: row.value for (check, _), row in rows.items() if check.endswith("-holds-fraction")}
    assert fractions == {f"energy-{cond}-holds-fraction": float(cond != "SEC") for cond in CONDITIONS}
    intervals = sorted((check, loc) for check, loc in rows if check.endswith("-interval"))
    assert intervals == [(f"energy-{cond}-interval", window) for cond in ("DEC", "NEC", "WEC")]
    assert {row.tolerance for row in rows.values()} == {tol}
