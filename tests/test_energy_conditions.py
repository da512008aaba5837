import numpy as np
import pytest

from lbverify import energy_conditions
from lbverify.curvature import alpha_deformation_sample
from lbverify.energy_conditions import (
    CONDITIONS,
    HOLD_TOL,
    FrameStress,
    condition_margins,
    hold_masks,
    hold_tolerance,
    region_scan,
    stress_decompose,
)
from lbverify.model import metric_eval, params_from_xi
from lbverify.scalar_field import phi_prime_sq_constraint
from lbverify.suites import GRID_BLOCK, build_energy_report


def test_trace_identities_random_points():
    rng = np.random.default_rng(24601)
    for _ in range(100):
        lam = float(rng.uniform(0.75, 12.0))
        xi = float(rng.uniform(0.0, 2.0))
        params = params_from_xi(lam, xi)
        r = float(rng.uniform(-params.a, params.a))
        stress = stress_decompose(metric_eval(params, r))
        phi_sq = phi_prime_sq_constraint(metric_eval(params, r), lam)
        assert stress.rho + stress.p_r == pytest.approx(phi_sq, abs=1e-9)
        assert stress.rho + stress.p_phi == pytest.approx(0.0, abs=1e-9)
        assert stress.rho + stress.p_z == pytest.approx(0.0, abs=1e-9)
        total = stress.rho + stress.p_r + stress.p_phi + stress.p_z
        assert total == pytest.approx(-2.0 * lam, abs=1e-8)


def test_transverse_pressures_equal():
    params = params_from_xi(3.0, 1.0)
    grid = np.linspace(-2.0, 2.0, 257)
    stress = stress_decompose(metric_eval(params, grid))
    assert np.max(np.abs(stress.p_phi - stress.p_z)) < 1e-12


def test_vacuum_member_margins():
    params = params_from_xi(3.0, 0.0)
    stress = stress_decompose(metric_eval(params, 0.7))
    margins = condition_margins(stress)
    assert margins.nec_r == pytest.approx(0.0, abs=1e-12)
    assert margins.nec_phi == pytest.approx(0.0, abs=1e-12)
    assert margins.nec_z == pytest.approx(0.0, abs=1e-12)
    assert margins.wec_extra == pytest.approx(3.0, rel=1e-12)
    assert margins.sec == pytest.approx(-6.0, rel=1e-12)
    assert margins.dec_r == pytest.approx(0.0, abs=1e-12)


def test_radial_margin_at_origin_unit_xi():
    params = params_from_xi(3.0, 1.0)
    stress = stress_decompose(metric_eval(params, 0.0))
    assert stress.rho + stress.p_r == pytest.approx(6.0, abs=1e-9)
    margins = condition_margins(stress)
    assert margins.sec == pytest.approx(-6.0, abs=1e-9)


def test_margin_arithmetic():
    stress = FrameStress(rho=1.0, p_r=1.0, p_phi=-1.0, p_z=-1.0)
    margins = condition_margins(stress)
    assert (margins.nec_r, margins.nec_phi, margins.nec_z) == (2.0, 0.0, 0.0)
    assert margins.sec == 0.0
    assert (margins.dec_r, margins.dec_phi, margins.dec_z) == (0.0, 0.0, 0.0)
    held = hold_masks(margins, HOLD_TOL)
    assert bool(held["NEC"])
    assert bool(held["SEC"])
    assert bool(held["DEC"])


def test_z_margins_shared_only_when_p_z_is_p_phi():
    params = params_from_xi(3.0, 1.0)
    r = np.linspace(-2.0, 2.0, 65)
    shared = condition_margins(stress_decompose(metric_eval(params, r)))
    assert np.array_equal(shared.nec_z, shared.nec_phi) and np.array_equal(shared.dec_z, shared.dec_phi)
    # Distinct axes keep z margins of their own, and the minima read them:
    # on this non-solution only the z margins fail.
    r = np.linspace(-2.0, -0.1, 65)
    stress = stress_decompose(alpha_deformation_sample(params, (0.2, -0.5, 0.3), r, "printed"))
    margins = condition_margins(stress)
    assert np.array_equal(margins.nec_z, stress.rho + stress.p_z)
    assert np.array_equal(margins.dec_z, stress.rho - np.abs(stress.p_z))
    assert np.all(np.minimum(margins.nec_r, margins.nec_phi) >= -HOLD_TOL)
    assert np.all(np.minimum(margins.dec_r, margins.dec_phi) >= -HOLD_TOL)
    held = hold_masks(margins, HOLD_TOL)
    assert not held["NEC"].any() and not held["DEC"].any()


def test_sec_margin_constant_in_radius():
    params = params_from_xi(3.0, 1.0)
    grid = np.linspace(-2.0, 2.0, 513)
    margins = condition_margins(stress_decompose(metric_eval(params, grid)))
    assert np.max(np.abs(margins.sec + 6.0)) < 1e-8


def _scan(params, grid):
    # Through the module attribute, so a monkeypatched stress applies here too.
    margins = condition_margins(energy_conditions.stress_decompose(metric_eval(params, grid)))
    return region_scan(params, grid, hold_masks(margins, hold_tolerance(params.lam)))


def test_region_scan_vacuum_member():
    params = params_from_xi(3.0, 0.0)
    intervals = _scan(params, np.linspace(-2.0, 2.0, 257))
    for cond in ("NEC", "WEC", "DEC"):
        assert len(intervals[cond]) == 1
        lo, hi = intervals[cond][0]
        assert (lo, hi) == (-2.0, 2.0)
    assert intervals["SEC"] == []


def _cubic_stress(roots, sign):
    # The family's own margins never change sign inside a window, so a
    # synthetic stress with rho = +/-(r - r1)(r - r2)(r - r3) - HOLD_TOL and
    # zero pressures stands in: every condition then holds exactly where the
    # cubic is >= 0, with edges at its roots.
    def synthetic(sample):
        r = np.asarray(sample.r, dtype=float)
        rho = sign * (r - roots[0]) * (r - roots[1]) * (r - roots[2]) - HOLD_TOL
        return FrameStress(rho=rho, p_r=0.0 * r, p_phi=0.0 * r, p_z=0.0 * r)

    return synthetic


def _assert_cubic_intervals(intervals, expected):
    for cond in CONDITIONS:
        assert len(intervals[cond]) == len(expected), cond
        for (lo, hi), (lo_ref, hi_ref) in zip(intervals[cond], expected):
            for edge, ref in ((lo, lo_ref), (hi, hi_ref)):
                if abs(ref) == 1.0:
                    assert edge == ref  # a run touching the window keeps the grid endpoint
                else:
                    assert abs(edge - ref) <= 1e-12, (cond, edge, ref)


def test_region_scan_refines_interior_edges(monkeypatch):
    roots = (-0.6123, 0.1357, 0.7071)
    params = params_from_xi(3.0, 1.0)
    for sign, expected in (
        (1.0, [(roots[0], roots[1]), (roots[2], 1.0)]),
        (-1.0, [(-1.0, roots[0]), (roots[1], roots[2])]),
    ):
        monkeypatch.setattr(energy_conditions, "stress_decompose", _cubic_stress(roots, sign))
        _assert_cubic_intervals(_scan(params, np.linspace(-1.0, 1.0, 41)), expected)


def test_region_scan_reads_masks_assembled_block_by_block(monkeypatch):
    # The energy report evaluates its grid in GRID_BLOCK blocks and joins
    # the blocks' hold masks.  On 2 blocks + 808 points of [-1, 1] the block
    # boundaries sit at r = -0.0897 and 0.8206: one holding run crosses each,
    # and the runs of the two signs touch both window edges.
    roots = (-0.6123, 0.1357, 0.9071)
    params = params_from_xi(3.0, 1.0)
    grid = np.linspace(-1.0, 1.0, 2 * GRID_BLOCK + 808)
    for sign, expected, boundary in (
        (1.0, [(roots[0], roots[1]), (roots[2], 1.0)], GRID_BLOCK),
        (-1.0, [(-1.0, roots[0]), (roots[1], roots[2])], 2 * GRID_BLOCK),
    ):
        monkeypatch.setattr(energy_conditions, "stress_decompose", _cubic_stress(roots, sign))
        blocks = [
            hold_masks(condition_margins(energy_conditions.stress_decompose(metric_eval(params, r))), HOLD_TOL)
            for r in np.split(grid, [GRID_BLOCK, 2 * GRID_BLOCK])
        ]
        held = {cond: np.concatenate([block[cond] for block in blocks]) for cond in CONDITIONS}
        for cond in CONDITIONS:
            assert held[cond][boundary - 1] and held[cond][boundary], cond
        intervals = region_scan(params, grid, held)
        assert intervals == _scan(params, grid)
        _assert_cubic_intervals(intervals, expected)


def test_region_scan_degenerate_window():
    params = params_from_xi(3.0, 1.0)
    intervals = _scan(params, np.full(2, 0.5))
    for cond in ("NEC", "WEC", "DEC"):
        assert intervals[cond] == [(0.5, 0.5)]
    assert intervals["SEC"] == []


def test_dec_radial_margin_nonnegative():
    for lam in (0.75, 3.0, 12.0):
        for xi in (0.0, 0.5, 1.0, 2.0):
            params = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 513)
            margins = condition_margins(stress_decompose(metric_eval(params, grid)))
            assert float(np.min(margins.dec_r)) >= -1e-9


def test_all_conditions_scanned():
    params = params_from_xi(3.0, 1.0)
    intervals = _scan(params, np.linspace(-1.0, 1.0, 65))
    assert set(intervals) == set(CONDITIONS)


def test_hold_tolerance_follows_the_stress_scale():
    eps = np.finfo(float).eps
    for lam in (1e-12, 3.0, 12.0, 1000.0):
        assert hold_tolerance(lam) == HOLD_TOL
    for lam in (1e5, 1e13, 1e300):
        assert hold_tolerance(lam) == 4.0 * eps * lam


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
