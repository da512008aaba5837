import numpy as np
import pytest

from lbverify import energy_conditions
from lbverify.energy_conditions import (
    CONDITIONS,
    HOLD_TOL,
    FrameStress,
    condition_margins,
    holds,
    region_scan,
    stress_decompose,
)
from lbverify.model import metric_eval, params_from_xi
from lbverify.scalar_field import phi_prime_sq_constraint


def test_trace_identities_random_points():
    rng = np.random.default_rng(24601)
    for _ in range(100):
        lam = float(rng.uniform(0.75, 12.0))
        xi = float(rng.uniform(0.0, 2.0))
        params, _ = params_from_xi(lam, xi)
        r = float(rng.uniform(-params.a, params.a))
        stress = stress_decompose(params, r)
        phi_sq = phi_prime_sq_constraint(metric_eval(params, r), lam)
        assert stress.rho + stress.p_r == pytest.approx(phi_sq, abs=1e-9)
        assert stress.rho + stress.p_phi == pytest.approx(0.0, abs=1e-9)
        assert stress.rho + stress.p_z == pytest.approx(0.0, abs=1e-9)
        total = stress.rho + stress.p_r + stress.p_phi + stress.p_z
        assert total == pytest.approx(-2.0 * lam, abs=1e-8)


def test_transverse_pressures_equal():
    params, _ = params_from_xi(3.0, 1.0)
    grid = np.linspace(-2.0, 2.0, 257)
    stress = stress_decompose(params, grid)
    assert np.max(np.abs(stress.p_phi - stress.p_z)) < 1e-12


def test_vacuum_member_margins():
    params, _ = params_from_xi(3.0, 0.0)
    stress = stress_decompose(params, 0.7)
    margins = condition_margins(stress)
    assert margins.nec_r == pytest.approx(0.0, abs=1e-12)
    assert margins.nec_phi == pytest.approx(0.0, abs=1e-12)
    assert margins.nec_z == pytest.approx(0.0, abs=1e-12)
    assert margins.wec_extra == pytest.approx(3.0, rel=1e-12)
    assert margins.sec == pytest.approx(-6.0, rel=1e-12)
    assert margins.dec_r == pytest.approx(0.0, abs=1e-12)


def test_radial_margin_at_origin_unit_xi():
    params, _ = params_from_xi(3.0, 1.0)
    stress = stress_decompose(params, 0.0)
    assert stress.rho + stress.p_r == pytest.approx(6.0, abs=1e-9)
    margins = condition_margins(stress)
    assert margins.sec == pytest.approx(-6.0, abs=1e-9)


def test_margin_arithmetic():
    stress = FrameStress(rho=1.0, p_r=1.0, p_phi=-1.0, p_z=-1.0)
    margins = condition_margins(stress)
    assert (margins.nec_r, margins.nec_phi, margins.nec_z) == (2.0, 0.0, 0.0)
    assert margins.sec == 0.0
    assert (margins.dec_r, margins.dec_phi, margins.dec_z) == (0.0, 0.0, 0.0)
    assert bool(holds(margins, "NEC"))
    assert bool(holds(margins, "SEC"))
    assert bool(holds(margins, "DEC"))


def test_sec_margin_constant_in_radius():
    params, _ = params_from_xi(3.0, 1.0)
    grid = np.linspace(-2.0, 2.0, 513)
    margins = condition_margins(stress_decompose(params, grid))
    assert np.max(np.abs(margins.sec + 6.0)) < 1e-8


def test_region_scan_vacuum_member():
    params, _ = params_from_xi(3.0, 0.0)
    intervals = region_scan(params, -2.0, 2.0, 257)
    for cond in ("NEC", "WEC", "DEC"):
        assert len(intervals[cond]) == 1
        lo, hi = intervals[cond][0]
        assert (lo, hi) == (-2.0, 2.0)
    assert intervals["SEC"] == []


def test_region_scan_refines_interior_edges(monkeypatch):
    # The family's own margins never change sign inside a window, so a
    # synthetic stress with rho = +/-(r - r1)(r - r2)(r - r3) - HOLD_TOL and
    # zero pressures stands in: every condition then holds exactly where the
    # cubic is >= 0, with edges at its roots.
    roots = (-0.6123, 0.1357, 0.7071)
    params, _ = params_from_xi(3.0, 1.0)
    for sign, expected in (
        (1.0, [(roots[0], roots[1]), (roots[2], 1.0)]),
        (-1.0, [(-1.0, roots[0]), (roots[1], roots[2])]),
    ):
        def synthetic(_params, r, sign=sign):
            r = np.asarray(r, dtype=float)
            rho = sign * (r - roots[0]) * (r - roots[1]) * (r - roots[2]) - HOLD_TOL
            return FrameStress(rho=rho, p_r=0.0 * r, p_phi=0.0 * r, p_z=0.0 * r)

        monkeypatch.setattr(energy_conditions, "stress_decompose", synthetic)
        intervals = region_scan(params, -1.0, 1.0, 41)
        for cond in CONDITIONS:
            assert len(intervals[cond]) == len(expected), cond
            for (lo, hi), (lo_ref, hi_ref) in zip(intervals[cond], expected):
                for edge, ref in ((lo, lo_ref), (hi, hi_ref)):
                    if abs(ref) == 1.0:
                        assert edge == ref  # a run touching the window keeps the grid endpoint
                    else:
                        assert abs(edge - ref) <= 1e-12, (cond, edge, ref)


def test_region_scan_degenerate_window():
    params, _ = params_from_xi(3.0, 1.0)
    intervals = region_scan(params, 0.5, 0.5, 2)
    for cond in ("NEC", "WEC", "DEC"):
        assert intervals[cond] == [(0.5, 0.5)]
    assert intervals["SEC"] == []


def test_region_scan_rejects_single_sample():
    params, _ = params_from_xi(3.0, 1.0)
    with pytest.raises(Exception):
        region_scan(params, -1.0, 1.0, 1)


def test_dec_radial_margin_nonnegative():
    for lam in (0.75, 3.0, 12.0):
        for xi in (0.0, 0.5, 1.0, 2.0):
            params, _ = params_from_xi(lam, xi)
            grid = np.linspace(-2.0 * params.a, 2.0 * params.a, 513)
            margins = condition_margins(stress_decompose(params, grid))
            assert float(np.min(margins.dec_r)) >= -1e-9


def test_all_conditions_scanned():
    params, _ = params_from_xi(3.0, 1.0)
    intervals = region_scan(params, -1.0, 1.0, 65)
    assert set(intervals) == set(CONDITIONS)
