import math

import numpy as np
import pytest

from lbverify.errors import ParameterDomainError
from lbverify.stability import (
    expected_eigenvalues,
    fixed_point,
    jacobian,
    jacobian_eigen,
    stationarity_residuals,
)


def test_fixed_point_unit_length():
    assert fixed_point(3.0) == (2.0, 2.0, 2.0)


def test_fixed_point_rejects_bad_lambda():
    with pytest.raises(ParameterDomainError):
        fixed_point(-3.0)


def test_both_stationarity_conditions():
    point = fixed_point(3.0)
    res_linear, res_quadratic = stationarity_residuals(point, 3.0)
    # x_i sum x_j = 2 * 6 = 12 = 4 lambda and sum x_j^2 = 12 = 4 lambda.
    assert res_linear == 0.0
    assert res_quadratic == 0.0


def test_eigenvalues_unit_length():
    report = jacobian_eigen(3.0)
    expected = (-6.0, -3.0, -3.0)
    for eig, exp in zip(report.eigenvalues, expected):
        assert eig.real == pytest.approx(exp, abs=1e-10)
        assert abs(eig.imag) < 1e-12
    assert report.verdict == "stable"


def test_eigenvalues_scale_with_inverse_length():
    report = jacobian_eigen(0.75)  # a = 2
    expected = (-3.0, -1.5, -1.5)
    for eig, exp in zip(report.eigenvalues, expected):
        assert eig.real == pytest.approx(exp, abs=1e-10)


def test_spectrum_scaling_law():
    # eigenvalues(scale * lambda) = sqrt(scale) * eigenvalues(lambda).
    base = expected_eigenvalues(2.0)
    for scale in (0.5, 4.0, 9.0):
        scaled = expected_eigenvalues(scale * 2.0)
        for s, b in zip(scaled, base):
            assert s == pytest.approx(math.sqrt(scale) * b, rel=1e-13)
        report = jacobian_eigen(scale * 2.0)
        for eig, exp in zip(report.eigenvalues, scaled):
            assert eig.real == pytest.approx(exp, abs=1e-10)


def test_jacobian_symmetric_real_spectrum():
    jac = jacobian(5.0)
    assert np.array_equal(jac, jac.T)
    report = jacobian_eigen(5.0)
    assert max(abs(e.imag) for e in report.eigenvalues) < 1e-12


def test_ones_vector_eigvector():
    jac = jacobian(3.0)
    ones = np.ones(3)
    assert np.allclose(jac @ ones, -6.0 * ones, rtol=0, atol=1e-14)


def test_stable_for_every_lambda():
    for lam in (0.01, 0.75, 1.0, 3.0, 12.0, 144.0):
        assert jacobian_eigen(lam).verdict == "stable"


def test_report_carries_missing_term_note():
    report = jacobian_eigen(3.0)
    assert any("omits" in note for note in report.notes)

