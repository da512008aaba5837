import math

import numpy as np
import pytest

from lbverify import model
from lbverify.errors import ParameterDomainError
from lbverify.model import params_from_xi
from lbverify.stability import (
    expected_eigenvalues,
    fixed_point,
    jacobian,
    spectrum,
    stationarity_residuals,
    verdict,
)
from lbverify.suites import build_stability_report


def _params(lam):
    return params_from_xi(lam, 0.0)


def test_fixed_point_unit_length():
    assert fixed_point(_params(3.0)) == (2.0, 2.0, 2.0)


def test_fixed_point_rejects_bad_lambda():
    # lambda is validated by params_from_xi, before any stationary point exists.
    with pytest.raises(ParameterDomainError):
        fixed_point(_params(-3.0))


@pytest.mark.parametrize("lam", (math.inf, math.nan, 0.0, -1.0, 1e-320))
@pytest.mark.parametrize(
    "fn",
    (lambda lam: fixed_point(_params(lam)), lambda lam: jacobian(_params(lam)), build_stability_report),
    ids=("fixed_point", "jacobian", "build_stability_report"),
)
def test_lambda_outside_the_model_domain_is_rejected(fn, lam):
    # The model's rule: lambda finite and > 0, with a = sqrt(3/lambda) finite.
    # The layer functions take validated parameters: params_from_xi raises.
    with pytest.raises(ParameterDomainError):
        fn(lam)


def test_stability_report_validates_lambda_once(monkeypatch):
    calls = []
    original = model.params_from_xi

    def counting(lam, xi):
        calls.append((lam, xi))
        return original(lam, xi)

    monkeypatch.setattr(model, "params_from_xi", counting)
    build_stability_report(3.0)
    assert calls == [(3.0, 0.0)]


def test_both_stationarity_conditions():
    params = _params(3.0)
    res_linear, res_quadratic = stationarity_residuals(params, fixed_point(params))
    # x_i sum x_j = 2 * 6 = 12 = 4 lambda and sum x_j^2 = 12 = 4 lambda.
    assert res_linear == 0.0
    assert res_quadratic == 0.0


def test_eigenvalues_unit_length():
    eigs = spectrum(_params(3.0))
    expected = (-6.0, -3.0, -3.0)
    for eig, exp in zip(eigs, expected):
        assert eig.real == pytest.approx(exp, abs=1e-10)
        assert abs(eig.imag) < 1e-12
    assert verdict(eigs) == "stable"


def test_eigenvalues_scale_with_inverse_length():
    eigs = spectrum(_params(0.75))  # a = 2
    expected = (-3.0, -1.5, -1.5)
    for eig, exp in zip(eigs, expected):
        assert eig.real == pytest.approx(exp, abs=1e-10)


def test_spectrum_scaling_law():
    # eigenvalues(scale * lambda) = sqrt(scale) * eigenvalues(lambda).
    base = expected_eigenvalues(_params(2.0))
    for scale in (0.5, 4.0, 9.0):
        scaled = expected_eigenvalues(_params(scale * 2.0))
        for s, b in zip(scaled, base):
            assert s == pytest.approx(math.sqrt(scale) * b, rel=1e-13)
        for eig, exp in zip(spectrum(_params(scale * 2.0)), scaled):
            assert eig.real == pytest.approx(exp, abs=1e-10)


def test_jacobian_symmetric_real_spectrum():
    jac = jacobian(_params(5.0))
    assert np.array_equal(jac, jac.T)
    assert max(abs(e.imag) for e in spectrum(_params(5.0))) < 1e-12


def test_ones_vector_eigvector():
    jac = jacobian(_params(3.0))
    ones = np.ones(3)
    assert np.allclose(jac @ ones, -6.0 * ones, rtol=0, atol=1e-14)


def test_stable_for_every_lambda():
    for lam in (0.01, 0.75, 1.0, 3.0, 12.0, 144.0):
        assert verdict(spectrum(_params(lam))) == "stable"


@pytest.mark.parametrize(
    "eigs, expected",
    [
        ((-3.0 + 0j, -1e-300 + 2j, -1e-300 - 2j), "stable"),
        ((-6.0 + 0j, -0.0 + 0j, 1j), "marginal"),
        ((-6.0 + 0j, 5e-324 + 0j, -3.0 + 0j), "unstable"),
    ],
    ids=("negative", "zero", "positive"),
)
def test_verdict_reads_the_largest_real_part(eigs, expected):
    # No lambda of the model reaches the last two: every spectrum is negative.
    assert verdict(eigs) == expected


@pytest.mark.parametrize("lam", (1e-300, 0.75, 3.0, 1e300))
def test_lyapunov_row_reads_the_verdict(lam):
    rows = {row.check: row for row in build_stability_report(lam).rows}
    row = rows["lyapunov-verdict"]
    assert row.location == f"verdict={verdict(spectrum(_params(lam)))}" == "verdict=stable"
    assert row.verdict == "pass"


def test_report_carries_missing_term_note():
    rows = [row for row in build_stability_report(3.0).rows if row.check == "linearized-profile-note"]
    assert len(rows) == 1 and "omits" in rows[0].location
    assert rows[0].verdict == "discrepancy-logged"

