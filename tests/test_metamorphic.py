"""Metamorphic relations of the solution family at report level.

M3, lambda-scale: (lambda, r) -> (c lambda, r / sqrt(c)) maps the family
onto itself.  With lambda = 3 * 4^k the de Sitter length a = sqrt(3/lambda)
is 2^-k, so every radius of a default window, and every stencil step (a
fixed fraction of a), scales by an exact power of two.  Rows on
dimensionless quantities then reproduce their k = 0 values bit for bit, and
a row on a rate scales by exactly 2^k.
"""

import pytest

from lbverify import suites

SCALE_FREE_ROWS = (
    "tortoise-derivative-identity",
    "potential-gradient-covector",
    "rate-chain-rule-rel",
    "four-velocity-normalization",
)


def _values(lam, xi, e_tilde):
    rows = suites.build_congruence_report(lam, xi, e_tilde).rows + suites.build_tortoise_report(lam, xi).rows
    return {row.check: row.value for row in rows}


@pytest.mark.parametrize("xi, e_tilde", [(0.5, 2.0), (1.3, 1.7)])
@pytest.mark.parametrize("k", [-10, -3, 3, 10, 20])
def test_lambda_scale_rows_are_bitwise_covariant(k, xi, e_tilde):
    base = _values(3.0, xi, e_tilde)
    scaled = _values(3.0 * 4.0**k, xi, e_tilde)
    for check in SCALE_FREE_ROWS:
        assert scaled[check] == base[check], check
    # theta is a rate, 1/length: it scales by 1/a = 2^k.
    assert scaled["expansion-covariant-divergence"] * 2.0**-k == base["expansion-covariant-divergence"]
    assert scaled["timelike-admissible-points"] == base["timelike-admissible-points"] > 0.0
