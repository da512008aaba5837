"""Golden reports: refactors must keep every row, verdict and exit code.

Each CSV under ``tests/golden/`` is the stdout of one CLI configuration,
written by the commit that introduced this test:

    python -m lbverify verify --lambda 3 --xi 1 --out tests/golden/verify.csv
    python -m lbverify stability --lambda 3 --out tests/golden/stability.csv
    python -m lbverify energy --lambda 3 --xi 1 --out tests/golden/energy.csv
    python -m lbverify congruence --lambda 3 --xi 1 --e-tilde 2 --out tests/golden/congruence.csv
    python -m lbverify tortoise --lambda 3 --xi 0.5 --out tests/golden/tortoise.csv
    python -m lbverify sweep --lambda 0.75:12:4 --xi 0:2:5 --e-tilde 2 --out tests/golden/sweep.csv
    python -m lbverify congruence --e-tilde 1 --xi 5 --samples 64 --out tests/golden/congruence-no-admissible.csv
    python -m lbverify congruence --xi 0.5 --e-tilde 2 --b 0.3 --out tests/golden/congruence-b.csv

The first six are the README examples; the congruence edge cases have zero
admissible points and an extra focusing-polynomial b.  Every configuration
exits 0.  A report matches its golden file when the (check, location,
verdict) sequence is identical and each value agrees within
``REL * |ref| + ref_tolerance``: array and scalar evaluation orders may move
the last digits, and a residual row only asserts |value| <= tolerance.
"""

import csv
import io
from pathlib import Path

import pytest

from lbverify.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REL = 1e-9

CONFIGS = {
    "verify": ["verify", "--lambda", "3", "--xi", "1"],
    "stability": ["stability", "--lambda", "3"],
    "energy": ["energy", "--lambda", "3", "--xi", "1"],
    "congruence": ["congruence", "--lambda", "3", "--xi", "1", "--e-tilde", "2"],
    "tortoise": ["tortoise", "--lambda", "3", "--xi", "0.5"],
    "sweep": ["sweep", "--lambda", "0.75:12:4", "--xi", "0:2:5", "--e-tilde", "2"],
    "congruence-no-admissible": ["congruence", "--e-tilde", "1", "--xi", "5", "--samples", "64"],
    "congruence-b": ["congruence", "--xi", "0.5", "--e-tilde", "2", "--b", "0.3"],
}


def _rows(text: str) -> list[list[str]]:
    table = list(csv.reader(io.StringIO(text)))
    assert table[0] == ["check", "location", "value", "tolerance", "verdict"]
    return table[1:]


def test_every_golden_file_has_a_config():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main([*CONFIGS[name], "--out", str(out)]) == 0
    rows = _rows(out.read_text(encoding="utf-8"))
    ref_rows = _rows((GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8"))
    assert [(r[0], r[1], r[4]) for r in rows] == [(r[0], r[1], r[4]) for r in ref_rows]
    for (check, _, value, tol, _), (_, _, ref_value, ref_tol, _) in zip(rows, ref_rows):
        assert abs(float(tol) - float(ref_tol)) <= REL * abs(float(ref_tol)), check
        slack = REL * abs(float(ref_value)) + float(ref_tol)
        assert abs(float(value) - float(ref_value)) <= slack, (check, value, ref_value)
