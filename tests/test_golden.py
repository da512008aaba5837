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
    python -m lbverify tortoise --lambda 3 --xi 0 --out tests/golden/tortoise-vacuum.csv
    python -m lbverify tortoise --lambda 3 --xi 1 --samples 100 --r-min -0.2 --r-max 0.7 --out tests/golden/tortoise-window.csv
    python -m lbverify verify --lambda 0.75 --xi 0 --out tests/golden/verify-vacuum.csv
    python -m lbverify energy --lambda 12 --xi 0 --r-min -0.3 --r-max 0.9 --samples 2 --out tests/golden/energy-vacuum-window.csv
    python -m lbverify sweep --lambda 3 --xi 0:1:2 --e-tilde 0.5:2:2 --out tests/golden/sweep-subunit.csv
    python -m lbverify congruence --lambda 3 --xi 0 --e-tilde 3 --b 0 --out tests/golden/congruence-vacuum.csv
    python -m lbverify verify --lambda 3 --xi 1 --samples 9000 --out tests/golden/verify-blocks.csv
    python -m lbverify verify --lambda 0.75 --xi 0 --samples 9000 --out tests/golden/verify-vacuum-blocks.csv
    python -m lbverify energy --lambda 12 --xi 0.5 --samples 9000 --out tests/golden/energy-blocks.csv
    python -m lbverify verify --lambda 3 --xi 1e154 --out tests/golden/verify-huge-xi.csv
    python -m lbverify energy --lambda 3 --xi 1e154 --out tests/golden/energy-huge-xi.csv
    python -m lbverify verify --lambda 3 --xi 1e-300 --out tests/golden/verify-tiny-xi.csv
    python -m lbverify energy --lambda 3 --xi 1e10 --out tests/golden/energy-large-xi.csv
    python -m lbverify stability --lambda 1e-300 --out tests/golden/stability-tiny-lambda.csv

The first six are the README examples; the congruence edge cases have zero
admissible points and an extra focusing-polynomial b.  The next three were
added by a later commit, from the code of its parent: ``tortoise-vacuum`` is
the only configuration with the ``tortoise-exponential-form`` row,
``tortoise-window`` has an asymmetric window and a quadrature-channel stride
of 3, and ``verify-vacuum`` has the ``noether-zero`` row and the
``ricci-dual-path`` stencil at a = 2.  The last three were added the same
way: ``energy-vacuum-window`` is the vacuum member on an asymmetric
two-point window (the smallest energy grid, whose one interval per holding
condition is the window itself), ``sweep-subunit`` has rows with E < 1 and
so no null-rate row, and a vacuum member on the sweep's residual and stress
path, and ``congruence-vacuum`` is the only configuration with the
``null-rate-exponential-reduction`` row.  ``congruence-vacuum`` was
re-recorded, with its command above, by the commit after which ``--b 0``
adds no second ``focusing-roots-found[b=0]`` row.  The
``*-blocks`` three were recorded by the parent of the commit that evaluates
dense grids in ``suites.GRID_BLOCK`` blocks: at 9000 samples they span two
full blocks and a remainder, so every row folded across blocks (including
``noether-zero`` and the energy hold masks) crosses a block boundary.  The huge-xi and tiny-xi
three were recorded, the same way, by the parent of the commit that computes
each model quantity once per dense block: at xi = 1e154 w is composed through
log|xi| and q = 2kr + 2 log|xi| reaches about +721, at xi = 1e-300 it reaches
about -1400, so they pin both far tails of f.  ``energy-large-xi`` was
recorded the same way by the parent of the commit that computes the frame
stresses from mixed Ricci components: there e^u runs from about 4e11 to 1e15
on the window, so it pins the stress rows where the covariant route carried
the rounding of e^u.  ``stability-tiny-lambda`` was recorded the same way
by the parent of the commit that reads the stability verdict from one
spectrum rule: at lambda = 1e-300, a is about 1.7e150 and
``stationarity-linear`` is the subnormal 6.63e-316, the float edge of the
stability report.  Every configuration exits 0.  A report matches its
golden file when the (check, location, verdict) sequence is identical and each value agrees within
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
    "tortoise-vacuum": ["tortoise", "--lambda", "3", "--xi", "0"],
    "tortoise-window": [
        "tortoise", "--lambda", "3", "--xi", "1", "--samples", "100", "--r-min", "-0.2", "--r-max", "0.7"
    ],
    "verify-vacuum": ["verify", "--lambda", "0.75", "--xi", "0"],
    "energy-vacuum-window": [
        "energy", "--lambda", "12", "--xi", "0", "--r-min", "-0.3", "--r-max", "0.9", "--samples", "2"
    ],
    "sweep-subunit": ["sweep", "--lambda", "3", "--xi", "0:1:2", "--e-tilde", "0.5:2:2"],
    "congruence-vacuum": ["congruence", "--lambda", "3", "--xi", "0", "--e-tilde", "3", "--b", "0"],
    "verify-blocks": ["verify", "--lambda", "3", "--xi", "1", "--samples", "9000"],
    "verify-vacuum-blocks": ["verify", "--lambda", "0.75", "--xi", "0", "--samples", "9000"],
    "energy-blocks": ["energy", "--lambda", "12", "--xi", "0.5", "--samples", "9000"],
    "verify-huge-xi": ["verify", "--lambda", "3", "--xi", "1e154"],
    "energy-huge-xi": ["energy", "--lambda", "3", "--xi", "1e154"],
    "verify-tiny-xi": ["verify", "--lambda", "3", "--xi", "1e-300"],
    "energy-large-xi": ["energy", "--lambda", "3", "--xi", "1e10"],
    "stability-tiny-lambda": ["stability", "--lambda", "1e-300"],
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
