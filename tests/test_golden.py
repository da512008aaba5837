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
    python -m lbverify congruence --lambda 3 --xi 0.5 --e-tilde 2 --samples 9108 --out tests/golden/congruence-blocks.csv
    python -m lbverify sweep --lambda 3:12:2 --xi 0:0.5:2 --e-tilde 2:3:2 --samples 9000 --out tests/golden/sweep-blocks.csv
    python -m lbverify tortoise --lambda 3 --xi 0 --samples 9000 --out tests/golden/tortoise-vacuum-blocks.csv
    python -m lbverify tortoise --lambda 3 --xi 0.5 --samples 9000 --out tests/golden/tortoise-blocks.csv

The first six are the README examples; the congruence edge cases have zero
admissible points and an extra focusing-polynomial b.  The next three were
added by a later commit, from the code of its parent: ``tortoise-vacuum`` is
the vacuum member's series at q = -inf, ``tortoise-window`` has an
asymmetric window and a quadrature-channel stride of 3, and
``verify-vacuum`` is the vacuum member's verify report, with the
``ricci-dual-path`` radii at a = 2.  The last three were added the same
way: ``energy-vacuum-window`` is the vacuum member on an asymmetric
two-point window (the smallest energy grid, whose one interval per holding
condition is the window itself), ``sweep-subunit`` has rows with E < 1 and
so no null-rate row, and a vacuum member on the sweep's residual and stress
path, and ``congruence-vacuum`` is the only configuration with the
``null-rate-exponential-reduction`` row.  ``congruence-vacuum`` was
re-recorded, with its command above, by the commit after which ``--b 0``
adds no second ``focusing-roots-found[b=0]`` row.  The
``*-blocks`` three were recorded by the parent of the commit that evaluates
dense grids in ``GRID_BLOCK`` blocks (now ``model.GRID_BLOCK``): at 9000 samples they span two
full blocks and a remainder, so every row folded across blocks (including
the energy hold masks) crosses a block boundary.  The huge-xi and tiny-xi
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
stability report.  The last four were recorded the same way by the parent
of the commit that streams every report's grid in ``GRID_BLOCK`` blocks:
``congruence-blocks`` spans three blocks, its first 16 null-rate violations
sit at grid indices 4081-4096, across the first block edge, and its middle
admissible radius at index 5080, in the second block; ``sweep-blocks`` folds
each member's residual rows and its E cells' null-rate counts across three
blocks; both tortoise reports take every 281st radius of a multi-block
grid.  The four xi = 0 tortoise and verify goldens were re-recorded, with
their commands above, by the commit that deletes the two xi = 0 rows that
read 0 by construction, ``tortoise-exponential-form`` and ``noether-zero``.
Every configuration exits 0.  A report matches its
golden file when the (check, location, verdict) sequence is identical and
each value agrees within ``compare_reports.slack(ref, ref_tolerance)``,
REL * |ref| + ref_tolerance: array and scalar evaluation orders may move the
last digits, and a residual row only asserts |value| <= tolerance.  Each
tolerance agrees within ``compare_reports.slack(ref_tolerance)``, where
``compare_reports`` itself asks for an identical tolerance column: a
computed tolerance may move by an ulp at another SIMD dispatch level.
"""

import os
import subprocess
import sys
from pathlib import Path

import compare_reports
import pytest

from lbverify.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"

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
    "congruence-blocks": ["congruence", "--lambda", "3", "--xi", "0.5", "--e-tilde", "2", "--samples", "9108"],
    "sweep-blocks": ["sweep", "--lambda", "3:12:2", "--xi", "0:0.5:2", "--e-tilde", "2:3:2", "--samples", "9000"],
    "tortoise-vacuum-blocks": ["tortoise", "--lambda", "3", "--xi", "0", "--samples", "9000"],
    "tortoise-blocks": ["tortoise", "--lambda", "3", "--xi", "0.5", "--samples", "9000"],
}


def _assert_same_rows(rows, ref_rows, context):
    """Identical (check, location, verdict) rows, with each tolerance and value within the slack of ``ref_rows``."""
    assert [(c, loc, v) for c, loc, _, _, v in rows] == [(c, loc, v) for c, loc, _, _, v in ref_rows], context
    for (check, _, value, tol, _), (_, _, ref_value, ref_tol, _) in zip(rows, ref_rows):
        assert abs(tol - ref_tol) <= compare_reports.slack(ref_tol), (context, check, tol, ref_tol)
        assert abs(value - ref_value) <= compare_reports.slack(ref_value, ref_tol), (context, check, value, ref_value)


def test_every_golden_file_has_a_config():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, tmp_path):
    # ``parse`` reads both reports and raises on one without its header line.
    result = compare_reports.run_call(main, CONFIGS[name], str(tmp_path / "report"))
    assert (result["rc"], result["stderr"]) == (0, "")
    golden = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    (_, rows), (_, ref_rows) = (compare_reports.parse(text, CONFIGS[name]) for text in (result["report"], golden))
    _assert_same_rows(rows, ref_rows, name)


def test_golden_calls_hold_at_a_lower_simd_dispatch_level():
    # numpy picks its exp, log1p, power and cbrt kernels by CPU feature at
    # run time, so another dispatch level may move the last bits of a value.
    # A child with every dispatch target this host enables switched off
    # gives the same exit codes, stderr and (check, location, verdict) rows
    # as one at the native level, with values and tolerances inside the
    # golden slack.  Only the child's environment changes.
    from numpy._core import _multiarray_umath as umath

    enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    if not enabled:
        pytest.skip("numpy dispatches to no target above its baseline on this host")
    lower = {"NPY_DISABLE_CPU_FEATURES": " ".join(enabled)}
    probe = subprocess.run(
        [sys.executable, "-c", "from numpy._core import _multiarray_umath as m; print(any(m.__cpu_features__[n] "
         f"for n in {enabled!r}))"],
        env=dict(os.environ, **lower), capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == "False", probe
    calls = list(CONFIGS.values())
    children = [compare_reports.start(ROOT, calls), compare_reports.start(ROOT, calls, lower)]
    (native, _), (reduced, _) = (compare_reports.finish(child, ROOT) for child in children)
    for argv, one, other in zip(calls, native, reduced):
        assert (one["rc"], one["stderr"]) == (other["rc"], other["stderr"]), argv
        (_, rows), (_, low_rows) = (compare_reports.parse(result["report"], argv) for result in (one, other))
        _assert_same_rows(low_rows, rows, argv)
