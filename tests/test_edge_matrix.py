"""``tools/edge_matrix.py`` reproduces ``tests/edge/matrix.txt``: the exit
code, stderr line and failing checks of every call of the edge grid."""

import subprocess
import sys
from pathlib import Path

import edge_matrix
import pytest

from lbverify.model import params_from_xi, radial_bound

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "edge_matrix.py"
MATRIX = ROOT / "tests" / "edge" / "matrix.txt"


def test_edge_matrix_matches_the_recorded_table():
    # Under a 1 GiB address-space cap, which the runner's child inherits: a
    # quadrature that can accept no subinterval raises at its interval bound
    # (exit 3) instead of doubling them until memory runs out, and a call
    # that runs out anyway prints a MemoryError traceback line.
    resource = pytest.importorskip("resource")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
    proc = subprocess.run(
        [sys.executable, str(TOOL)],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    recorded, rerun = MATRIX.read_text(encoding="utf-8").splitlines(), proc.stdout.splitlines()
    assert len(rerun) == len(recorded) == 803
    moved = [f"{old}  ->  {new}" for old, new in zip(recorded, rerun) if old != new]
    assert not moved, "\n".join(moved[:20])


def test_radial_bound_windows_end_at_the_models_radial_bound():
    # The tool keeps its own copy of the bound's exponent, so that it never
    # imports the tree it runs; each window end is +/- the model's bound, or
    # 0.95 of it, bit for bit.
    windows = {}
    for argv in edge_matrix.radial_bound_calls():
        lam = float(argv[argv.index("--lambda") + 1])
        ends = tuple(float(arg.split("=", 1)[1]) for arg in argv if arg.startswith(("--r-min=", "--r-max=")))
        windows.setdefault(lam, set()).add(ends)
    assert sorted(windows) == [1e-300, 3.0, 1e300]
    for lam, ends in windows.items():
        b = radial_bound(params_from_xi(lam, 0.0))
        assert ends == {(-b, b), (0.95 * b, b), (-b, -0.95 * b)}, lam
