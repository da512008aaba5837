"""``tools/edge_matrix.py`` reproduces ``tests/edge/matrix.txt``: the exit
code, stderr line and failing checks of every call of the edge grid."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "edge_matrix.py"
MATRIX = ROOT / "tests" / "edge" / "matrix.txt"


def test_edge_matrix_matches_the_recorded_table():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    recorded, rerun = MATRIX.read_text(encoding="utf-8").splitlines(), proc.stdout.splitlines()
    assert len(rerun) == len(recorded) == 801
    moved = [f"{old}  ->  {new}" for old, new in zip(recorded, rerun) if old != new]
    assert not moved, "\n".join(moved[:20])
