"""``tools/edge_matrix.py`` reproduces ``tests/edge/matrix.txt``: the exit
code, stderr line and failing checks of every call of the edge grid; and a
report's peak memory does not grow with ``--samples``."""

import os
import subprocess
import sys
from pathlib import Path

import edge_matrix
import pytest

from lbverify.model import params_from_xi, radial_bound

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "edge_matrix.py"
MATRIX = ROOT / "tests" / "edge" / "matrix.txt"


#: Runs ``lbverify.cli.main`` on argv[2:] with the tree's src/ (argv[1]) first on the path, and prints the peak RSS.
_PEAK_RSS_CHILD = (
    "import resource, sys; sys.path.insert(0, sys.argv[1]); from lbverify.cli import main; rc = main(sys.argv[2:]); "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)"
)


def _cap_address_space():
    """A ``preexec_fn`` that caps the child's address space at 1 GiB (or the lower hard limit)."""
    resource = pytest.importorskip("resource")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def test_edge_matrix_matches_the_recorded_table():
    # Under a 1 GiB address-space cap, which the runner's child inherits: a
    # quadrature that can accept no subinterval raises at its interval bound
    # (exit 3) instead of doubling them until memory runs out, and a call
    # that runs out anyway prints a MemoryError traceback line.
    proc = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, preexec_fn=_cap_address_space(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    recorded, rerun = MATRIX.read_text(encoding="utf-8").splitlines(), proc.stdout.splitlines()
    assert len(rerun) == len(recorded) == 805
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


@pytest.mark.parametrize(
    ("argv", "samples"),
    [
        (["verify"], 1 << 22),
        (["energy"], 1 << 22),
        (["congruence", "--e-tilde", "2"], 1 << 22),
        (["sweep"], 1 << 22),
        (["tortoise", "--xi", "1"], 1 << 22),
        (["tortoise", "--xi", "0"], 1 << 22),
    ],
    ids=("verify", "energy", "congruence", "sweep", "tortoise", "tortoise-vacuum"),
)
def test_peak_memory_does_not_grow_with_samples(argv, samples):
    # Each report streams its grid in GRID_BLOCK blocks, so a call at
    # ``samples`` peaks within 8 MiB of the same call at 4096 samples (one
    # block), and under the 1 GiB cap it writes its report, with no traceback.
    cap = _cap_address_space()
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _PEAK_RSS_CHILD, str(ROOT / "src"), *argv, "--samples", str(n), "--out", os.devnull],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, preexec_fn=cap,
        )
        for n in (samples, 4096)
    ]
    peaks = []
    for child in children:
        with child:
            stdout, stderr = child.communicate(timeout=120)
        assert (child.returncode, stderr) == (0, ""), child.args
        peaks.append(int(stdout))
    # ru_maxrss is in KiB on Linux.
    assert peaks[0] - peaks[1] <= 8 << 10, peaks
