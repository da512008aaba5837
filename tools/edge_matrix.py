"""Exit codes, stderr and failing checks of lbverify on a fixed grid of edge inputs.

    python tools/edge_matrix.py [TREE]

TREE defaults to the checkout that holds this script.  The grid has three
parts:

- the default-window grid: ``verify`` and ``energy`` at ``--samples 257``
  and ``tortoise`` at ``--samples 65`` and ``257``, each at every
  (lambda, xi) of ``LAMBDAS`` x ``XIS``, and ``congruence`` at
  ``--samples 65`` at every (lambda, xi, E) of ``LAMBDAS`` x ``XIS`` x
  ``E_TILDES`` (693 calls);
- the radial-bound grid: ``verify``, ``energy``, ``tortoise`` and
  ``congruence --e-tilde 2`` at ``--samples 257`` on [-b, b], [0.95b, b]
  and [-b, -0.95b], with b the model's radial bound, at lambda in
  {1e-300, 3, 1e300} x xi in {0, 1, 1e154} (108 calls);
- ``TINY_LAMBDA_CALLS``: ``tortoise`` at lambda = 1e-12 and 1e-300, every
  other option at its default (2 calls);
- ``HUGE_XI_CALLS``: ``tortoise --xi 1e20`` at ``--samples 65`` and ``257``
  (2 calls).

The calls run in process in one child interpreter, through the runner of
``tools/compare_reports.py``.  The script prints one line per call:

    <argv> | exit <code> | <stderr line> | <failing checks, sorted>

with ``-`` for an empty stderr or no failing check, and ``no report`` for
an exit-0 or exit-1 call that wrote no report ``parse`` reads.  It prints no row
value, so a change in the last bits of a value (another numpy build or SIMD
dispatch level) cannot change a line.  ``tests/edge/matrix.txt`` holds the
table; a change that moves a line re-records it with

    python tools/edge_matrix.py > tests/edge/matrix.txt

and lists the moved lines.  It exits 1 when a call's result depends on the
calls before it (printed as ``ORDER-DEPENDENT`` on stderr), and 0 otherwise.
``tests/test_edge_matrix.py`` runs it under a 1 GiB address-space cap, which
the runner's child inherits: a call that runs out of memory prints a
``MemoryError`` traceback line in place of its recorded line.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from compare_reports import finish, parse, start

LAMBDAS = ("1e-300", "1e-12", "0.75", "3", "12", "1e6", "1e12", "1e100", "1e300")
XIS = ("0", "1e-300", "1e-6", "1", "1e5", "1e100", "1e154")
E_TILDES = ("1.01", "2", "100", "1e40", "1e52", "1e80", "1e150")

#: ``model._MAX_EXPONENT``, copied so that the tool never imports the tree
#: it runs: the radial bound is 700 / (2 sqrt(3 lambda)).  A test pins the
#: grid's bounds to ``model.radial_bound``.
_MAX_EXPONENT = 700.0
#: a = sqrt(3 / lambda) reaches 1.7e6 and 1.7e150: the quadrature channel
#: integrates O(a) panels, whose Gauss-Kronrod estimates sit at rounding level.
TINY_LAMBDA_CALLS = [["tortoise", "--lambda", "1e-12"], ["tortoise", "--lambda", "1e-300"]]
#: At xi = 1e20 the series' complete-beta constant dwarfs its variable term
#: past q = 0, so the derivative row's central difference T(r + h) - T(r - h)
#: is mostly rounding.
HUGE_XI_CALLS = [["tortoise", "--xi", "1e20", "--samples", samples] for samples in ("65", "257")]


def default_window_calls() -> list[list[str]]:
    calls = []
    for lam in LAMBDAS:
        for xi in XIS:
            member = ["--lambda", lam, "--xi", xi]
            calls.append(["verify", *member, "--samples", "257"])
            calls.append(["energy", *member, "--samples", "257"])
            calls.append(["tortoise", *member, "--samples", "65"])
            calls.append(["tortoise", *member, "--samples", "257"])
            calls += [["congruence", *member, "--e-tilde", e, "--samples", "65"] for e in E_TILDES]
    return calls


def radial_bound_calls() -> list[list[str]]:
    calls = []
    for lam in (1e-300, 3.0, 1e300):
        b = _MAX_EXPONENT / (2.0 * (3.0 / math.sqrt(3.0 / lam)))
        for xi in (0.0, 1.0, 1e154):
            for r_min, r_max in ((-b, b), (0.95 * b, b), (-b, -0.95 * b)):
                window = ["--lambda", repr(lam), "--xi", repr(xi), f"--r-min={r_min!r}", f"--r-max={r_max!r}"]
                for sub in (["verify"], ["energy"], ["tortoise"], ["congruence", "--e-tilde", "2"]):
                    calls.append([*sub, *window, "--samples", "257"])
    return calls


def line(argv: list[str], result: dict) -> str:
    try:
        _, rows = parse(result["report"], argv)
    except ValueError:
        rows = None
    failing = " ".join(sorted({check for check, _, _, _, verdict in rows or () if verdict == "fail"})) or "-"
    if result["rc"] in (0, 1) and (rows is None or result["report"] is None):
        failing = "no report"
    stderr = " / ".join(result["stderr"].splitlines())
    return f"{' '.join(argv)} | exit {result['rc']} | {stderr or '-'} | {failing}"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: python tools/edge_matrix.py [TREE]", file=sys.stderr)
        return 2
    tree = Path(args[0]) if args else Path(__file__).resolve().parents[1]
    calls = default_window_calls() + radial_bound_calls() + TINY_LAMBDA_CALLS + HUGE_XI_CALLS
    first, again = finish(start(tree, calls), tree)
    for argv, result in zip(calls, first):
        print(line(argv, result))
    order_dependent = [argv for argv, one, other in zip(calls, first, again) if one != other]
    for argv in order_dependent:
        print(f"ORDER-DEPENDENT: {argv}", file=sys.stderr)
    return 1 if order_dependent else 0


if __name__ == "__main__":
    sys.exit(main())
