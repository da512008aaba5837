"""Compare the reports of two checkouts of lbverify, call by call.

    python tools/compare_reports.py PARENT_DIR CHANGE_DIR

The calls are every call of the four ``perfbench/catalog/*.json`` files and
every ``CONFIGS`` entry of ``tests/test_golden.py``, both read from
CHANGE_DIR.  For each tree one subprocess imports ``lbverify`` from that
tree's ``src/`` and runs every call in process through ``run_call``, which
it imports from this script's directory, never from the tree, so that a
parent older than ``run_call`` still compares.  It then runs every call a
second time, in reverse order, in the same process: a report must not
depend on the calls before it.  The two subprocesses run side by side.

The script prints the call count, the number of calls that are
byte-identical (report, stderr and exit code), and the largest relative move
of a row value per check, over every check whose values moved, beside the
largest share of its slack (below) that a move of that check took, and the
largest relative move of each JSON ``meta`` number (``a``, ``lambda``,
``xi``) that moved.  A relative move of 1 on a value of 1e-13 reads as
alarming; the slack share says how close it came to a difference.  It exits 1
when any call differs in exit code, in stderr, in its sequence of
(check, location, tolerance, verdict) rows, in a row value by more than
its ``slack``, REL * |old value| + old tolerance, or in a JSON report's
``meta`` keys or ``tool_version``, when a report does not parse (a CSV
report without its header line), or when a call's exit code, stderr or
report differs between its two runs in one tree (printed as
``ORDER-DEPENDENT``), and 0 otherwise.  It uses the standard library only
and writes nothing under either tree.

In ``tools/`` and ``tests/`` this module owns the report-identity rules:
``slack``, ``parse``, the one in-process CLI call ``run_call``, and the
child runner ``start``/``finish`` built on it.  ``tools/edge_matrix.py`` and
the golden SIMD test run through ``start``/``finish``; ``test_golden``,
``test_report_cli`` and ``test_energy_conditions`` call ``run_call``.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

CATALOGS = ("audit-dense", "cli-cold", "scan-scalar", "tortoise-channels")

#: Relative slack of a row value, beside the row's own tolerance.
REL = 1e-9
#: The first line of every CSV report.
HEADER = ["check", "location", "value", "tolerance", "verdict"]

# Runs in a fresh interpreter: argv[1] is the tree's src/, argv[2] this module's directory, stdin the calls.
_CHILD = r"""
import json, os, sys, tempfile

src, tools = sys.argv[1:3]
sys.path.insert(0, src)
import lbverify.cli

if os.path.dirname(os.path.abspath(lbverify.cli.__file__)) != os.path.join(src, "lbverify"):
    sys.exit(f"imported lbverify from {lbverify.cli.__file__}, not from {src}")
sys.path.insert(0, tools)
from compare_reports import run_call

calls = json.load(sys.stdin)
results = []
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "report")
    for argv in calls + calls[::-1]:
        result = run_call(lbverify.cli.main, argv, out)
        results.append(dict(result, stderr=result["stderr"].replace(src, "<src>")))
# The forward run, and the reverse run back in call order.
json.dump([results[: len(calls)], results[len(calls) :][::-1]], sys.stdout)
"""


def run_call(main, argv: list[str], out: str) -> dict:
    """``{"rc", "stderr", "report"}`` of one ``main(argv + ["--out", out])``, with a stale ``out`` removed first.

    A fresh warnings filter per call shows the call's own warnings in its
    stderr.  A ``SystemExit`` code is the exit code; any other exception is
    ``"exception"``, with its traceback in stderr.
    """
    Path(out).unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            rc = main(argv + ["--out", out])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception"
            traceback.print_exc()
    report = Path(out).read_text(encoding="utf-8") if os.path.exists(out) else None
    return {"rc": rc, "stderr": err.getvalue(), "report": report}


def load_calls(tree: Path) -> list[list[str]]:
    calls = []
    for name in CATALOGS:
        entries = json.loads((tree / "perfbench" / "catalog" / f"{name}.json").read_text(encoding="utf-8"))
        calls += [argv for entry in entries for argv in entry["calls"]]
    golden = ast.parse((tree / "tests" / "test_golden.py").read_text(encoding="utf-8"))
    for node in golden.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CONFIGS" for t in node.targets):
            calls += list(ast.literal_eval(node.value).values())
    return calls


def start(tree: Path, calls: list[list[str]], extra_env: dict[str, str] | None = None) -> subprocess.Popen:
    """Start the child that runs ``calls`` on the tree, with ``extra_env`` added to its environment."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **(extra_env or {}))
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str((tree / "src").resolve()), str(Path(__file__).resolve().parent)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    proc.stdin.write(json.dumps(calls))
    proc.stdin.close()
    return proc


def finish(proc: subprocess.Popen, tree: Path) -> list[list[dict]]:
    """The tree's results of the forward and of the reverse run, both in call order."""
    payload = proc.stdout.read()
    if proc.wait() != 0:
        raise SystemExit(f"compare_reports: the run on {tree} failed with exit code {proc.returncode}")
    return json.loads(payload)


def parse(report: str | None, argv: list[str]) -> tuple[dict, list[tuple[str, str, float, float, str]]]:
    """The ``meta`` object ({} for CSV) and the (check, location, value, tolerance, verdict) rows of a report.

    No report (None) has no rows; a CSV report without its header line raises ValueError.
    """
    if report is None:
        return {}, []
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        doc = json.loads(report)
        table = [
            (r["check"], r["location"], float(r["value"]), float(r["tolerance"]), r["verdict"]) for r in doc["rows"]
        ]
        return doc["meta"], table
    table = list(csv.reader(io.StringIO(report)))
    if table[:1] != [HEADER]:
        raise ValueError(f"the first line of the CSV report of {argv} is not {','.join(HEADER)}")
    return {}, [(check, loc, float(value), float(tol), verdict) for check, loc, value, tol, verdict in table[1:]]


def relative_move(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def slack(old: float, tolerance: float = 0.0) -> float:
    """How far a value may move from ``old``, on a row of the given tolerance: REL * |old| + tolerance."""
    return REL * abs(old) + tolerance


def slack_share(old: float, new: float, tolerance: float) -> float:
    """|new - old| as a share of ``slack(old, tolerance)`` (above 1: a difference)."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    room = slack(old, tolerance)
    return abs(new - old) / room if room else math.inf


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_reports.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = Path(args[0]), Path(args[1])
    calls = load_calls(change)
    procs = [start(parent, calls), start(change, calls)]
    (before, before_again), (after, after_again) = finish(procs[0], parent), finish(procs[1], change)
    order_dependent = [
        f"ORDER-DEPENDENT: {argv} in {tree}"
        for tree, first, again in ((parent, before, before_again), (change, after, after_again))
        for argv, one, other in zip(calls, first, again)
        if one != other
    ]

    identical, failures, moves, slack_shares = 0, [], {}, {}
    for argv, old, new in zip(calls, before, after):
        if old == new:
            identical += 1
            continue
        if old["rc"] != new["rc"]:
            failures.append(f"{argv}: exit code {old['rc']} -> {new['rc']}")
        if old["stderr"] != new["stderr"]:
            failures.append(f"{argv}: stderr {old['stderr']!r} -> {new['stderr']!r}")
        try:
            (old_meta, old_rows), (new_meta, new_rows) = parse(old["report"], argv), parse(new["report"], argv)
        except ValueError as exc:
            failures.append(f"{argv}: unparsable report: {exc}")
            continue
        if old_meta.keys() != new_meta.keys() or old_meta.get("tool_version") != new_meta.get("tool_version"):
            failures.append(f"{argv}: the meta keys or tool_version differ")
        for key in ("a", "lambda", "xi"):
            if key in old_meta and key in new_meta:
                move = relative_move(float(old_meta[key]), float(new_meta[key]))
                if move:
                    moves[f"meta {key}"] = max(moves.get(f"meta {key}", 0.0), move)
        identity = [[(c, loc, tol, v) for c, loc, _, tol, v in table] for table in (old_rows, new_rows)]
        if identity[0] != identity[1]:
            failures.append(f"{argv}: the (check, location, tolerance, verdict) rows differ")
            continue
        for (check, loc, old_value, tol, _), (_, _, new_value, _, _) in zip(old_rows, new_rows):
            move = relative_move(old_value, new_value)
            if move:
                moves[check] = max(moves.get(check, 0.0), move)
                share = slack_share(old_value, new_value, tol)
                slack_shares[check] = max(slack_shares.get(check, 0.0), share)
            if not abs(new_value - old_value) <= slack(old_value, tol):
                failures.append(f"{argv}: {check} at {loc} moved from {old_value!r} to {new_value!r}")

    print(f"calls: {len(calls)}")
    print(f"byte-identical: {identical}")
    if moves:
        print("largest relative value move per check or meta number:")
        for check, move in sorted(moves.items(), key=lambda item: -item[1]):
            share = f" ({slack_shares[check]:.3g} of the slack)" if check in slack_shares else ""
            print(f"  {check}: {move:.3g}{share}")
    else:
        print("no row value moved")
    for failure in failures:
        print(f"DIFFERENT: {failure}")
    for line in order_dependent:
        print(line)
    return 1 if failures or order_dependent else 0


if __name__ == "__main__":
    sys.exit(main())
