"""Output checker: compares each report with the reference stored for its input.

A call fails when it raises, prints a traceback, exits with another code than
its reference, or its report differs from the reference in the sequence of
(check, location, verdict), in the number of rows, or in a value beyond the
stated tolerance.  The tolerance is not byte equality, because a refactor
that evaluates the same formulas as arrays moves the last digits:

    |value - ref| <= REL * |ref| + ref_tolerance

``ref_tolerance`` is the row's own tolerance column: a residual row only
asserts |value| <= tolerance, so any drift inside it keeps the meaning of the
row, while its verdict is compared exactly.  Counts and roots carry
tolerance 0 and must agree to REL.  The tolerance column itself
and JSON meta values must agree to REL.

An input that the reference commit rejected although it is valid (the
tortoise 2F1 term cap) has no stored report.  Its call fails until the
program exits 0 for it; then its report must hold the same check names as a
referenced input of the same kind, all with verdict ``pass``.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math

from workloads import REFS_DIR

REL = 1e-9
HEADER = ["check", "location", "value", "tolerance", "verdict"]


def load_refs(workload: str) -> dict[int, dict]:
    with gzip.open(REFS_DIR / f"{workload}.json.gz", "rt", encoding="utf-8") as handle:
        return {entry["id"]: entry for entry in json.load(handle)}


def parse_report(payload: bytes, fmt: str) -> tuple[dict | None, list[list]]:
    """Rows as [check, location, value, tolerance, verdict] plus JSON meta."""
    text = payload.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        rows = [[r["check"], r["location"], r["value"], r["tolerance"], r["verdict"]] for r in doc["rows"]]
        return doc["meta"], rows
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != HEADER:
        raise ValueError("missing CSV header")
    return None, [[c, loc, float(v), float(t), verdict] for c, loc, v, t, verdict in table[1:]]


def call_format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "csv"


def _close(value: float, ref: float, slack: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL * abs(ref) + slack


def compare_rows(rows: list[list], ref_rows: list[list]) -> str | None:
    """None when the rows match the reference, else the first difference."""
    if len(rows) != len(ref_rows):
        return f"row count {len(rows)} != {len(ref_rows)}"
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        check, loc, value, tol, verdict = row
        r_check, r_loc, r_value, r_tol, r_verdict = ref
        if (check, loc, verdict) != (r_check, r_loc, r_verdict):
            return f"row {i}: {(check, loc, verdict)} != {(r_check, r_loc, r_verdict)}"
        if not _close(float(tol), r_tol):
            return f"row {i} ({check}): tolerance {tol!r} != {r_tol!r}"
        if not _close(float(value), r_value, r_tol):
            return f"row {i} ({check}): value {value!r} vs reference {r_value!r}"
    return None


def _one_line_error(stderr: str) -> bool:
    lines = stderr.strip("\n").split("\n")
    return len(lines) == 1 and lines[0].startswith("lbverify: error: ")


def check_call(argv: list[str], ref: dict, rc, stderr: str, payload: bytes | None,
               sibling_checks: list[str] | None = None) -> str | None:
    """None when one CLI call matches its reference, else why it failed.

    ``rc`` is None when the call raised instead of returning; ``payload`` is
    None when no report file was written.
    """
    if rc is None:
        return "raised: " + stderr.strip().split("\n")[-1]
    if "Traceback" in stderr:
        return "traceback on stderr"
    if ref["rows"] is None and ref["exit"] != 0:
        # Invalid usage: exit 2, one line on stderr, no report.
        if rc != ref["exit"]:
            return f"exit {rc}, expected {ref['exit']}"
        if not _one_line_error(stderr):
            return f"expected a one-line error, got {stderr!r}"
        return None if payload is None else "report written for invalid usage"
    if rc != ref["exit"]:
        return f"exit {rc}, expected {ref['exit']}" + (" (unreferenced)" if ref["rows"] is None else "")
    if payload is None:
        return "no report written"
    try:
        meta, rows = parse_report(payload, call_format(argv))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable report: {exc}"
    if ref["rows"] is None:
        if [r[0] for r in rows] != sibling_checks or any(r[4] != "pass" for r in rows):
            return "unreferenced input: checks differ from its kind or do not pass"
        return None
    if meta is not None:
        for key in ("lambda", "xi", "a"):
            if not _close(float(meta[key]), ref["meta"][key]):
                return f"meta {key} {meta[key]!r} != {ref['meta'][key]!r}"
    return compare_rows(rows, ref["rows"])


def sibling_checks(refs: dict[int, dict], catalog: list[dict]) -> dict[str, list[str]]:
    """Check names of the first referenced single-call entry of each kind."""
    out: dict[str, list[str]] = {}
    for entry in catalog:
        call = refs[entry["id"]]["calls"][0]
        if entry["kind"] not in out and call["rows"] is not None:
            out[entry["kind"]] = [r[0] for r in call["rows"]]
    return out
