"""Verification report rows and their deterministic CSV/JSON serializations.

Schema contract:
  CSV    header exactly ``check,location,value,tolerance,verdict``, numbers
         rendered with 17 significant digits, LF line endings, UTF-8.
  JSON   top-level object {"meta": {a, lambda, tool_version, xi}, "rows": [...]}
         with sorted keys and round-trip-exact float formatting.

Verdicts are decided here alone.  A row that holds (by default |value| <=
tolerance) is "pass"; a check that does not is "fail" and sets exit code 1; a
quoted-value comparison that does not is "discrepancy-logged" and never does.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from . import __version__
from .errors import NumericalError

VERDICTS = ("pass", "fail", "discrepancy-logged")


@dataclass(frozen=True)
class VerificationRow:
    check: str
    location: str
    value: float
    tolerance: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if not (math.isfinite(self.value) and math.isfinite(self.tolerance)):
            raise NumericalError(f"non-finite row value in check {self.check!r}")


@dataclass
class Report:
    lam: float
    xi: float
    rows: list[VerificationRow]

    @property
    def a(self) -> float:
        return math.sqrt(3.0 / self.lam)

    def add_check(self, check: str, location: str, value: float, tolerance: float, holds: bool | None = None) -> None:
        """Internal-consistency row: "pass" if it holds, else "fail"."""
        self._add(check, location, value, tolerance, holds, "fail")

    def add_comparison(
        self, check: str, location: str, value: float, tolerance: float, holds: bool | None = None
    ) -> None:
        """Quoted-value comparison row: "pass" if it holds, else "discrepancy-logged"."""
        self._add(check, location, value, tolerance, holds, "discrepancy-logged")

    def _add(self, check, location, value, tolerance, holds, otherwise) -> None:
        if holds is None:
            holds = abs(value) <= tolerance
        verdict = "pass" if holds else otherwise
        self.rows.append(VerificationRow(check, location, float(value), float(tolerance), verdict))

    def failed(self) -> bool:
        return any(row.verdict == "fail" for row in self.rows)

    def exit_code(self) -> int:
        return 1 if self.failed() else 0


def _num17(x: float) -> str:
    return format(float(x), ".17g")


def emit_csv(report: Report) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "location", "value", "tolerance", "verdict"])
    for row in report.rows:
        writer.writerow([row.check, row.location, _num17(row.value), _num17(row.tolerance), row.verdict])
    return buf.getvalue().encode("utf-8")


_quote = json.encoder.encode_basestring_ascii

_JSON_ROW = """    {
      "check": %s,
      "location": %s,
      "tolerance": %s,
      "value": %s,
      "verdict": %s
    }"""


def emit_json(report: Report) -> bytes:
    """The bytes of ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline.

    ``indent`` makes ``json`` take its pure-Python encoder, so the rows are
    written here directly: strings as ``json`` writes them, and the row
    values, which ``Report`` stores as floats, with ``float.__repr__``.
    """
    meta = {"a": report.a, "lambda": report.lam, "tool_version": __version__, "xi": report.xi}
    meta_lines = ",\n".join(f"    {_quote(key)}: {json.dumps(value)}" for key, value in sorted(meta.items()))
    rows = ",\n".join(
        _JSON_ROW
        % (
            _quote(row.check),
            _quote(row.location),
            float.__repr__(row.tolerance),
            float.__repr__(row.value),
            _quote(row.verdict),
        )
        for row in report.rows
    )
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{{\n  "meta": {{\n{meta_lines}\n  }},\n  "rows": {rows}\n}}\n'.encode("utf-8")
