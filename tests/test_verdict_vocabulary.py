"""Only ``report.py`` turns a value into a verdict.

No other module of ``src/lbverify`` holds a verdict string as a constant
outside a docstring: a builder adds a check or a comparison and, where the
default |value| <= tolerance rule does not apply, says whether it holds.
"""

import ast
import pathlib

import lbverify
from lbverify.report import VERDICTS, Report

SRC = pathlib.Path(lbverify.__file__).parent


def _docstrings(tree):
    """The string constants that are module, class or function docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _verdict_constants(tree):
    """(line, verdict) of every verdict string constant that is not a docstring."""
    exempt = _docstrings(tree)
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in VERDICTS and id(node) not in exempt
    ]


def test_only_report_spells_a_verdict():
    spelled = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if path.name != "report.py" and (found := _verdict_constants(ast.parse(path.read_text(), str(path))))
    }
    assert spelled == {}


def test_a_docstring_is_exempt_but_code_is_not():
    tree = ast.parse(
        '"""pass"""\n'
        "def build(rpt):\n"
        '    """fail"""\n'
        '    rpt.add("x", "y", 0.0, 0.0, "discrepancy-logged")\n'
        '    return "pass" if rpt.failed() else "passed"\n'
    )
    assert sorted(_verdict_constants(tree)) == [(4, "discrepancy-logged"), (5, "pass")]


def test_report_has_two_row_kinds():
    assert {name for name in vars(Report) if name.startswith("add")} == {"add_check", "add_comparison"}
