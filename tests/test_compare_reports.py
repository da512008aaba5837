"""``tools/compare_reports.py`` passes a tree against itself and fails a changed tolerance, value or version, an
unparsable report and a report that depends on the calls before it; ``run_call`` reports each way a call ends."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import compare_reports
import edge_matrix
import pytest

from lbverify import cli, suites

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_reports.py"

#: Test modules that start an interpreter, and why; the others call the CLI through ``compare_reports.run_call``.
SPAWNING_TESTS = {
    "test_acceptance": "criterion 12: `python -m lbverify` stdout, byte-identical reruns and exit 2",
    "test_congruence": "the focusing facts are computed once per fresh process",
    "test_golden": "the golden calls in a child at a lower SIMD dispatch level",
    "test_compare_reports": "the tool runs each tree in its own child interpreter",
    "test_bench_pairs": "the tool runs each stub tree's perfbench/run.py in its own child interpreter",
    "test_edge_matrix": "the tool and the peak-memory calls run under an address-space cap that a child inherits",
}

TOLERANCE_LINE = 'rpt.add_check("tortoise-channel-agreement", loc, channel_gap, 1e-8)'
GAP_LINE = "        -1.0 / params.a,\n"


def _compare(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change)], capture_output=True, text=True, timeout=300
    )


def test_tree_against_itself_is_byte_identical():
    proc = _compare(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    calls = lines[0].removeprefix("calls: ")
    assert int(calls) > 400
    assert lines == [f"calls: {calls}", f"byte-identical: {calls}", "no row value moved"]


def _copy_tree(tmp_path: Path, reaches) -> Path:
    """A copy of the source whose catalogs hold three of the tree's calls.

    The tool reads the calls from the change tree.  The copy keeps the first
    two calls that ``reaches`` accepts, the ones that reach the row a test
    edits, and the first call it rejects, which must stay byte-identical.
    The first catalog holds them; the other catalogs and the golden
    configurations are empty.
    """
    copy = tmp_path / "change"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    calls = compare_reports.load_calls(ROOT)
    kept = [argv for argv in calls if reaches(argv)][:2] + [next(argv for argv in calls if not reaches(argv))]
    catalog = copy / "perfbench" / "catalog"
    catalog.mkdir(parents=True)
    for name in compare_reports.CATALOGS:
        entries = [{"calls": kept}] if name == compare_reports.CATALOGS[0] else []
        (catalog / f"{name}.json").write_text(json.dumps(entries))
    (copy / "tests").mkdir()
    (copy / "tests" / "test_golden.py").write_text("CONFIGS = {}\n")
    return copy


def _tortoise(argv):
    return argv[0] == "tortoise"


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


def _differences(proc: subprocess.CompletedProcess) -> list[str]:
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differences = [line for line in proc.stdout.splitlines() if line.startswith("DIFFERENT: ")]
    assert differences
    return differences


def test_a_changed_tolerance_is_a_difference(tmp_path):
    copy = _copy_tree(tmp_path, _tortoise)
    # 2e-8 keeps every verdict: only the tolerance column differs.
    _edit(copy / "src" / "lbverify" / "suites.py", TOLERANCE_LINE, TOLERANCE_LINE.replace("1e-8", "2e-8"))
    differences = _differences(_compare(ROOT, copy))
    assert all(line.endswith("the (check, location, tolerance, verdict) rows differ") for line in differences)
    assert any("'tortoise'" in line for line in differences)


def test_a_value_moved_beyond_its_slack_is_a_difference(tmp_path):
    # The row has tolerance 0 and a fixed verdict: only its value moves,
    # by 1e-6 relative, past the checker's REL = 1e-9.
    copy = _copy_tree(tmp_path, lambda argv: argv[0] == "verify")
    _edit(copy / "src" / "lbverify" / "suites.py", GAP_LINE, GAP_LINE.replace("params.a,", "params.a * (1.0 + 1e-6),"))
    differences = _differences(_compare(ROOT, copy))
    assert all("quoted-linear-coefficient-gap at u_i linear term" in line for line in differences)
    assert any("'verify'" in line for line in differences)


def test_a_value_moved_inside_its_slack_prints_its_share_of_the_slack(tmp_path):
    # The same row moved by 1e-12 relative: a thousandth of the checker's
    # REL = 1e-9 slack on a row of tolerance 0, so no difference.
    copy = _copy_tree(tmp_path, lambda argv: argv[0] == "verify")
    _edit(copy / "src" / "lbverify" / "suites.py", GAP_LINE, GAP_LINE.replace("params.a,", "params.a * (1.0 + 1e-12),"))
    proc = _compare(ROOT, copy)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "calls: 3",
        "byte-identical: 1",
        "largest relative value move per check or meta number:",
        "  quoted-linear-coefficient-gap: 1e-12 (0.001 of the slack)",
    ]


def test_a_changed_version_is_a_difference_of_the_json_reports(tmp_path):
    # Only a JSON report carries the version, in its meta object; the rows
    # and every CSV report stay byte-identical.
    copy = _copy_tree(tmp_path, lambda argv: "json" in argv)
    _edit(copy / "src" / "lbverify" / "__init__.py", '__version__ = "', '__version__ = "9.')
    proc = _compare(ROOT, copy)
    differences = _differences(proc)
    assert all(line.endswith("the meta keys or tool_version differ") for line in differences)
    assert all("'--format', 'json'" in line for line in differences)
    assert "no row value moved" in proc.stdout.splitlines()


def test_a_report_that_depends_on_earlier_calls_is_order_dependent(tmp_path):
    # The copy widens one tolerance on every tortoise call after its first
    # in the process: against itself, only the forward run's first tortoise
    # call differs from its second, reverse-order run.
    copy = _copy_tree(tmp_path, _tortoise)
    suites_py = copy / "src" / "lbverify" / "suites.py"
    text = suites_py.read_text()
    indent = text[: text.index(TOLERANCE_LINE)].rsplit("\n", 1)[1]
    changed = TOLERANCE_LINE.replace("1e-8)", "2e-8 if _SEEN else 1e-8)") + f"\n{indent}_SEEN.append(True)"
    _edit(suites_py, TOLERANCE_LINE, changed)
    suites_py.write_text(suites_py.read_text() + "\n_SEEN = []\n")

    proc = _compare(copy, copy)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    calls = lines[0].removeprefix("calls: ")
    assert lines[1:3] == [f"byte-identical: {calls}", "no row value moved"]
    order_dependent = lines[3:]
    assert len(order_dependent) == 2
    assert order_dependent[0] == order_dependent[1]
    assert order_dependent[0].startswith("ORDER-DEPENDENT: ['tortoise'")
    assert order_dependent[0].endswith(f" in {copy}")


def test_only_the_listed_test_modules_start_an_interpreter():
    spawns = re.compile(r"\bsubprocess\b|\bsys\.executable\b")
    spawning = {path.stem for path in (ROOT / "tests").glob("*.py") if spawns.search(path.read_text())}
    assert spawning == set(SPAWNING_TESTS), (spawning - set(SPAWNING_TESTS), set(SPAWNING_TESTS) - spawning)


def test_run_call_removes_a_stale_report_and_returns_an_argparse_error_as_exit_2(tmp_path):
    out = str(tmp_path / "report")
    assert compare_reports.run_call(cli.main, ["stability"], out)["rc"] == 0
    result = compare_reports.run_call(cli.main, ["verify", "--samples", "x"], out)
    assert (result["rc"], result["report"]) == (2, None)
    assert result["stderr"] == "lbverify: error: argument --samples: invalid int value: 'x'\n"


def test_run_call_returns_an_escaped_exception_with_its_traceback(monkeypatch, tmp_path):
    def failing(**_options):
        raise RuntimeError("boom")

    monkeypatch.setattr(suites, "build_verify_report", failing)
    result = compare_reports.run_call(cli.main, ["verify"], str(tmp_path / "report"))
    assert (result["rc"], result["report"]) == ("exception", None)
    assert result["stderr"].startswith("Traceback") and result["stderr"].endswith("RuntimeError: boom\n")


HEADLESS = "f-ode-residual,grid,0,1e-9,pass\n"


def test_parse_rejects_a_csv_report_without_its_header():
    for report in ("", HEADLESS):
        with pytest.raises(ValueError, match="is not check,location,value,tolerance,verdict"):
            compare_reports.parse(report, ["verify"])


@pytest.mark.parametrize("report", (None, HEADLESS), ids=("missing", "headless"))
@pytest.mark.parametrize("rc", (0, 1))
def test_edge_matrix_line_names_a_missing_or_headless_report(rc, report):
    line = edge_matrix.line(["verify"], {"rc": rc, "stderr": "", "report": report})
    assert line == f"verify | exit {rc} | - | no report"


def test_an_unparsable_report_is_a_difference(monkeypatch, capsys):
    runs = {"parent": ",".join(compare_reports.HEADER) + "\n" + HEADLESS, "change": HEADLESS}
    monkeypatch.setattr(compare_reports, "load_calls", lambda tree: [["verify"]])
    monkeypatch.setattr(compare_reports, "start", lambda tree, calls: tree)
    result = {"rc": 0, "stderr": ""}
    monkeypatch.setattr(compare_reports, "finish", lambda tree, _: [[dict(result, report=runs[tree.name])]] * 2)
    assert compare_reports.main(["parent", "change"]) == 1
    assert capsys.readouterr().out.splitlines()[3:] == [
        "DIFFERENT: ['verify']: unparsable report: the first line of the CSV report of ['verify'] is not "
        "check,location,value,tolerance,verdict"
    ]
