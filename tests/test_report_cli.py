import csv
import io
import json
import math
import os
import re
import tempfile

import compare_reports
import pytest

from lbverify import __version__, cli, errors, suites
from lbverify.model import MAX_ABS_XI, params_from_xi, radial_bound
from lbverify.report import VERDICTS, Report, VerificationRow, emit_csv, emit_json


def run(*argv):
    """Exit code, stderr and ``compare_reports.parse`` rows (None: no report) of one ``run_call``."""
    with tempfile.TemporaryDirectory() as tmp:
        result = compare_reports.run_call(cli.main, list(argv), os.path.join(tmp, "report"))
    rows = None if result["report"] is None else compare_reports.parse(result["report"], list(argv))[1]
    return result["rc"], result["stderr"], rows


def _by_check(rows):
    """Each check's row (its last, for a check with several)."""
    return {row[0]: row for row in rows}


def sample_report():
    rpt = Report(lam=3.0, xi=1.0, rows=[])
    rpt.add_check("f-ode-residual", "grid[-2;2]x16", 3.5527136788005009e-15, 1e-9)
    rpt.add_comparison("quoted-integrand-vs-constraint", "grid[-2;2]x16", 11.99970508143, 1e-10)
    return rpt


def test_row_rejects_unknown_verdict():
    with pytest.raises(ValueError):
        VerificationRow("x", "y", 0.0, 0.0, "maybe")


def test_row_rejects_non_finite_value():
    with pytest.raises(ValueError):
        VerificationRow("x", "y", math.nan, 0.0, "pass")


def test_csv_header_and_empty_report():
    empty = Report(lam=3.0, xi=0.0, rows=[])
    assert emit_csv(empty) == b"check,location,value,tolerance,verdict\n"


def test_csv_round_trip_exact():
    payload = emit_csv(sample_report()).decode("utf-8")
    assert payload.endswith("\n")
    assert "\r" not in payload
    rows = list(csv.reader(io.StringIO(payload)))
    assert rows[0] == ["check", "location", "value", "tolerance", "verdict"]
    assert float(rows[1][2]) == 3.5527136788005009e-15
    assert float(rows[1][3]) == 1e-9
    assert float(rows[2][2]) == 11.99970508143


def test_csv_verdict_vocabulary():
    payload = emit_csv(sample_report()).decode("utf-8")
    verdicts = {line.rsplit(",", 1)[1] for line in payload.strip().split("\n")[1:]}
    assert verdicts <= {"pass", "fail", "discrepancy-logged"}


def test_json_meta_and_sorted_keys():
    payload = emit_json(sample_report())
    doc = json.loads(payload)
    assert doc["meta"]["a"] == pytest.approx(math.sqrt(3.0 / doc["meta"]["lambda"]), abs=1e-15)
    assert set(doc["meta"]) == {"a", "lambda", "tool_version", "xi"}
    assert doc["rows"][0]["value"] == 3.5527136788005009e-15
    # Keys are sorted in the serialized bytes.
    text = payload.decode("utf-8")
    assert text.index('"meta"') < text.index('"rows"')
    assert text.index('"a"') < text.index('"lambda"') < text.index('"tool_version"')


def test_json_empty_rows_key_present():
    doc = json.loads(emit_json(Report(lam=3.0, xi=0.0, rows=[])))
    assert doc["rows"] == []


def test_json_parse_reserialize_idempotent():
    payload = emit_json(sample_report()).decode("utf-8")
    doc = json.loads(payload)
    again = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert again == payload


def _json_dumps_bytes(report):
    """``json.dumps(payload, sort_keys=True, indent=2)`` of the report (the reference)."""
    payload = {
        "meta": {"lambda": report.lam, "xi": report.xi, "a": report.a, "tool_version": __version__},
        "rows": [
            {
                "check": row.check,
                "location": row.location,
                "value": row.value,
                "tolerance": row.tolerance,
                "verdict": row.verdict,
            }
            for row in report.rows
        ],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _extreme_report():
    rpt = Report(lam=3.0, xi=MAX_ABS_XI, rows=[])
    rpt.add_check("f-ode-residual", 'r=-0.0;"quoted"\\ \u00e9', MAX_ABS_XI, 5e-324, holds=True)
    rpt.add_comparison("x", "r=1e-300", -0.0, 1e300)
    return rpt


JSON_REPORTS = {
    "verify": lambda: suites.build_verify_report(3.0, 1.0, samples=64),
    "stability": lambda: suites.build_stability_report(3.0),
    "energy": lambda: suites.build_energy_report(3.0, 1.0, samples=64),
    "congruence": lambda: suites.build_congruence_report(3.0, 0.5, 2.0, samples=64, b=0.3),
    "tortoise": lambda: suites.build_tortoise_report(3.0, 0.5, samples=65),
    "sweep": lambda: suites.build_sweep_report("0.75:12:2", "0:2:2", "0.5:2:2", samples=65),
    "empty": lambda: Report(lam=3.0, xi=0.0, rows=[]),
    "extreme": _extreme_report,
}


@pytest.mark.parametrize("name", JSON_REPORTS)
def test_json_bytes_equal_json_dumps(name):
    report = JSON_REPORTS[name]()
    assert emit_json(report) == _json_dumps_bytes(report)


def test_exit_code_logic():
    rpt = sample_report()
    assert [row.verdict for row in rpt.rows] == ["pass", "discrepancy-logged"]
    assert rpt.exit_code() == 0
    rpt.add_check("broken", "here", 1.0, 0.5)
    assert rpt.exit_code() == 1


def test_holds_overrides_the_tolerance_rule():
    # A check that does not hold fails; a comparison that does not hold is
    # only logged, and never sets the exit code.
    checks = Report(lam=3.0, xi=1.0, rows=[])
    checks.add_check("strict-minimum", "here", 0.0, 0.0, holds=0.0 > 0.0)
    checks.add_check("point-count", "here", 64.0, 0.0, holds=True)
    assert [row.verdict for row in checks.rows] == ["fail", "pass"]
    assert checks.exit_code() == 1
    comparisons = Report(lam=3.0, xi=1.0, rows=[])
    comparisons.add_comparison("quoted-minimum", "here", -1.0, 1e-12, holds=-1.0 >= -1e-12)
    comparisons.add_comparison("note", "here", 0.0, 0.0, holds=False)
    comparisons.add_comparison("quoted-count", "here", 5.0, 0.0, holds=True)
    assert [row.verdict for row in comparisons.rows] == ["discrepancy-logged", "discrepancy-logged", "pass"]
    assert comparisons.exit_code() == 0


def test_cli_verify_defaults_green():
    rc, _, rows = run("verify", "--lambda", "3", "--xi", "1", "--samples", "512")
    assert rc == 0
    verdicts = {verdict for *_, verdict in rows}
    assert "fail" not in verdicts and "discrepancy-logged" in verdicts
    assert {"f-ode-residual", "exponent-ode-residual", "field-equation-residual"} <= set(_by_check(rows))


def test_cli_deterministic_output(tmp_path):
    # A rerun in the same process gives the same bytes; two interpreters
    # over every catalog and golden call are compared by
    # test_compare_reports' tree-against-itself test.
    argv = ["verify", "--lambda", "3", "--xi", "0.5", "--samples", "512", "--format", "json"]
    first, second = (compare_reports.run_call(cli.main, argv, str(tmp_path / "report")) for _ in range(2))
    assert first["rc"] == 0 and first["report"]
    assert second == first


def test_cli_invalid_lambda_exits_2():
    rc, stderr, _ = run("verify", "--lambda", "-1", "--xi", "1")
    assert rc == 2 and "lambda" in stderr


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--xi", "inf"),
        ("verify", "--xi", "1e200"),
        ("verify", "--lambda", "inf"),
        ("congruence", "--e-tilde", "inf"),
        ("congruence", "--e-tilde", "nan"),
        # E^2 overflows: a Python float power raised OverflowError here.
        ("congruence", "--e-tilde", "1e155"),
        ("sweep", "--e-tilde", "1e200"),
    ],
    ids=("xi-inf", "xi-overflow", "lambda-inf", "e-tilde-inf", "e-tilde-nan", "e-tilde-overflow", "sweep-e-tilde-overflow"),
)
def test_cli_rejects_nonfinite_or_overflowing_parameters(args):
    _assert_usage_error(run(*args, "--samples", "64"), "")


def test_cli_verify_tiny_xi_reports_constant_noether_charge():
    # f'' ~ xi^2 underflows to 0 on the whole grid; J = e^f phi' ~ |xi| does not.
    rc, stderr, rows = run("verify", "--xi", "1e-300")
    assert (rc, stderr) == (0, "")
    assert _by_check(rows)["noether-constancy-rel"][2] < 1e-12
    assert all(verdict != "fail" for *_, verdict in rows)


@pytest.mark.parametrize(
    "argv",
    (["verify"], ["energy"], ["congruence", "--e-tilde", "2"], ["sweep", "--e-tilde", "2"]),
    ids=("verify", "energy", "congruence", "sweep"),
)
def test_cli_huge_xi_writes_nothing_to_stderr(argv):
    # xi^2 e^{6r/a} overflows on the default window at |xi| = 1e154, and w
    # reaches about 1e205 at the forbidden points of the congruence scans;
    # the runner prints any warning of the call to its stderr.
    rc, stderr, rows = run(*argv, "--xi", "1e154")
    assert (rc, stderr) == (0, "")
    assert rows and all(math.isfinite(value) for _, _, value, _, _ in rows)


@pytest.mark.parametrize(
    "argv",
    (["verify", "--xi", "1e4"], ["sweep", "--xi", "0:1e8:3", "--e-tilde", "2"]),
    ids=("verify", "sweep"),
)
def test_cli_large_xi_field_residual_passes(argv):
    # e^u reaches about xi^(4/3); a residual that carried its rounding
    # failed here (1.5e-8 at xi = 1e4, 4.6e-5 and 6.1e-5 in the sweep).
    rc, _, rows = run(argv[0], "--lambda", "3", *argv[1:])
    assert rc == 0
    residuals = [value for check, _, value, _, _ in rows if check == "field-equation-residual"]
    assert residuals and max(residuals) <= 1e-13


@pytest.mark.parametrize(
    "argv",
    [("--xi", "1e5"), ("--xi", "1e100"), ("--xi", "1e150"), ("--r-min", "110.8333", "--r-max", "116.6666")],
    ids=("xi-1e5", "xi-1e100", "xi-1e150", "window-at-radial-bound"),
)
def test_cli_verify_dual_path_passes_at_huge_components(argv):
    # The components reach e^u of about xi^(4/3) or e^{2r/a}, beyond which a
    # difference stencil's rounding floor exceeds the row tolerance.  The
    # generic Ricci path reads exact jets, so every row passes.
    rc, _, rows = run("verify", "--lambda", "3", *argv)
    assert rc == 0
    assert [verdict for check, *_, verdict in rows if check == "ricci-dual-path"] == ["pass"]


@pytest.mark.parametrize("lam", ("inf", "1e-320"))
def test_cli_stability_rejects_unusable_lambda(lam):
    _assert_usage_error(run("stability", "--lambda", lam), "")


def test_cli_congruence_requires_unit_energy():
    assert run("congruence", "--lambda", "3", "--xi", "0", "--e-tilde", "0.5")[0] == 2
    assert run("congruence", "--lambda", "3", "--xi", "0")[0] == 2


def test_cli_unknown_subcommand_usage_on_stderr():
    rc, stderr, _ = run("frobnicate")
    assert rc == 2
    assert stderr.startswith("lbverify: error: argument subcommand: invalid choice: 'frobnicate'")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("verify", "--xi", "abc"), "argument --xi: invalid float value: 'abc'"),
        (("verify", "--bogus"), "unrecognized arguments: --bogus"),
        ((), "--out goes after the subcommand"),
        (("nosuch",), "argument subcommand: invalid choice: 'nosuch'"),
        (("sweep", "--samples", "x"), "argument --samples: invalid int value: 'x'"),
        (("verify", "--samples", "2.5"), "argument --samples: invalid int value: '2.5'"),
        (("--out", "FILE", "verify"), "--out goes after the subcommand"),
        (("--format", "json", "verify"), "--format goes after the subcommand"),
        (("--lambda", "3", "verify"), "--lambda goes after the subcommand"),
        (("--samples", "9", "verify"), "--samples goes after the subcommand"),
        (("--e-tilde", "2", "congruence"), "--e-tilde goes after the subcommand"),
    ],
    ids=(
        "bad-float", "unknown-flag", "no-subcommand", "unknown-subcommand", "sweep-bad-int", "float-samples",
        "out-before-subcommand", "format-before-subcommand", "lambda-before-subcommand",
        "samples-before-subcommand", "e-tilde-before-subcommand",
    ),
)
def test_argparse_errors_are_one_line(argv, message):
    # --out PATH is appended, so with no subcommand it is the misplaced
    # option; test_main_reuses_parser_across_calls calls main with no
    # argument at all.  A subcommand option before the subcommand is named,
    # not its value read as the subcommand.
    rc, err, rows = run(*argv)
    assert (rc, rows) == (2, None)
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith(f"lbverify: error: {message}")


def test_cli_window_validation():
    assert run("verify", "--r-min", "1", "--r-max", "-1")[0] == 2
    assert run("verify", "--samples", "1")[0] == 2


def _whole(message: str) -> str:
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize(
    ("build", "args", "kwargs", "needle"),
    [
        ("build_verify_report", (3.0, 1.0), {"samples": 1}, "samples must be >= 2"),
        ("build_tortoise_report", (3.0, 1.0), {"r_min": 1.0, "r_max": -1.0}, "r-min must be < r-max"),
        ("build_congruence_report", (3.0, 1.0, 2.0), {"b": 0.7}, "b must lie in"),
        # Two faults at once: the rule checked first names its fault.  Window
        # ends before samples, samples before (lambda, xi), (lambda, xi)
        # before the window's order and range; in congruence b comes first
        # and E last.
        ("build_verify_report", (-1.0, 1.0), {"r_min": math.inf}, _whole("r-min must be finite, got inf")),
        ("build_verify_report", (3.0, math.inf), {"samples": 1}, _whole("samples must be >= 2, got 1")),
        (
            "build_verify_report",
            (0.0, 1.0),
            {"r_min": 5.0, "r_max": 1.0},
            _whole("lambda must be positive and finite, got 0.0"),
        ),
        (
            "build_congruence_report",
            (3.0, 1.0, 2.0),
            {"r_min": 5.0, "r_max": 1.0, "b": 2.0},
            _whole("b must lie in [0, 1/2], got 2.0"),
        ),
        (
            "build_congruence_report",
            (3.0, 1.0, 0.5),
            {"r_max": 1e9},
            _whole("|r| exceeds the overflow bound 116.667 for lambda=3.0"),
        ),
        (
            "build_tortoise_report",
            (-1.0, 1.0),
            {"samples": 99999999},
            _whole("samples must be <= 16777216, got 99999999"),
        ),
        ("build_sweep_report", ("-1", "0:1:2", "2"), {"samples": 1}, _whole("samples must be >= 2, got 1")),
        (
            "build_energy_report",
            (math.inf, 1.0),
            {"r_min": 3.0, "r_max": 1.0},
            _whole("lambda must be positive and finite, got inf"),
        ),
        (
            "build_congruence_report",
            (3.0, 1.0, 0.5),
            {"r_min": 1.0, "r_max": 0.0},
            _whole("r-min must be < r-max, got [1.0, 0.0]"),
        ),
    ],
    ids=(
        "verify-samples",
        "tortoise-window-order",
        "congruence-b",
        "verify-infinite-end-before-lambda",
        "verify-samples-before-xi",
        "verify-lambda-before-window-order",
        "congruence-b-before-window-order",
        "congruence-range-before-e",
        "tortoise-samples-cap-before-lambda",
        "sweep-samples-before-lambda",
        "energy-lambda-before-window-order",
        "congruence-window-order-before-e",
    ),
)
def test_builders_validate_their_own_inputs(build, args, kwargs, needle):
    # A direct builder call gets the same input rules as the command line,
    # in the same order.
    with pytest.raises(errors.ParameterDomainError, match=needle):
        getattr(suites, build)(*args, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ("energy", "--r-min", "2"),
        ("verify", "--r-min", "5"),
        ("tortoise", "--r-max", "-3"),
        ("congruence", "--e-tilde", "2", "--r-min", "3"),
        ("energy", "--r-min", "5"),
    ],
    ids=("energy-empty", "verify-reversed", "tortoise-reversed", "congruence-reversed", "energy-reversed"),
)
def test_one_sided_window_is_checked_against_the_default_bound(argv):
    # At lambda = 3 the default window is [-2, 2] ([-1, 1] for tortoise); a
    # single bound past the other one's default leaves no window to scan.
    rc, err, rows = run(*argv)
    assert (rc, rows) == (2, None)
    assert len(err.splitlines()) == 1
    assert err.startswith("lbverify: error: r-min must be < r-max")


def test_sweep_rows_equal_single_member_rows():
    # One definition per check: on the same 257-point grid, each sweep cell
    # gives the same values as the verify, energy and congruence reports.
    def values(rpt, check):
        return [row.value for row in rpt.rows if row.check == check]

    for lam in (0.75, 3.0, 11.3):
        for xi in (0.0, 0.7, 1.9):
            verify = suites.build_verify_report(lam, xi, samples=257)
            energy = suites.build_energy_report(lam, xi, samples=257)
            sweep = suites.build_sweep_report(repr(lam), repr(xi), "0:3:3", samples=257)
            for e_tilde in (0.0, 1.5, 3.0):
                tag = f"lambda={lam:.9g};xi={xi:.9g};E={e_tilde:.9g}"
                cell = [row for row in sweep.rows if row.location == tag]
                member_checks = ["f-ode-residual", "field-equation-residual", "strong-margin-constant"]
                expected = (
                    values(verify, "f-ode-residual")
                    + values(verify, "field-equation-residual")
                    + values(energy, "strong-margin-constant")
                )
                if e_tilde >= 1.0:
                    # A sub-unit E has no congruence report and no null-rate row.
                    member_checks.append("null-rate-nonnegative-cells")
                    congruence = suites.build_congruence_report(lam, xi, e_tilde, samples=257)
                    expected += values(congruence, "null-rate-nonnegative-cells")
                assert [row.check for row in cell] == member_checks
                assert [row.value for row in cell] == expected, tag


def test_main_reads_the_builder_from_suites_on_each_call(monkeypatch, tmp_path):
    # A tracer wraps builders by replacing the module attribute; main must
    # see the replacement, and pass only the options given on the command line.
    calls = []
    original = suites.build_verify_report

    def traced(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, "build_verify_report", traced)
    assert cli.main(["verify", "--samples", "64", "--out", str(tmp_path / "r.csv")]) == 0
    assert calls == [{"lam": 3.0, "xi": 1.0, "samples": 64}]


def test_one_exception_type_per_exit_code(monkeypatch):
    # An input outside a computation's domain exits 2; a numerical method
    # that fails on accepted input exits 3. No other kind is told apart.
    defined = {name for name, obj in vars(errors).items() if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert defined == {"LBVerifyError", "ParameterDomainError", "NumericalError", "SpecialFunctionError"}
    for exc, code, prefix in (
        (errors.ParameterDomainError, 2, "lbverify: error: "),
        (errors.NumericalError, 3, "lbverify: numerical failure: "),
        (errors.SpecialFunctionError, 3, "lbverify: numerical failure: "),
    ):
        def failing(*_args, exc=exc, **_options):
            raise exc("boom")

        monkeypatch.setattr(suites, "build_verify_report", failing)
        assert run("verify") == (code, f"{prefix}boom\n", None)


@pytest.mark.parametrize(
    "args",
    [
        # x = w/E^2 is about 1e-308 here: the rate itself passes the float range.
        ("congruence", "--lambda", "1e12", "--xi", "0", "--e-tilde", "1e150"),
        ("congruence", "--lambda", "1e306", "--e-tilde", "2"),
        ("verify", "--lambda", "4e307"),
        ("stability", "--lambda", "5e307"),
    ],
    ids=("congruence-huge-e-tilde", "congruence-huge-lambda", "verify-huge-lambda", "stability-huge-lambda"),
)
def test_cli_numerical_failure_exits_3(args):
    # Accepted inputs whose arithmetic overflows: one line, no traceback.
    rc, stderr, rows = run(*args)
    assert (rc, rows) == (3, None)
    assert stderr.count("\n") == 1
    assert stderr.startswith("lbverify: numerical failure: ")


def test_cli_congruence_jet_oracle_stays_in_range_at_huge_xi_and_e_tilde():
    # At lambda = 1e-300, xi = 1e154, E = 1e150 the profile w reaches past
    # 1e150, and |E| w sqrt(1 - x) would overflow: the jet oracle divides the
    # scan's w out of its flux and volume.  The report fails rows of its own
    # (exit 1), with no numerical failure.
    rc, stderr, rows = run("congruence", "--lambda", "1e-300", "--xi", "1e154", "--e-tilde", "1e150")
    assert (rc, stderr) == (1, "")
    assert _by_check(rows)["expansion-covariant-divergence"][4] == "pass"


def _assert_usage_error(result, needle):
    rc, stderr, rows = result
    assert (rc, rows) == (2, None)
    assert stderr.count("\n") == 1
    assert stderr.startswith("lbverify: error: ")
    assert needle in stderr


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--r-max", "inf"),
        ("energy", "--r-min=-inf"),
        ("congruence", "--e-tilde", "2", "--r-max", "inf"),
        ("tortoise", "--r-max", "inf"),
        ("verify", "--r-min", "nan"),
        ("verify", "--r-min", "-inf"),
    ],
    ids=("verify", "energy", "congruence", "tortoise", "verify-nan", "verify-minus-inf"),
)
def test_cli_rejects_nonfinite_window(args):
    # A non-finite bound would make a NaN grid, which passes every range check.
    _assert_usage_error(run(*args, "--samples", "64"), "must be finite")


@pytest.mark.parametrize(
    ("spaced", "joined", "code"),
    [
        (("verify", "--xi", "-1e10"), ("verify", "--xi=-1e10"), 0),
        (("verify", "--r-min", "-1e-3"), ("verify", "--r-min=-1e-3"), 0),
        (("sweep", "--xi", "-1e3:1e3:2", "--samples", "8"), ("sweep", "--xi=-1e3:1e3:2", "--samples", "8"), 0),
        (("sweep", "--xi", "-1:1:2"), ("sweep", "--xi=-1:1:2"), 0),
    ],
    ids=("xi-exponent", "r-min-exponent", "sweep-exponent-spec", "sweep-spec"),
)
def test_cli_negative_values_in_any_float_form(spaced, joined, code, capsysbinary):
    # argparse alone reads a token such as -1e10 or -1:1:2 as an option, and
    # only the --opt=value spelling would work.
    assert cli.main(list(spaced)) == code
    first = capsysbinary.readouterr()
    assert cli.main(list(joined)) == code
    assert capsysbinary.readouterr() == first
    assert compare_reports.parse(first.out.decode(), list(spaced))[1] and first.err == b""


@pytest.mark.parametrize("samples", ("1", "0", "-5"))
def test_cli_sweep_follows_the_samples_rule(samples):
    _assert_usage_error(run("sweep", "--samples", samples), "samples must be >= 2")


@pytest.mark.parametrize(
    ("args", "needle"),
    [
        (("verify", "--samples", "100000000000"), "samples must be <= 16777216"),
        (("energy", "--samples", "100000000000"), "samples must be <= 16777216"),
        (("tortoise", "--samples", "100000000000"), "samples must be <= 16777216"),
        (("congruence", "--e-tilde", "2", "--samples", "16777217"), "samples must be <= 16777216"),
        (("sweep", "--samples", "100000000000"), "samples must be <= 16777216"),
        (("sweep", "--xi", "0:1:100000000000"), "sweep cell count must be <= 16777216"),
        (("sweep", "--xi", "0:inf:3"), "xi range bounds must be finite"),
    ],
    ids=("verify", "energy", "tortoise", "congruence", "sweep", "sweep-xi-count", "sweep-inf-range"),
)
def test_cli_bounds_grid_sizes_before_allocating(args, needle):
    # Without the bound, numpy fails to allocate the grid with a traceback.
    _assert_usage_error(run(*args), needle)


def test_congruence_scans_the_samples_it_names(capsysbinary):
    # The scan grid is the --samples grid, 257 by default, and every row's
    # location names it.
    reports = {}
    for extra in ((), ("--samples", "257"), ("--samples", "1000")):
        assert cli.main(["congruence", "--e-tilde", "2", *extra]) == 0
        reports[extra] = capsysbinary.readouterr().out
    assert reports[()] == reports[("--samples", "257")]
    for samples, admissible in (("257", 89), ("1000", 344)):
        argv = ["congruence", "--e-tilde", "2", "--samples", samples]
        _, rows = compare_reports.parse(reports[("--samples", samples)].decode(), argv)
        assert {loc for _, loc, _, _, _ in rows if loc.startswith("grid")} == {f"grid[-2;2]x{samples}"}
        assert ("timelike-admissible-points", f"grid[-2;2]x{samples}", admissible, 0.0, "pass") in rows


def test_sweep_bounds_its_cell_count_before_building_a_grid(monkeypatch):
    # 4097 x 4096 cells: each count is small, their product is not.
    def forbidden(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr(suites.np, "linspace", forbidden)
    with pytest.raises(errors.ParameterDomainError, match="sweep cell count must be <= 16777216, got 16781312"):
        suites.build_sweep_report("1:2:4097", "0:1:4096", "2")


@pytest.mark.parametrize("e_tilde", ("nan", "inf", "-inf", "2:nan:2"))
def test_cli_sweep_rejects_nonfinite_energy(e_tilde):
    _assert_usage_error(run("sweep", f"--e-tilde={e_tilde}", "--samples", "16"), "must be finite")


def test_cli_out_file_round_trip(capsysbinary):
    # ``parse`` raises on a report without its header line.
    rc, _, rows = run("stability", "--lambda", "3")
    assert rc == 0 and rows
    assert capsysbinary.readouterr().out == b""


def test_cli_sweep_deterministic_output(tmp_path):
    argv = ["sweep", "--lambda", "0.75:3:2", "--xi", "0:1:2", "--e-tilde", "2", "--samples", "65"]
    first, second = (compare_reports.run_call(cli.main, argv, str(tmp_path / "report")) for _ in range(2))
    assert first["rc"] == 0 and first["report"]
    assert second == first


def test_cli_sweep_rejects_malformed_range():
    for bad, needle in (("1:2", "start:stop:count"), ("1:x:2", "malformed"), ("1:2:0", "count must be >= 1")):
        rc, err, rows = run("sweep", "--lambda", bad, "--xi", "1", "--e-tilde", "2")
        assert (rc, rows) == (2, None), bad
        assert len(err.splitlines()) == 1
        assert err.startswith("lbverify: error: ") and needle in err


def test_cli_sweep_accepts_a_count_of_one():
    rc, _, rows = run("sweep", "--lambda", "3:3:1", "--xi", "1", "--e-tilde", "2")
    assert rc == 0
    assert len(rows) == 4
    assert {loc for _, loc, _, _, _ in rows} == {"lambda=3;xi=1;E=2"}


def test_cli_tortoise_green():
    assert run("tortoise", "--lambda", "3", "--xi", "0.5", "--samples", "65")[0] == 0


@pytest.mark.parametrize(
    "extra",
    [("--xi", "4"), ("--xi", "1e3"), ("--r-max", "1.5"), ("--xi", "1e154", "--r-min", "-116", "--r-max", "-112")],
)
def test_cli_tortoise_large_argument_green(extra):
    # z = -xi^2 e^{6r/a} reaches about -5e3 in the first three, past where a
    # Pfaff-only 2F1 series would need more than 100,000 terms, and lies past
    # the float range on the whole last window, which the beta form accepts.
    rc, stderr, rows = run("tortoise", *extra)
    assert (rc, stderr) == (0, "")
    assert [check for check, *_ in rows] == ["tortoise-channel-agreement", "tortoise-derivative-identity"]
    assert all(verdict == "pass" for *_, verdict in rows)


def test_cli_tortoise_overflowing_window_is_usage_error():
    message = "lbverify: error: |r| exceeds the overflow bound 116.667 for lambda=3.0\n"
    assert run("tortoise", "--r-max", "1000") == (2, message, None)


_PAST_BOUND = repr(1.000001 * radial_bound(params_from_xi(3.0, 1.0)))


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--r-max", _PAST_BOUND),
        ("energy", "--r-max", _PAST_BOUND),
        ("congruence", "--e-tilde", "2", "--r-max", _PAST_BOUND),
        ("tortoise", "--r-max", _PAST_BOUND),
        ("tortoise", "--r-min", "-" + _PAST_BOUND),
        ("tortoise", "--xi", "1e154", "--r-max", _PAST_BOUND),
    ],
    ids=("verify", "energy", "congruence", "tortoise", "tortoise-r-min", "tortoise-huge-xi"),
)
def test_windows_past_the_radial_bound_share_one_usage_error(argv):
    # Every windowed subcommand accepts the model's radial range and no more.
    message = "lbverify: error: |r| exceeds the overflow bound 116.667 for lambda=3.0\n"
    assert run(argv[0], "--lambda", "3", *argv[1:]) == (2, message, None)


@pytest.mark.parametrize("side", (1.0, -1.0), ids=("r-max", "r-min"))
@pytest.mark.parametrize(
    "argv",
    [("verify",), ("energy",), ("congruence", "--e-tilde", "2"), ("tortoise",)],
    ids=("verify", "energy", "congruence", "tortoise"),
)
def test_windows_ending_at_the_radial_bound_write_a_report(argv, side):
    # The accepting side of the rule above: a window ending exactly at
    # +/- radial_bound is inside the model's range, finite-difference
    # stencils included, and is answered with a report, not a usage error.
    bound = radial_bound(params_from_xi(3.0, 1.0))
    r_min, r_max = sorted((side * bound, side * (bound - 6.0)))
    rc, stderr, rows = run(argv[0], "--lambda", "3", *argv[1:], "--r-min", repr(r_min), "--r-max", repr(r_max))
    assert rc in (0, 1) and stderr == ""
    assert rows and all(verdict in VERDICTS for *_, verdict in rows)


def test_cli_congruence_extra_b_scan():
    rc, _, rows = run("congruence", "--lambda", "3", "--xi", "0.5", "--e-tilde", "2", "--samples", "64", "--b", "0.49")
    assert rc == 0
    assert {"focusing-roots-found[b=0.49]", "focusing-root[b=0.49]"} <= set(_by_check(rows))
    assert run("congruence", "--lambda", "3", "--xi", "0.5", "--e-tilde", "2", "--b", "0.7")[0] == 2


@pytest.mark.parametrize("b", ["0", "-0"])
def test_cli_congruence_b_zero_adds_no_root_row(b):
    # b = 0 is the sign map's first value: its one root-count row stands.
    rc, _, rows = run("congruence", "--e-tilde", "2", "--b", b, "--samples", "64")
    assert rc == 0
    checks = [check for check, *_ in rows]
    assert checks.count("focusing-roots-found[b=0]") == 1
    assert not [check for check in checks if "[b=-0]" in check]


@pytest.mark.parametrize("b", ["nan", "-1e-300", "0.7"])
def test_cli_congruence_rejects_b_outside_its_range(b):
    rc, err, rows = run("congruence", "--e-tilde", "2", "--b", b, "--samples", "64")
    assert (rc, rows) == (2, None)
    assert err.startswith("lbverify: error: b must lie in [0, 1/2]")


@pytest.mark.parametrize("b", ["1e-170", "5e-324"])
def test_cli_congruence_tiny_b_scans_its_roots(b):
    # Below b ~ 7.9e-163, 4 b^2 rounds to 0 and the quoted domain starts at
    # x = 0, where the focusing polynomial is 0/0.
    rc, _, rows = run("congruence", "--e-tilde", "2", "--b", b, "--samples", "64")
    assert rc == 0
    found = f"focusing-roots-found[b={float(b):.9g}]"
    assert [(value, verdict) for check, _, value, _, verdict in rows if check == found] == [(0.0, "pass")]


@pytest.mark.parametrize(
    "argv",
    [
        ["--lambda", "1e-300", "--xi", "1", "--e-tilde", "1e150"],
        ["--lambda", "1e-300", "--xi", "0", "--e-tilde", "1e150"],
        ["--e-tilde", "1e60"],
    ],
    ids=("tiny-lambda", "tiny-lambda-vacuum", "huge-e"),
)
def test_cli_congruence_underflowing_x_cubed_writes_a_report(argv):
    # x = w/E^2 is so small here that x^3 underflows to 0.  These points
    # lie outside the quoted domain, so the quoted comparison covers none of
    # them; rounding in its denominator is not a usage error (exit 2).
    # Rows of other checks may still fail on these inputs (exit 1).
    rc, err, rows = run("congruence", *argv)
    assert rc in (0, 1) and err == ""
    by_check = _by_check(rows)
    assert by_check["quoted-scaled-rate-points"][2] == 0.0
    assert "quoted-scaled-rate-vs-direct" not in by_check


@pytest.mark.parametrize("e_tilde", ("1e52", "1e80", "1e100"))
def test_cli_congruence_huge_e_tilde_writes_a_report(e_tilde):
    # E enters the rates only through x = w/E^2, so no E^2 w or E^4 product
    # overflows.  At E = 1e52, x^6 and 4 b^2 x^3 underflow to 0 while x^3
    # stays subnormal; the quoted domain test compares x with cbrt(4 b^2)
    # and keeps these points out of the comparison.  The failing rows are
    # the three whose tolerances are absolute, while their values scale
    # with E.
    rc, err, rows = run("congruence", "--e-tilde", e_tilde)
    assert (rc, err) == (1, "")
    assert _by_check(rows)["quoted-scaled-rate-points"][2] == 0.0
    failing = {check for check, *_, verdict in rows if verdict == "fail"}
    assert failing == {"four-velocity-normalization", "expansion-covariant-divergence", "potential-gradient-covector"}


_FIXED_CELLS = [f"focusing-positive-cells[b={b:.9g}]" for b in suites.SIGN_MAP_B_VALUES]


@pytest.mark.parametrize(
    "b, cells",
    [
        ("0.1", _FIXED_CELLS),
        ("0.25", _FIXED_CELLS),
        ("0.49", _FIXED_CELLS),
        ("0.3", [*_FIXED_CELLS, "focusing-positive-cells[b=0.3]"]),
    ],
)
def test_cli_congruence_b_sign_map_rows(b, cells):
    # A --b value that the sign map fixes adds no row; any other adds one,
    # after the fixed rows and before the discriminant.
    rc, _, rows = run("congruence", "--e-tilde", "2", "--b", b, "--samples", "64")
    assert rc == 0
    checks = [check for check, *_ in rows]
    end = checks.index("focusing-reduced-discriminant")
    assert checks[end - len(cells) : end] == cells
    assert sum(check.startswith("focusing-positive-cells[") for check in checks) == len(cells)


def test_cli_out_io_failure_exits_1(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    result = compare_reports.run_call(cli.main, ["stability", "--lambda", "3"], str(out))
    assert (result["rc"], result["report"]) == (1, None)
    assert result["stderr"].startswith("lbverify: error: ")


def test_exit_code_contract_randomized_configs():
    # In-process property check of the exit-code contract over random
    # configurations: invalid parameters are always 2, valid smoke runs 0.
    rng = __import__("numpy").random.default_rng(80552)
    for _ in range(25):
        lam = float(rng.uniform(-2.0, 12.0))
        xi = float(rng.uniform(-2.0, 2.0))
        samples = int(rng.integers(0, 200))
        code = run("verify", "--lambda", str(lam), "--xi", str(xi), "--samples", str(samples))[0]
        if lam <= 0.0 or samples < 2:
            assert code == 2
        else:
            assert code == 0
    for _ in range(10):
        e_tilde = float(rng.uniform(-2.0, 2.0))
        code = run("congruence", "--lambda", "3", "--xi", "0.5", "--e-tilde", str(e_tilde), "--samples", "64")[0]
        assert code == (0 if abs(e_tilde) >= 1.0 else 2)


def test_main_reuses_parser_across_calls(tmp_path, capsys):
    # main keeps one parser per process: repeated and interleaved calls give
    # the same bytes, and a parse error still exits 2 with argparse's message.
    argv = ["tortoise", "--xi", "0.5", "--samples", "33"]
    outputs = []
    for i, extra in enumerate(([], ["--format", "json"], [])):
        out = tmp_path / f"r{i}"
        assert cli.main(argv + extra + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[2] != outputs[1]
    assert cli._parser() is cli._parser()
    many = (["tortoise", "--samples", "many"], "argument --samples: invalid int value: 'many'")
    for bad, message in 2 * (many, ([], "the following arguments are required: subcommand")):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(bad)
        assert excinfo.value.code == 2
        assert capsys.readouterr() == ("", f"lbverify: error: {message}\n")


def test_cli_energy_green():
    rc, _, rows = run("energy", "--lambda", "3", "--xi", "0", "--samples", "257")
    assert rc == 0
    assert [value for check, _, value, _, _ in rows if check.startswith("energy-SEC-holds-fraction")] == [0.0]


@pytest.mark.parametrize(
    "argv, code, failing",
    [
        (("tortoise", "--lambda", "1e-12"), 0, []),
        (("tortoise", "--lambda", "1e12"), 0, []),
        (("congruence", "--lambda", "1e4", "--e-tilde", "2"), 0, []),
        # The divergence row takes jets, not a stencil: its rounding, about
        # eps theta with theta of order 1/a = sqrt(lambda/3), stays below the
        # absolute 1e-6 here.
        (("congruence", "--lambda", "1e12", "--e-tilde", "2"), 0, []),
        # A window across the turning point r = -log(2) at xi = 0: its middle
        # admissible radius is about 5e-6 from it, closer than eps^(1/3), and
        # the potential stencil stays on the allowed side.
        (
            ("congruence", "--lambda", "3", "--xi", "0", "--e-tilde", "2",
             "--r-min", "-0.6931482", "--r-max", "-0.6931372", "--samples", "64"),
            0,
            [],
        ),
    ],
    ids=("tortoise-tiny-lambda", "tortoise-huge-lambda", "congruence-lambda-1e4", "congruence-lambda-1e12",
         "congruence-near-turning-point"),
)
def test_cli_finite_difference_steps_scale_with_a(argv, code, failing):
    # Every stencil step is a fraction of the de Sitter length a, so no row
    # fails on a step that is too wide or too narrow for the window.
    rc, _, rows = run(*argv)
    assert rc == code
    assert [check for check, *_, verdict in rows if verdict == "fail"] == failing


@pytest.mark.parametrize(
    "lam,xi,r_min,r_max",
    [
        ("3", "0", "-0.6931482", "-0.6931372"),
        ("3", "1", "-0.6878133757", "-0.6878023757"),
        ("1", "0", "-1.2005678995", "-1.200548847"),
        ("1", "1", "-1.1913277128", "-1.1913086603"),
    ],
    ids=("lambda-3-xi-0", "lambda-3-xi-1", "lambda-1-xi-0", "lambda-1-xi-1"),
)
def test_cli_congruence_oracles_score_every_point_near_a_turning_point(lam, xi, r_min, r_max):
    # All 58 admissible radii lie within 1e-3 E^2 of the turning point
    # (r = -a log 2 at xi = 0, shifted at xi = 1).  The chain-rule and
    # divergence rows read jets at each of them, so they score nonzero
    # rounding, not 0 over no point.  The jet of w takes the scan's value,
    # so E^2 - w agrees on both sides also where a is not a power of two.
    argv = ["congruence", "--lambda", lam, "--xi", xi, "--e-tilde", "2", "--samples", "64"]
    rc, _, rows = run(*argv, "--r-min", r_min, "--r-max", r_max)
    assert rc == 0
    by_check = _by_check(rows)
    assert by_check["timelike-admissible-points"][2] == 58.0
    for check in ("rate-chain-rule-rel", "expansion-covariant-divergence"):
        _, _, value, tolerance, verdict = by_check[check]
        assert verdict == "pass"
        assert 0.0 < value <= 1e-3 * tolerance, check


@pytest.mark.parametrize(
    "e_tilde", [repr(math.sqrt(1.5 * 2 ** (2 / 3))), repr(math.nextafter(math.sqrt(1.5 * 2 ** (2 / 3)), 2.0))]
)
def test_cli_congruence_chain_rule_row_passes_at_a_root_of_the_rate(e_tilde):
    # At xi = 1 the grid point r = 0 has w' = 0, and E^2 = 1.5 w(0) zeroes
    # the rate there: exactly at the first E, from cancelling terms at the
    # next double.  The row divides by the scan's largest rate, not by the
    # rate at each point, so neither is a division by zero or a false fail.
    rc, _, rows = run("congruence", "--xi", "1", "--e-tilde", e_tilde)
    assert rc == 0
    _, _, value, _, verdict = _by_check(rows)["rate-chain-rule-rel"]
    assert verdict == "pass"
    assert value <= 1e-9


def test_cli_potential_stencil_between_near_turning_ends():
    # The middle admissible radius has E^2 - w of about 1e-9 E^2, so both
    # ends of the potential stencil (h of about 1e-14) lie within 1e-9 E^2
    # of the turning point r = -log(2).
    rc, stderr, rows = run(
        "congruence", "--lambda", "3", "--xi", "0", "--e-tilde", "2",
        "--r-min", "-0.6931471803199453", "--r-max", "-0.6931471802999453", "--samples", "3",
    )
    assert (rc, stderr) == (0, "")
    assert [verdict for check, *_, verdict in rows if check == "potential-gradient-covector"] == ["pass"]
