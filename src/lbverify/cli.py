"""Command-line surface.

Subcommands: verify, stability, energy, congruence, tortoise, sweep.
Exit codes: 0 when every internal-consistency check passes (rows with
verdict "discrepancy-logged" do not fail a run), 1 when any internal check
fails, 2 for invalid parameters or usage, always with exactly one
``lbverify: error:`` line on stderr, and 3 when a numerical method fails on
accepted input, with exactly one ``lbverify: numerical failure:`` line.
Each report builder in ``suites`` owns its defaults and input rules; this
module parses, dispatches and emits.  Output is deterministic: the same
configuration produces byte-identical CSV/JSON on one numpy build at one SIMD
dispatch level (another level may move the last bits of a value).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings

from . import suites
from .errors import LBVerifyError, NumericalError
from .report import emit_csv, emit_json


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_common(sub: argparse.ArgumentParser, half_width: str) -> None:
    """Options of the single-member scans; ``half_width`` names the default window in help."""
    sub.add_argument("--lambda", dest="lam", type=float, default=3.0, help="cosmological constant (> 0)")
    sub.add_argument("--xi", type=float, default=1.0, help="family parameter")
    # Options that default to SUPPRESS are absent unless given, so the
    # builder's own default applies.
    sub.add_argument("--r-min", type=float, default=argparse.SUPPRESS,
                     help=f"scan window start (default -{half_width})")
    sub.add_argument("--r-max", type=float, default=argparse.SUPPRESS,
                     help=f"scan window end (default +{half_width})")
    sub.add_argument("--samples", type=int, default=argparse.SUPPRESS, help="grid density")
    _add_output(sub)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``lbverify: error:`` line and exit 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No option starts with -<digit>, so a token such as -1e10, -.5, -inf
        # or -nan is a negative value, not an unknown option.
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        self.exit(2, f"lbverify: error: {message}\n")


class _AfterSubcommand(argparse.Action):
    """A subcommand option given before the subcommand, where argparse would read its value as the subcommand."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the subcommand")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lbverify",
        description=(
            "Verification toolkit for the cylindrically symmetric scalar-field"
            " spacetime with positive cosmological constant."
        ),
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    _add_common(subs.add_parser("verify", help="internal-consistency suite"), "2a")
    sub = subs.add_parser("stability", help="stationary point, spectrum, verdict")
    sub.add_argument("--lambda", dest="lam", type=float, default=3.0)
    _add_output(sub)
    _add_common(subs.add_parser("energy", help="energy-condition margins and regions"), "2a")
    sub = subs.add_parser("congruence", help="timelike/null congruence and focusing scans")
    _add_common(sub, "2a")
    sub.add_argument("--e-tilde", type=float, required=True, help="conserved energy per rest mass (|E| >= 1)")
    sub.add_argument(
        "--b", type=float, default=argparse.SUPPRESS, help="extra focusing-polynomial scan value in [0, 1/2]"
    )
    _add_common(subs.add_parser("tortoise", help="tortoise-coordinate dual-channel checks"), "a")
    sub = subs.add_parser("sweep", help="grid sweep over (lambda, xi, e-tilde)")
    sub.add_argument("--lambda", dest="lam_spec", default="3", help="value or start:stop:count")
    sub.add_argument("--xi", dest="xi_spec", default="1", help="value or start:stop:count")
    sub.add_argument("--e-tilde", dest="e_spec", default="2", help="value or start:stop:count")
    sub.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    _add_output(sub)
    # Every subcommand option is named when it comes first, in the
    # subcommands' order, so that an ambiguous prefix lists its matches as
    # the subcommand would.
    options = (option for choice in subs.choices.values() for option in choice._option_string_actions)
    for option in dict.fromkeys(options):
        if option not in ("-h", "--help"):
            parser.add_argument(option, action=_AfterSubcommand, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return parser


#: The parser ``main`` uses, built on first use; parsing does not mutate it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    options = vars(_parser().parse_args(argv))
    fmt, out = options.pop("format"), options.pop("out")
    # The builders are read from ``suites`` on every call, so that a wrapper
    # installed there (a tracer) is the one that runs.
    build = {
        "verify": suites.build_verify_report,
        "stability": suites.build_stability_report,
        "energy": suites.build_energy_report,
        "congruence": suites.build_congruence_report,
        "tortoise": suites.build_tortoise_report,
        "sweep": suites.build_sweep_report,
    }[options.pop("subcommand")]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = build(**options)
    except (NumericalError, RuntimeWarning, OverflowError) as exc:
        print(f"lbverify: numerical failure: {exc}", file=sys.stderr)
        return 3
    except LBVerifyError as exc:
        print(f"lbverify: error: {exc}", file=sys.stderr)
        return 2
    payload = emit_csv(report) if fmt == "csv" else emit_json(report)
    if out:
        try:
            with open(out, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"lbverify: error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
