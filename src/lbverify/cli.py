"""Command-line surface.

Subcommands: verify, stability, energy, congruence, tortoise, sweep.
Exit codes: 0 when every internal-consistency check passes (rows with
verdict "discrepancy-logged" do not fail a run), 1 when any internal check
fails, 2 for invalid parameters or usage, always with exactly one
``lbverify: error:`` line on stderr.  Output is deterministic: the same
configuration produces byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import LBVerifyError
from .report import Report, emit_csv, emit_json
from .suites import (
    MAX_GRID_SIZE,
    build_congruence_report,
    build_energy_report,
    build_stability_report,
    build_sweep_report,
    build_tortoise_report,
    build_verify_report,
)


def _add_common(sub: argparse.ArgumentParser, samples_default: int = 4096) -> None:
    sub.add_argument("--lambda", dest="lam", type=float, default=3.0, help="cosmological constant (> 0)")
    sub.add_argument("--xi", type=float, default=1.0, help="family parameter")
    sub.add_argument("--r-min", type=float, default=None, help="scan window start (default -2a)")
    sub.add_argument("--r-max", type=float, default=None, help="scan window end (default +2a)")
    sub.add_argument("--samples", type=int, default=samples_default, help="grid density")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``lbverify: error:`` line and exit 2."""

    def error(self, message: str):
        self.exit(2, f"lbverify: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lbverify",
        description=(
            "Verification toolkit for the cylindrically symmetric scalar-field"
            " spacetime with positive cosmological constant."
        ),
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    _add_common(subs.add_parser("verify", help="internal-consistency suite"))
    sub = subs.add_parser("stability", help="stationary point, spectrum, verdict")
    sub.add_argument("--lambda", dest="lam", type=float, default=3.0)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None)
    _add_common(subs.add_parser("energy", help="energy-condition margins and regions"))
    sub = subs.add_parser("congruence", help="timelike/null congruence and focusing scans")
    _add_common(sub)
    sub.add_argument("--e-tilde", type=float, default=None, help="conserved energy per rest mass (|E| >= 1)")
    sub.add_argument("--b", type=float, default=None, help="extra focusing-polynomial scan value in [0, 1/2]")
    _add_common(subs.add_parser("tortoise", help="tortoise-coordinate dual-channel checks"), samples_default=513)
    sub = subs.add_parser("sweep", help="grid sweep over (lambda, xi, e-tilde)")
    sub.add_argument("--lambda", dest="lam", default="3", help="value or start:stop:count")
    sub.add_argument("--xi", default="1", help="value or start:stop:count")
    sub.add_argument("--e-tilde", default="2", help="value or start:stop:count")
    sub.add_argument("--samples", type=int, default=257)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None)
    return parser


#: The parser ``main`` uses, built on first use; parsing does not mutate it.
_parser = functools.cache(build_parser)


def _validate_window(args) -> None:
    """The window and density rules of every subcommand that has them."""
    r_min, r_max = getattr(args, "r_min", None), getattr(args, "r_max", None)
    for name, bound in (("r-min", r_min), ("r-max", r_max)):
        if bound is not None and not math.isfinite(bound):
            raise LBVerifyError(f"{name} must be finite, got {bound}")
    if r_min is not None and r_max is not None and not r_min < r_max:
        raise LBVerifyError(f"r-min must be < r-max, got [{r_min}, {r_max}]")
    samples = getattr(args, "samples", 2)
    if samples < 2:
        raise LBVerifyError(f"samples must be >= 2, got {samples}")
    if samples > MAX_GRID_SIZE:
        raise LBVerifyError(f"samples must be <= {MAX_GRID_SIZE}, got {samples}")


def _build_report(args) -> Report:
    _validate_window(args)
    if args.subcommand == "verify":
        return build_verify_report(args.lam, args.xi, args.r_min, args.r_max, args.samples)
    if args.subcommand == "stability":
        return build_stability_report(args.lam)
    if args.subcommand == "energy":
        return build_energy_report(args.lam, args.xi, args.r_min, args.r_max, args.samples)
    if args.subcommand == "congruence":
        if args.e_tilde is None:
            raise LBVerifyError("congruence requires --e-tilde")
        if args.b is not None and not 0.0 <= args.b <= 0.5:
            raise LBVerifyError(f"--b must lie in [0, 1/2], got {args.b}")
        return build_congruence_report(
            args.lam, args.xi, args.e_tilde, args.r_min, args.r_max, args.samples, args.b
        )
    if args.subcommand == "tortoise":
        return build_tortoise_report(args.lam, args.xi, args.r_min, args.r_max, args.samples)
    if args.subcommand == "sweep":
        return build_sweep_report(str(args.lam), str(args.xi), str(args.e_tilde), args.samples)
    raise LBVerifyError(f"unknown subcommand {args.subcommand!r}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = _build_report(args)
    except LBVerifyError as exc:
        print(f"lbverify: error: {exc}", file=sys.stderr)
        return 2
    payload = emit_csv(report) if args.format == "csv" else emit_json(report)
    if args.out:
        try:
            with open(args.out, "wb") as handle:
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
