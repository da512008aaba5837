"""Random argv through ``cli.main``: no exception escapes, exit 2 and 3 write one stderr line and no report,
exit 0 and 1 write a parsable report and no stderr, and a second call gives the same bytes.

Most draws come from the accepted domain; a minority are inputs the checks reject (a non-finite or
subnormal lambda, |xi| past its bound, a sub-unit E, reversed windows, too few samples, malformed sweep
triples).  The exit-3 messages are counted and printed (``pytest -s``): each is a numerical failure on
accepted input that the input checks do not yet reject.
"""

import math
from collections import Counter

import compare_reports
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lbverify import cli

SUBCOMMANDS = ("verify", "stability", "energy", "congruence", "tortoise", "sweep")

PREFIX = {2: "lbverify: error: ", 3: "lbverify: numerical failure: "}


REJECTED_LAMBDAS = ("0", "-3", "1e-320", "5e-324", "inf", "-inf", "nan")
REJECTED_XIS = ("1e155", "-1e200", "inf", "nan")
REJECTED_E_TILDES = ("0", "0.5", "-0.99", "inf", "nan")
REJECTED_SAMPLES = ("1", "0", "-5", "16777217")
REJECTED_TRIPLES = ("1:2", "1:2:0", "1:2:-1", "1:inf:2", "nan:1:2", "a:b:c", "1:2:3:4", "")


def _text(x: float) -> str:
    return repr(float(x))


def _argv(sub: str, choice: int, *u: float) -> list[str]:
    """An argv of ``sub`` from a choice in [0, 100) and ten uniforms in [0, 1].

    lambda is log-uniform in [1e-300, 1e300], |xi| in [1e-300, 1e154] with either sign (0 for u1 < 0.05),
    and |E| in [1, 1e150] with either sign.  A choice below 20 swaps one option for a rejected value.
    """
    lam = 10.0 ** (-300.0 + 600.0 * u[0])
    xi = 0.0 if u[1] < 0.05 else math.copysign(10.0 ** (-300.0 + 454.0 * u[1]), u[2] - 0.5)
    e_tilde = math.copysign(10.0 ** (150.0 * u[3]), u[4] - 0.5)
    reject = choice < 20
    argv = [sub]
    if sub == "stability":
        argv += ["--lambda", REJECTED_LAMBDAS[choice % 7] if reject else _text(lam)]
    elif sub == "sweep":
        for option, start, stop, k in (
            ("--lambda", lam, 10.0 ** (-300.0 + 600.0 * u[5]), 0),
            ("--xi", xi, math.copysign(10.0 ** (-300.0 + 454.0 * u[6]), u[2] - 0.5), 1),
            ("--e-tilde", e_tilde, e_tilde * 10.0 ** (10.0 * u[7]), 2),
        ):
            count = 1 + int(3.0 * u[8]) if u[9] < 0.5 else 1 + (choice + k) % 3
            argv += [option, f"{_text(start)}:{_text(stop)}:{count}" if (choice >> k) & 1 else _text(start)]
        if reject:
            argv[2 * (1 + choice % 3)] = REJECTED_TRIPLES[choice % 8]
        argv += ["--samples", str(2 + int(38.0 * u[9]))]
    else:
        argv += ["--lambda", _text(lam), "--xi", _text(xi)]
        if sub == "congruence":
            argv += ["--e-tilde", REJECTED_E_TILDES[choice % 5] if 20 <= choice < 25 else _text(e_tilde)]
        if u[7] < 0.5:
            # Ends in [-2a, 2a], inside the radial bound (about 117 a); equal ends are rejected.
            a = math.sqrt(3.0 / lam)
            ends = sorted((-2.0 + 4.0 * u[5], -2.0 + 4.0 * u[6]))
            argv += [f"--r-min={_text(ends[0] * a)}", f"--r-max={_text(ends[1] * a)}"]
        argv += ["--samples", str(2 + int(298.0 * u[8]))]
        if reject:
            kind = choice % 4
            if kind == 0:
                argv += ["--r-min=1", "--r-max=-1"]
            elif kind == 1:
                argv += ["--samples", REJECTED_SAMPLES[choice // 4 % 4]]
            elif kind == 2:
                argv[2] = REJECTED_LAMBDAS[choice % 7]
            else:
                argv[4] = REJECTED_XIS[choice % 4]
    return argv + ["--format", ("csv", "json")[u[9] < 0.3]]


#: Most draws lie in the accepted domain; about one in five takes a rejected value.
CALLS = st.builds(_argv, st.sampled_from(SUBCOMMANDS), st.integers(0, 99), *[st.floats(0.0, 1.0)] * 10)


def test_random_argv_keeps_the_exit_code_contract(tmp_path):
    out = str(tmp_path / "report")
    exits, exit_3 = Counter(), Counter()

    @settings(
        max_examples=1000, derandomize=True, deadline=None, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(CALLS)
    def check(argv):
        first = compare_reports.run_call(cli.main, argv, out)
        rc, stderr, report = first["rc"], first["stderr"], first["report"]
        assert rc in (0, 1, 2, 3), (argv, stderr)
        if rc in (2, 3):
            lines = stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith(PREFIX[rc]), (argv, stderr)
            assert report is None, argv
        else:
            assert stderr == "", argv
            assert compare_reports.parse(report, argv)[1], argv
        assert compare_reports.run_call(cli.main, argv, out) == first, argv
        exits[rc] += 1
        if rc == 3:
            exit_3[f"{argv[0]}: {stderr.strip()}"] += 1

    check()
    print(f"exits {dict(sorted(exits.items()))}")
    for message, count in exit_3.most_common():
        print(f"{count:5d}  {message}")
