"""Launcher for the traced runs of ``cli-cold``: ``python -m lbverify`` plus timing.

    python3 perfbench/launch.py SIDE_FILE ARGS...

Runs ``lbverify.cli.main(ARGS)`` with every public function traced, exits
with its code like ``python -m lbverify ARGS`` does, and writes to SIDE_FILE
the time from this script's first statement to the end of ``main`` (the
child's own time: the parent's wall time minus it is the spawn cost) and the
harvested spans.  The report bytes are those of an untraced run.
"""

import time

t_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from worker import import_program  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    side, argv = sys.argv[1], sys.argv[2:]
    lbverify = import_program()
    tracer = Tracer(lbverify)
    tracer.install()
    rc = 1
    try:
        rc = lbverify.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        own_ms = (time.perf_counter() - t_start) * 1e3
        with open(side, "w", encoding="utf-8") as handle:
            json.dump({"own_ms": own_ms, "trace": tracer.harvest()}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
