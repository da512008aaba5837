"""Runs one workload's ops in a closed loop with a single client.

``run.py`` starts this script in a fresh interpreter and reads what it
leaves in ``--workdir``; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --workload W --seed N --setup-only

Each op's calls go through the documented CLI contract, ``lbverify.cli.main``
(in-process workloads) or ``python -m lbverify`` (``cli-cold``), and write
their report to a file of their own with ``--out``; the timed region is the
call.  With ``--trace 1`` every op runs twice, untraced and then traced, so
that the tracing overhead is measured on the same inputs.

A run sends a fixed number of ops, ``workloads.ops_per_run``: about
``--seconds`` of work at the reference speed, and the same op sequence, with
the same failures, on every run of a seed.  A calibration probe
(``calibrate``) runs before each op, outside its timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from itertools import islice
from pathlib import Path

from workloads import load_catalog, ops_per_run, schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
perf = time.perf_counter

#: Workloads that start one interpreter per call instead of calling main().
SUBPROCESS_WORKLOADS = ("cli-cold",)


def import_program():
    """Import lbverify from this checkout's ``src/`` and from nowhere else."""
    init = SRC / "lbverify" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lbverify
    import lbverify.cli  # noqa: F401  (the entry point every op goes through)

    if Path(lbverify.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported lbverify from {lbverify.__file__}, not from {SRC}")
    return lbverify


def child_env() -> dict[str, str]:
    """Environment of the program: the checkout's sources, the default thread count.

    Bytecode caching is always on, so every interpreter after the first reads
    lbverify's cached bytecode, as an installed copy does, whatever the
    caller's PYTHONDONTWRITEBYTECODE says.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("LBVERIFY_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def sweep_threads() -> int:
    """The sweep pool size the program picks without LBVERIFY_THREADS: min(8, nproc).

    ``child_env`` removes LBVERIFY_THREADS, so this is the thread count every
    run uses; it never exceeds nproc.
    """
    return min(8, os.cpu_count() or 1)


def call_in_process(cli, argv: list[str], out: str):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = perf()
        try:
            rc = cli.main(argv + ["--out", out])
        except SystemExit as exc:  # argparse rejects malformed usage this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # recorded and counted as a failed op
            rc = None
            traceback.print_exc()
        ms = (perf() - t0) * 1e3
    return rc, err.getvalue(), ms


def call_subprocess(cmd: list[str]):
    t0 = perf()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    except subprocess.TimeoutExpired:
        return None, "timeout after 120 s", (perf() - t0) * 1e3
    return proc.returncode, proc.stderr.decode("utf-8", "replace"), (perf() - t0) * 1e3


class Runner:
    def __init__(self, workload: str, workdir: Path, lbverify, tracer=None):
        self.subprocess = workload in SUBPROCESS_WORKLOADS
        self.outdir = workdir / "out"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.cli = lbverify.cli
        self.tracer = tracer

    def run(self, entry: dict, tag: str, traced: bool) -> dict:
        if traced:
            from tracer import merge  # untraced runs and set-up probes never load the tracer
        total_ms = 0.0
        own_ms = 0.0
        calls = []
        trace = {"spans": {}, "counts": {}}
        for j, argv in enumerate(entry["calls"]):
            out = str(self.outdir / f"{tag}-{j}.out")
            if not self.subprocess:
                if traced:
                    self.tracer.install()
                try:
                    rc, err, ms = call_in_process(self.cli, argv, out)
                finally:
                    if traced:
                        self.tracer.uninstall()
                if traced:
                    merge(trace, self.tracer.harvest())
            elif traced:
                side = str(self.outdir / f"{tag}-{j}.trace.json")
                rc, err, ms = call_subprocess([sys.executable, str(HERE / "launch.py"), side, *argv, "--out", out])
                if os.path.exists(side):
                    with open(side, encoding="utf-8") as handle:
                        child = json.load(handle)
                    own_ms += child["own_ms"]
                    merge(trace, child["trace"])
            else:
                rc, err, ms = call_subprocess([sys.executable, "-m", "lbverify", *argv, "--out", out])
            total_ms += ms
            calls.append({"rc": rc, "err": err, "out": out})
        record = {"ms": total_ms, "calls": calls}
        if traced:
            record["trace"] = trace
            record["spawn_ms"] = total_ms - own_ms if self.subprocess else 0.0
        return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = perf()
    lbverify = import_program()
    import_ms = (perf() - t0) * 1e3
    ops = schedule(args.workload, load_catalog(args.workload), args.seed)
    if args.setup_only:
        list(islice(ops, 64))  # the first rounds' inputs, as a run draws them
        print(json.dumps({"import_ms": import_ms, "numpy": sys.modules["numpy"].__version__}))
        return 0

    from calibrate import SPAWN_EVERY, kernel, spawn_probe

    tracer = None
    if args.trace and args.workload not in SUBPROCESS_WORKLOADS:
        from tracer import Tracer

        tracer = Tracer(lbverify)
    runner = Runner(args.workload, args.workdir, lbverify, tracer)
    records = []
    for i, entry in enumerate(islice(ops, ops_per_run(args.workload, args.seconds, args.trace))):
        if not runner.subprocess:
            cal_ms = kernel()
        else:
            cal_ms = spawn_probe(child_env()) if i % SPAWN_EVERY == 0 else None
        record = {"id": entry["id"], "cal_ms": cal_ms, **runner.run(entry, str(i), traced=False)}
        if args.trace:
            record["traced"] = runner.run(entry, f"{i}-traced", traced=True)
        records.append(record)

    cal_tail_ms = spawn_probe(child_env()) if runner.subprocess else kernel()

    who = resource.RUSAGE_CHILDREN if runner.subprocess else resource.RUSAGE_SELF
    with open(args.workdir / "trace.jsonl", "w", encoding="utf-8") as handle:
        for i, record in enumerate(records):
            trace = record.get("traced", {}).pop("trace", None)
            if trace is None:
                continue
            for path, (calls, total, own) in trace["spans"].items():
                handle.write(json.dumps({"op": i, "path": path, "calls": calls,
                                         "total_ms": total, "self_ms": own}) + "\n")
            handle.write(json.dumps({"op": i, "counts": trace["counts"]}) + "\n")
    result = {
        "ops": records,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "import_ms": import_ms,
        "cal_tail_ms": cal_tail_ms,
    }
    with open(args.workdir / "results.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
