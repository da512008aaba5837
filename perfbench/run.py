"""lbverify benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload scan-scalar --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Inputs are drawn from the workload catalog
by ``--seed``; the program is imported from the checkout's ``src/``.  The run
sets up ``SETUP_PROBES`` fresh interpreters (``setup_s``), runs the workload
in a closed loop with a single client (a fixed number of ops, about
``--seconds`` of work at the reference speed), checks every report against
its stored reference and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it record the environment and a summary.  Exits 1 without a
result when the checkout holds no program.

Times are at the reference speed: op times and set-up time are scaled by a
constant over the time of calibration probes measured next to them (see
``calibrate``), so that they follow the program, not the host.  The wall
times as measured are printed on the line before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_MS, REF_SPAWN_MS, local_factors, spawn_probe
from check import check_call, load_refs, sibling_checks
from worker import SUBPROCESS_WORKLOADS, child_env, sweep_threads
from workloads import WORKLOADS, load_catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
perf = time.perf_counter


def _timed(cmd: list[str], timeout: float = 120) -> tuple[float, str]:
    t0 = perf()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout)
    elapsed = perf() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return elapsed, proc.stdout.decode()


def environment(args, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sweep_threads": sweep_threads(),
    }


def quantile(ordered: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def check_op(entry: dict, ref: dict, record: dict, siblings: dict) -> str | None:
    for argv, call_ref, call in zip(entry["calls"], ref["calls"], record["calls"]):
        out = Path(call["out"])
        payload = out.read_bytes() if out.exists() else None
        why = check_call(argv, call_ref, call["rc"], call["err"], payload, siblings.get(entry["kind"]))
        if why is not None:
            return f"{' '.join(argv)}: {why}"
    return None


def same_bytes(record: dict, traced: dict) -> bool:
    for call, t_call in zip(record["calls"], traced["calls"]):
        out, t_out = Path(call["out"]), Path(t_call["out"])
        if out.exists() != t_out.exists() or (out.exists() and out.read_bytes() != t_out.read_bytes()):
            return False
    return True


def read_traces(path: Path) -> list[dict]:
    traces: dict[int, dict] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            trace = traces.setdefault(item["op"], {"spans": {}, "counts": {}})
            if "counts" in item:
                trace["counts"] = item["counts"]
            else:
                trace["spans"][item["path"]] = [item["calls"], item["total_ms"], item["self_ms"]]
    return [traces[i] for i in sorted(traces)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lbverify benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lbverify" / "__init__.py").is_file():
        print("perfbench: src/lbverify not found: run from a checkout of the repository", file=sys.stderr)
        return 1

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    setups, imports, spawns = [], [], []

    def probe_setup() -> dict:
        spawns.append(spawn_probe(child_env()))
        elapsed, out = _timed(worker + ["--setup-only"])
        setups.append(elapsed)
        probe = json.loads(out)
        imports.append(probe["import_ms"])
        return probe

    # Half the set-up probes run before the workload and half after it, so
    # that their median spans the run rather than one stretch of the host.
    for _ in range(SETUP_PROBES // 2):
        probe = probe_setup()
    env = environment(args, probe["numpy"])
    print(json.dumps({"environment": env}))
    interpreter_ms = []
    if args.trace:
        interpreter_ms = [_timed([sys.executable, "-c", "pass"])[0] * 1e3 for _ in range(SETUP_PROBES)]

    _timed(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)],
           timeout=args.seconds + 120)
    with open(workdir / "results.json", encoding="utf-8") as handle:
        result = json.load(handle)
    while len(setups) < SETUP_PROBES:
        probe_setup()

    catalog = {entry["id"]: entry for entry in load_catalog(args.workload)}
    refs = load_refs(args.workload)
    siblings = sibling_checks(refs, list(catalog.values()))
    ops = result["ops"]
    cal_ms = [r["cal_ms"] for r in ops] + [result["cal_tail_ms"]]
    if args.workload in SUBPROCESS_WORKLOADS:
        ref = REF_SPAWN_MS
        factors = [ref / statistics.median(c for c in cal_ms if c is not None)] * len(ops)
    else:
        ref = REF_MS
        factors = local_factors(cal_ms, ref)
    for record, factor in zip(ops, factors):
        record["ms_at_ref"] = record["ms"] * factor
    setup_factor = REF_SPAWN_MS / statistics.median(spawns)
    ok_ms, failed_ms, reasons = [], [], {}
    configs = 0
    wrong = 0
    summary = []
    for record in ops:
        entry = catalog[record["id"]]
        why = check_op(entry, refs[record["id"]], record, siblings)
        if why is None and "traced" in record:
            why = check_op(entry, refs[record["id"]], record["traced"], siblings)
            if why is None and not same_bytes(record, record["traced"]):
                why = "report bytes differ between the traced and the untraced run"
        if why is None:
            ok_ms.append(record["ms_at_ref"])
            configs += entry["configs"]
        else:
            failed_ms.append(record["ms_at_ref"])
            reasons[why] = reasons.get(why, 0) + 1
            # Inputs without a reference fail by rule; any other failure is a wrong output.
            wrong += not why.endswith("(unreferenced)")
        summary.append({"id": record["id"], "ms": record["ms"], "ms_at_ref": record["ms_at_ref"],
                        "cal_ms": record["cal_ms"], "failed": why})
    # A failed op misses any latency limit: it ranks after every successful op
    # and counts as at least as slow as the mean of their slowest tenth.  (Not
    # one order statistic such as their maximum or 99th percentile: those
    # follow single host stalls.)
    ok_ms.sort()
    floor = statistics.mean(ok_ms[int(0.9 * len(ok_ms)):]) if ok_ms else 0.0
    ordered = ok_ms + sorted(max(ms, floor) for ms in failed_ms)
    attempted = len(ops)
    failed = len(failed_ms)
    for why, count in sorted(reasons.items(), key=lambda item: -item[1])[:10]:
        print(f"failed x{count}: {why}")

    with open(ROOT / ".perfbench" / f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"environment": env, "ops": summary}, handle)
    if args.trace:
        from tracer import layer_metrics

        traces = read_traces(workdir / "trace.jsonl")
        keep = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        shutil.copyfile(workdir / "trace.jsonl", keep)
        metrics = layer_metrics(traces)
        traced_p50 = statistics.median(r["traced"]["ms"] for r in ops)
        metrics["trace.overhead_ratio"] = (traced_p50 / statistics.median(r["ms"] for r in ops), "ratio")
        metrics["cli.interpreter_ms"] = (statistics.median(interpreter_ms), "ms")
        metrics["cli.import_ms"] = (statistics.median(imports), "ms")
        metrics["cli.spawn_ms"] = (statistics.mean(r["traced"]["spawn_ms"] for r in ops), "ms/op")
    else:
        metrics = {
            "setup_s": (statistics.median(setups) * setup_factor, "s"),
            "op_p50_ms": (quantile(ordered, 0.5), "ms"),
            "op_p90_ms": (quantile(ordered, 0.9), "ms"),
            "configs_per_s": (configs / (sum(r["ms_at_ref"] for r in ops) / 1e3), "1/s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
    print(f"ops {attempted}, failed {failed} (fail_ratio {failed / attempted:.4f}), "
          f"wrong outputs {wrong}, sweep threads {env['sweep_threads']}")
    raw = sorted(r["ms"] for r in ops)
    print(f"wall time as measured: op p50 {quantile(raw, 0.5):.1f} ms, op p90 {quantile(raw, 0.9):.1f} ms, "
          f"setup {statistics.median(setups):.3f} s; probe medians: ops "
          f"{statistics.median(c for c in cal_ms if c is not None):.3f} ms (reference {ref} ms), "
          f"set-up {statistics.median(spawns):.1f} ms (reference {REF_SPAWN_MS} ms)")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
