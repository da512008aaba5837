"""Benchmark two checkouts of lbverify in alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS OUT [--first-seed N]

Pair i runs each tree's own ``perfbench/run.py --workload WORKLOAD --seed
N+i --seconds 25 --trace 0`` (seeds from ``--first-seed``, 1 by default),
the parent first in even pairs and the change first in odd ones, so that a drift of the host over the session falls on both sides.
Each run's last stdout line is its metrics JSON; a run that exits non-zero
or prints no such line stops the script with exit 1.

OUT is a JSON file with one entry per workload; the entry of WORKLOAD is
replaced and the others are kept, so one file gathers the workloads of one
comparison.  OUT's ``environment`` is the first run's CPU, ``nproc``,
Python and numpy, with numpy's SIMD baseline and the dispatch targets this
CPU runs.  For each metric the entry gives the parent's and the change's
median and quartiles, the number of pairs the change won (by the
``better`` direction of the change tree's ``BENCHMARK.json``), the
``BENCHMARK.json`` bound of an end-to-end metric, how much worse the
change's median is than the parent's as a share of the parent's
(``worse_by``, negative for a gain) and two verdicts:

- ``within_bound``: ``worse_by`` is at most the bound;
- ``claim_met``: the claim rule for a gain holds.  The change wins at
  least 9 of every 10 pairs, and its median moves the right way by more
  than the parent's interquartile range and by at least 1% of the
  parent's median, so that a move too small to matter is no gain however
  steady it is.

The entry's ``op_seconds`` gives each side's timed op seconds per run, the
sum of the ops' ``ms`` in the op summary that the run wrote in its tree
(``.perfbench/ops-WORKLOAD-seedN-trace0.json``), and their median.

Quartiles interpolate linearly between the closest ranks, as
``perfbench/run.py`` does.  The script uses the standard library only
(numpy's SIMD level is read by a child interpreter) and writes nothing
under either tree but what ``perfbench/run.py`` writes there.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

#: Fraction of pairs the change must win for a claimed gain.
CLAIM_WIN_SHARE = 0.9

#: Least move of the median for a claimed gain, as a fraction of the parent's median.
CLAIM_EFFECT_FLOOR = 0.01

#: Length of every run, the same on both trees.
RUN_SECONDS = 25

_SIMD_PROBE = (
    "import json, numpy\n"
    "from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__\n"
    "print(json.dumps({'numpy': numpy.__version__, 'simd_baseline': __cpu_baseline__,\n"
    "    'simd_dispatch': [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}))\n"
)


def quantile(ordered: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks of a sorted list."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict, float]:
    """(environment, metrics, timed op seconds) of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    environment = next((json.loads(line)["environment"] for line in lines if line.startswith('{"environment"')), {})
    result = json.loads(lines[-1])
    metrics = {name: item["value"] for name, item in result["metrics"].items()}
    metrics["correct"] = bool(result.get("correct"))
    ops = json.loads((tree / ".perfbench" / f"ops-{workload}-seed{seed}-trace0.json").read_text())["ops"]
    return environment, metrics, sum(op["ms"] for op in ops) / 1e3


def simd_level() -> dict:
    proc = subprocess.run([sys.executable, "-c", _SIMD_PROBE], capture_output=True, text=True)
    return json.loads(proc.stdout) if proc.returncode == 0 else {"simd": f"unknown: {proc.stderr.strip()}"}


def summarize(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """Medians, quartiles, wins and the two verdicts of one metric over the pairs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p_sorted, c_sorted = sorted(parent), sorted(change)
    p_q = [quantile(p_sorted, q) for q in (0.25, 0.5, 0.75)]
    c_q = [quantile(c_sorted, q) for q in (0.25, 0.5, 0.75)]
    gain = sign * (c_q[1] - p_q[1])
    worse_by = -gain / abs(p_q[1]) if p_q[1] else (0.0 if gain >= 0.0 else math.inf)
    return {
        "better": better,
        "parent": {"q1": p_q[0], "median": p_q[1], "q3": p_q[2], "runs": parent},
        "change": {"q1": c_q[0], "median": c_q[1], "q3": c_q[2], "runs": change},
        "wins": wins,
        "pairs": len(parent),
        "bound": bound,
        "worse_by": worse_by,
        "within_bound": None if bound is None else worse_by <= bound,
        "claim_met": wins >= math.ceil(CLAIM_WIN_SHARE * len(parent))
        and gain > p_q[2] - p_q[0]
        and gain >= CLAIM_EFFECT_FLOOR * abs(p_q[1]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("PAIRS must be >= 1")

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    runs, op_seconds = {"parent": [], "change": []}, {"parent": [], "change": []}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    environment = None
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            env, metrics, seconds = run_once(getattr(args, side), args.workload, seed)
            environment = environment or env
            runs[side].append(metrics)
            op_seconds[side].append(seconds)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items() if k in bounds), flush=True)

    names = [name for name in runs["parent"][0] if name != "correct" and name in runs["change"][0]]
    entry = {
        "seeds": seeds,
        "seconds": RUN_SECONDS,
        "order": "parent first in even pairs, change first in odd pairs",
        "correct": all(m["correct"] for side in runs.values() for m in side),
        "op_seconds": {side: {"runs": values, "median": quantile(sorted(values), 0.5)}
                       for side, values in op_seconds.items()},
        "metrics": {
            name: summarize([m[name] for m in runs["parent"]], [m[name] for m in runs["change"]],
                            directions.get(name, "lower"), bounds.get(name))
            for name in names
        },
    }
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    keep = {k: v for k, v in (environment or {}).items() if k in ("cpu", "nproc", "python", "numpy")}
    document["environment"] = {**keep, **simd_level()}
    document["claim_rule"] = (
        f"the change wins at least {CLAIM_WIN_SHARE:.0%} of the pairs and its median moves by more than "
        f"the parent's interquartile range and by at least {CLAIM_EFFECT_FLOOR:.0%} of the parent's median"
    )
    document.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    for name, item in entry["metrics"].items():
        if name in bounds:
            print(f"{name}: parent {item['parent']['median']:.6g}, change {item['change']['median']:.6g}, "
                  f"won {item['wins']}/{item['pairs']}, worse by {item['worse_by']:+.3%} (bound {item['bound']}), "
                  f"claim {'met' if item['claim_met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
