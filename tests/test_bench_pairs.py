"""``tools/bench_pairs.py`` on two stub trees: the alternating run order and seeds, the summary of each metric,
the merge into an existing OUT, and the claim rule with its effect floor."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import bench_pairs
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

#: A ``perfbench/run.py`` that logs its call, prints metrics from its tree's ``speed`` file and the seed, and
#: writes its op summary as ``perfbench/run.py`` does: 10 ops of ``speed`` ms each.
STUB_RUN = """\
import argparse, json
from pathlib import Path

parser = argparse.ArgumentParser()
for option in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(option)
args = parser.parse_args()
tree = Path(__file__).resolve().parents[1]
with open(tree.parent / "log", "a") as log:
    log.write(f"{tree.name} {args.workload} {args.seed} {args.seconds} {args.trace}\\n")
speed = float((tree / "speed").read_text()) + int(args.seed)
print(json.dumps({"environment": {"cpu": "stub", "nproc": 1, "python": "3", "numpy": "2", "seed": args.seed}}))
print("ops 10, failed 0")
metrics = {"configs_per_s": speed, "op_p50_ms": 100.0 / speed, "peak_rss_mb": 30.0}
(tree / ".perfbench").mkdir(exist_ok=True)
ops = [{"id": i, "ms": speed} for i in range(10)]
summary = tree / ".perfbench" / f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json"
summary.write_text(json.dumps({"environment": {}, "ops": ops}))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}))
"""


def _tree(base: Path, name: str, speed: float) -> Path:
    tree = base / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB_RUN)
    (tree / "speed").write_text(str(speed))
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


def test_pairs_alternate_and_each_metric_is_summarized(tmp_path):
    parent, change = _tree(tmp_path, "parent", 10.0), _tree(tmp_path, "change", 12.0)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"scan-scalar": {"kept": True}}}))
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "audit-dense", "4", str(out), "--first-seed", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = [line.split() for line in (tmp_path / "log").read_text().splitlines()]
    order = [(tree, int(seed)) for tree, _, seed, _, _ in runs]
    assert order == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
                     ("parent", 7), ("change", 7), ("change", 8), ("parent", 8)]
    assert {(workload, seconds, trace) for _, workload, _, seconds, trace in runs} == {("audit-dense", "25", "0")}

    document = json.loads(out.read_text())
    assert document["workloads"]["scan-scalar"] == {"kept": True}
    assert {"cpu", "nproc", "python", "numpy", "simd_baseline", "simd_dispatch"} <= set(document["environment"])
    entry = document["workloads"]["audit-dense"]
    assert entry["seeds"] == [5, 6, 7, 8] and entry["correct"]
    throughput = entry["metrics"]["configs_per_s"]
    # Parent 15..18 (median 16.5, IQR 1.5), change 17..20: a gain of 2 in every pair.
    assert throughput["parent"]["median"] == 16.5 and throughput["change"]["median"] == 18.5
    assert (throughput["wins"], throughput["pairs"], throughput["bound"]) == (4, 4, 0.25)
    assert throughput["claim_met"] and throughput["within_bound"]
    assert throughput["worse_by"] == -2.0 / 16.5
    latency = entry["metrics"]["op_p50_ms"]
    assert latency["wins"] == 4 and latency["claim_met"]
    memory = entry["metrics"]["peak_rss_mb"]
    assert (memory["wins"], memory["worse_by"], memory["within_bound"], memory["claim_met"]) == (0, 0.0, True, False)
    # Each run's op seconds are the sum of the ms in the op summary it wrote: 10 ops of 15..18 and 17..20 ms.
    assert entry["op_seconds"]["parent"]["runs"] == [0.15, 0.16, 0.17, 0.18]
    assert entry["op_seconds"]["change"]["runs"] == [0.17, 0.18, 0.19, 0.2]
    assert (entry["op_seconds"]["parent"]["median"], entry["op_seconds"]["change"]["median"]) == (
        pytest.approx(0.165), pytest.approx(0.185)
    )


def test_claim_needs_nine_of_ten_wins_and_a_move_beyond_the_parent_iqr():
    parent = [float(v) for v in range(1, 11)]  # median 5.5, IQR 4.5
    small_gain = bench_pairs.summarize(parent, [v + 0.5 for v in parent], "higher", 0.25)
    assert small_gain["wins"] == 10 and not small_gain["claim_met"]
    large_gain = [v + 5.0 for v in parent]
    assert bench_pairs.summarize(parent, large_gain, "higher", 0.25)["claim_met"]
    two_losses = [v - 20.0 if i < 2 else v for i, v in enumerate(large_gain)]
    result = bench_pairs.summarize(parent, two_losses, "higher", 0.25)
    assert result["wins"] == 8 and not result["claim_met"]
    slower = bench_pairs.summarize(parent, [v * 1.3 for v in parent], "lower", 0.25)
    assert slower["worse_by"] > 0.25 and not slower["within_bound"]


def test_claim_needs_a_move_of_at_least_one_percent_of_the_parent_median():
    # BENCH_55's audit-dense peak RSS: lower in 10 of 10 pairs and by more
    # than the parent's IQR, but by 0.21% of the parent median, no gain.
    memory = json.loads((ROOT / "BENCH_55.json").read_text())["workloads"]["audit-dense"]["metrics"]["peak_rss_mb"]
    result = bench_pairs.summarize(memory["parent"]["runs"], memory["change"]["runs"], "lower", 0.05)
    assert (round(result["parent"]["median"], 3), round(result["change"]["median"], 3)) == (32.543, 32.475)
    assert result["wins"] == 10 and round(result["parent"]["q3"] - result["parent"]["q1"], 3) == 0.051
    assert not result["claim_met"]
