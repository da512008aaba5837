"""Self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Runs each workload briefly, traced and untraced, and checks the printed
metrics against BENCHMARK.json; checks that the checker rejects corrupted
reports and accepts last-digit drift; checks the seeded generator; and checks
that a directory without the program yields no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calibrate import REF_MS, local_factors  # noqa: E402
from check import call_format, check_call, load_refs, parse_report  # noqa: E402
from workloads import VARIANTS, WORKLOADS, build_catalog, load_catalog, ops_per_run, schedule  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_workloads():
    # cli-cold runs by hand only: see "Workloads" in perfbench/README.md.
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in WORKLOADS if w != "cli-cold"]
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _report(workload: str, kind: str):
    """A real report of the current program for one catalog entry, and its reference."""
    from worker import call_in_process, import_program

    cli = import_program().cli
    entry = next(e for e in load_catalog(workload) if e["kind"] == kind)
    ref = load_refs(workload)[entry["id"]]["calls"][0]
    argv = entry["calls"][0]
    out = ROOT / ".perfbench" / "selftest.out"
    out.parent.mkdir(exist_ok=True)
    rc, err, _ = call_in_process(cli, argv, str(out))
    payload = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return argv, ref, rc, err, payload


def _csv(rows) -> bytes:
    lines = ["check,location,value,tolerance,verdict"]
    lines += [f"{c},{loc},{v!r},{t!r},{verdict}" for c, loc, v, t, verdict in rows]
    return ("\n".join(lines) + "\n").encode()


def test_checker_accepts_the_reference_and_last_digit_drift():
    argv, ref, rc, err, payload = _report("scan-scalar", "congruence")
    assert call_format(argv) == "csv"
    assert check_call(argv, ref, rc, err, payload) is None
    _, rows = parse_report(payload, "csv")
    drifted = [[c, loc, v * (1 + 4e-16), t, verdict] for c, loc, v, t, verdict in rows]
    assert check_call(argv, ref, rc, err, _csv(drifted)) is None


def test_checker_flags_corrupted_reports():
    argv, ref, rc, err, payload = _report("scan-scalar", "congruence")
    _, rows = parse_report(payload, "csv")
    flipped = [list(r) for r in rows]
    i = next(k for k, r in enumerate(flipped) if r[4] == "pass")
    flipped[i][4] = "fail"
    assert "row" in check_call(argv, ref, rc, err, _csv(flipped))
    assert "row count" in check_call(argv, ref, rc, err, _csv(rows[:-1]))
    perturbed = [list(r) for r in rows]
    j = next(k for k, r in enumerate(perturbed) if r[3] == 0.0 and r[2] != 0.0)
    perturbed[j][2] *= 1 + 1e-6
    assert "value" in check_call(argv, ref, rc, err, _csv(perturbed))
    assert check_call(argv, ref, 1, err, payload).startswith("exit")
    assert check_call(argv, ref, None, "Traceback ...\nValueError: boom", None).startswith("raised")


def test_checker_flags_corrupted_json_reports():
    argv, ref, rc, err, payload = _report("scan-scalar", "sweep")
    assert call_format(argv) == "json"
    assert check_call(argv, ref, rc, err, payload) is None
    doc = json.loads(payload)
    doc["rows"][0]["verdict"] = "discrepancy-logged"
    assert check_call(argv, ref, rc, err, json.dumps(doc).encode()) is not None


def test_invalid_usage_must_exit_2_with_one_line():
    argv, ref, rc, err, payload = _report("cli-cold", "invalid")
    assert rc == 2 and ref["rows"] is None
    assert check_call(argv, ref, rc, err, payload) is None
    assert check_call(argv, ref, rc, err + "Traceback (most recent call last):\n", payload) is not None
    assert check_call(argv, ref, 0, err, payload) is not None


def test_unreferenced_inputs_fail_until_accepted():
    refs = load_refs("tortoise-channels")
    unreferenced = [r for r in refs.values() if r["calls"][0]["rows"] is None]
    assert unreferenced, "the 2F1 term cap rejects the largest xi draws"
    ref = unreferenced[0]["calls"][0]
    argv = ["tortoise", "--xi", "5"]
    assert check_call(argv, ref, 2, "lbverify: error: 2F1 series did not converge\n", None).endswith("(unreferenced)")


def test_catalogs_are_the_seeded_draws():
    for workload in WORKLOADS:
        assert load_catalog(workload) == build_catalog(workload)


def test_seed_determines_the_inputs():
    catalog = load_catalog("tortoise-channels")
    first = [e["id"] for e in islice(schedule("tortoise-channels", catalog, 1), 64)]
    again = [e["id"] for e in islice(schedule("tortoise-channels", catalog, 1), 64)]
    other = [e["id"] for e in islice(schedule("tortoise-channels", catalog, 2), 64)]
    assert first == again
    assert first != other


def test_op_count_depends_only_on_the_arguments():
    for workload in WORKLOADS:
        per_round = len({(e["kind"], e["stratum"]) for e in load_catalog(workload)})
        if workload == "scan-scalar":
            per_round = 24  # two congruence slots per sweep slot
        assert ops_per_run(workload, 1, 0) == per_round
        full = ops_per_run(workload, SPEC["run_seconds"], 0)
        assert full % (VARIANTS * per_round) == 0
        assert ops_per_run(workload, SPEC["run_seconds"], 1) == full // 2


def test_same_seed_same_failures():
    first, again = (json.loads(_run("tortoise-channels", 0).stdout.strip().split("\n")[-1]) for _ in range(2))
    assert (first["attempted"], first["failed"]) == (again["attempted"], again["failed"])
    assert first["failed"] > 0  # the 2F1 term cap, counted on every run


def test_speed_factors_come_from_the_kernels_around_each_op():
    assert local_factors([REF_MS] * 9, REF_MS) == [1.0] * 8
    slow = local_factors([REF_MS] * 4 + [2 * REF_MS] * 5, REF_MS, window=2)
    assert slow[:3] == [1.0] * 3
    assert slow[3] == pytest.approx(REF_MS / (1.5 * REF_MS))
    assert slow[4:] == [0.5] * 4


def test_every_round_visits_every_stratum_once():
    for workload in WORKLOADS:
        catalog = load_catalog(workload)
        slots = len({(e["kind"], e["stratum"]) for e in catalog})
        ops = list(islice(schedule(workload, catalog, 3), slots))
        assert len({(e["kind"], e["stratum"]) for e in ops}) == slots


def test_without_the_program_there_is_no_result():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("scan-scalar", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
