"""Write the workload catalogs and the reference reports of the current program.

    python3 perfbench/make_refs.py            # all workloads
    python3 perfbench/make_refs.py cli-cold   # one workload

Draws each catalog from ``workloads.CATALOG_SEED``, runs every call of every
entry once in-process through ``lbverify.cli.main`` and stores what it
returned: exit code, stderr, JSON meta and the report rows.  A valid input
that the program rejects with exit 2 is stored without rows; the checker
counts it as failed until the program exits 0 for it.  Run this only to
re-baseline: the references are what later versions are checked against.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import tempfile
from pathlib import Path

from check import call_format, parse_report
from worker import call_in_process, import_program
from workloads import CATALOG_DIR, REFS_DIR, WORKLOADS, build_catalog


def _write_lines(path: Path, items: list) -> None:
    path.write_text("[\n" + ",\n".join(json.dumps(item) for item in items) + "\n]\n", encoding="utf-8")


def reference(cli, entry: dict, tmp: Path) -> tuple[dict, float]:
    calls = []
    total_ms = 0.0
    for j, argv in enumerate(entry["calls"]):
        out = tmp / f"{entry['id']}-{j}.out"
        rc, err, ms = call_in_process(cli, argv, str(out))
        total_ms += ms
        if rc is None or "Traceback" in err:
            raise RuntimeError(f"{argv} raised: {err}")
        if entry["kind"] == "invalid":
            if rc != 2 or out.exists():
                raise RuntimeError(f"{argv} was expected to be rejected, got exit {rc}")
            calls.append({"exit": rc, "stderr": err, "rows": None})
        elif rc == 2:
            # A valid input this version rejects: no reference until it is accepted.
            calls.append({"exit": 0, "stderr": err, "rows": None, "exit_at_reference": rc})
        else:
            meta, rows = parse_report(out.read_bytes(), call_format(argv))
            calls.append({"exit": rc, "meta": meta, "rows": rows})
    return {"id": entry["id"], "calls": calls}, total_ms


def main(names: list[str]) -> int:
    lbverify = import_program()
    CATALOG_DIR.mkdir(exist_ok=True)
    REFS_DIR.mkdir(exist_ok=True)
    for workload in names or WORKLOADS:
        catalog = build_catalog(workload)
        refs = []
        cost: dict[str, list[float]] = {}
        with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
            for entry in catalog:
                ref, ms = reference(lbverify.cli, entry, Path(tmp))
                refs.append(ref)
                cost.setdefault(entry["kind"], []).append(ms)
        _write_lines(CATALOG_DIR / f"{workload}.json", catalog)
        with open(REFS_DIR / f"{workload}.json.gz", "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(json.dumps(refs, separators=(",", ":")).encode("utf-8"))
        unreferenced = [e for e, r in zip(catalog, refs) if any("exit_at_reference" in c for c in r["calls"])]
        print(f"{workload}: {len(catalog)} entries, {len(unreferenced)} rejected by this version")
        for kind, values in cost.items():
            print(f"  {kind}: ms min {min(values):.0f} median {statistics.median(values):.0f} max {max(values):.0f}")
        if unreferenced:
            xi = lambda e: float(e["calls"][0][e["calls"][0].index("--xi") + 1])  # noqa: E731
            accepted = [xi(e) for e in catalog if e not in unreferenced]
            print(f"  largest accepted xi {max(accepted):.6g}, smallest rejected xi "
                  f"{min(xi(e) for e in unreferenced):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
