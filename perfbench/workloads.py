"""Workload catalogs and the seeded op schedule.

Every input the benchmark can send is an entry of a fixed catalog
(``catalog/<workload>.json``), so that every input has a stored reference
report (``refs/<workload>.json.gz``).  A catalog is split into strata; each
stratum holds ``VARIANTS`` draws from the workload's parameter distribution,
stratified on the parameter that drives the op's cost.

A run is a fixed number of rounds (``ops_per_run``).  A round visits every
slot of the workload's fixed slot pattern once.  Strata are visited in
bit-reversed order, permuted by an XOR mask the run seed draws per round, so
every prefix of a round covers the cost range evenly.  Variants rotate
through the rounds from an offset the seed draws, so four rounds send every
catalog entry once and the cost mix does not depend on the seed.  The same
seed gives the same op sequence; two seeds give different ones.

``build_catalog`` draws the catalog entries from ``CATALOG_SEED``; the
catalog files are written once by ``make_refs.py`` and only read afterwards.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
CATALOG_DIR = HERE / "catalog"
REFS_DIR = HERE / "refs"

WORKLOADS = ("scan-scalar", "audit-dense", "tortoise-channels", "cli-cold")

#: Seed of the catalog draws (not of the runs); fixed so that references stay valid.
CATALOG_SEED = 1009
VARIANTS = 4

#: Mean op time of this version at the reference speed (``calibrate.REF_MS``);
#: it only sizes the runs (``ops_per_run``).
NOMINAL_OP_MS = {"scan-scalar": 160.0, "audit-dense": 172.0, "tortoise-channels": 161.0, "cli-cold": 238.0}

LAMBDA_RANGE = (0.75, 12.0)
E_RANGE = (1.0, 4.0)


def _g(x: float) -> str:
    """Six significant digits: the program sees exactly this text."""
    return format(x, ".6g")


def _log_uniform(rng: random.Random, lo: float, hi: float, u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _lam(rng):
    return _log_uniform(rng, *LAMBDA_RANGE)


def _xi_scan(rng, stratum: int | None = None, strata: int = 16) -> float:
    """xi is 0 (a quarter of the draws) or uniform in [0, 2]."""
    if stratum is None:
        return 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 2.0)
    zero_strata = strata // 4
    if stratum < zero_strata:
        return 0.0
    return 2.0 * (stratum - zero_strata + rng.random()) / (strata - zero_strata)


def _xi_log(rng, stratum: int, strata: int, hi: float = 10.0) -> float:
    """xi log-uniform in [1e-2, hi], stratified."""
    return _log_uniform(rng, 1e-2, hi, (stratum + rng.random()) / strata)


def _pair(lo: float, hi: float) -> str:
    lo, hi = sorted((float(_g(lo)), float(_g(hi))))
    return f"{_g(lo)}:{_g(hi)}:2"


def _congruence(rng, stratum):
    return {
        "calls": [["congruence", "--lambda", _g(_lam(rng)), "--xi", _g(_xi_scan(rng, stratum)),
                   "--e-tilde", _g(rng.uniform(*E_RANGE))]],
        "configs": 1,
    }


def _sweep(rng, samples: int, fmt: list[str]):
    return {
        "calls": [["sweep", "--lambda", _pair(_lam(rng), _lam(rng)),
                   "--xi", _pair(_xi_scan(rng), _xi_scan(rng)),
                   "--e-tilde", _pair(rng.uniform(*E_RANGE), rng.uniform(*E_RANGE)),
                   "--samples", str(samples)] + fmt],
        "configs": 8,
    }


def _audit(rng, stratum):
    lam, xi = _g(_lam(rng)), _g(_xi_log(rng, stratum, 16))
    return {
        "calls": [
            ["verify", "--lambda", lam, "--xi", xi, "--samples", "65536"],
            ["energy", "--lambda", lam, "--xi", xi, "--samples", "65536", "--format", "json"],
            ["stability", "--lambda", lam],
        ],
        "configs": 1,
    }


def _tortoise(rng, stratum):
    return {
        "calls": [["tortoise", "--lambda", _g(_lam(rng)), "--xi", _g(_xi_log(rng, stratum, 32)),
                   "--samples", "65"]],
        "configs": 1,
    }


def _fmt(rng):
    return ["--format", "json"] if rng.random() < 0.5 else []


def _cold(rng, kind):
    lam = _g(_lam(rng))
    if kind == "verify":
        argv = ["verify", "--lambda", lam, "--xi", _g(_xi_scan(rng)), "--samples", "1024"]
    elif kind == "energy":
        argv = ["energy", "--lambda", lam, "--xi", _g(_xi_scan(rng)), "--samples", "1024"]
    elif kind == "congruence":
        argv = ["congruence", "--lambda", lam, "--xi", _g(_xi_scan(rng)),
                "--e-tilde", _g(rng.uniform(*E_RANGE)), "--samples", "257"]
    elif kind == "tortoise":
        # Kept to xi <= 2: the 2F1 failure is counted once, in tortoise-channels.
        argv = ["tortoise", "--lambda", lam, "--xi", _g(_log_uniform(rng, 1e-2, 2.0)), "--samples", "65"]
    elif kind == "stability":
        argv = ["stability", "--lambda", lam]
    elif kind == "sweep":
        return _sweep(rng, 65, _fmt(rng))
    else:
        raise ValueError(kind)
    return {"calls": [argv + _fmt(rng)], "configs": 1}


_INVALID = (
    ["verify", "--lambda", "-1"],
    ["energy", "--r-min", "1", "--r-max", "1"],
    ["congruence", "--lambda", "-1", "--e-tilde", "2"],
    ["tortoise", "--r-min", "2", "--r-max", "-2"],
)

#: One cli-cold round in visiting order; slot i is stratum i.  Every
#: subcommand appears, the costlier ones twice, and one slot in twelve is
#: invalid usage.
COLD_KINDS = ("verify", "congruence", "energy", "tortoise", "stability", "sweep",
              "verify", "congruence", "energy", "tortoise", "sweep", "invalid")


def build_catalog(workload: str) -> list[dict]:
    """Draw the catalog of one workload (deterministic in CATALOG_SEED)."""
    rng = random.Random(f"{CATALOG_SEED}:{workload}")
    out = []

    def add(kind, stratum, make):
        for variant in range(VARIANTS):
            entry = make()
            entry.update(kind=kind, stratum=stratum, variant=variant)
            out.append(entry)

    if workload == "scan-scalar":
        for s in range(16):
            add("congruence", s, lambda: _congruence(rng, s))
        for s in range(8):
            add("sweep", s, lambda: _sweep(rng, 257, ["--format", "json"]))
    elif workload == "audit-dense":
        for s in range(16):
            add("audit", s, lambda: _audit(rng, s))
    elif workload == "tortoise-channels":
        for s in range(32):
            add("tortoise", s, lambda: _tortoise(rng, s))
    elif workload == "cli-cold":
        for s, kind in enumerate(COLD_KINDS):
            if kind == "invalid":
                for variant, argv in enumerate(_INVALID):
                    out.append({"calls": [list(argv)], "configs": 0, "kind": kind,
                                "stratum": s, "variant": variant})
            else:
                add(kind, s, lambda: _cold(rng, kind))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, entry in enumerate(out):
        entry["id"] = i
    return out


def load_catalog(workload: str) -> list[dict]:
    with open(CATALOG_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _pattern(workload: str, catalog: list[dict]) -> list[tuple[str, list[int]]]:
    """Slots of one round as (kind, strata of that kind in catalog order)."""
    strata: dict[str, list[int]] = {}
    for entry in catalog:
        ids = strata.setdefault(entry["kind"], [])
        if entry["stratum"] not in ids:
            ids.append(entry["stratum"])
    if workload == "scan-scalar":
        # Two congruence reports per sweep report, so that the median falls
        # inside the congruence cost range instead of between the two kinds.
        kinds = ["congruence", "congruence", "sweep"] * 8
    elif workload == "cli-cold":
        return [(kind, [s]) for s, kind in enumerate(COLD_KINDS)]
    else:
        (kind,) = strata
        kinds = [kind] * len(strata[kind])
    return [(k, strata[k]) for k in kinds]


def ops_per_run(workload: str, seconds: float, trace: int) -> int:
    """Ops in one run: the whole rounds whose nominal time is closest to ``seconds``.

    From ``VARIANTS`` rounds up the count is a multiple of ``VARIANTS``, so a
    run sends every catalog entry equally often and only the order depends on
    the seed.  A traced run, which runs every op twice, takes half as many.
    The count depends on the arguments only, never on how fast the host is.
    """
    per_round = len(_pattern(workload, load_catalog(workload)))
    rounds = max(1, round(seconds * 1e3 / (NOMINAL_OP_MS[workload] * per_round)))
    if rounds >= VARIANTS:
        rounds = VARIANTS * round(rounds / VARIANTS)
    if trace:
        rounds = max(1, rounds // 2)
    return rounds * per_round


def _bitrev(i: int, n: int) -> int:
    bits = n.bit_length() - 1
    return int(format(i, f"0{bits}b")[::-1], 2) if bits else 0


def schedule(workload: str, catalog: list[dict], seed: int):
    """Yield catalog entries in the seeded round order, without end."""
    rng = random.Random(f"run:{workload}:{seed}")
    by_slot = {(e["kind"], e["stratum"], e["variant"]): e for e in catalog}
    pattern = _pattern(workload, catalog)
    offset = rng.randrange(VARIANTS)
    for round_no in itertools.count():
        masks: dict[str, int] = {}
        taken: dict[str, int] = {}
        for kind, strata in pattern:
            n = len(strata)  # a power of two
            if kind not in masks:
                masks[kind] = rng.randrange(n)
            k = taken.get(kind, 0)
            taken[kind] = k + 1
            idx = _bitrev(k % n, n) ^ masks[kind]
            # Latin-square variants: each round sends every variant index
            # equally often, and four rounds send every entry once.
            yield by_slot[(kind, strata[idx], (idx + round_no + offset) % VARIANTS)]
