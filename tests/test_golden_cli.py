"""`search`, `eval` and `bound` output pinned byte for byte.

golden_cli.json holds the sha256 of the exact bytes these commands write:

* "search": `cellassoc search --k K --nc NC --window W --objective OBJ
  --format FMT` for a few small families, every objective, JSON and CSV;
* "eval": a fixed pool of windowed associations (k <= 16, stored in the
  file itself) with the channel seeds of each case, and the hashes of
  `cellassoc eval ASSOC --session avg` and `cellassoc bound ASSOC --kind all`.

The hashes were recorded at commit 44ba283, where both sessions were
maximized by an include-first branch and bound that is exact at these
sizes, so this test pins any later evaluator to those answers.  To record
them again (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

import hashlib
import json
import os
import random
import sys
import tempfile

import pytest

from cellassoc.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

SEARCH_FAMILIES = ((3, 1, 1), (4, 2, 1), (3, 2, 2), (4, 3, 1), (5, 1, 1))
OBJECTIVES = ("avg", "ul", "dl")
FORMATS = ("json", "csv")

POOL_SEED = 20261017
POOL_SIZE = 32


def search_key(k, nc, w, objective, fmt) -> str:
    return f"{k}/{nc}/{w}/{objective}/{fmt}"


def _sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def search_sha256(k, nc, w, objective, fmt, workdir) -> str:
    out = os.path.join(workdir, "search.out")
    argv = ["search", "--k", str(k), "--nc", str(nc), "--window", str(w),
            "--objective", objective, "--format", fmt, "--out", out]
    assert main(argv) == 0
    return _sha256_of(out)


def make_pool() -> list[dict]:
    """Windowed associations, k <= 16: sparse and dense cells, mixed seeds."""
    rng = random.Random(POOL_SEED)
    pool = []
    for idx in range(POOL_SIZE):
        k = rng.randint(1, 16)
        nc = rng.randint(1, 3)
        w = rng.randint(1, 3)
        dense = idx % 2 == 0
        cells = []
        for i in range(1, k + 1):
            window = [j for j in range(i - w, i + w + 1) if 1 <= j <= k]
            size = min(nc, len(window)) if dense else rng.randint(0, min(nc, len(window)))
            cells.append(sorted(rng.sample(window, size)))
        seeds = [1, 2, 3] if idx % 4 < 2 else sorted(rng.sample(range(1, 1000), 3))
        pool.append({"assoc": {"k": k, "nc": nc, "cells": cells}, "seeds": seeds})
    return pool


def eval_sha256(case: dict, workdir: str) -> dict:
    path = os.path.join(workdir, "assoc.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case["assoc"], fh)
    seed_args = [arg for s in case["seeds"] for arg in ("--seed", str(s))]
    eval_out = os.path.join(workdir, "eval.json")
    bound_out = os.path.join(workdir, "bound.json")
    assert main(["eval", path, "--session", "avg", *seed_args, "--out", eval_out]) == 0
    assert main(["bound", path, "--kind", "all", "--out", bound_out]) == 0
    return {"eval": _sha256_of(eval_out), "bound": _sha256_of(bound_out)}


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    golden = load_golden()
    assert sorted(golden["search"]) == sorted(
        search_key(*family, objective, fmt)
        for family in SEARCH_FAMILIES
        for objective in OBJECTIVES
        for fmt in FORMATS
    )
    assert [{"assoc": c["assoc"], "seeds": c["seeds"]} for c in golden["eval"]] == make_pool()


@pytest.mark.parametrize("family", SEARCH_FAMILIES, ids=lambda f: "/".join(map(str, f)))
def test_search_matches_golden(family, tmp_path):
    golden = load_golden()["search"]
    mismatched = [
        search_key(*family, objective, fmt)
        for objective in OBJECTIVES
        for fmt in FORMATS
        if search_sha256(*family, objective, fmt, str(tmp_path))
        != golden[search_key(*family, objective, fmt)]
    ]
    assert mismatched == []


def test_eval_and_bound_match_golden(tmp_path):
    mismatched = [
        idx
        for idx, case in enumerate(load_golden()["eval"])
        if eval_sha256(case, str(tmp_path)) != {"eval": case["eval"], "bound": case["bound"]}
    ]
    assert mismatched == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        golden = {
            "search": {
                search_key(*family, objective, fmt): search_sha256(
                    *family, objective, fmt, workdir
                )
                for family in SEARCH_FAMILIES
                for objective in OBJECTIVES
                for fmt in FORMATS
            },
            "eval": [{**case, **eval_sha256(case, workdir)} for case in make_pool()],
        }
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
