"""Scheme plans pinned byte for byte against recorded output.

golden_plans.json maps "type/nc/k" to the sha256 of the exact bytes that
`cellassoc scheme --type TYPE --nc NC --k K` writes with the default
channel seeds.  The hashes were recorded at commit 4c98672, where every
nc = 2 block was chosen from a candidate list by a seed majority vote on
the whole cumulative plan, so this test pins the single block builder,
which certifies a plan once on the first seed's channels, to those plans.
To record them again (only when a plan is meant to change):

    PYTHONPATH=src python tests/test_golden_plans.py > tests/golden_plans.json
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from cellassoc.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_plans.json")

CASES = tuple(
    (kind, nc, k)
    for kind in ("avg", "downlink")
    for nc in (1, 2, 3)
    for k in (*range(1, 41), 100, 300)
)


def plan_sha256(kind: str, nc: int, k: int, workdir: str) -> str:
    out = os.path.join(workdir, f"{kind}-{nc}-{k}.json")
    code = main(["scheme", "--type", kind, "--nc", str(nc), "--k", str(k), "--out", out])
    assert code == 0
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def case_key(kind: str, nc: int, k: int) -> str:
    return f"{kind}/{nc}/{k}"


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("kind", ("avg", "downlink"))
@pytest.mark.parametrize("nc", (1, 2, 3))
def test_scheme_plans_match_golden(kind, nc, tmp_path):
    golden = load_golden()
    mismatched = [
        k
        for kind_, nc_, k in CASES
        if (kind_, nc_) == (kind, nc)
        and plan_sha256(kind, nc, k, str(tmp_path)) != golden[case_key(kind, nc, k)]
    ]
    assert mismatched == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        hashes = {case_key(*case): plan_sha256(*case, workdir) for case in CASES}
    json.dump(hashes, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
