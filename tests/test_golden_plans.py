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


# sha256 of `cellassoc scheme --type TYPE --nc NC --k 3001`, recorded at
# commit f19c03c.  3001 is not a multiple of any block length 2*b + 1 for
# b = 1..4, so every plan ends in a partial block; nc = 4 lies past the
# golden cases above.
LONG_PLANS = {
    ("avg", 1): "f05712c336468b4d744e18083798e6452ab75fccbf7e71b5aac376f72f022567",
    ("avg", 2): "e5f2fc3cd5e14af54873a268654bc0b98e14a85e7ac8821e85ff59ea8743dbf0",
    ("avg", 3): "858dd9d538bfbbd267f5f30dc3beeabd928713fc2c45a5d34a69c95fbee4e1b6",
    ("avg", 4): "15bbad043d0eb92b08187c1594662dc9bd206ec5ef97d8af9c0ec7134081e9e8",
    ("downlink", 1): "f05712c336468b4d744e18083798e6452ab75fccbf7e71b5aac376f72f022567",
    ("downlink", 2): "2e5dcb3f60dc827723879c6951b6520ba14461dec9e16b43735a6a960e848af7",
    ("downlink", 3): "557179fae42121e43638594ad36fa92fbb6007478141860b09ce62f2fefc323f",
    ("downlink", 4): "fa38469f842f8afa15e7c66f779f4b551dc5f3a994bfb91920ab8ce55668a5fc",
}


def test_long_plans_match_recorded_hashes(tmp_path):
    got = {(kind, nc): plan_sha256(kind, nc, 3001, str(tmp_path)) for kind, nc in LONG_PLANS}
    assert got == LONG_PLANS
