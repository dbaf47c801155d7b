"""Soundness-sweep reports pinned byte for byte against recorded output.

golden_sweep.json maps "k/nc/w" to the sha256 of
`json.dumps(soundness_sweep(k, nc, w).to_json(), sort_keys=True)` for the
three families of the `search` benchmark workload and three more.  The
hashes were recorded at commit 4506808, where every candidate's session
sums came from a fresh three-pass line DP and every candidate's bound
flags from its built `CellAssociation`, so this test pins any later
family evaluator to those reports.  To record them again (only when a
report is meant to change):

    PYTHONPATH=src python tests/test_golden_sweep.py > tests/golden_sweep.json
"""

import hashlib
import json
import os
import sys

import pytest

from cellassoc.search import soundness_sweep

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_sweep.json")

FAMILIES = ((5, 2, 1), (5, 3, 1), (7, 1, 1), (4, 2, 2), (6, 2, 1), (3, 1, 1))


def family_key(k: int, nc: int, w: int) -> str:
    return f"{k}/{nc}/{w}"


def sweep_sha256(k: int, nc: int, w: int) -> str:
    text = json.dumps(soundness_sweep(k, nc, w).to_json(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_family():
    assert sorted(load_golden()) == sorted(family_key(*f) for f in FAMILIES)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: family_key(*f))
def test_sweep_matches_golden(family):
    assert sweep_sha256(*family) == load_golden()[family_key(*family)]


if __name__ == "__main__":
    json.dump(
        {family_key(*f): sweep_sha256(*f) for f in FAMILIES},
        sys.stdout,
        indent=2,
        sort_keys=True,
    )
    sys.stdout.write("\n")
