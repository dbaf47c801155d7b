"""The JSON of the records that no golden file pins byte for byte.

The golden files pin the CLI's scheme, eval, bound and search bytes and
the sweep's text; this file pins the rest: the report command's bytes in
both formats, the periodic probe's and the theorem comparison's
to_json(), and one to_json() per record kind whose JSON is its fields.
"""

from fractions import Fraction

import pytest

from cellassoc import association, bounds, downlink_zf, schemes, search, uplink_decode
from cellassoc.cli import main

REPORT_JSON = """\
[
  {
    "gap": null,
    "nc": 1,
    "observed": null,
    "relation_holds": null,
    "tau": "2/3",
    "tau_downlink": "2/3"
  },
  {
    "gap": null,
    "nc": 2,
    "observed": null,
    "relation_holds": true,
    "tau": "5/6",
    "tau_downlink": "4/5"
  },
  {
    "gap": null,
    "nc": 3,
    "observed": null,
    "relation_holds": true,
    "tau": "9/10",
    "tau_downlink": "6/7"
  },
  {
    "gap": null,
    "nc": 4,
    "observed": null,
    "relation_holds": true,
    "tau": "13/14",
    "tau_downlink": "8/9"
  }
]
"""

REPORT_TEXT = """\
nc  avg_target  dl_target  recursion
1   2/3         2/3        -
2   5/6         4/5        true
3   9/10        6/7        true
4   13/14       8/9        true
"""


@pytest.mark.parametrize("argv, text", [((), REPORT_JSON), (("--format", "text"), REPORT_TEXT)])
def test_report_bytes(capsys, argv, text):
    assert main(["report", "--nc", "1,2,3,4", *argv]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (text, "")


def test_periodic_reports():
    affine = search.periodic_eval(search.PeriodicPattern(3, [{0}, (0, -1, 0), ()]), 2)
    assert affine.to_json() == {
        "pattern": {"period": 3, "offsets": [[0], [-1, 0], []]},
        "nc": 2,
        "ks": [9, 12, 15],
        "dl_sums": [3, 4, 5],
        "ul_sums": [6, 8, 10],
        "dl_affine": True,
        "ul_affine": True,
        "dl_per_user": "1/3",
        "ul_per_user": "2/3",
        "avg_per_user": "1/2",
        "disagreements": 0,
    }
    partly = search.periodic_eval(search.PeriodicPattern(1, [[0, -1]]), 2)
    assert partly.to_json() == {
        "pattern": {"period": 1, "offsets": [[-1, 0]]},
        "nc": 2,
        "ks": [3, 4, 5],
        "dl_sums": [2, 3, 3],
        "ul_sums": [3, 4, 5],
        "dl_affine": False,
        "ul_affine": True,
        "dl_per_user": None,
        "ul_per_user": "1",
        "avg_per_user": None,
        "disagreements": 0,
    }


@pytest.mark.parametrize(
    "observed, written",
    [
        (None, (None, None)),
        (Fraction(5, 6), ("5/6", "0")),
        (1, ("1", "-1/6")),
        # 5/6 - 0.5 is a float, written as the exact rational it holds.
        (0.5, ("1/2", "3002399751580331/9007199254740992")),
    ],
)
def test_theorem_comparisons(observed, written):
    assert search.compare_with_theorem(2, observed).to_json() == {
        "nc": 2,
        "tau": "5/6",
        "tau_downlink": "4/5",
        "relation_holds": True,
        "observed": written[0],
        "gap": written[1],
    }


def _assoc():
    return association(5, 2, [[1], [1, 2], [3], [3, 4], [5]])


ASSUMPTION = (
    "per-block good/bad split is an accounting device; soundness is claimed for "
    "the aggregate average only"
)
SPOILED = [{"block": 1, "start": 1, "good": False}]


# (build the record, its to_json()), one per kind whose JSON is its fields
RECORDS = [
    (
        lambda: schemes.avg_optimal(5, 2),
        {
            "assoc": {"k": 5, "nc": 2, "cells": [[1], [1, 2], [2, 3], [3, 4], [4, 5]]},
            "dl_active_users": [1, 3, 4],
            "dl_silent_bs": [3, 5],
            "ul_active_users": [1, 2, 3, 4, 5],
            "claimed_dl_dof": "3",
            "claimed_ul_dof": "5",
        },
    ),
    (
        lambda: downlink_zf.max_downlink_dof(_assoc()),
        {
            "sum_dof": 3,
            "active_users": [1, 3, 5],
            "witness": {
                "seed": 1,
                "prime": 2147483647,
                "precoders": {"1": {"1": 1}, "3": {"3": 1}, "5": {"5": 1}},
            },
            "seeds": [1, 2, 3],
            "exact": True,
            "disagreements": 0,
        },
    ),
    (
        lambda: uplink_decode.max_uplink_dof(_assoc()),
        {
            "sum_dof": 4,
            "active_users": [1, 2, 4, 5],
            "order": {
                "steps": [
                    {"m": 2, "bs": 2},
                    {"m": 1, "bs": 1},
                    {"m": 4, "bs": 3},
                    {"m": 5, "bs": 5},
                ]
            },
            "exact": True,
        },
    ),
    (
        # 9, 2, 4 is the set's own order
        lambda: uplink_decode.UlEvaluation(3, frozenset({2, 4, 9}), None),
        {"sum_dof": 3, "active_users": [2, 4, 9], "order": None, "exact": True},
    ),
    (
        lambda: bounds.lemma2_chain_bound(_assoc()),
        {"kind": "lemma2_chain", "flagged": [2, 4], "value": "4", "k": 5, "nc": 2,
         "per_user": "4/5", "assumptions": []},
    ),
    (
        lambda: bounds.reconstruction_bound(_assoc()),
        {"kind": "dl_reconstruction", "flagged": SPOILED, "value": "5", "k": 5, "nc": 2,
         "per_user": "1", "assumptions": []},
    ),
    (
        lambda: bounds.counting_bound(_assoc()),
        {"kind": "avg_counting", "flagged": SPOILED, "value": "9/2", "k": 5, "nc": 2,
         "per_user": "9/10", "assumptions": [ASSUMPTION]},
    ),
    (
        lambda: bounds.ncone_bound(3),
        {"kind": "avg_counting", "flagged": [], "value": "2", "k": 3, "nc": 1,
         "per_user": "2/3", "assumptions": ["asymptotic constant; not a finite-k bound"]},
    ),
    (
        lambda: search.soundness_sweep(3, 2, 1),
        {"k": 3, "nc": 2, "window": 1, "total": 112, "sound": True, "violations": [],
         "tight": {"chain": 60, "reconstruction": 8, "counting": 2}},
    ),
    (
        lambda: search.SweepReport(
            k=1, nc=1, window=0, total=2,
            violations=({"kind": "lemma2_chain", "assoc": [[1]], "achieved": 2, "bound": 1},),
            tight={"chain": 0},
        ),
        {"k": 1, "nc": 1, "window": 0, "total": 2, "sound": False,
         "violations": [{"kind": "lemma2_chain", "assoc": [[1]], "achieved": 2, "bound": 1}],
         "tight": {"chain": 0}},
    ),
]


def test_record_json():
    for build, data in RECORDS:
        assert build().to_json() == data, data
