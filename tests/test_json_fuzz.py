"""Fuzzing every from_json: malformed input raises ValidationError, nothing else.

Each case starts from a valid document, replaces one node (or adds one
key) with an arbitrary JSON value, and parses the result.  The CLI maps
ValidationError to exit 2; any other exception would be a traceback.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cellassoc import (
    BoundCertificate,
    DecodingOrder,
    SchemePlan,
    ValidationError,
    ZfWitness,
    avg_optimal,
    lemma2_chain_bound,
    max_downlink_dof,
    pair_association,
    reconstruction_bound,
    uplink_feasible,
)
from cellassoc.cli import main

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["1", "-3", "x", "1/2", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _mutate(doc, path, value, add_key):
    """Replace the node at path with value, or add value under a new key there."""
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    target = parent[path[-1]]
    if add_key is not None and isinstance(target, dict):
        target[add_key] = value
    else:
        parent[path[-1]] = value
    return doc


def fuzz_from_json(parse, valid):
    valid = json.loads(json.dumps(valid))  # the shape a file would have
    paths = list(_paths(valid))

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(paths), json_values, st.none() | st.text(max_size=4))
    def check(path, value, add_key):
        doc = _mutate(valid, path, value, add_key)
        try:
            parse(doc)
        except ValidationError:
            pass

    check()


def test_fuzz_scheme_plan():
    fuzz_from_json(SchemePlan.from_json, avg_optimal(5, 2).to_json())


def test_fuzz_witness():
    ev = max_downlink_dof(pair_association(4))
    fuzz_from_json(ZfWitness.from_json, ev.witness.to_json())


def test_fuzz_decoding_order():
    assoc = pair_association(4)
    fuzz_from_json(DecodingOrder.from_json, uplink_feasible(assoc, {1, 2, 3, 4}).to_json())


def test_fuzz_bound_certificates():
    assoc = pair_association(6)
    fuzz_from_json(BoundCertificate.from_json, lemma2_chain_bound(assoc).to_json())
    fuzz_from_json(BoundCertificate.from_json, reconstruction_bound(assoc).to_json())


def test_render_rejects_non_integer_plan_entries(tmp_path, capsys):
    plan = avg_optimal(5, 2).to_json()
    plan["dl_active_users"] = ["x"]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["render", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _render_exit(tmp_path, capsys, plan):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code = main(["render", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_render_rejects_exponent_claims(tmp_path, capsys):
    plan = avg_optimal(5, 2).to_json()
    plan["claimed_dl_dof"] = "1e300000"
    code, err = _render_exit(tmp_path, capsys, plan)
    assert code == 2 and "bad rational literal" in err


def test_render_rejects_plans_outside_their_network(tmp_path, capsys):
    plan = {
        "assoc": {"k": 2, "nc": 1, "cells": [[1], [2]]},
        "dl_active_users": [-4, 99],
        "dl_silent_bs": [7],
        "ul_active_users": [],
        "claimed_dl_dof": "5",
        "claimed_ul_dof": "0",
    }
    code, err = _render_exit(tmp_path, capsys, plan)
    assert code == 2 and "out of range" in err
    plan.update(dl_active_users=[1], dl_silent_bs=[2])
    code, err = _render_exit(tmp_path, capsys, plan)
    assert code == 2 and "claimed_dl_dof" in err
    plan["claimed_dl_dof"] = "1"
    assert _render_exit(tmp_path, capsys, plan)[0] == 0
