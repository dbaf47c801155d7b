"""Mutants that named tests must kill, run in-process.

Each entry of MUTANTS names a wrong version of one attribute of a module
or class and the tests that must fail while it stands in for the real
one.  The one test here puts each mutant in place in turn, under the
attribute and under every loaded module's name for the same object (a
test that imported verify_witness by name calls its own binding), calls
each of its killers as a plain function (no subprocess, no fixtures) and
fails when a killer passes, that is when a mutant survives, or when a
mutant's target or a killer no longer exists.  A killer must therefore
take no argument but those its hypothesis strategies fill.  A mutant of a
function or method may be its own source with one piece of it replaced
(_edited), so that it stays the real code but for that piece.

EQUIVALENT lists the mutants, recorded by earlier changes or planned,
that no test can kill, each with the reason: the code can no longer
express them, or they leave every table the same.
"""

import importlib
import inspect
import sys
import textwrap
from contextlib import ExitStack
from unittest import mock

import pytest

from cellassoc import _kernels, bounds, cli, downlink_zf, model, schemes, search, uplink_decode
from cellassoc._kernels import _pure
import test_references


def _tiling(tail_shift=0, blocks_dropped=0, block_on_tail=False):
    """schemes._tiled_uplink with one of its three parts wrong."""

    def tiled(assoc, length, off, tail):
        block = _kernels.ul_max_active(tail if block_on_tail else assoc.cells[:length])
        last = _kernels.ul_max_active(tail)
        starts = range(0, off - blocks_dropped * length, length)
        shifted = [off + tail_shift + u for u in last]
        return frozenset([b + u for b in starts for u in block] + shifted)

    return tiled


def _edited(function, old, new):
    """function (or method) rebuilt from its source, its one occurrence of old replaced by new."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function.__qualname__, old)
    namespace = {}
    exec(source.replace(old, new), function.__globals__, namespace)
    return namespace[function.__name__]


class _TextsByDepthAndNode(_pure._Texts):
    """The text pass's memo answering a key (depth, node, sums) by its (depth, node) alone."""

    def __missing__(self, key):
        if key[:2] not in self:
            self[key[:2]] = super().__missing__(key)
        return self[key[:2]]


_UL_RANK_R_ABOVE_SHUT = {_pure._OPEN: 0, _pure._RIGHT: 1, _pure._SHUT: 2}

TILING = ["test_schemes::test_block_plans_match_the_whole_line_uplink_maximum"]
ORDERS = ["test_references::test_each_rule_order_is_a_simulation"]
ORACLES = ["test_properties::test_rules_match_oracles"]
REFERENCES = ["test_references::test_references_match_the_rules_on_every_active_set"]
LINE = ["test_properties::test_line_dp_matches_branch_and_bound"]
WALK = ["test_properties::test_text_pass_and_rows_match_the_listing"]
SWEEP = ["test_properties::test_sweep_matches_reference_sweep"]
COUNT = ["test_properties::test_count_pass_matches_the_listing_on_any_option_lists"]
LAYERS = ["test_properties::test_layer_moves_match_the_reference_fold"]
VERIFY = ["test_properties::test_verify_witness_matches_dense_reference"]
PLAIN = ["test_cli::test_plain_reader_reads_what_parse_args_reads"]
CSV_TEXT = ["test_cli::test_csv_text_is_csv_writers_text"]
RECORDS = ["test_model::test_records_keep_their_contract"]
MAX_PLUS = [
    "test_properties::test_max_plus_pass_finds_the_first_maximizer_on_any_option_lists",
    "test_properties::test_search_winner_is_the_first_maximizer_at_its_index",
]

# (name, (module, attribute), replacement, killers)
MUTANTS = [
    ("uplink tail shifted by one user", (schemes, "_tiled_uplink"), _tiling(tail_shift=1), TILING),
    ("last full block dropped", (schemes, "_tiled_uplink"), _tiling(blocks_dropped=1), TILING),
    (
        "block maximized on the tail's cells",
        (schemes, "_tiled_uplink"),
        _tiling(block_on_tail=True),
        TILING,
    ),
    (
        "downlink covers ignores due",
        (test_references, "dl_covers"),
        lambda a, b: a[0] <= b[0],
        ORDERS,
    ),
    (
        "uplink order ranks R above shut",
        (test_references, "ul_covers"),
        lambda a, b: _UL_RANK_R_ABOVE_SHUT[a] <= _UL_RANK_R_ABOVE_SHUT[b],
        ORDERS,
    ),
    (
        "chain order ignores credit",
        (test_references, "chain_covers"),
        lambda a, b: a[0] >= b[0] and a[1] >= b[1],
        ORDERS,
    ),
    (
        "downlink left side stays open under a run as long as it",
        (_pure, "_dl_next"),
        _edited(_pure._dl_next, "if run >= left:", "if run > left:"),
        REFERENCES,
    ),
    (
        "downlink left run reaches past bs 1",
        (_pure, "_dl_step"),
        _edited(_pure._dl_step, "while a > 1 and", "while a >= 1 and"),
        REFERENCES,
    ),
    (
        "uplink L ignores whether user m-1 left bs m-1 open",
        (_pure, "UL_RULE"),
        (*_pure.UL_RULE[:2], _edited(_pure._ul_next, "prev and state == _OPEN", "prev"), _pure._ul_step),
        REFERENCES,
    ),
    (
        "set check lets a forbidden active user go idle",
        (_pure, "_reaches"),
        _edited(_pure._reaches, "return False", "state = idle"),
        ORACLES,
    ),
    (
        "set check treats every user as active",
        (_pure, "_reaches"),
        _edited(_pure._reaches, "if m not in active:", "if False:"),
        ORACLES,
    ),
    (
        "line pass tries a user only from idle",
        (_pure, "_greedy"),
        _edited(
            _pure._greedy,
            "t = nxt(step(m, cell), state)",
            "t = nxt(step(m, cell), state) if state == idle else None",
        ),
        LINE,
    ),
    (
        "line pass keeps its state after a forbidden user",
        (_pure, "_greedy"),
        _edited(_pure._greedy, "state = idle", "pass"),
        LINE,
    ),
    (
        "forbidden layer move still gains 1",
        (_pure, "rule_part"),
        _edited(_pure.rule_part, "(idle, 0, 0)", "(idle, weight, 1)"),
        LAYERS,
    ),
    (
        "forbidden layer move keeps its state",
        (_pure, "rule_part"),
        _edited(_pure.rule_part, "(idle, 0, 0)", "(state, 0, 0)"),
        WALK,
    ),
    (
        "max-plus descent takes the last class that keeps the optimum",
        (_pure, "family_best"),
        _edited(
            _pure.family_best,
            "j = list(map(add, gains, map(ahead.__getitem__, afters))).index(best[node])",
            "j = len(gains) - 1 - list(map(add, gains, map(ahead.__getitem__, afters)))"
            "[::-1].index(best[node])",
        ),
        MAX_PLUS,
    ),
    (
        "max-plus rows drop the second rule's gain",
        (_pure, "family_graph"),
        _edited(_pure.family_graph, "list(map(add, weighted0, weighted1))", "list(weighted0)"),
        MAX_PLUS,
    ),
    (
        "count pass does not multiply by the class multiplicity",
        (_pure, "family_above"),
        _edited(
            _pure.family_above,
            "top, count = value, mult * n\n                elif value == top:\n"
            "                    count += mult * n",
            "top, count = value, n\n                elif value == top:\n"
            "                    count += n",
        ),
        COUNT,
    ),
    (
        "count-pass descent takes the last option first",
        (_pure, "family_above"),
        _edited(_pure.family_above, "stack.extend(reversed(children))", "stack.extend(children)"),
        COUNT,
    ),
    (
        "chain credit survives only a flagged pair",
        (_pure, "CHAIN_RULE"),
        (
            *_pure.CHAIN_RULE[:2],
            _edited(_pure._chain_next, "credit and not flagged", "credit and flagged"),
            _pure._chain_step,
        ),
        ["test_references::test_chain_bound_matches_its_definition"],
    ),
    (
        "search caps the downlink run one below min(nc, w, k - 1)",
        (search, "_dl_rule"),
        _edited(search._dl_rule, "min(nc, w, k - 1))", "min(nc, w, k - 1) - 1)"),
        [
            "test_kernels::test_search_caps_the_downlink_run_at_the_longest_left_side",
            "test_properties::test_search_rows_index_like_the_reference_list",
        ],
    ),
    (
        "sweep reports each violator at the next index",
        (search, "soundness_sweep"),
        _edited(search.soundness_sweep, "_decode(options, index)", "_decode(options, index + 1)"),
        SWEEP,
    ),
    (
        "sweep lists its violators last index first",
        (search, "soundness_sweep"),
        _edited(search.soundness_sweep, "sorted(broken)", "sorted(broken, reverse=True)"),
        SWEEP,
    ),
    (
        "live spoiled set drops a block one user early",
        (bounds, "_spoil_part"),
        _edited(bounds._spoil_part, "True), max(w, 1)", "True), max(w, 1) - 1"),
        ["test_properties::test_reconstruction_values_match_certificates"],
    ),
    (
        "counting bound gives 2nc - 1 per full block",
        (bounds, "_counting_value"),
        _edited(bounds._counting_value, "Fraction(4 * nc - 3, 2)", "Fraction(4 * nc - 2, 2)"),
        ["test_bounds::test_counting_pinned_values"],
    ),
    (
        "reconstruction bound swaps good and bad blocks",
        (bounds, "_reconstruction_value"),
        _edited(bounds._reconstruction_value, "(2 * nc - 2) * full + spoiled",
                "(2 * nc - 1) * full - spoiled"),
        ["test_bounds::test_reconstruction_pinned_values"],
    ),
    (
        "strict spoiled bit lands on the next block",
        (bounds, "_spoil_rule"),
        _edited(bounds._spoil_rule, "yield block", "yield block + 1"),
        ["test_properties::test_sweep_bounds_match_certificates"],
    ),
    (
        "certificate check skips the flag comparison",
        (bounds, "verify_certificate"),
        _edited(bounds.verify_certificate, "cert.flagged == expected and ", ""),
        ["test_bounds::test_recompute_and_verify"],
    ),
    (
        "chain flags need only one user of the pair on bs i",
        (bounds, "chain_flags"),
        _edited(bounds.chain_flags, "cells[i - 1] and i in", "cells[i - 1] or i in"),
        ["test_bounds::test_chain_flags_definition"],
    ),
    (
        "chain bound maximizes the uplink rule",
        (_kernels, "chain_max"),
        lambda cells: len(_pure.ul_max_active(cells)),
        ["test_bounds::test_chain_bound_on_fully_flagged_chains"],
    ),
    (
        "witness check skips receiver j + 1",
        (downlink_zf, "verify_witness"),
        _edited(downlink_zf.verify_witness, "receivers.add(j + 1)", "pass"),
        VERIFY,
    ),
    (
        "witness check reads diag for left",
        (downlink_zf, "verify_witness"),
        _edited(downlink_zf.verify_witness, "left[r] * vec.get", "diag[r] * vec.get"),
        VERIFY,
    ),
    (
        "batched inverse steps up the run by the wrong gain",
        (downlink_zf, "_run_precoder"),
        _edited(downlink_zf._run_precoder, "inv = inv * left[r] % p", "inv = inv * left[r - 1] % p"),
        ["test_properties::test_run_precoder_matches_one_inverse_per_link"],
    ),
    (
        # The realization refuses the swapped rows before the pinned gains are compared.
        "draw swaps its rows",
        (model, "draw_channels"),
        _edited(model.draw_channels, "left=(0, 0, *gains[1::2], 0), diag=(0, *gains[::2], 0)",
                "diag=(0, 0, *gains[1::2], 0), left=(0, *gains[::2], 0)"),
        ["test_model::test_channel_draw_order_is_frozen"],
    ),
    (
        "order check lets a step wait on an undecoded neighbour",
        (uplink_decode, "verify_order"),
        _edited(uplink_decode.verify_order, "other not in decoded or ", ""),
        ["test_uplink_decode::test_order_verification_rejects_tampering"],
    ),
    (
        "plan JSON skips its claim check",
        (schemes.SchemePlan, "from_json"),
        _edited(schemes.SchemePlan.from_json, "if claims[key] != len(index_sets[users]):", "if False:"),
        ["test_schemes::test_plan_json_roundtrip"],
    ),
    (
        "plain argv reader skips the choices check",
        (cli, "_plain_args"),
        _edited(cli._plain_args, "action.choices is not None and value not in action.choices", "False"),
        PLAIN,
    ),
    (
        "plain argv reader keeps the first of two values of a store option",
        (cli, "_plain_args"),
        _edited(
            cli._plain_args,
            "values[action.dest] = value",
            "values[action.dest] = values[action.dest] if action in seen else value",
        ),
        PLAIN,
    ),
    (
        "record equality without its class check",
        (model.Record, "__eq__"),
        _edited(model.Record.__eq__, "if other.__class__ is not self.__class__:", "if False:"),
        RECORDS,
    ),
    (
        "record comparison key includes the uncompared fields",
        (model.Record, "_key"),
        _edited(model.Record._key, "self._compared", "self._fields"),
        RECORDS,
    ),
    (
        "record init skips __post_init__",
        (model.Record, "__init__"),
        _edited(model.Record.__init__, "if self._post_init is not None:", "if False:"),
        RECORDS,
    ),
    (
        "validation fast path drops its max <= k check",
        (model, "validate_association"),
        _edited(model.validate_association, "and max(members) <= assoc.k", ""),
        ["test_model::test_validate_association_finds_each_lone_violation"],
    ),
    (
        "CSV piece whose index range starts one row late",
        (cli, "_csv_chunks"),
        _edited(cli._csv_chunks, "first = start * size", "first = start * size + 1"),
        CSV_TEXT,
    ),
    (
        "text pass joins and lists a subtree's keys in class order, not option order",
        (_pure._Texts, "after"),
        _edited(_pure._Texts.after, "return map(per_class.__getitem__, self.users[d])",
                "return iter(per_class)"),
        CSV_TEXT + WALK,
    ),
    (
        "text pass adds the first part's gain to both sums",
        (_pure._Texts, "after"),
        _edited(_pure._Texts.after, "(s0 + g0, s1 + g1)", "(s0 + g0, s1 + g0)"),
        WALK,
    ),
    (
        "text pass memo key drops the prefix's sums",
        (_pure, "_Texts"),
        _TextsByDepthAndNode,
        CSV_TEXT + WALK,
    ),
    (
        "record JSON leaves a nested record as it is",
        (model, "_json_value"),
        _edited(model._json_value, "isinstance(value, Record)", "False"),
        ["test_json_records::test_record_json", "test_json_records::test_periodic_reports"],
    ),
    (
        "record JSON writes a frozenset in its own order",
        (model, "_json_value"),
        _edited(model._json_value, "return sorted(value)", "return list(value)"),
        ["test_json_records::test_record_json"],
    ),
    (
        "int-list writer uses the outer separator inside each list",
        (cli, "_json_texts"),
        _edited(cli._json_texts, 'item = "%d," + inner', 'item = "%d," + newline'),
        ["test_cli::test_json_writer_matches_json_dumps"],
    ),
]

# Mutants recorded by earlier changes, or asked for, that cannot be killed:
# the code can no longer express them, or they compute the same tables.
EQUIVALENT = {
    "set check keeps only the first next state": (
        "next returns one state or None, so there is no later state to drop"
    ),
    "layer fold without its pruning (default -inf)": (
        "a layer is one state at its count, with no per-state counts to prune"
    ),
    "layer miss that skips the antichain": (
        "there is no antichain step: a layer is one state, and its move the greedy step"
    ),
    "line DP pick tries idle first": (
        "there is no pick: the greedy pass takes every user the rule allows"
    ),
    "family walk reads the mask from the first tuple position": (
        "no pass reads a mask out of a tuple: CSV rows' text pass keys on the sums of a search's "
        "two rule parts, and a sweep's spoiled blocks are a part of its own count pass"
    ),
}


def _killer(name):
    module, test = name.split("::")
    return getattr(importlib.import_module(module), test)


def _bindings(owner, attribute):
    """owner, and every other loaded module that binds owner.attribute by that name."""
    original = getattr(owner, attribute)
    modules = [
        m for m in list(sys.modules.values()) if getattr(m, "__dict__", {}).get(attribute) is original
    ]
    return [owner, *(m for m in modules if m is not owner)]


def test_every_mutant_is_killed():
    survivors = []
    for name, (module, attribute), replacement, killers in MUTANTS:
        assert hasattr(module, attribute), f"{name}: {module.__name__}.{attribute} is gone"
        tests = [_killer(killer) for killer in killers]
        with ExitStack() as stack:
            for owner in _bindings(module, attribute):
                stack.enter_context(mock.patch.object(owner, attribute, replacement))
            for killer, test in zip(killers, tests):
                try:
                    test()
                except (Exception, pytest.fail.Exception):  # any failure kills, "DID NOT RAISE" too
                    continue
                survivors.append(f"{name} survives {killer}")
    assert not survivors, survivors
