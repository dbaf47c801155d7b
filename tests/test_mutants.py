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

from cellassoc import _kernels, cli, downlink_zf, model, schemes
from cellassoc._kernels import _pure


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


_UL_RANK_R_ABOVE_SHUT = {_pure._OPEN: 0, _pure._RIGHT: 1, _pure._SHUT: 2}

TILING = ["test_schemes::test_block_plans_match_the_whole_line_uplink_maximum"]
ORDERS = ["test_properties::test_each_rule_order_is_a_simulation"]
ORACLES = ["test_properties::test_rules_match_oracles"]
LINE = ["test_properties::test_line_dp_matches_branch_and_bound"]
WALK = ["test_properties::test_tuple_walk_matches_the_listing"]
LAYERS = ["test_properties::test_layer_moves_match_the_reference_fold"]
VERIFY = ["test_properties::test_verify_witness_matches_dense_reference"]
PLAIN = ["test_cli::test_plain_reader_reads_what_parse_args_reads"]

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
    ("downlink covers ignores due", (_pure, "_dl_covers"), lambda a, b: a[0] <= b[0], ORDERS),
    (
        "uplink order ranks R above shut",
        (_pure, "_ul_covers"),
        lambda a, b: _UL_RANK_R_ABOVE_SHUT[a] <= _UL_RANK_R_ABOVE_SHUT[b],
        ORDERS,
    ),
    (
        "chain order ignores credit",
        (_pure, "_chain_covers"),
        lambda a, b: a[0] >= b[0] and a[1] >= b[1],
        ORDERS,
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
        (_pure.FamilyLayers, "_move"),
        _edited(_pure.FamilyLayers._move, "(self._idle, 0)", "(self._idle, 1)"),
        LAYERS,
    ),
    (
        "forbidden layer move keeps its state",
        (_pure.FamilyLayers, "_move"),
        _edited(_pure.FamilyLayers._move, "(self._idle, 0)", "(state, 0)"),
        WALK,
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
        "validation fast path drops its max <= k check",
        (model, "validate_association"),
        _edited(model.validate_association, "and max(members) <= assoc.k", ""),
        ["test_model::test_validate_association_finds_each_lone_violation"],
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
                except Exception:  # any failure of a killer kills the mutant
                    continue
                survivors.append(f"{name} survives {killer}")
    assert not survivors, survivors
