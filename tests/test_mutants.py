"""Mutants that named tests must kill, run in-process.

Each entry of MUTANTS names a wrong version of one module attribute and
the tests that must fail while it stands in for the real one.  The one
test here puts each mutant in place in turn, calls each of its killers
as a plain function (no subprocess, no fixtures) and fails when a killer
passes, that is when a mutant survives, or when a mutant's target or a
killer no longer exists.  A killer must therefore take no argument but
those its hypothesis strategies fill.
"""

import importlib
from unittest import mock

from cellassoc import _kernels, schemes
from cellassoc._kernels import _pure


def _tiling(tail_shift=0, blocks_dropped=0, block_on_tail=False):
    """schemes._tiled_uplink with one of its three parts wrong."""

    def tiled(assoc, length, off, tail):
        block = _kernels.ul_max_active(length, tail if block_on_tail else assoc.cells[:length])
        last = _kernels.ul_max_active(len(tail), tail)
        starts = range(0, off - blocks_dropped * length, length)
        shifted = [off + tail_shift + u for u in last]
        return frozenset([b + u for b in starts for u in block] + shifted)

    return tiled


_UL_RANK_R_ABOVE_SHUT = {_pure._OPEN: 0, _pure._RIGHT: 1, _pure._SHUT: 2}

TILING = ["test_schemes::test_block_plans_match_the_whole_line_uplink_maximum"]
ORDERS = ["test_properties::test_each_rule_order_is_a_simulation"]

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
]


def _killer(name):
    module, test = name.split("::")
    return getattr(importlib.import_module(module), test)


def test_every_mutant_is_killed():
    survivors = []
    for name, (module, attribute), replacement, killers in MUTANTS:
        assert hasattr(module, attribute), f"{name}: {module.__name__}.{attribute} is gone"
        tests = [_killer(killer) for killer in killers]
        with mock.patch.object(module, attribute, replacement):
            for killer, test in zip(killers, tests):
                try:
                    test()
                except Exception:  # any failure of a killer kills the mutant
                    continue
                survivors.append(f"{name} survives {killer}")
    assert not survivors, survivors
