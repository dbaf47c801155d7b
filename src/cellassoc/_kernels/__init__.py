"""Exact feasibility and maximization kernels on the line.

One pure-Python implementation (`_pure`) of three value-free local rules
(downlink zero-forcing, uplink decode-and-pass, the chain bound) as
left-to-right automata: an active user leads each rule to one next state
or to none, and an inactive user to its one idle state, which covers
every state under the rule's order `covers`, a simulation stated next to
the rule.  So taking every user the rule allows is exact, and one pass
per question runs over them: a greedy pass that maximizes a session, or
the chain bound, exactly at every k in O(k) for a fixed budget; a
count-free reachability pass that decides whether one active set is
feasible, the reference the tests check the greedy pass against; and
memoized forward layers over a family (`FamilyLayers`, one table per
rule and walk), each layer one state and its count, moved by the same
greedy step.
`tuple_walk` is the one family walk: it walks the distinct tuples of
layers (and of other per-option values) that a family reaches, and three
readers answer from its rows: `tuple_counts` counts the associations
that end in each last tuple, `ordered_find` lists, in enumeration order,
the associations that end in chosen tuples, and `tuple_ends` lists every
association's last tuple in enumeration order.  `_pure` states the rules
and the passes.
"""

from __future__ import annotations

from ._pure import (
    FamilyLayers,
    chain_family,
    chain_max,
    dl_family,
    dl_max_active,
    dl_set_feasible,
    ordered_find,
    tuple_counts,
    tuple_ends,
    tuple_walk,
    ul_family,
    ul_max_active,
    ul_set_feasible,
)


def backend_name() -> str:
    """Name of the kernel implementation in use; there is only "pure"."""
    return "pure"
