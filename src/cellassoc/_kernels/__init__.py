"""Exact feasibility and maximization kernels on the line.

One pure-Python implementation (`_pure`) of three value-free local rules
(downlink zero-forcing, uplink decode-and-pass, the chain bound) as
left-to-right automata, each in one shape, (start, idle, next, step),
that every pass takes: `dl_rule(k, cap)`, `UL_RULE` and `CHAIN_RULE`.
An active user leads each rule to one next state or to none, and an
inactive user to its one idle state, which covers every state under the
rule's order, a simulation; the three orders are the proof's witness, so
they live with the tests that check them (tests/test_references.py).
So taking every user the rule allows is exact, and one pass per question
runs over them: a greedy pass that maximizes a session, or the chain
bound, exactly at every k in O(k) for a fixed budget; a count-free
reachability pass that decides whether one active set is feasible, the
reference the tests check the greedy pass against; and one walk over a
family, `family_walk`, which takes the rules, the family's options and
other per-option parts (such as bitmasks), walks the distinct tuples
that the family reaches over memoized forward layers, one table per rule
whose layers are one state and its count, and returns its rows and each
last tuple's final values.  Three readers answer from the rows:
`tuple_counts` counts the associations that end in each last tuple,
`tuple_ends` lists the tuples a depth's prefixes end in, in enumeration
order (the last depth's for a sweep's violators, a shallow one for CSV
rows), and `tuple_texts` joins texts given per last tuple backward into
one text per tuple of a depth, so CSV rows list no candidate.  A
search's winner needs none of them: `family_best`
is a max-plus pass over the tuples of the rules' states, which carry no
count, and returns the first association of the best weighted sum of
the rules' maxima.  `_pure` states the rules and the passes.
"""

from __future__ import annotations

from ._pure import (
    CHAIN_RULE,
    UL_RULE,
    chain_max,
    dl_max_active,
    dl_rule,
    dl_set_feasible,
    family_best,
    family_walk,
    tuple_counts,
    tuple_ends,
    tuple_texts,
    ul_max_active,
    ul_set_feasible,
)


def backend_name() -> str:
    """Name of the kernel implementation in use; there is only "pure"."""
    return "pure"
