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
reference the tests check the greedy pass against; and, over a family of
associations, one graph (`family_graph`) whose nodes are the tuples of
the states of its parts, which carry no count (`rule_part` makes a rule
a part), with three passes over it.  `family_best` is a max-plus pass
that returns the first association of the best weighted sum of gains,
`family_above` a (max, count) pass that counts the associations at a
bound and lists those above it, and `family_texts` a concatenation pass
that yields, for each prefix of a depth in enumeration order, the text
of its subtree's associations, joined once per distinct (depth, node,
sums) key, so CSV rows list no candidate.  `_pure` states the rules
and the passes.
"""

from __future__ import annotations

from ._pure import (
    CHAIN_RULE,
    UL_RULE,
    chain_max,
    dl_max_active,
    dl_rule,
    dl_set_feasible,
    family_above,
    family_best,
    family_graph,
    family_texts,
    rule_part,
    ul_max_active,
    ul_set_feasible,
)


def backend_name() -> str:
    """Name of the kernel implementation in use; there is only "pure"."""
    return "pure"
