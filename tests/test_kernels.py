"""The kernels: one pass per question over the three line rules, exact at every size.

The maximizer answers both sessions and the chain bound, and set
feasibility is a separate reachability pass.  tests/test_properties.py
checks the rules and the passes against the GF(p) and decoding-order
oracles and against an include-first branch and bound on short lines;
the tests here run them on long ones.
"""

import itertools
import sys
from functools import partial
from math import inf

import cellassoc._kernels as kernels
from cellassoc import (
    avg_optimal,
    downlink_optimal,
    max_downlink_dof,
    max_uplink_dof,
    pair_association,
    search,
)
from cellassoc._kernels import _pure
from cellassoc.bounds import chain_flags
from test_properties import family_rules, ref_chain_dp, rule_graph
from test_references import chain_covers, dl_covers, ul_covers


def test_backend_name_reports_selection():
    assert kernels.backend_name() == "pure"


def test_set_checks_take_any_k():
    # The rules read association sets, so they take any k.
    k = 70
    cells = [{i - 1, i} - {0} for i in range(1, k + 1)]
    everyone = set(range(1, k + 1))
    assert kernels.ul_set_feasible(cells, everyone)
    assert not kernels.dl_set_feasible(k, cells, everyone)


def test_pair_association_maxima_on_a_long_line():
    # Two of every three users in the downlink, everyone in the uplink.
    k = 20000
    assoc = pair_association(k)
    dl = kernels.dl_max_active(k, assoc.cells)
    assert dl == {i for i in range(1, k + 1) if i % 3 != 2}
    assert kernels.ul_max_active(assoc.cells) == set(range(1, k + 1))
    dl_ev, ul_ev = max_downlink_dof(assoc), max_uplink_dof(assoc)
    assert dl_ev.to_json()["exact"] is True and ul_ev.to_json()["exact"] is True
    assert (dl_ev.sum_dof, ul_ev.sum_dof) == (13333, 20000)


def test_chain_bound_and_set_checks_on_long_lines():
    # The property tests stop at k <= 14.  Each maximizer's set passes its
    # set check, and no set with one more user does.
    for assoc, chain in (
        (pair_association(20000), 20000),
        (avg_optimal(20000, 3).assoc, 20000),
        (downlink_optimal(20001, 2).assoc, 13334),
    ):
        k, cells = assoc.k, assoc.cells
        assert kernels.chain_max(cells) == ref_chain_dp(k, chain_flags(assoc)) == chain
        for maximize, feasible in (
            (partial(kernels.dl_max_active, k), partial(kernels.dl_set_feasible, k)),
            (kernels.ul_max_active, kernels.ul_set_feasible),
        ):
            active = maximize(cells)
            assert feasible(cells, active)
            idle = sorted(set(range(1, k + 1)) - active)
            for extra in idle[:1] + idle[-1:]:
                assert not feasible(cells, active | {extra})


def test_rules_on_tiny_cases():
    # User 2 hears bs 1, which is message 1's only base station.
    assert not kernels.dl_set_feasible(2, [{1}, {1, 2}], {1, 2})
    assert kernels.dl_set_feasible(2, [{1}, {1, 2}], {1})
    # Both users can only reach bs 1: whoever decodes first blocks the other.
    assert not kernels.ul_set_feasible([{1}, {1}], {1, 2})
    assert kernels.ul_max_active([{1}, {1}]) == {1}
    # An empty or off-line association never serves; the empty set is feasible.
    assert kernels.dl_max_active(3, [set(), {0}, {4}]) == set()
    assert kernels.dl_set_feasible(3, [set(), set(), set()], set())
    assert not kernels.dl_set_feasible(1, [set()], {1})


def steps_of(rule, options):
    """steps[m-1][o]: user m's step under its option o."""
    step = rule[3]
    return [[step(m, cell) for cell in opts] for m, opts in enumerate(options, 1)]


def test_rules_are_stationary_on_a_windowed_family():
    # Users w+1..k-w-1 see the same options relative to themselves, so no
    # step may depend on where the user stands or on k.
    k = 10
    for nc in (1, 2, 3):
        for w in (1, 2):
            options = search._user_options(k, nc, w)
            rules = search._dl_rule(k, nc, w), _pure.UL_RULE, _pure.CHAIN_RULE
            steps = [steps_of(rule, options) for rule in rules]
            for rule_steps in steps:
                interior = rule_steps[w : k - w - 1]
                assert len(interior) >= 3
                assert all(user == interior[0] for user in interior), (nc, w)
            # A downlink state is (run, distance to the pending deadline):
            # both stay within the window, whatever k and the depth.
            start, idle, nxt, _step = rules[0]
            states = {start}
            for user in steps[0]:
                states = {nxt(step, s) for s in states for step in user} - {None} | {idle}
                assert all(run <= w and (due == inf or due <= w) for run, due in states), (nc, w)


def test_each_rule_moves_to_at_most_one_state_that_idle_covers():
    # next(step, state) is the one state after an active user, or None when
    # the rule forbids the move, and the state after an inactive user covers
    # it.  The uplink takes L first: when L is allowed (the user holds bs m-1
    # and user m-1 leaves it open), next is the L state, which covers R.
    for k in range(1, 5):
        every_cell = [
            frozenset(c) for r in range(k + 1) for c in itertools.combinations(range(1, k + 1), r)
        ]
        options = [every_cell] * k
        orders = dl_covers, ul_covers, chain_covers
        for name, rule, covers in zip(("dl", "ul", "chain"), family_rules(k, options), orders):
            start, idle, nxt, _step = rule
            steps = steps_of(rule, options)
            here = {start}
            for user in steps:
                after = {idle}
                for step, state in itertools.product(user, here):
                    t = nxt(step, state)
                    assert t is None or covers(idle, t), (name, k, step, state, t)
                    if name == "ul" and step[0] and state == _pure._OPEN:
                        _prev, right, left = step
                        assert t == left and (right is None or covers(left, right)), (k, step)
                    after.add(t)
                here = after - {None}


def test_text_pass_nests_a_few_frames_per_user():
    # Every user has at least two options, so a family under the search
    # ceiling has at most 23 users.  Joined whole, the text pass of such a
    # line takes at most three calls of the recursion limit for each of
    # its 24 levels (71 in all; the check leaves a margin of 10), and not
    # one per candidate.
    assert 2**23 <= search.MAX_CANDIDATES < 2**24
    k = 23
    options = search._user_options(k, 1, 0)  # () or (i,) for every user
    graph = rule_graph(family_rules(k, options)[:2], options, (1, 1))

    def headroom():  # the calls left below the recursion limit
        try:
            return 1 + headroom()
        except RecursionError:
            return 0

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - headroom() + 3 * (k + 1) + 10)
    try:
        assert list(kernels.family_texts(graph, lambda sums: "", 0)) == [""]
    finally:
        sys.setrecursionlimit(limit)


def test_layers_keep_their_antichains_small():
    # A node that keeps a state that cannot count again still gives every
    # right answer, so only sizes show the loss: the distinct states that
    # each rule's graph reaches, and the most distinct (node, (dl, ul))
    # tuples that the prefixes of one depth before the last user reach in
    # a search's graph, the keys of CSV rows' text pass.
    for (k, nc, w), states, widest in (((5, 2, 1), [4, 3, 5], 38), ((16, 3, 2), [9, 3, 5], 1268)):
        options = search._user_options(k, nc, w)
        rules = search._dl_rule(k, nc, w), _pure.UL_RULE, _pure.CHAIN_RULE
        reached = []
        for rule in rules:
            _start, _users, rows, last = rule_graph([rule], options, (1,))
            reached.append(len(last.union(*rows)))
        assert reached == states, (k, nc, w)
        start, users, rows, _last = rule_graph(rules[:2], options, (1, 1))
        here, widths = {(start, (0, 0))}, []
        for classes, row_of in zip(users, rows):
            widths.append(len(here))
            here = {
                (afters[j], (dl + dl_gains[j], ul + ul_gains[j]))
                for node, (dl, ul) in here
                for afters, _g, (dl_gains, ul_gains) in [row_of[node]]
                for j in set(classes)
            }
        assert max(widths) == widest, (k, nc, w)


def test_search_caps_the_downlink_run_at_the_longest_left_side():
    # min(nc, w, k - 1) is the longest left side of any option of the
    # windowed family: a lower cap would wrongly open left sides, and a
    # higher one interns longer runs that no decision tells apart.
    for k, nc, w in itertools.product(range(1, 9), range(1, 5), range(6)):
        options = search._user_options(k, nc, w)
        cap = family_rules(k, options)[0][2].args
        assert search._dl_rule(k, nc, w)[2].args == cap, (k, nc, w)
