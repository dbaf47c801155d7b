"""Seed-free references for the two feasibility rules, and the rules' orders.

Neither reference assumes a line.  Each takes the topology as hears[r],
the base stations user r hears, and reads no channel value:

- zero-forcing by term rank.  Message m's precoder lives on the base
  stations of C_m; every other active user must receive nothing of it
  and user m something.  That is a rank condition on the pattern of the
  gains, and the generic rank of a pattern is its term rank, the largest
  matching of its rows to distinct columns (Edmonds, 1967; Murota,
  "Matrices and Matroids for Systems Analysis", 2000), found here by
  Kuhn's augmenting paths;
- decode-and-pass by fixpoint.  Base station b decodes user m when b is
  in C_m and hears m, and every other active user that b hears is
  decoded already and holds b, which then knows its message and cancels
  it.  Decoding only adds what base stations know, so decoding whatever
  is decodable until nothing is left to decode decides the set.

On the line they must agree with the kernels' set checks and with the
seeded oracles zf_feasible and uplink_feasible on every active set.

The chain converse has a reference of its own, read off its definition:
chain_bound_by_definition tries every activity vector, and no state of
the chain rule enters it.

The three orders covers(a, b) are the witness of the kernels' simulation
argument (see cellassoc._kernels._pure): a allows every move b allows,
and each successor of a covers the matching successor of b.  No pass of
the package reads them, so they are stated here, where the tests check
that each is a simulation.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellassoc import search
from cellassoc._kernels import _pure
from cellassoc.bounds import lemma2_chain_bound
from cellassoc.downlink_zf import zf_feasible
from cellassoc.model import DEFAULT_PRIME, association, draw_channels
from cellassoc.uplink_decode import uplink_feasible


def dl_covers(a, b):
    """A shorter run shuts no left side that b leaves open, a later deadline binds less."""
    return a[0] <= b[0] and a[1] >= b[1]


def ul_covers(a, b):
    """Open allows every move shut allows, and shut every move R allows."""
    return a <= b


def chain_covers(a, b):
    """Componentwise: idle first, so the idle state covers every state."""
    return a[0] >= b[0] and a[1] >= b[1] and a[2] >= b[2]


def line_hears(k):
    """hears[r] of the line of k users: base stations r-1 and r of 1..k."""
    return {r: {r - 1, r} - {0} for r in range(1, k + 1)}


def term_rank(rows):
    """The most rows (sets of columns) matched to distinct columns, by Kuhn's augmenting paths."""
    owner = {}  # column -> index of the row matched to it

    def augment(i, seen):
        for col in rows[i]:
            if col not in seen:
                seen.add(col)
                if col not in owner or augment(owner[col], seen):
                    owner[col] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(rows)))


def zf_generic(hears, cells, active):
    """Whether every active message has a zero-forcing precoder for generic gains.

    User m's row must leave the span of the other active users' rows on
    the columns C_m, that is raise their term rank.
    """
    for m in active:
        support = set(cells[m - 1])
        others = [hears[r] & support for r in active if r != m]
        if term_rank([*others, hears[m] & support]) == term_rank(others):
            return False
    return True


def decodable(hears, cells, active):
    """Whether decode-and-pass decodes every active message, by fixpoint."""
    heard_by = {}
    for r, stations in hears.items():
        for b in stations:
            heard_by.setdefault(b, set()).add(r)
    active = set(active)
    pending, done = set(active), set()
    while pending:
        ready = {
            m
            for m in pending
            if any(
                all(u in done and b in cells[u - 1] for u in heard_by[b] & active - {m})
                for b in hears[m] & set(cells[m - 1])
            )
        }
        if not ready:
            return False
        pending -= ready
        done |= ready
    return True


def chain_bound_by_definition(cells):
    """The most active users the chain converse allows, over all 2**k activity vectors.

    Pair (m-1, m) is flagged unless users m-1 and m both hold bs m-1, and
    user 1 counts as holding bs 0, so only pairs from (1, 2) on can be
    flagged.  Both users of a flagged pair (m-1, m) may be active only if
    some inactive user z <= m-2 has no flagged pair from (z+1, z+2) to
    (m-2, m-1).
    """
    k = len(cells)
    flagged = [False, False]  # flagged[m]: pair (m-1, m) is flagged
    flagged += [not (m - 1 in cells[m - 2] and m - 1 in cells[m - 1]) for m in range(2, k + 1)]
    # clear[z][m]: no flagged pair from (z+1, z+2) to (m-2, m-1).
    clear = [[not any(flagged[z + 2 : m]) for m in range(k + 1)] for z in range(k + 1)]
    best = 0
    for active in itertools.product((False, True), repeat=k):
        active = (True, *active)  # active[m] for users 1..k
        if all(
            not (flagged[m] and active[m - 1] and active[m])
            or any(not active[z] and clear[z][m] for z in range(1, m - 1))
            for m in range(2, k + 1)
        ):
            best = max(best, sum(active) - 1)
    return best


@st.composite
def chain_associations(draw):
    """An association of k <= 10 users whose sets hold stations near the user, some off the line."""
    k = draw(st.integers(1, 10))
    cells = [sorted(draw(st.sets(st.integers(m - 2, m + 1), max_size=3))) for m in range(1, k + 1)]
    return association(k, 3, cells)


@settings(max_examples=60, deadline=None)
@given(chain_associations())
# Every pair is flagged, so both users of a pair are active only right
# after an inactive user: at most 3 of 5, as in 1, 3, 4 or 2, 3, 5.
@example(association(5, 3, [[]] * 5))
def test_chain_bound_matches_its_definition(assoc):
    expected = chain_bound_by_definition(assoc.cells)
    assert _pure.chain_max(assoc.cells) == expected
    assert lemma2_chain_bound(assoc).value == expected


@st.composite
def small_associations(draw):
    """An association of k <= 5 users, nc <= 3, whose sets may hold stations off the line."""
    k = draw(st.integers(1, 5))
    nc = draw(st.integers(1, 3))
    cells = [sorted(draw(st.sets(st.integers(0, k + 1), max_size=nc))) for _ in range(k)]
    return association(k, nc, cells)


@settings(max_examples=150, deadline=None)
@given(small_associations(), st.integers(0, 2**31 - 2), st.sampled_from((7, 13, DEFAULT_PRIME)))
# Message 2 on bs 1 alone must be nulled at user 1: an active run as long
# as the left side shuts it.
@example(association(2, 1, [[1], [1]]), 1, 13)
# User 2 decodes at bs 1 without holding bs 2, so bs 2 cannot cancel it
# for user 3.
@example(association(3, 1, [[], [1], [2]]), 1, 13)
# Bs 0 is off the line, so user 2's left run is bs 1 alone, and an active
# user 1 shuts it: users 1 and 2 are never both active.
@example(association(2, 2, [[1, 2], [0, 1]]), 1, 13)
def test_references_match_the_rules_on_every_active_set(assoc, seed, prime):
    k, cells = assoc.k, assoc.cells
    hears = line_hears(k)
    ch = draw_channels(k, seed, prime)
    for n in range(k + 1):
        for active in map(frozenset, itertools.combinations(range(1, k + 1), n)):
            dl = zf_generic(hears, cells, active)
            assert _pure.dl_set_feasible(k, cells, active) == dl, (active, dl)
            # zf_feasible refuses an active user with an empty set; it is never served.
            empty = not all(cells[m - 1] for m in active)
            assert (not empty and zf_feasible(assoc, active, ch) is not None) == dl, (active, dl)
            ul = decodable(hears, cells, active)
            assert _pure.ul_set_feasible(cells, active) == ul, (active, ul)
            assert (uplink_feasible(assoc, active) is not None) == ul, (active, ul)


def test_references_on_a_topology_off_the_line():
    # Three users that each hear all three base stations: a 3x3 full
    # pattern, so any one message can be zero-forced on two stations
    # against one other user, but not against two.
    hears = {r: {1, 2, 3} for r in (1, 2, 3)}
    assert term_rank([{1, 2}, {2}, {2}]) == 2
    assert zf_generic(hears, [{1, 2}, {1, 2}, {3}], {1, 2})
    assert not zf_generic(hears, [{1, 2}, {1, 2}, {1, 2}], {1, 2, 3})
    # Bs b hears users b..3: bs 3 decodes user 3 alone, passes it to bs 2,
    # which then decodes user 2, and both pass theirs to bs 1.  Without bs 2
    # in C_3, users 1 and 2 wait on each other at bs 1.
    hears = {1: {1}, 2: {1, 2}, 3: {1, 2, 3}}
    assert decodable(hears, [{1}, {1, 2}, {1, 2, 3}], {1, 2, 3})
    assert not decodable(hears, [{1}, {1, 2}, {1, 3}], {1, 2, 3})
    assert decodable(hears, [{1}, {1, 2}, {1, 3}], {1, 3})


def test_each_rule_order_is_a_simulation():
    # Taking every user the rule allows keeps every maximum because idle
    # covers every state, where covers(a, b) means: a allows every move b
    # allows, and each successor of a covers the matching successor of b;
    # and two states that cover each other are one.  An inactive user leads
    # every state to idle, which must cover every state.  Every windowed
    # family with k <= 6, nc <= 3 and window <= 3 is walked; a part of a
    # family reaches no state and offers no step that the whole lacks.
    for k, nc, w in itertools.product(range(1, 7), range(1, 4), range(4)):
        options = search._user_options(k, nc, w)
        rules = search._dl_rule(k, nc, w), _pure.UL_RULE, _pure.CHAIN_RULE
        for (start, idle, nxt, step), covers in zip(rules, (dl_covers, ul_covers, chain_covers)):
            steps = [{step(m, cell) for cell in opts} for m, opts in enumerate(options, 1)]
            states, here = {start, idle}, {start}
            for user in steps:
                here = {nxt(s, state) for state in here for s in user} - {None} | {idle}
                states |= here
            every_step = set().union(*steps)
            for a, b in itertools.product(states, repeat=2):
                if not covers(a, b):
                    continue
                assert a == b or not covers(b, a), (k, nc, w, a, b)
                for s in every_step:
                    # The active successors, then the inactive ones.
                    for u, t in ((nxt(s, a), nxt(s, b)), (idle, idle)):
                        assert t is None or (u is not None and covers(u, t)), (a, b, s, t)
            assert all(covers(s, s) and covers(idle, s) for s in states), (k, nc, w)
