"""The two feasibility rules, the chain bound's rule and their passes.

cells[i-1] is the association set of user i: any container of base-station
indices that supports `in`; indices outside 1..k are ignored.  Active sets
are containers of user indices, and maximizers return a frozenset.

User i hears base stations i-1 and i only, so each rule looks at a few
neighbours of a user and never at channel values.  Both hold for every
realization with nonzero coefficients, over any field.

Downlink (zero-forcing).  Message m is served iff one side of it is left
open.  Let [a, m-1] be the run of consecutive base stations in C_m that
ends at m-1, and [m, b] the run that starts at m.  Active users a..m-1
each add one interference row on the columns a..m-1 with a nonzero
diagonal, so the left side is open iff m-1 is in C_m and some user in
[a, m-1] is inactive.  Likewise the right side is open iff m is in C_m
and either b = k or some user in [m+1, b+1] is inactive.  Other runs of
C_m cannot reach user m.

Uplink (decode-and-pass).  Active user m decodes at bs m-1 (L) or bs m (R)
when that bs is in C_m.  L waits on user m-1 if it is active, which must
then hold bs m-1 in C_{m-1}; R waits on user m+1 if it is active, which
must hold bs m in C_{m+1}.  Waits only link neighbours, so the only cycle
is an adjacent pair waiting on each other: m at R while m+1 is at L.

Chain (the uplink converse bounds.lemma2_chain_bound).  Pair (m-1, m)
is flagged unless both users hold bs m-1, and both users of a flagged
pair may be active only with credit: an inactive user z < m-1 and no
flag between z and m-1.  The bound is the most users this rule allows.

Each rule is a left-to-right automaton over the users, run on one
association or built over a family of associations that offers each user
a list of options, and every pass takes it in one shape, (start, idle,
next, step).  step(m, cell) is user m's step, a tuple of parameters read
from its set C_m as seen from m.  next(step, state) is the state the
automaton moves to when that user is active, None when the rule forbids
it, and an inactive user always leads to the rule's one idle state.  No
step or state holds k or a user index, so the automata are stationary:
users whose options look the same from where they stand have equal
steps.  The downlink state is (length of the active run ending at the
previous user, how far ahead of the next user the nearest pending right
deadline lies, inf when none), with the run length capped over a family
at the longest left side of any step (the caller works the cap out from
the family), and uncapped on one association; idle is (0, inf), which is
also the start.  The uplink state is what the previous user leaves the
next one: open (it is inactive, or took L while holding its own base
station, which is all the next user asks of it), shut (it took L without
its own base station) or R; idle is open.  A user that may take L takes
it: L with its own base station held allows every later move that R
allows, so R is the state only of a user that cannot take L.  The chain
state after an active user m is (False, holds bs m, credit through m-1):
a flag is known only at the second user of its pair, so the credit
settles one user late.  Idle is (True, True, True), whatever the
inactive user holds: the next user's move reads neither, and the pair
after it earns credit whatever its flag.  It starts at a phantom user 0
that is active, holds bs 0 (so pair (0, 1) is never flagged) and has no
credit.

Each rule has an order covers(a, b) on its states: a allows every move b
allows, and each successor of a covers the matching successor of b, so
covers is a simulation and no path from b counts more active users than
the best path from a.  Downlink: a run no longer and a deadline no
nearer.  Uplink: open, then shut, then R.  Chain: componentwise on
(after an inactive user, holds bs m, credit).  In each rule idle covers
every state, so the inactive move, which leads every state to idle,
keeps covers a simulation; and states with equal futures are one state
(open is both "inactive" and "L on its own base station"; the chain has
one idle state), so each order is antisymmetric.  No pass reads covers:
it is the witness of the argument below, so the three orders are stated
in tests/test_references.py, which checks that each is a simulation.

Each question about the rules has one pass.  For one association,
`_greedy` answers both sessions and the chain bound: it reads each
user's step when it reaches that user, takes the user when next returns
a state and otherwise moves to idle.  Taking every user the rule allows
is exact, by the simulation argument of Abdulla, Chen, Holik, Mayr and
Vojnar ("When simulation meets antichains", TACAS 2010).  Let best_m(s)
be the most users among m+1..k that can be active from state s after
user m.  An inactive user m+1 leads every state to idle, so best_m(t) >=
best_{m+1}(idle) for every t; idle covers the state an active user m+1
leads to, so best_m(idle) <= 1 + best_{m+1}(idle).  So when t =
next(step_m, s) exists, 1 + best_m(t) >= best_m(idle): taking an allowed
user never loses the maximum.  The pass therefore returns the largest
set with the lexicographically greatest indicator vector, the same set
an include-first branch and bound over ascending users finds, in O(k)
for a fixed budget, and the chain bound is its size.  Set feasibility is
`_reaches`: a count-free pass that follows the one state each user's
fixed activity leads to, kept apart from the maximizer as the reference
the tests compare it against.

Every question about a family of associations, which offers each user a
list of options, is a pass over one graph, `family_graph`, of exactly
two parts: every question pairs two rules (a search the two sessions, a
sweep's certificate a session and its bound).  A part is (start, moves,
step), a line rule becoming one with a gain of 1 when it takes the user
(`rule_part`); its caller lists each part's step of every option once
(`part_steps`), so graphs that share a part share its listing; and a
node is the pair of the parts' states, which hold no count.  An
association's path through the graph is each rule's greedy pass over
it, so its sums of gains are the rules' maxima, by the argument above.
Options with the same pair of steps make one class, and a move,
memoized per (node, column of classes), serves every user with that
column, so the graph's width is the number of distinct state pairs, a
few dozen at window nc <= 4 whatever k is.  A row is built from the two
parts' moves, each memoized per (state, column), and a text key's sums
are the prefix's two sums plus the two gains.  Three passes
of Mohri's semiring framework ("Semiring frameworks and algorithms for
shortest-distance problems", 2002) read it.  A search's winner comes
from the max-plus pass, `family_best`: a backward pass gives the best
weighted gain still to come from each node, and a descent takes each
user's first option that keeps it the first maximizer in enumeration
order.  A sweep's certificates come from the (max, count) pass,
`family_above`: a backward pass gives each node the best weighted gain
still to come and the number of suffixes that reach it, so the start
node tells how many associations meet a bound, and a descent that
enters only the subtrees whose best passes the bound lists the
associations above it.  CSV rows come from the framework's
concatenation pass, `family_texts`, run top-down with memoization: the
text of a subtree depends only on its depth, its node and the sums of
the prefix that reaches it, so each distinct key's text is joined once
from the graph's rows, and the work grows with the distinct keys and
not with the candidates.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from math import inf
from operator import add

_OPEN, _SHUT, _RIGHT = 0, 1, 2  # the uplink states, each covering the next
_DL_START = _DL_IDLE = (0, inf)  # no active run and no pending deadline
_UL_IDLE = _OPEN
_CHAIN_START = (False, True, False)
_CHAIN_IDLE = (True, True, True)


def _dl_step(k, m, cell):
    """(m - a, b + 1 - m) of user m, from its runs [a, m-1] and [m, b] in C_m.

    The left side is open iff the active run ending at m-1 is shorter
    than m - a (0 when m-1 is not in C_m); b + 1 - m is how far ahead the
    first user lies that must be inactive when only the right side is
    open (0 when m is not in C_m, inf when the run reaches the end of the
    line, which leaves the right side open).
    """
    left = right = 0
    if m >= 2 and m - 1 in cell:
        a = m - 1
        while a > 1 and a - 1 in cell:
            a -= 1
        left = m - a
    if m in cell:
        b = m
        while b < k and b + 1 in cell:
            b += 1
        right = b + 1 - m if b < k else inf
    return left, right


def _dl_next(cap, step, state):
    left, right = step
    run, due = state  # due: how far ahead the nearest pending deadline lies
    if not due:
        return None
    if run >= left:  # left side closed: a user within right must be inactive
        if not right:
            return None
        if right < due:
            due = right
    return run + 1 if run < cap else cap, due - 1


def _ul_step(m, cell):
    """(bs m-1 in C_m, state after R or None, state after L) of user m."""
    right = _RIGHT if m in cell else None
    left = _UL_IDLE if m in cell else _SHUT  # L on its own bs leaves the next user open
    return m >= 2 and m - 1 in cell, right, left


def _ul_next(step, state):
    prev, right, left = step
    if state == _RIGHT:  # user m-1 waits on m at bs m-1, so m cannot take it
        return right if prev else None
    # L waits on user m-1 unless it is inactive; it must then hold bs m-1.
    return left if prev and state == _OPEN else right


def _chain_step(m, cell):
    """(holds bs m-1, holds bs m) of user m; user 1 counts as holding bs 0."""
    return m == 1 or m - 1 in cell, m in cell


def _chain_next(step, state):
    left, own = step
    idle, prev_own, credit = state
    flagged = not (prev_own and left)  # users m-1 and m not both on bs m-1
    if flagged and not credit:
        return None
    return False, own, idle or (credit and not flagged)


def dl_rule(k, cap):
    """(start, idle, next, step) of the downlink rule on a line of k users.

    step(m, cell) is user m's step, and next(step, state) the state after
    an active user, None when the rule forbids it; idle is the state after
    an inactive user.  The run is capped at cap, which must be at least
    the longest left side of any step the rule is fed: a cap only bounds
    the states a family's table interns, and any cap at or above the
    longest left side takes the same decisions.  One association takes
    inf.
    """
    return _DL_START, _DL_IDLE, partial(_dl_next, cap), partial(_dl_step, k)


UL_RULE = _OPEN, _UL_IDLE, _ul_next, _ul_step
CHAIN_RULE = _CHAIN_START, _CHAIN_IDLE, _chain_next, _chain_step


def _greedy(rule, cells):
    """Every user the rule allows, left to right: the largest active set.

    rule is a line rule (see dl_rule) and cells[m-1] user m's association
    set; each user's step is read when the pass reaches that user.
    """
    start, idle, nxt, step = rule
    state, chosen = start, []
    for m, cell in enumerate(cells, 1):
        t = nxt(step(m, cell), state)
        if t is None:
            state = idle
        else:
            state = t
            chosen.append(m)
    return frozenset(chosen)


def rule_part(rule):
    """A line rule as a part of a family pass: (start, moves, step).

    moves(column, state, weight) lists the rule's greedy step from state
    for each step of column, as (the state after, weight times the gain,
    the gain): the gain is 1 when the rule takes the user, and 0 when it
    does not and the state after is idle.
    """
    start, idle, nxt, step = rule

    def moves(column, state, weight):
        return [(idle, 0, 0) if (t := nxt(s, state)) is None else (t, weight, 1) for s in column]

    return start, moves, step


def part_steps(part, options):
    """Each user's steps of part, one per option: [[step(m, cell) for cell in options[m-1]], ...]."""
    step = part[2]
    return [[step(m, cell) for cell in opts] for m, opts in enumerate(options, 1)]


def family_graph(parts, steps, weights):
    """(start, users, rows, last): the node graph of a family of two parts, built forward.

    parts hold the two parts' (start, moves, step) (see rule_part), steps
    their steps of every option (see part_steps) and weights one integer
    per part; a node is the pair of the parts' states.  Options with the
    same pair of steps make one class: users[d][o] is the class of option
    o of user d+1, numbered by first option.  A move reads no position,
    so it is memoized per (node, column of classes), users with equal
    columns sharing it: rows[d] maps each node that some prefix of
    options for users 1..d reaches to (afters, gains, (gains0, gains1)),
    one entry per class of user d+1, where gains are the weighted sums of
    gains0 and gains1, the two parts' gains.  last is the set of nodes
    after the last user.
    """
    (start0, moves0, _step0), (start1, moves1, _step1) = parts
    weight0, weight1 = weights
    users, columns, ids = [], [], {}
    for keys in zip(*steps):  # per user: each part's steps of its options
        first = {}
        users.append([first.setdefault(key, len(first)) for key in zip(*keys)])
        column = ids.get(key := tuple(first))
        if column is None:  # per part: its column of steps and its moves per state; the rows
            column0, column1 = zip(*first)
            column = ids[key] = column0, {}, column1, {}, {}
        columns.append(column)
    rows, here = [], {(start0, start1)}
    for column0, moved0, column1, moved1, memo in columns:
        row_of = {}
        for node in here:
            row = memo.get(node)
            if row is None:
                state0, state1 = node
                cell0 = moved0.get(state0)
                if cell0 is None:  # per class: the state after, the weighted gain, the gain
                    cell0 = moved0[state0] = tuple(zip(*moves0(column0, state0, weight0)))
                cell1 = moved1.get(state1)
                if cell1 is None:
                    cell1 = moved1[state1] = tuple(zip(*moves1(column1, state1, weight1)))
                (afters0, weighted0, gains0), (afters1, weighted1, gains1) = cell0, cell1
                row = memo[node] = (list(zip(afters0, afters1)), list(map(add, weighted0, weighted1)),
                                    (gains0, gains1))
            row_of[node] = row
        here = set().union(*[afters for afters, _g, _p in row_of.values()])
        rows.append(row_of)
    return (start0, start1), users, rows, here


def family_best(graph):
    """(index, sums) of the first association with the largest weighted sum of gains.

    graph is a family_graph; sums are the winner's sums of gains, one
    per part (with rule_part, its largest active set sizes), and index
    its place in enumeration order (see family_texts).  The best weighted
    sum is the longest path in the graph.  A backward max-plus pass gives
    the best weighted gain still to come from each node, and the descent
    takes, at each user, the first class that keeps the optimum, and that
    class's first option.
    """
    node, users, rows, last = graph
    togo = [dict.fromkeys(last, 0)]  # togo[d][node]: the best weighted gain after user d
    for row_of in reversed(rows):
        ahead = togo[-1].__getitem__
        togo.append({node: max(map(add, g, map(ahead, a))) for node, (a, g, _p) in row_of.items()})
    togo.reverse()
    index, sum0, sum1 = 0, 0, 0
    for classes, row_of, best, ahead in zip(users, rows, togo, togo[1:]):
        afters, gains, (gains0, gains1) = row_of[node]
        j = list(map(add, gains, map(ahead.__getitem__, afters))).index(best[node])
        index, node = index * len(classes) + classes.index(j), afters[j]
        sum0, sum1 = sum0 + gains0[j], sum1 + gains1[j]
    return index, (sum0, sum1)


def family_above(graph, bound):
    """(tight, above): the associations whose weighted sum of gains reaches bound.

    graph is a family_graph.  tight is the number of associations whose
    weighted sum equals bound, and above lists (index, sums) of each one
    whose sum passes it, in enumeration order (see family_texts), sums
    being its per-part sums of gains.  A backward pass in the (max,
    count) semiring of Mohri's framework gives each node the best
    weighted gain still to come and the number of suffixes that reach
    it, each class counting once per option.  A descent from the start,
    option by option, enters a subtree only when its prefix plus its
    best passes bound, and adds to tight the count of a subtree whose
    best ends exactly at bound, so it lists no association of a family
    whose best stays within bound.
    """
    start, users, rows, last = graph
    tables = [dict.fromkeys(last, (0, 1))]  # tables[d][node]: (best gain after user d, its count)
    for classes, row_of in zip(reversed(users), reversed(rows)):
        ahead, table = tables[-1], {}
        mults = list(map(classes.count, range(max(classes) + 1)))  # options per class
        for node, (afters, gains, _p) in row_of.items():
            top, count = -inf, 0
            for after, gain, mult in zip(afters, gains, mults):
                value, n = ahead[after]
                value += gain
                if value > top:
                    top, count = value, mult * n
                elif value == top:
                    count += mult * n
            table[node] = top, count
        tables.append(table)
    tables.reverse()
    tight, above = 0, []
    stack = [(0, start, 0, 0, (0, 0))]  # (depth, node, index, weighted sum, sums)
    while stack:
        depth, node, index, total, sums = stack.pop()
        if depth == len(rows):
            above.append((index, sums))
            continue
        sum0, sum1 = sums
        afters, gains, (gains0, gains1) = rows[depth][node]
        ahead, children, classes = tables[depth + 1], [], users[depth]
        for o, j in enumerate(classes):
            best, n = ahead[afters[j]]
            value = total + gains[j]
            if value + best > bound:
                children.append((depth + 1, afters[j], index * len(classes) + o, value,
                                 (sum0 + gains0[j], sum1 + gains1[j])))
            elif value + best == bound:
                tight += n
        stack.extend(reversed(children))  # the first option's subtree is taken first
    return tight, above


class _Texts(dict):
    """family_texts' memo: each key (d, node, sums) mapped to the join of its subtree's texts.

    A key is a node that a choice of options for users 1..d reaches and
    the sums of gains of that choice, one per part.  A missing key's text
    is text(sums) after the last user, and otherwise the join of its
    keys after user d+1 in option order, each looked up (and built) in
    turn.  Nothing refers back to the memo, so it is freed with the
    pass's iterator; a cached closure would refer to itself and wait for
    the garbage collector, which made a CSV search about 4% slower.
    """

    def __init__(self, graph, text):
        super().__init__()
        _start, self.users, self.rows, _last = graph
        self.text = text

    def after(self, key):
        """The keys after user d+1 of key (d, node, sums), one per option in order."""
        d, node, (s0, s1) = key
        afters, _g, (gains0, gains1) = self.rows[d][node]
        per_class = [(d + 1, a, (s0 + g0, s1 + g1)) for a, g0, g1 in zip(afters, gains0, gains1)]
        return map(per_class.__getitem__, self.users[d])

    def __missing__(self, key):
        joined = key[0] < len(self.rows)
        self[key] = "".join(map(self.__getitem__, self.after(key))) if joined else self.text(key[2])
        return self[key]


def family_texts(graph, text, depth):
    """For each choice of options for users 1..depth, the join of text(sums) over its completions.

    graph is a family_graph, and text(sums) the text of one association,
    sums being its per-part sums of gains.  Enumeration order is the
    product order of the options: an association's index is the
    mixed-radix number whose digit for user m is the position of its
    option, the last user's varying fastest.  The choices come lazily in
    that order, and each piece joins its completions' texts in that
    order; at depth len(users) a piece is text(sums) itself.  The pass is
    the concatenation pass of Mohri's framework run top-down with
    memoization: a subtree's join depends only on its key (depth, node,
    prefix sums), so it is built once per distinct key from the graph's
    rows (afters and the two parts' gains), in a memo (_Texts) that lives
    as long as the iterator.  The choices are expanded in C iterators, one
    level per user, each distinct key's keys after it listed once, and the
    joins recurse below them, so the pass nests at most len(users) + 1
    deep.
    """
    texts, children = _Texts(graph, text), {}

    def after(key):
        if key not in children:
            children[key] = tuple(texts.after(key))
        return children[key]

    keys = [(0, graph[0], (0, 0))]
    for _ in range(depth):
        keys = chain.from_iterable(map(after, keys))
    return map(texts.__getitem__, keys)


def _reaches(rule, cells, active):
    """Whether the line rule lets exactly the users in active be active.

    The pass follows the one state that the fixed activities reach, and
    no counts.
    """
    start, idle, nxt, step = rule
    state = start
    for m, cell in enumerate(cells, 1):
        if m not in active:
            state = idle
        elif (state := nxt(step(m, cell), state)) is None:
            return False
    return True


def chain_max(cells):
    """Largest count the chain rule allows on the association sets cells."""
    return len(_greedy(CHAIN_RULE, cells))


def dl_set_feasible(k, cells, active):
    """Whether every active message has a zero-forcing precoder."""
    return _reaches(dl_rule(k, inf), cells, active)


def ul_set_feasible(cells, active):
    """Whether the active messages admit a decode-and-pass order."""
    return _reaches(UL_RULE, cells, active)


def dl_max_active(k, cells):
    """Largest zero-forcing-feasible active set, include-first on ties."""
    return _greedy(dl_rule(k, inf), cells)


def ul_max_active(cells):
    """Largest decode-and-pass-feasible active set, include-first on ties."""
    return _greedy(UL_RULE, cells)
