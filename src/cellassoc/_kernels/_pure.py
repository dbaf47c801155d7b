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
the tests compare it against.  For a family, `FamilyLayers` runs the
same greedy step from each layer, one state and its count, and memoizes
it per (state, step); each listing or sweep builds one table per rule, so
associations that share a prefix of options share its layers, and users
whose options look the same from where they stand share its moves at
every depth.

One walk reads these tables.  `family_walk` takes the rules, the
family's options and any other per-option parts such as bitmasks, and
returns the rows of `tuple_walk` and each last tuple's final values (the
largest active set of each rule, then each part's value), so its callers
take tuples whole and never read a layer.  `tuple_walk` walks the
product of the parts over distinct tuples: after each user it keeps the
set of tuples of component values that some prefix of options reaches,
and the row of tuples each leads to, so its work grows with the distinct
tuples and not with the candidates.  Three passes read its rows:
`tuple_counts` sums the number of associations that end in each last
tuple, the counting pass of Mohri's semiring framework ("Semiring
frameworks and algorithms for shortest-distance problems", 2002) over
the family, which lists no candidate; `tuple_ends` lists the tuples that
the prefixes of one depth end in, in enumeration order, every
association's last tuple for the violators of a sweep that finds any;
and `tuple_texts`, the framework's concatenation pass run backward,
joins a text per last tuple into one text per tuple of a depth, each
built once, which CSV rows read with the prefixes that tuple_ends lists
at that depth.

A search's winner comes from the max-plus pass of the same framework,
`family_best`, which builds no layer and reads no count.  Its nodes are
the tuples of the rules' states, and a move is each rule's greedy step
with a gain of 0 or 1, so the best weighted sum of the rules' maxima is
the longest path in the node graph, whose width is the number of
distinct state tuples, a few dozen at window nc <= 4 whatever k is.  A
forward pass collects the nodes each depth reaches, a backward pass the
best gain still to come from each, and a descent that takes each user's
first option that keeps it the first maximizer in enumeration order.
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


class FamilyLayers:
    """Forward layers of one rule's greedy pass over a family, user by user.

    rule is a line rule (see dl_rule) and options[m-1] lists the
    association sets user m may take; steps[m-1][o] is user m's step
    under options[m-1][o].  A layer is the state the greedy pass reaches
    after a prefix of options and the number of users it took, interned
    as an integer id; the start layer is id 0, and best[lid] is the count
    of layer lid, which after the last user is the size of the largest
    feasible active set.  row(lid, column) lists the ids of the layers
    that a user leads to from layer lid, one per step of column (its
    options' steps).

    A user's move is the greedy step: the active successor at one more
    user when the rule allows it, idle at the same count when it does
    not.  No other state of the prefixes' max-count layer can count again:
    one user after a layer of count M, the inactive move leads to idle at
    M, and idle covers every state, so a state reached at M or less never
    counts more.  A step reads no count, so a move runs once per (state,
    step) and adds its gain to the count; steps and states hold no
    position, so a move serves every depth and every layer of its state,
    and users whose options look the same from where they stand share it,
    whatever counts their prefixes reached.
    """

    def __init__(self, rule, options):
        start, self._idle, self._next, step = rule
        self.steps = [[step(m, cell) for cell in opts] for m, opts in enumerate(options, 1)]
        self._layers = [(start, 0)]  # (state, count) of each layer
        self._ids = {self._layers[0]: 0}
        self._moves = {}  # (state, step) -> (state after, gain in count)
        self.best = [0]

    def _move(self, lid, step):
        state, count = self._layers[lid]
        moved = self._moves.get((state, step))
        if moved is None:
            t = self._next(step, state)
            moved = self._moves[state, step] = (self._idle, 0) if t is None else (t, 1)
        key = moved[0], count + moved[1]
        lid = self._ids.get(key)
        if lid is None:
            lid = self._ids[key] = len(self._layers)
            self._layers.append(key)
            self.best.append(key[1])
        return lid

    def row(self, lid, column):
        return [self._move(lid, step) for step in column]


def tuple_walk(parts):
    """The distinct value tuples of a product walk over a family, user by user.

    parts holds one (row, columns) per component, all over the same
    options: row(v, columns[m-1]) lists the component's values after user
    m from value v, one per option of the user, and every component starts
    at 0 (a rule's FamilyLayers gives (table.row, table.steps)).  A choice
    of options for users 1..d leads to the tuple of its components' values.

    Returns (rows, last): rows[d] maps each tuple that some choice for
    users 1..d reaches to its tuples after user d+1, one per option in
    order, and last is the set of tuples after the last user.  The work
    grows with the distinct tuples, not with the candidates.
    """
    rows_of, columns = zip(*parts)
    here, rows = {(0,) * len(parts)}, []
    for column in zip(*columns):
        # Each component's row, once per distinct value of it.
        per_part = [
            {v: row(v, entries) for v in {t[c] for t in here}}
            for c, (row, entries) in enumerate(zip(rows_of, column))
        ]
        row_of = {t: list(zip(*map(dict.__getitem__, per_part, t))) for t in here}
        here = set(chain.from_iterable(row_of.values()))
        rows.append(row_of)
    return rows, here


def family_walk(rules, options, *extra):
    """(rows, finals): tuple_walk over one FamilyLayers per rule, then the extra parts.

    rules are line rules (see dl_rule) over the family whose user m may
    take any set of options[m-1], and extra holds more (row, columns)
    parts over the same options.  rows are tuple_walk's rows, whose
    tuples the other passes take whole, and finals maps each last tuple
    to its final values: the largest active set each rule allows, in the
    order of rules, then each extra part's value.
    """
    tables = [FamilyLayers(rule, options) for rule in rules]
    rows, last = tuple_walk([*((t.row, t.steps) for t in tables), *extra])
    # Column by column, in C: each table's counts of its layers, then each part's values.
    columns = list(zip(*last))
    finals = [*map(map, [t.best.__getitem__ for t in tables], columns), *columns[len(tables) :]]
    return rows, dict(zip(last, zip(*finals)))


def family_best(rules, options, weights):
    """(index, sums) of the first association with the largest weighted sum of the rules' maxima.

    rules are line rules (see dl_rule) over the family whose user m may
    take any set of options[m-1], and weights holds one integer per rule.
    sums are the winner's largest active set sizes, one per rule, and
    index its place in enumeration order (see tuple_ends).  A node is
    the tuple of the rules' states, and a move each rule's greedy step,
    with a gain of 1 when the rule takes the user; a move reads no count
    (see FamilyLayers), so the best weighted sum is the longest path in
    the node graph.  Options with the same steps make one class, which
    keeps its first option index, and moves are memoized per (node,
    column), users with equal columns sharing them.  A forward pass
    collects the nodes each depth reaches, a backward max-plus pass the
    best weighted gain still to come from each, and the descent takes,
    at each user, the first class that keeps the optimum.
    """
    starts, idles, nexts, steps = zip(*rules)
    per_rule = list(zip(nexts, idles, weights))
    columns, ids, tables = [], {}, []
    for m, opts in enumerate(options, 1):
        first = {}
        for o, cell in enumerate(opts):
            first.setdefault(tuple([step(m, cell) for step in steps]), o)
        cid = ids.setdefault(tuple(first), len(ids))
        if cid == len(tables):  # per rule: its steps in the column, its moves per state, the rule
            tables.append([(column, {}, *rule) for column, rule in zip(zip(*first), per_rule)])
        columns.append((cid, list(first.values()), len(opts)))
    moves, rows, here = {}, [], {starts}
    for cid, _firsts, _n in columns:
        row_of = {}
        for node in here:
            row = moves.get((node, cid))
            if row is None:
                parts = []
                for (column, memo, nxt, idle, w), state in zip(tables[cid], node):
                    part = memo.get(state)
                    if part is None:  # per step: the state after, the weighted gain, whether taken
                        part = memo[state] = tuple(zip(*[
                            (idle, 0, False) if (t := nxt(step, state)) is None else (t, w, True)
                            for step in column
                        ]))
                    parts.append(part)
                afters, gains, taken = zip(*parts)
                row = moves[node, cid] = list(zip(*afters)), list(map(sum, zip(*gains))), taken
            row_of[node] = row
        here = set().union(*[afters for afters, _g, _t in row_of.values()])
        rows.append(row_of)
    togo = [dict.fromkeys(here, 0)]  # togo[d][node]: the best weighted gain after user d
    for row_of in reversed(rows):
        ahead = togo[-1].__getitem__
        togo.append({node: max(map(add, g, map(ahead, a))) for node, (a, g, _t) in row_of.items()})
    togo.reverse()
    node, index, sums = starts, 0, [0] * len(rules)
    for (_cid, firsts, n), row_of, best, ahead in zip(columns, rows, togo, togo[1:]):
        afters, gains, taken = row_of[node]
        j = list(map(add, gains, map(ahead.__getitem__, afters))).index(best[node])
        index, node = index * n + firsts[j], afters[j]
        sums = [s + t[j] for s, t in zip(sums, taken)]
    return index, tuple(sums)


def tuple_counts(rows):
    """The number of associations that end in each last tuple of a tuple_walk."""
    counts = dict.fromkeys(rows[0], 1)
    for row_of in rows:
        after = {}
        for t, n in counts.items():
            for u in row_of[t]:
                after[u] = after.get(u, 0) + n
        counts = after
    return counts


def tuple_ends(rows):
    """The last tuple of every association of a tuple_walk, in enumeration order.

    Enumeration order is the product order of the options: an
    association's index is the mixed-radix number whose digit for user m
    is the position of its option, the last user's varying fastest.  Each
    depth expands every tuple into its row, in C iterators, so the
    list holds one reference per candidate to a shared tuple.  Given the
    first d rows, it lists the tuple of every choice for users 1..d.
    """
    ends = list(rows[0])  # the start tuple alone
    for row_of in rows:
        ends = list(chain.from_iterable(map(row_of.__getitem__, ends)))
    return ends


def tuple_texts(rows, texts):
    """Each first tuple of rows mapped to the join of its last tuples' texts, in enumeration order.

    rows are the rows of a tuple_walk from some depth on, and texts maps
    each last tuple to its text.  The pass runs backward, the
    concatenation pass of Mohri's framework: a tuple's text is the join
    of its row's texts, built once per distinct tuple at each depth.
    """
    for row_of in reversed(rows):
        texts = {t: "".join(map(texts.__getitem__, after)) for t, after in row_of.items()}
    return texts


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
