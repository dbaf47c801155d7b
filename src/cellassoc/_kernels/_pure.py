"""The two feasibility rules, the chain bound's rule and the line DP.

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

Each rule is a left-to-right automaton over the users, built over a
family of associations that offers each user a list of options; a single
association is the family with one option per user.  User m's step is a
tuple of parameters read from C_m as seen from m, and next(step, state,
active) returns the states the automaton may move to after deciding that
user, empty when the decision breaks the rule.  No step or state holds k
or a user index, so the automata are stationary: users whose options
look the same from where they stand have equal steps.  The downlink
state is (length of the active run ending at the previous user, how far
ahead of the next user the nearest pending right deadline lies, inf when
none), with the run length capped at the longest left side of any step.
The uplink state is what the previous user leaves the next one: open
(it is inactive, or took L while holding its own base station, which is
all the next user asks of it), shut (it took L without its own base
station) or R.  A user that may take L takes it: L with its own base
station held allows every later move that R allows, so R is the state
only of a user that cannot take L, and the uplink next returns at most
one state.  The chain state after an active user m is (False, holds
bs m, credit through m-1): a flag is known only at the second user of
its pair, so the credit settles one user late.  After an inactive user
it is (True, True, True), whatever the user holds: the next user's move
reads neither, and the pair after it earns credit whatever its flag.  It
starts at a phantom user 0 that is active, holds bs 0 (so pair (0, 1) is
never flagged) and has no credit.

Next to its next, each rule states covers(a, b), a partial order on its
states: a allows every move b allows, and each successor of a covers the
matching successor of b, so covers is a simulation and no path from b
counts more active users than the best path from a.  Downlink: a run no
longer and a deadline no nearer.  Uplink: open, then shut, then R.
Chain: componentwise on (after an inactive user, holds bs m, credit), so
the state after an inactive user covers every state.  In each rule that
state covers all others, and states with equal futures are one state
(open is both "inactive" and "L on its own base station"; the chain
keeps one state after an inactive user), so each order is antisymmetric.

Each question about the rules has one pass.  For one association,
`_lex_max` answers both sessions and the chain bound: a forward pass
records each user's moves (state, activity, next state) from the states
reachable before it; users with equal steps and equal reachable states
share one record, so the rule's next runs once per distinct pair.  A
backward pass over those records counts the most users still to come
from each state, and an include-first forward pick takes every user that
keeps that count reachable; neither calls next again.  It returns the
largest set with the lexicographically greatest indicator vector, the
same set an include-first branch and bound over ascending users finds,
in O(k) for a fixed budget, and the chain bound is its size.  Set
feasibility is `_reaches`: a count-free pass over state sets with each
user's activity fixed, kept apart from the maximizer as the reference the
tests compare it against.  For a family, `FamilyLayers` keeps the forward
max-count layers of one rule, each as its shape (the layer less its
largest count) and that count, and memoizes one user's step per (shape,
step); each search or sweep builds one table per rule, so associations
that share a prefix of options share its layers, and users whose options
look the same from where they stand share its moves at every depth.
Each layer is an antichain: a state that another state of the layer
covers at no lower count is dropped, the antichain technique of De Wulf,
Doyen, Henzinger and Raskin ("Antichains: a new algorithm for checking
universality of finite automata", CAV 2006) with the simulation order of
Abdulla, Chen, Holik, Mayr and Vojnar ("When simulation meets
antichains", TACAS 2010).  `_lex_max` and `_reaches` keep full state
sets: the include-first pick reads every state that keeps the count
reachable, and the reference stays independent of the orders.

One walk reads these tables.  `tuple_walk` walks a product of rules,
and of other per-option values such as bitmasks, over distinct tuples:
after each user it keeps the set of tuples of component values that some
prefix of options reaches, and the row of tuples each leads to, so its
work grows with the distinct tuples and not with the candidates.  Three
passes read its rows: `tuple_counts` sums the number of associations that
end in each last tuple, `ordered_find` lists, in enumeration order, the
associations whose last tuple lies in a given set, by backward
reachability, and `tuple_ends` lists every association's last tuple in
enumeration order, for output that lists the family.  The first two are
the counting and the reachability passes of Mohri's semiring framework
("Semiring frameworks and algorithms for shortest-distance problems",
2002) over the family, and a search's max-plus pass is the largest key
over the last tuples; they list no candidate.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from math import inf

_OPEN, _SHUT, _RIGHT = 0, 1, 2  # the uplink states, each covering the next
_DL_START = (0, inf)  # no active run and no pending deadline
_DL_IDLE = (_DL_START,)
_UL_IDLE = (_OPEN,)
_CHAIN_START = (False, True, False)
_CHAIN_IDLE = ((True, True, True),)


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


def _dl_next(cap, step, state, active):
    if not active:
        return _DL_IDLE
    left, right = step
    run, due = state  # due: how far ahead the nearest pending deadline lies
    if not due:
        return ()
    if run >= left:  # left side closed: a user within right must be inactive
        if not right:
            return ()
        if right < due:
            due = right
    return ((run + 1 if run < cap else cap, due - 1),)


def _dl_covers(a, b):
    """A shorter run shuts no left side that b leaves open, a later deadline binds less."""
    return a[0] <= b[0] and a[1] >= b[1]


def _ul_step(m, cell):
    """(bs m-1 in C_m, states after R, states after L) of user m."""
    right = (_RIGHT,) if m in cell else ()
    left = _UL_IDLE if right else (_SHUT,)  # L on its own bs leaves the next user open
    return m >= 2 and m - 1 in cell, right, left


def _ul_next(step, state, active):
    if not active:
        return _UL_IDLE
    prev, right, left = step
    if state == _RIGHT:  # user m-1 waits on m at bs m-1, so m cannot take it
        return right if prev else ()
    # L waits on user m-1 unless it is inactive; it must then hold bs m-1.
    return left if prev and state == _OPEN else right


def _ul_covers(a, b):
    """Open allows every move shut allows, and shut every move R allows."""
    return a <= b


def _chain_step(m, cell):
    """(holds bs m-1, holds bs m) of user m; user 1 counts as holding bs 0."""
    return m == 1 or m - 1 in cell, m in cell


def _chain_next(step, state, active):
    if not active:
        return _CHAIN_IDLE
    left, own = step
    idle, prev_own, credit = state
    flagged = not (prev_own and left)  # users m-1 and m not both on bs m-1
    if flagged and not credit:
        return ()
    return ((False, own, idle or (credit and not flagged)),)


def _chain_covers(a, b):
    """Componentwise: idle first, so the idle state covers every state."""
    return a[0] >= b[0] and a[1] >= b[1] and a[2] >= b[2]


def _steps(step, options):
    """steps[m-1][o]: user m's step under its option options[m-1][o]."""
    return [[step(m, cell) for cell in opts] for m, opts in enumerate(options, 1)]


def dl_family(k, options):
    """(start, next, steps, covers) of the downlink rule over a family.

    options[m-1] lists the association sets user m may take, and
    steps[m-1][o] is user m's step under options[m-1][o].  The run cap is
    the longest left side of any option, so one cap serves the family.
    covers(a, b) is the rule's order on states: a allows every move b
    allows, and each successor of a covers the matching successor of b.
    """
    steps = _steps(partial(_dl_step, k), options)
    cap = max((left for opts in steps for left, _right in opts), default=0)
    return _DL_START, partial(_dl_next, cap), steps, _dl_covers


def ul_family(options):
    """(start, next, steps, covers) of the uplink rule over a family; see dl_family."""
    return _OPEN, _ul_next, _steps(_ul_step, options), _ul_covers


def chain_family(options):
    """(start, next, steps, covers) of the chain rule over a family; see dl_family."""
    return _CHAIN_START, _chain_next, _steps(_chain_step, options), _chain_covers


def _one_each(cells):
    """The family that offers user m the association set cells[m-1] alone."""
    return [(cell,) for cell in cells]


def _lex_max(family):
    start, nxt, steps, _covers = family
    # moves[m-1] = (on, off, after): user m's (state, next state) moves from
    # the states reachable before it when active and when inactive, and the
    # states reachable after it.  The only pass that calls nxt.
    here, moves, seen = frozenset((start,)), [], {}
    for (step,) in steps:
        user = seen.get((step, here))
        if user is None:
            on = [(s, t) for s in here for t in nxt(step, s, 1)]
            off = [(s, t) for s in here for t in nxt(step, s, 0)]
            user = seen[step, here] = on, off, frozenset(t for _s, t in chain(on, off))
        moves.append(user)
        here = user[2]
    # togo[m][s]: most active users among m+1..k from state s before user m+1.
    togo = [dict.fromkeys(here, 0)]
    for on, off, _here in reversed(moves):
        after, best = togo[-1], {}
        for gain, pairs in ((1, on), (0, off)):
            for s, t in pairs:
                if best.get(s, -1) < gain + after[t]:
                    best[s] = gain + after[t]
        togo.append(best)
    togo.reverse()
    states, want, chosen = {start}, togo[0][start], []
    for m, ((on, off, _here), after) in enumerate(zip(moves, togo[1:]), 1):
        taken = {t for s, t in on if s in states and after[t] == want - 1}
        if taken:
            chosen.append(m)
            states, want = taken, want - 1
        else:
            states = {t for s, t in off if s in states and after[t] == want}
    return frozenset(chosen)


class FamilyLayers:
    """Forward max-count layers of one rule over a family, user by user.

    A layer is a frozen map from state to the most active users on a path
    reaching it, interned as an integer id; the start layer is id 0, and
    best[lid] is the largest count in layer lid, which after the last user
    is the size of the largest feasible active set.  row(lid, column)
    lists the ids of the layers that a user leads to from layer lid, one
    per step of column (its options' steps).

    A layer keeps only the states reached at no fewer active users than
    the largest count before the user, and of those only its antichain
    under the rule's covers: a state goes when another covers it at a
    count at least as large.  No maximum changes, since covers is a
    simulation: every path from a dropped state is matched from the state
    that covers it, at no fewer active users.  The first rule is a cheap
    case of the second, since an inactive user leads each rule from a
    state of that largest count to a state that covers every state.  The
    orders are antisymmetric, so two states never drop each other.  After
    the start, a layer is that state alone at its largest count, or that
    state one below beside an antichain of states at the largest count,
    so a rule has few shapes.

    The step commutes with adding one number to every count, so a layer
    is kept as its shape (the layer less its largest count, interned on
    its own) and that count, and the step runs once per (shape, step).
    On a miss it folds each state's inactive successors at the state's
    count and its active ones at one more into the best count per state,
    then, when more than one state is left, keeps each state that no other
    covers at no lower count.  Steps and states hold no position, so a
    move serves every depth and every layer of its shape: users whose
    options look the same from where they stand share it, whatever counts
    their prefixes reached.
    """

    def __init__(self, family):
        start, self._next, self.steps, self._covers = family
        self._shapes = [{start: 0}]
        self._shape_ids = {((start, 0),): 0}
        self._layers = [(0, 0)]  # (shape, largest count) of each layer
        self._ids = {(0, 0): 0}
        self._moves = {}  # (shape, step) -> (shape after, gain in count)
        self.best = [0]

    def _shape(self, layer):
        key = tuple(sorted(layer.items()))
        sid = self._shape_ids.get(key)
        if sid is None:
            sid = self._shape_ids[key] = len(self._shapes)
            self._shapes.append(layer)
        return sid

    def _move(self, lid, step):
        sid, count = self._layers[lid]
        moved = self._moves.get((sid, step))
        if moved is None:
            # Shape counts are at most 0, so the -1 default drops every state
            # reached below the largest count before the user.
            layer, nxt, covers = {}, self._next, self._covers
            get = layer.get
            for s, n in self._shapes[sid].items():
                for t in nxt(step, s, 0):
                    if get(t, -1) < n:
                        layer[t] = n
                for t in nxt(step, s, 1):
                    if get(t, -1) <= n:
                        layer[t] = n + 1
            if len(layer) > 1:
                # The antichain: no state that another covers at no lower count.
                kept = {}
                for t, n in layer.items():
                    for u, m in layer.items():
                        if m >= n and u != t and covers(u, t):
                            break
                    else:
                        kept[t] = n
                layer = kept
            gain = max(layer.values())
            moved = self._moves[sid, step] = self._shape({s: n - gain for s, n in layer.items()}), gain
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


def ordered_find(rows, final):
    """(index, last tuple) of every association whose last tuple is in final.

    rows are a tuple_walk's rows, and the associations come in enumeration
    order: index is the mixed-radix number whose digit for user m is the
    position of its option, the last user's varying fastest.  Backward
    reachability keeps, at each depth, the tuples from which some tuple of
    final is reached, and the descent takes options in order through those
    alone, so it visits only prefixes of associations it returns.  The
    descent keeps its own stack, so its depth is not bounded by Python's
    recursion limit.
    """
    live = [set(final)]
    for row_of in reversed(rows):
        ahead = live[-1]
        live.append({t for t, row in row_of.items() if not ahead.isdisjoint(row)})
    live.reverse()

    def descend():
        # (depth, tuple, index so far), the next prefix in order on top.
        stack = [(0, t, 0) for t in live[0]]
        while stack:
            depth, t, index = stack.pop()
            if depth == len(rows):
                yield index, t
                continue
            row, ahead = rows[depth][t], live[depth + 1]
            index *= len(row)
            for o in reversed(range(len(row))):
                if row[o] in ahead:
                    stack.append((depth + 1, row[o], index + o))

    return descend()


def tuple_ends(rows):
    """The last tuple of every association of a tuple_walk, in enumeration order.

    Each depth expands every tuple into its row, in C iterators, so the
    list holds one reference per candidate to a shared tuple.
    """
    ends = list(rows[0])  # the start tuple alone
    for row_of in rows:
        ends = list(chain.from_iterable(map(row_of.__getitem__, ends)))
    return ends


def _reaches(family, active):
    """Whether the rule lets exactly the users in active be active.

    family offers one option per user; the pass keeps the set of states
    that the fixed activities reach, and no counts.
    """
    start, nxt, steps, _covers = family
    here = {start}
    for m, (step,) in enumerate(steps, 1):
        a = m in active
        here = {t for s in here for t in nxt(step, s, a)}
    return bool(here)


def chain_max(cells):
    """Largest count the chain rule allows on the association sets cells."""
    return len(_lex_max(chain_family(_one_each(cells))))


def dl_set_feasible(k, cells, active):
    """Whether every active message has a zero-forcing precoder."""
    return _reaches(dl_family(k, _one_each(cells)), active)


def ul_set_feasible(k, cells, active):
    """Whether the active messages admit a decode-and-pass order."""
    return _reaches(ul_family(_one_each(cells)), active)


def dl_max_active(k, cells):
    """Largest zero-forcing-feasible active set, include-first on ties."""
    return _lex_max(dl_family(k, _one_each(cells)))


def ul_max_active(k, cells):
    """Largest decode-and-pass-feasible active set, include-first on ties."""
    return _lex_max(ul_family(_one_each(cells)))
