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
none), with the run length capped at the longest left side of any step;
the uplink state is the previous user's choice (inactive, L or R), with
L split by whether that user also holds its own base station, which is
all the next user asks of it.  The chain state after user m is (active,
holds bs m, credit through m-1): a flag is known only at the second user
of its pair, so the credit settles one user late.  It starts at a
phantom user 0 that is active, holds bs 0 (so pair (0, 1) is never
flagged) and has no credit.

Set feasibility runs the automaton on one activity pattern.
Maximization is one DP: a forward pass collects the reachable states, a
backward pass counts the most users still to come from each, and an
include-first forward pass takes every user that keeps that count
reachable.  It returns the largest set with the lexicographically
greatest indicator vector, the same set an include-first branch and
bound over ascending users finds, in O(k) for a fixed budget.

When only the size of that set is needed, as in a search over a family,
the forward pass alone suffices if it keeps, per state, the most active
users on a path reaching it (`max_count`): the size is the largest count
after the last user; `chain_max` is that pass for the chain rule.
`FamilyLayers` memoizes it over a family, so associations that share a
prefix of options share its layers.
"""

from __future__ import annotations

from functools import partial
from math import inf

_INACTIVE, _LEFT_OPEN, _LEFT_SHUT, _RIGHT = 0, 1, 2, 3
_DL_START = (0, inf)  # no active run and no pending deadline
_DL_IDLE = (_DL_START,)
_UL_IDLE = (_INACTIVE,)
_CHAIN_START = (1, True, False)


def _dl_step(m, k, cell):
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


def _ul_step(m, cell):
    """(bs m-1 in C_m, states after R, states after L or R) of user m."""
    right = (_RIGHT,) if m in cell else ()
    either = ((_LEFT_OPEN,) if right else (_LEFT_SHUT,)) + right
    return m >= 2 and m - 1 in cell, right, either


def _ul_next(step, state, active):
    if not active:
        return _UL_IDLE
    prev, right, either = step
    if state == _RIGHT:  # user m-1 waits on m at bs m-1, so m cannot take it
        return right if prev else ()
    # L waits on user m-1 unless it is inactive; it must then hold bs m-1.
    return either if prev and state != _LEFT_SHUT else right


def _chain_step(m, cell):
    """(holds bs m-1, holds bs m) of user m; user 1 counts as holding bs 0."""
    return m == 1 or m - 1 in cell, m in cell


def _chain_next(step, state, active):
    left, own = step
    d_prev, prev_own, credit = state
    flagged = not (prev_own and left)  # users m-1 and m not both on bs m-1
    if flagged and d_prev and active and not credit:
        return ()
    return ((active, own, not d_prev or (credit and not flagged)),)


def dl_family(k, options):
    """(start, next, steps) of the downlink rule over a family.

    options[m-1] lists the association sets user m may take, and
    steps[m-1][o] is user m's step under options[m-1][o].  The run cap is
    the longest left side of any option, so one cap serves the family.
    """
    steps = [[_dl_step(m, k, cell) for cell in opts] for m, opts in enumerate(options, 1)]
    cap = max((left for opts in steps for left, _right in opts), default=0)
    return _DL_START, partial(_dl_next, cap), steps


def ul_family(options):
    """(start, next, steps) of the uplink rule over a family; see dl_family."""
    steps = [[_ul_step(m, cell) for cell in opts] for m, opts in enumerate(options, 1)]
    return _INACTIVE, _ul_next, steps


def chain_family(options):
    """(start, next, steps) of the chain rule over a family; see dl_family."""
    steps = [[_chain_step(m, cell) for cell in opts] for m, opts in enumerate(options, 1)]
    return _CHAIN_START, _chain_next, steps


def _one_each(cells):
    """The family that offers user m the association set cells[m-1] alone."""
    return [(cell,) for cell in cells]


def _accepts(family, active):
    start, nxt, steps = family
    states = {start}
    for m, (step,) in enumerate(steps, 1):
        a = m in active
        states = {t for s in states for t in nxt(step, s, a)}
        if not states:
            return False
    return True


def _lex_max(family):
    start, nxt, steps = family
    steps = [step for (step,) in steps]
    k = len(steps)
    layers = [{start}]
    for step in steps:
        layers.append({t for s in layers[-1] for a in (1, 0) for t in nxt(step, s, a)})
    # togo[m][s]: most active users among m+1..k from state s before user m+1.
    togo = [None] * (k + 1)
    togo[k] = dict.fromkeys(layers[k], 0)
    for m in range(k, 0, -1):
        after, step = togo[m], steps[m - 1]
        togo[m - 1] = {
            s: max(a + after[t] for a in (1, 0) for t in nxt(step, s, a))
            for s in layers[m - 1]
        }
    states, want, chosen = {start}, togo[0][start], []
    for m, step in enumerate(steps, 1):
        after = togo[m]
        taken = {t for s in states for t in nxt(step, s, 1) if after[t] == want - 1}
        if taken:
            chosen.append(m)
            states, want = taken, want - 1
        else:
            states = {t for s in states for t in nxt(step, s, 0) if after[t] == want}
    return frozenset(chosen)


def max_count(nxt, step, layer):
    """One user of the forward max-count pass.

    layer maps each state before the user to the most active users on a
    path reaching it; the result is the same map after the user.
    """
    out = {}
    for s, n in layer.items():
        for a in (1, 0):
            for t in nxt(step, s, a):
                if out.get(t, -1) < n + a:
                    out[t] = n + a
    return out


class FamilyLayers:
    """Forward max-count layers of one rule over a family, user by user.

    A layer is a frozen map from state to the most active users so far,
    interned as an integer id; the start layer is id 0, and best[lid] is
    the largest count in layer lid, which after the last user is the size
    of the largest feasible active set.  row(m, lid) gives, for each
    option of user m + 1, the id of the layer it leads to from layer lid.
    Steps and states hold no position, so one table of layers serves every
    depth, and rows are computed once per (option list, layer): they are
    the family's transfer-matrix rows, so a prefix of options is walked
    once however many associations extend it, and users that offer the
    same steps share rows.
    """

    def __init__(self, family):
        start, self._next, steps = family
        self._layers = [{start: 0}]
        self._ids = {((start, 0),): 0}
        self.best = [0]
        memo = {}
        # Per user: (its steps, rows by layer id).
        self._users = [memo.setdefault(key, (key, {})) for key in map(tuple, steps)]

    def _intern(self, layer):
        key = tuple(sorted(layer.items()))
        lid = self._ids.get(key)
        if lid is None:
            lid = self._ids[key] = len(self._layers)
            self._layers.append(layer)
            self.best.append(max(layer.values()))
        return lid

    def row(self, m, lid):
        steps, rows = self._users[m]
        row = rows.get(lid)
        if row is None:
            layer, nxt = self._layers[lid], self._next
            row = rows[lid] = tuple(
                self._intern(max_count(nxt, step, layer)) for step in steps
            )
        return row


def chain_max(cells):
    """Largest count the chain rule allows on the association sets cells."""
    layer = {_CHAIN_START: 0}
    for m, cell in enumerate(cells, 1):
        layer = max_count(_chain_next, _chain_step(m, cell), layer)
    return max(layer.values())


def dl_set_feasible(k, cells, active):
    """Whether every active message has a zero-forcing precoder."""
    return _accepts(dl_family(k, _one_each(cells)), active)


def ul_set_feasible(k, cells, active):
    """Whether the active messages admit a decode-and-pass order."""
    return _accepts(ul_family(_one_each(cells)), active)


def dl_max_active(k, cells):
    """Largest zero-forcing-feasible active set, include-first on ties."""
    return _lex_max(dl_family(k, _one_each(cells)))


def ul_max_active(k, cells):
    """Largest decode-and-pass-feasible active set, include-first on ties."""
    return _lex_max(ul_family(_one_each(cells)))
