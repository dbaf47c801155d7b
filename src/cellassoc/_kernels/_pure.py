"""The two feasibility rules and the line DP over association sets.

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

Each rule is a left-to-right automaton over the users: step(m, state,
active) returns the states it may move to after deciding user m, empty
when that decision breaks the rule.  The downlink state is (length of the
active run ending at the previous user, nearest pending right deadline);
the uplink state is the previous user's choice (inactive, L or R).  Set
feasibility runs the automaton on one activity pattern.  Maximization is
one DP: a forward pass collects the reachable states, a backward pass
counts the most users still to come from each, and an include-first
forward pass takes every user that keeps that count reachable.  It
returns the largest set with the lexicographically greatest indicator
vector, the same set an include-first branch and bound over ascending
users finds, in O(k) for a fixed budget.
"""

from __future__ import annotations

_INACTIVE, _LEFT, _RIGHT = 0, 1, 2


def _dl_automaton(k, cells):
    """(start, step) of the downlink rule; a deadline of k + 1 means none."""
    left = [0] * (k + 1)  # m - a: left side open iff the active run is shorter
    right = [0] * (k + 1)  # b + 1: first user that must be inactive, 0 if closed
    for m in range(1, k + 1):
        cell = cells[m - 1]
        if m >= 2 and m - 1 in cell:
            a = m - 1
            while a > 1 and a - 1 in cell:
                a -= 1
            left[m] = m - a
        if m in cell:
            b = m
            while b < k and b + 1 in cell:
                b += 1
            right[m] = b + 1
    cap = max(left)
    free = (0, k + 1)

    def step(m, state, active):
        if not active:
            return (free,)
        run, deadline = state
        if deadline == m:
            return ()
        if run >= left[m]:  # left side closed: some user up to right[m] must be inactive
            if not right[m]:
                return ()
            deadline = min(deadline, right[m])
        return ((min(run + 1, cap), deadline),)

    return free, step


def _ul_automaton(k, cells):
    """(start, step) of the uplink rule; the state is user m-1's choice."""
    own = [False] * (k + 2)  # bs m in C_m
    prev = [False] * (k + 2)  # bs m-1 in C_m
    for m in range(1, k + 1):
        own[m] = m in cells[m - 1]
        prev[m] = m >= 2 and m - 1 in cells[m - 1]

    def step(m, state, active):
        if not active:
            return (_INACTIVE,)
        if state == _RIGHT and not prev[m]:
            return ()
        out = ()
        if prev[m] and (state == _INACTIVE or (state == _LEFT and own[m - 1])):
            out = (_LEFT,)
        if own[m]:
            out += (_RIGHT,)
        return out

    return _INACTIVE, step


def _accepts(k, automaton, active):
    start, step = automaton
    states = {start}
    for m in range(1, k + 1):
        states = {t for s in states for t in step(m, s, m in active)}
        if not states:
            return False
    return True


def _lex_max(k, automaton):
    start, step = automaton
    layers = [{start}]
    for m in range(1, k + 1):
        layers.append({t for s in layers[-1] for a in (1, 0) for t in step(m, s, a)})
    # togo[m][s]: most active users among m+1..k from state s before user m+1.
    togo = [None] * (k + 1)
    togo[k] = dict.fromkeys(layers[k], 0)
    for m in range(k, 0, -1):
        after = togo[m]
        togo[m - 1] = {
            s: max(a + after[t] for a in (1, 0) for t in step(m, s, a))
            for s in layers[m - 1]
        }
    states, want, chosen = {start}, togo[0][start], []
    for m in range(1, k + 1):
        after = togo[m]
        taken = {t for s in states for t in step(m, s, 1) if after[t] == want - 1}
        if taken:
            chosen.append(m)
            states, want = taken, want - 1
        else:
            states = {t for s in states for t in step(m, s, 0) if after[t] == want}
    return frozenset(chosen)


def dl_set_feasible(k, cells, active):
    """Whether every active message has a zero-forcing precoder."""
    return _accepts(k, _dl_automaton(k, cells), active)


def ul_set_feasible(k, cells, active):
    """Whether the active messages admit a decode-and-pass order."""
    return _accepts(k, _ul_automaton(k, cells), active)


def dl_max_active(k, cells):
    """Largest zero-forcing-feasible active set, include-first on ties."""
    return _lex_max(k, _dl_automaton(k, cells))


def ul_max_active(k, cells):
    """Largest decode-and-pass-feasible active set, include-first on ties."""
    return _lex_max(k, _ul_automaton(k, cells))
