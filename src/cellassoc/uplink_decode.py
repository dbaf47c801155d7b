"""Decode-and-pass oracle for the uplink.

An active set is feasible when the messages can be decoded one at a time:
message m decodes at one of its own connected, associated base stations b
provided every other active user heard at b was already decoded and passed
its message to b (b must lie in that user's association set).

User m hears bs m-1 (L), shared only with user m-1, and bs m (R), shared
only with user m+1, so a user can only wait on a neighbour and the only
possible cycle is an adjacent pair waiting on each other.  Each maximal
run of consecutive active users is therefore decided on its own: users
decode at L in ascending order while they can, and the rest of the run
decodes at R from its right end down (see _kernels._pure for the same
rule as a line automaton).  max_uplink_dof maximizes that rule exactly
with one greedy pass along the line, which takes every user the rule
allows, then builds and re-verifies the canonical decoding order of the
set it finds.

Associations to base stations a user cannot hear never help this session;
prune() removes them without changing any feasibility decision.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from . import _kernels
from .errors import InternalCheckError, ValidationError
from .model import (
    CellAssociation,
    Record,
    check_active,
    check_int,
    check_ints,
    connected_bs,
    int_from_json,
)


class DecodingOrder(Record):
    """Sequence of (message, decoding bs) steps, one per active user."""

    steps: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {"steps": [{"m": m, "bs": b} for m, b in self.steps]}

    @classmethod
    def from_json(cls, data: object) -> "DecodingOrder":
        if not isinstance(data, dict) or "steps" not in data:
            raise ValidationError("order JSON must be an object with steps")
        if not isinstance(data["steps"], list):
            raise ValidationError("order steps must be a list")
        steps = []
        for step in data["steps"]:
            if not isinstance(step, dict) or {"m", "bs"} - set(step):
                raise ValidationError("order step must have m and bs")
            steps.append((int_from_json(step["m"], "m"), int_from_json(step["bs"], "bs")))
        return cls(steps=tuple(steps))


class UlEvaluation(Record):
    """Result of an uplink maximization."""

    sum_dof: int
    active_users: frozenset[int]
    order: Optional[DecodingOrder]
    exact = True
    _json_extras = ("exact",)


def prune(assoc: CellAssociation) -> CellAssociation:
    """Drop association entries to base stations the user cannot hear."""
    return assoc._subsets(
        cell & connected_bs(i, assoc.k) for i, cell in enumerate(assoc.cells, start=1)
    )


def uplink_feasible(assoc, active) -> Optional[DecodingOrder]:
    """Canonical decoding order for the active set, or None if infeasible.

    User m takes L (bs m-1) when m >= 2, m-1 is in C_m and user m-1 is
    inactive or holds bs m-1; it takes R (bs m) when m is in C_m and user
    m+1 is inactive or holds bs m.  In each maximal run [s, e] of active
    users, ascending, let p be the first user that cannot take L: users
    s..p-1 decode at L in ascending order, each after the one before it,
    then e down to p decode at R, each after the one after it.  The set is
    infeasible iff some user of p..e cannot take R, since p must then wait
    on p+1 at R, which cannot wait back at L, and so on to e.

    This is the order that schedules the smallest eligible (message, bs)
    pair first: every user of a run is below every user of the next, and
    within a run the L frontier is always the smallest eligible user.
    """
    active = check_active(assoc.k, active)
    cells = assoc.cells
    steps = []
    for s in sorted(active):
        if s - 1 in active:
            continue
        e = s
        while e + 1 in active:
            e += 1
        # L: bs p-1 is in C_p, and user p-1 is inactive (p = s) or holds it.
        p = s
        while 2 <= p <= e and p - 1 in cells[p - 1] and (p == s or p - 1 in cells[p - 2]):
            steps.append((p, p - 1))
            p += 1
        # R: bs m is in C_m, and user m+1 is inactive (m = e) or holds it.
        for m in range(e, p - 1, -1):
            if m not in cells[m - 1] or (m != e and m not in cells[m]):
                return None
            steps.append((m, m))
    return DecodingOrder(steps=tuple(steps))


def verify_order(order: DecodingOrder, assoc, active) -> bool:
    """Independent re-check of a decoding order against the model rules.

    k, the active set and every step index are checked once; then each step
    (m, b) is read off the line itself.  User m hears bs m-1 and m only,
    and bs b is heard by users b and b+1 alone, so the one other user heard
    at b is m+1 when b = m and m-1 when b = m-1; when active, it must be
    decoded already and hold b.
    """
    k = check_int("k", assoc.k, 1)
    active = check_active(k, active)
    check_ints("decoding step index", chain.from_iterable(order.steps))
    cells = assoc.cells
    decoded: set[int] = set()
    for m, b in order.steps:
        if m not in active or m in decoded or not m - 1 <= b <= m or b < 1:
            return False
        if b not in cells[m - 1]:
            return False
        other = 2 * b + 1 - m  # the other user that hears bs b
        if other in active and (other not in decoded or b not in cells[other - 1]):
            return False
        decoded.add(m)
    return decoded == active


def certify_uplink(assoc, active) -> DecodingOrder:
    """Canonical decoding order for the active set, re-verified.

    Raises InternalCheckError when the set has no decoding order or the
    order fails verify_order.
    """
    order = uplink_feasible(assoc, active)
    if order is None:
        raise InternalCheckError("the uplink active set has no decoding order")
    if not verify_order(order, assoc, active):
        raise InternalCheckError("uplink order failed independent re-verification")
    return order


def max_uplink_dof(assoc: CellAssociation) -> UlEvaluation:
    """Maximum simultaneously decodable active-user count for the uplink.

    Exact at every k: the greedy line pass returns the largest active set,
    ties going to the lexicographically smallest one.
    """
    active = _kernels.ul_max_active(assoc.cells)
    return UlEvaluation(
        sum_dof=len(active),
        active_users=active,
        order=certify_uplink(assoc, active),
    )
