"""Decode-and-pass oracle for the uplink.

An active set is feasible when the messages can be decoded one at a time:
message m decodes at one of its own connected, associated base stations b
provided every other active user heard at b was already decoded and passed
its message to b (b must lie in that user's association set).  Decoding is
monotone, so feasibility is a fixpoint computation; the canonical order
returned here schedules the smallest eligible (message, bs) pair first.

User m can only decode at bs m-1, waiting on user m-1, or at bs m, waiting
on user m+1, so the only possible cycle is an adjacent pair waiting on
each other.  Active user m decodes iff it can take bs m-1 or bs m from
C_m, with the neighbour it waits on (if active) associated with that bs,
and no adjacent pair waits on each other (see _kernels._pure).
max_uplink_dof maximizes that rule exactly with a DP along the line, then
builds and re-verifies the canonical decoding order of the set it finds.

Associations to base stations a user cannot hear never help this session;
prune() removes them without changing any feasibility decision.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _kernels
from .errors import InternalCheckError, ValidationError
from .model import CellAssociation, connected_bs, heard_mts, int_from_json


@dataclass(frozen=True)
class DecodingOrder:
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


@dataclass(frozen=True)
class UlEvaluation:
    """Result of an uplink maximization."""

    sum_dof: int
    active_users: frozenset[int]
    order: Optional[DecodingOrder]

    def to_json(self) -> dict:
        return {
            "sum_dof": self.sum_dof,
            "active_users": sorted(self.active_users),
            "order": None if self.order is None else self.order.to_json(),
            "exact": True,
        }


def prune(assoc: CellAssociation) -> CellAssociation:
    """Drop association entries to base stations the user cannot hear."""
    cells = tuple(
        cell & connected_bs(i, assoc.k)
        for i, cell in enumerate(assoc.cells, start=1)
    )
    return CellAssociation(k=assoc.k, nc=assoc.nc, cells=cells)


def _check_active(assoc: CellAssociation, active) -> frozenset[int]:
    active = frozenset(active)
    for m in active:
        if not isinstance(m, int) or not 1 <= m <= assoc.k:
            raise ValidationError(f"active user {m!r} out of range [1..{assoc.k}]")
    return active


def _step_allowed(assoc, active, decoded, m, b):
    if b not in assoc.cells[m - 1] or b not in connected_bs(m, assoc.k):
        return False
    for mp in heard_mts(b, assoc.k):
        if mp == m or mp not in active:
            continue
        if mp not in decoded or b not in assoc.cells[mp - 1]:
            return False
    return True


def uplink_feasible(assoc, active) -> Optional[DecodingOrder]:
    """Canonical decoding order for the active set, or None if infeasible.

    At every step the smallest eligible (message, bs) pair is scheduled, so
    the order is deterministic and independent of internal data layout.
    Whether m is eligible depends only on which of m-1 and m+1 are decoded,
    and decoding never makes a step disallowed.  So the scheduler keeps
    every eligible undecoded message in a min-heap, re-checks only m-1 and
    m+1 after decoding m, and picks the smallest allowed bs when m is
    popped: the same order as rescanning all messages at every step, in
    O(|active| log |active|).
    """
    active = _check_active(assoc, active)
    decoded: set[int] = set()

    def first_bs(m):
        for b in sorted(assoc.cells[m - 1] & connected_bs(m, assoc.k)):
            if _step_allowed(assoc, active, decoded, m, b):
                return b
        return None

    queued = {m for m in active if first_bs(m) is not None}
    heap = sorted(queued)
    steps = []
    while heap:
        m = heapq.heappop(heap)
        steps.append((m, first_bs(m)))
        decoded.add(m)
        for n in (m - 1, m + 1):
            if n in active and n not in queued and first_bs(n) is not None:
                queued.add(n)
                heapq.heappush(heap, n)
    if len(decoded) < len(active):
        return None
    return DecodingOrder(steps=tuple(steps))


def verify_order(order: DecodingOrder, assoc, active) -> bool:
    """Independent re-check of a decoding order against the model rules."""
    active = frozenset(active)
    decoded: set[int] = set()
    for m, b in order.steps:
        if m not in active or m in decoded:
            return False
        if not 1 <= b <= assoc.k:
            return False
        if not _step_allowed(assoc, active, decoded, m, b):
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

    Exact at every k: the line DP returns the largest active set, ties
    going to the lexicographically smallest one.
    """
    active = _kernels.ul_max_active(assoc.k, assoc.cells)
    return UlEvaluation(
        sum_dof=len(active),
        active_users=active,
        order=certify_uplink(assoc, active),
    )
