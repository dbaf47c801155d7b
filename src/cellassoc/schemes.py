"""Reference association schemes and their activation plans.

Every scheme is one block plan with a downlink budget b.  Its users split
into blocks of 2*b + 1 consecutive users: the first b users of a block
share descending suffix sets, the middle user b + 1 has an empty set, and
the last b users share ascending prefix sets.  In each full block every
user but the middle one is downlink-active and the block's last base
station is silent, so no downlink path crosses a block boundary:

* downlink_optimal: budget nc.  Serves 2*nc of every 2*nc + 1 users in
  the downlink.

* avg_optimal: at nc = 1 the downlink plan itself.  At nc >= 2 the plan
  of budget nc - 1 with every user's set widened by its pair cell
  {i-1, i}: blocks of 2*nc - 1, the middle user nc downlink-idle, and
  every user uplink-active.  Its downlink set is that of
  downlink_optimal(k, nc - 1), so its sum is that downlink sum plus k;
  at nc = 2 the association is the pair association.

* pair_association: user i associates with base stations i-1 and i (user
  1 only with 1).  The uplink decodes right to left at full sum DoF.

A partial trailing block never gets a closed-form claim: its downlink set
is the exact maximum (the line DP) on the truncated sub-network, which is
legitimate because the preceding block's silent base station severs every
cross-boundary path, and its base stations that no active user holds are
silenced too.

Every plan is certified as a whole before it is returned: the downlink set
must get a zero-forcing witness on the first seed's channel draw that
survives re-verification, and the uplink set a decoding order that
survives re-verification.  Feasibility does not depend on the channel
values in this topology (see downlink_zf), so one draw decides and
`scheme` uses only the first --seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _kernels
from .downlink_zf import certify_downlink, strip_silent
from .errors import InternalCheckError, SizeLimitError, ValidationError
from .model import (
    DEFAULT_PRIME,
    DEFAULT_SEEDS,
    CellAssociation,
    association,
    frac_from_str,
    frac_to_str,
    ints_from_json,
)
from .uplink_decode import certify_uplink

# Largest k a scheme is built for.  Time and memory grow linearly in k: one
# avg nc = 3 plan at k = 10^5 takes about 8 s and 160 MB on a 2-vCPU VM, so
# larger requests are refused before anything is built.  A plan holds up to
# k * min(nc, k) association entries, which are bounded by 4 * MAX_SCHEME_K,
# so every k up to the limit is accepted with nc <= 4.
MAX_SCHEME_K = 10**6


@dataclass(frozen=True)
class SchemePlan:
    """An association plus the activation pattern that realizes its claims."""

    assoc: CellAssociation
    dl_active_users: frozenset[int]
    dl_silent_bs: frozenset[int]
    ul_active_users: frozenset[int]
    claimed_dl_dof: Fraction
    claimed_ul_dof: Fraction

    def to_json(self) -> dict:
        return {
            "assoc": self.assoc.to_json(),
            "dl_active_users": sorted(self.dl_active_users),
            "dl_silent_bs": sorted(self.dl_silent_bs),
            "ul_active_users": sorted(self.ul_active_users),
            "claimed_dl_dof": frac_to_str(self.claimed_dl_dof),
            "claimed_ul_dof": frac_to_str(self.claimed_ul_dof),
        }

    @classmethod
    def from_json(cls, data: object) -> "SchemePlan":
        required = {
            "assoc",
            "dl_active_users",
            "dl_silent_bs",
            "ul_active_users",
            "claimed_dl_dof",
            "claimed_ul_dof",
        }
        if not isinstance(data, dict) or required - set(data):
            raise ValidationError(f"plan JSON must have keys {sorted(required)}")
        assoc = CellAssociation.from_json(data["assoc"])
        index_sets = {}
        for key in ("dl_active_users", "dl_silent_bs", "ul_active_users"):
            values = frozenset(ints_from_json(data[key], key))
            outside = sorted(v for v in values if not 1 <= v <= assoc.k)
            if outside:
                raise ValidationError(f"{key} {outside} out of range [1..{assoc.k}]")
            index_sets[key] = values
        claims = {}
        for key, users in (
            ("claimed_dl_dof", "dl_active_users"),
            ("claimed_ul_dof", "ul_active_users"),
        ):
            claims[key] = frac_from_str(data[key])
            if claims[key] != len(index_sets[users]):
                raise ValidationError(
                    f"{key} {data[key]} differs from the {len(index_sets[users])} {users}"
                )
        return cls(assoc=assoc, **index_sets, **claims)


def pair_association(k: int) -> CellAssociation:
    """User i tied to base stations i-1 and i (clipped at the left edge)."""
    cells = [[j for j in (i - 1, i) if j >= 1] for i in range(1, k + 1)]
    return association(k, 2, cells)


def _check_args(k: int, nc: int, seeds: Sequence[int]) -> None:
    if k < 1 or nc < 1:
        raise ValidationError("k and nc must be positive")
    if k > MAX_SCHEME_K:
        raise SizeLimitError(f"k = {k} exceeds the scheme size limit of {MAX_SCHEME_K}")
    if k * min(nc, k) > 4 * MAX_SCHEME_K:
        raise SizeLimitError(
            f"k = {k} and nc = {nc} allow {k * min(nc, k)} association entries, "
            f"above the scheme size limit of {4 * MAX_SCHEME_K}"
        )
    if not seeds:
        raise ValidationError("at least one channel seed is required")


def _certify_plan(plan: SchemePlan, seeds, prime) -> SchemePlan:
    """Certify both claims with re-verified artifacts before handing the plan out."""
    if plan.claimed_dl_dof != len(plan.dl_active_users):
        raise InternalCheckError("scheme downlink claim differs from its active set")
    if plan.claimed_ul_dof != len(plan.ul_active_users):
        raise InternalCheckError("scheme uplink claim differs from its active set")
    stripped = strip_silent(plan.assoc, plan.dl_silent_bs)
    certify_downlink(stripped, plan.dl_active_users, seeds[0], prime)
    certify_uplink(plan.assoc, plan.ul_active_users)
    return plan


def _plan(assoc, budget, ul_active, seeds, prime) -> SchemePlan:
    """The certified block plan of the given downlink budget on assoc.

    In every full block of 2*budget + 1 users, all users but the middle
    one, local user budget + 1, are downlink-active and the block's last
    base station is silent.  The trailing partial block takes the downlink maximum of
    its truncated sub-network and silences its base stations that no
    active user holds.
    """
    length = 2 * budget + 1
    k = assoc.k
    off = k - k % length
    dl_active = {i for i in range(1, off + 1) if (i - 1) % length != budget}
    silent = set(range(length, off + 1, length))

    tail = [frozenset(j - off for j in cell if j > off) for cell in assoc.cells[off:]]
    tail_active = _kernels.dl_max_active(k - off, tail)
    used = frozenset().union(*(tail[u - 1] for u in tail_active))
    dl_active |= {off + u for u in tail_active}
    silent |= {off + j for j in range(1, k - off + 1) if j not in used}

    plan = SchemePlan(
        assoc=assoc,
        dl_active_users=frozenset(dl_active),
        dl_silent_bs=frozenset(silent),
        ul_active_users=frozenset(ul_active),
        claimed_dl_dof=Fraction(len(dl_active)),
        claimed_ul_dof=Fraction(len(ul_active)),
    )
    return _certify_plan(plan, seeds, prime)


def _downlink_cells(k: int, nc: int) -> list[list[int]]:
    """Blocks of 2*nc + 1: descending suffixes, an empty middle, ascending prefixes."""
    length = 2 * nc + 1
    cells: list[list[int]] = []
    for i in range(1, k + 1):
        off = ((i - 1) // length) * length
        u = i - off
        if u <= nc:
            cells.append(list(range(i, min(off + nc, k) + 1)))
        elif u == nc + 1:
            cells.append([])
        else:
            cells.append(list(range(off + nc + 1, i)))
    return cells


def downlink_optimal(
    k: int,
    nc: int,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    prime: int = DEFAULT_PRIME,
) -> SchemePlan:
    """Downlink-rate-first plan: 2*nc served users per block of 2*nc + 1."""
    _check_args(k, nc, seeds)
    assoc = association(k, nc, _downlink_cells(k, nc))
    ul_active = _kernels.ul_max_active(k, assoc.cells)
    return _plan(assoc, nc, ul_active, seeds, prime)


def avg_optimal(
    k: int,
    nc: int,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    prime: int = DEFAULT_PRIME,
) -> SchemePlan:
    """Best-average plan for the given budget.

    At nc = 1 this is downlink_optimal(k, 1).  At nc >= 2 it is the block
    plan of budget nc - 1 on the downlink cells of that budget, each
    widened by the user's pair cell {i-1, i}, with every user
    uplink-active.
    """
    _check_args(k, nc, seeds)
    if nc == 1:
        return downlink_optimal(k, 1, seeds=seeds, prime=prime)
    cells = [
        {*cell, *(j for j in (i - 1, i) if j >= 1)}
        for i, cell in enumerate(_downlink_cells(k, nc - 1), start=1)
    ]
    assoc = association(k, nc, cells)
    return _plan(assoc, nc - 1, range(1, k + 1), seeds, prime)
