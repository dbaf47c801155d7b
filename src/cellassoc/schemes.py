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
is the exact maximum (the greedy line pass) on the truncated sub-network,
which is legitimate because the preceding block's silent base station
severs every cross-boundary path, and its base stations that no active
user holds are silenced too.  The uplink set of downlink_optimal is split at the same
boundaries: a block's first user holds none of the previous block's base
stations, so it never decodes at bs m-1 (L) or waits on user m-1, and a
block's last user does not hold its own base station, so it never
decodes at bs m (R) or waits on user m+1.  No decode-and-pass wait
crosses a block boundary, so the line's uplink maximum is the sum of the
blocks' maxima and its include-first pick is their picks side by side:
one full block is maximized and placed at every block offset, and the
trailing partial block is maximized on its own.

Every plan is certified as a whole before it is returned: the downlink set
must get a zero-forcing witness on the first seed's channel draw that
survives re-verification, and the uplink set a decoding order that
survives re-verification.  Feasibility does not depend on the channel
values in this topology (see downlink_zf), so one draw decides and
`scheme` uses only the first --seed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import _kernels
from .downlink_zf import certify_downlink, strip_silent
from .errors import InternalCheckError, SizeLimitError, ValidationError
from .model import (
    DEFAULT_SEEDS,
    CellAssociation,
    Record,
    association,
    check_int,
    check_ints,
    check_seeds,
    frac_from_str,
    ints_from_json,
    shown,
)
from .uplink_decode import certify_uplink

# Largest k a scheme is built for.  Time and memory grow linearly in k: one
# avg nc = 3 plan at k = 10^5 takes about 1.4-1.9 s and 149 MiB of RSS for
# the whole process on a 2-vCPU VM (the channel draw is two flat rows of
# gains), so larger requests are refused before anything is built.  A plan holds up to k * min(nc, k) association
# entries, which are bounded by 4 * MAX_SCHEME_K, so every k up to the limit
# is accepted with nc <= 4.
MAX_SCHEME_K = 10**6


class SchemePlan(Record):
    """An association plus the activation pattern that realizes its claims."""

    assoc: CellAssociation
    dl_active_users: frozenset[int]
    dl_silent_bs: frozenset[int]
    ul_active_users: frozenset[int]
    claimed_dl_dof: Fraction
    claimed_ul_dof: Fraction

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
            values = ints_from_json(data[key], key)
            index_sets[key] = frozenset(check_ints(key, values, 1, assoc.k))
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
    """User i tied to base stations i-1 and i (clipped at the left edge).

    Raises ValidationError unless k is a positive integer (model.check_int).
    """
    check_int("k", k, 1)
    cells = [[j for j in (i - 1, i) if j >= 1] for i in range(1, k + 1)]
    return association(k, 2, cells)


def _check_args(k: int, nc: int, seeds: Sequence[int]) -> tuple[int, ...]:
    """The checked seeds, after k and nc pass _check_size."""
    _check_size(k, nc)
    return check_seeds(seeds)


def _check_size(k: int, nc: int) -> None:
    """Refuse k and nc unless they pass model.check_int and the size limits."""
    check_int("k", k, 1)
    check_int("nc", nc, 1)
    if k > MAX_SCHEME_K:
        raise SizeLimitError(f"k{shown(k, ' = ')} exceeds the scheme size limit of {MAX_SCHEME_K}")
    if k * min(nc, k) > 4 * MAX_SCHEME_K:
        raise SizeLimitError(
            f"k = {k} and nc{shown(nc, ' = ')} allow {k * min(nc, k)} association entries, "
            f"above the scheme size limit of {4 * MAX_SCHEME_K}"
        )


def _certify_plan(plan: SchemePlan, seeds) -> SchemePlan:
    """Certify both claims with re-verified artifacts before handing the plan out."""
    if plan.claimed_dl_dof != len(plan.dl_active_users):
        raise InternalCheckError("scheme downlink claim differs from its active set")
    if plan.claimed_ul_dof != len(plan.ul_active_users):
        raise InternalCheckError("scheme uplink claim differs from its active set")
    stripped = strip_silent(plan.assoc, plan.dl_silent_bs)
    certify_downlink(stripped, plan.dl_active_users, seeds[0])
    certify_uplink(plan.assoc, plan.ul_active_users)
    return plan


def _plan(assoc, budget, uplink, seeds) -> SchemePlan:
    """The certified block plan of the given downlink budget on assoc.

    In every full block of 2*budget + 1 users, all users but the middle
    one, local user budget + 1, are downlink-active and the block's last
    base station is silent.  The trailing partial block takes the downlink
    maximum of its truncated sub-network and silences its base stations
    that no active user holds; no downlink path crosses into it, since the
    block before it silences its last base station.  The uplink-active
    users are uplink(assoc, length, off, tail), where the first off users
    fill the full blocks of the given length and tail lists the trailing
    users' sets shifted to start at user 1 (built once for both sessions).
    On the downlink cells no decode-and-pass wait crosses a block boundary
    either (a block's first user holds no base station of the block
    before, and its last user not its own), so the uplink may be
    maximized one block at a time (_tiled_uplink).
    """
    length = 2 * budget + 1
    k = assoc.k
    off = k - k % length
    tail = [frozenset(j - off for j in cell if j > off) for cell in assoc.cells[off:]]
    ul_active = uplink(assoc, length, off, tail)
    tail_active = _kernels.dl_max_active(k - off, tail)
    used = frozenset().union(*(tail[u - 1] for u in tail_active))
    served = chain(range(1, off + 1), (off + u for u in tail_active))
    dl_active = frozenset(served).difference(range(budget + 1, off + 1, length))
    unused = (off + j for j in range(1, k - off + 1) if j not in used)
    silent = frozenset(chain(range(length, off + 1, length), unused))

    plan = SchemePlan(
        assoc=assoc,
        dl_active_users=dl_active,
        dl_silent_bs=silent,
        ul_active_users=ul_active,
        claimed_dl_dof=Fraction(len(dl_active)),
        claimed_ul_dof=Fraction(len(ul_active)),
    )
    return _certify_plan(plan, seeds)


def _tiled_uplink(assoc, length, off, tail) -> frozenset[int]:
    """The line's include-first uplink maximum on the downlink cells.

    No decode-and-pass wait crosses a block boundary (see _plan), so the
    first full block's maximum is placed at every block offset below off
    and the tail's maximum at off.
    """
    block = _kernels.ul_max_active(assoc.cells[:length])
    last = _kernels.ul_max_active(tail)
    blocks = (b + u for b in range(0, off, length) for u in block)
    return frozenset(chain(blocks, (off + u for u in last)))


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


def downlink_optimal(k: int, nc: int, *, seeds: Sequence[int] = DEFAULT_SEEDS) -> SchemePlan:
    """Downlink-rate-first plan: 2*nc served users per block of 2*nc + 1.

    Its uplink set is the line's include-first uplink maximum, found one
    block at a time: a block's first user holds no base station of the
    block before, and its last user does not hold its own, so no
    decode-and-pass wait crosses a block boundary and the maximum of one
    full block, placed at every block offset, plus that of the trailing
    partial block is the maximum of the line.
    """
    seeds = _check_args(k, nc, seeds)
    assoc = association(k, nc, _downlink_cells(k, nc))
    return _plan(assoc, nc, _tiled_uplink, seeds)


def avg_optimal(k: int, nc: int, *, seeds: Sequence[int] = DEFAULT_SEEDS) -> SchemePlan:
    """Best-average plan for the given budget.

    At nc = 1 this is downlink_optimal(k, 1).  At nc >= 2 it is the block
    plan of budget nc - 1 on the downlink cells of that budget, each
    widened by the user's pair cell {i-1, i}, with every user
    uplink-active.
    """
    seeds = _check_args(k, nc, seeds)
    if nc == 1:
        return downlink_optimal(k, 1, seeds=seeds)
    cells = [{*cell, i - 1, i} for i, cell in enumerate(_downlink_cells(k, nc - 1), start=1)]
    cells[0].discard(0)  # user 1 hears no bs 0
    assoc = association(k, nc, cells)
    return _plan(assoc, nc - 1, lambda *_: frozenset(range(1, k + 1)), seeds)
