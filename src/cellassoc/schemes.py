"""Reference association schemes and their activation plans.

Three constructions, all emitting a SchemePlan whose claims are certified
by the oracles before the plan is returned:

* downlink_optimal: blocks of 2*nc + 1 users; the first nc users in a
  block share descending suffix sets, the middle user is unserved, the
  last nc users share ascending prefix sets, and the last base station of
  every block stays silent so blocks decouple.  Serves 2*nc of every
  2*nc + 1 users in the downlink.

* pair_association: user i associates with base stations i-1 and i (user
  1 only with 1).  The uplink decodes right to left at full sum DoF.

* avg_optimal: the best-average family.  nc = 1 uses isolated served
  pairs in blocks of three.  nc = 2 keeps the pair association and picks,
  per block of three, an inactive user plus a silent base station for the
  downlink by trying a short candidate list against the zero-forcing
  oracle.  nc > 2 uses blocks of 2*nc - 1 with pair membership plus
  cluster extensions, the middle user inactive and the last base station
  silent in the downlink.

Partial trailing blocks never get closed-form claims; their activation is
chosen by running the oracles on the truncated sub-network, which is
legitimate because the preceding block's silent base station severs every
cross-boundary path.

Block trials are certified locally.  Downlink messages decouple: message
m has a precoder iff its own association set, minus the silent base
stations, can null the active users that hear it, and in the pair
association those are only users m-1, m and m+1 and base stations m-1
and m.  A trial of the block at offset off activates users among
off+1..off+3 and silences one of those base stations, so it can change
only messages off..off+3.  Each seed's channels are drawn once per plan,
a per-seed count of the accepted plan's messages without a precoder is
kept, and a trial recounts those four messages; the majority over seeds
is then the same decision that zf_feasible_majority takes on the whole
cumulative plan, at constant cost per block.  Every finished plan is
still certified as a whole by _certify_plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .downlink_zf import (
    max_downlink_dof,
    seed_majority,
    strip_silent,
    unserved_messages,
    zf_feasible_majority,
)
from .errors import InternalCheckError, ValidationError
from .model import (
    DEFAULT_PRIME,
    DEFAULT_SEEDS,
    CellAssociation,
    association,
    draw_channels,
    frac_from_str,
    frac_to_str,
    ints_from_json,
)
from .uplink_decode import max_uplink_dof, uplink_feasible


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


def _certify_plan(plan: SchemePlan, seeds, prime) -> SchemePlan:
    """Run both oracles against the plan's claims before handing it out."""
    stripped = strip_silent(plan.assoc, plan.dl_silent_bs)
    feasible, _witness = zf_feasible_majority(
        stripped, plan.dl_active_users, seeds=seeds, prime=prime
    )
    if not feasible or plan.claimed_dl_dof != len(plan.dl_active_users):
        raise InternalCheckError("scheme downlink claim failed oracle certification")
    order = uplink_feasible(plan.assoc, plan.ul_active_users)
    if order is None or plan.claimed_ul_dof != len(plan.ul_active_users):
        raise InternalCheckError("scheme uplink claim failed oracle certification")
    return plan


def _sub_assoc(assoc_cells, nc, offset, k):
    """Truncated trailing block, shifted to indices 1..t."""
    t = k - offset
    cells = []
    for u in range(1, t + 1):
        cell = assoc_cells[offset + u - 1]
        shifted = [j - offset for j in cell if offset + 1 <= j <= k]
        cells.append(shifted)
    return association(t, nc, cells)


def _partial_dl(assoc, silent, nc, offset, *, seeds, prime):
    """Oracle-chosen downlink activation for a partial trailing block."""
    k = assoc.k
    t = k - offset
    if t == 0:
        return frozenset(), frozenset()
    stripped = strip_silent(assoc, silent)
    sub = _sub_assoc(stripped.cells, nc, offset, k)
    ev = max_downlink_dof(sub, seeds=seeds, prime=prime)
    active = frozenset(offset + u for u in ev.active_users)
    used = set()
    for u in ev.active_users:
        used |= set(sub.cells[u - 1])
    extra_silent = frozenset(offset + j for j in range(1, t + 1) if j not in used)
    return active, extra_silent


def downlink_optimal(
    k: int,
    nc: int,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    prime: int = DEFAULT_PRIME,
) -> SchemePlan:
    """Downlink-rate-first plan: 2*nc served users per block of 2*nc + 1."""
    if k < 1 or nc < 1:
        raise ValidationError("k and nc must be positive")
    length = 2 * nc + 1
    blocks, t = divmod(k, length)

    cells: list[list[int]] = []
    dl_active = set()
    silent = set()
    for b in range(blocks):
        off = b * length
        for u in range(1, nc + 1):
            cells.append(list(range(off + u, off + nc + 1)))
        cells.append([])
        for u in range(nc + 2, length + 1):
            cells.append(list(range(off + nc + 1, off + u)))
        dl_active |= {off + u for u in range(1, length + 1) if u != nc + 1}
        silent.add(off + length)

    off = blocks * length
    for u in range(1, t + 1):
        if u <= nc:
            hi = off + min(nc, t)
            cells.append(list(range(off + u, hi + 1)))
        elif u == nc + 1:
            cells.append([])
        else:
            cells.append(list(range(off + nc + 1, off + u)))

    assoc = association(k, nc, cells)
    part_active, part_silent = _partial_dl(
        assoc, silent, nc, off, seeds=seeds, prime=prime
    )
    dl_active |= part_active
    silent |= part_silent

    ul = max_uplink_dof(assoc)
    plan = SchemePlan(
        assoc=assoc,
        dl_active_users=frozenset(dl_active),
        dl_silent_bs=frozenset(silent),
        ul_active_users=ul.active_users,
        claimed_dl_dof=Fraction(len(dl_active)),
        claimed_ul_dof=Fraction(ul.sum_dof),
    )
    return _certify_plan(plan, seeds, prime)


def _avg_cells_ncone(k: int) -> list[list[int]]:
    cells: list[list[int]] = []
    for i in range(1, k + 1):
        r = i % 3
        if r == 1:
            cells.append([i])
        elif r == 0:
            cells.append([i - 1])
        else:
            cells.append([])
    return cells


def _avg_plan_ncone(k, seeds, prime) -> SchemePlan:
    assoc = association(k, 1, _avg_cells_ncone(k))
    blocks, t = divmod(k, 3)
    dl_active = set()
    silent = set()
    for b in range(blocks):
        off = b * 3
        dl_active |= {off + 1, off + 3}
        silent.add(off + 3)

    off = blocks * 3
    part_active, part_silent = _partial_dl(assoc, silent, 1, off, seeds=seeds, prime=prime)
    dl_active |= part_active
    silent |= part_silent

    # Served pairs are isolated, so the same activation decodes in the
    # uplink; the trailing block is still delegated to the uplink oracle.
    ul_active = {i for i in dl_active if i <= blocks * 3}
    if t:
        sub = _sub_assoc(assoc.cells, 1, off, k)
        ev = max_uplink_dof(sub)
        ul_active |= {off + u for u in ev.active_users}

    plan = SchemePlan(
        assoc=assoc,
        dl_active_users=frozenset(dl_active),
        dl_silent_bs=frozenset(silent),
        ul_active_users=frozenset(ul_active),
        claimed_dl_dof=Fraction(len(dl_active)),
        claimed_ul_dof=Fraction(len(ul_active)),
    )
    return _certify_plan(plan, seeds, prime)


# Per-block downlink candidates for the pair association, as (inactive
# local user, silent local bs).  The middle-user/last-bs choice works for
# every block, the others are kept as fallbacks.
_PAIR_BLOCK_CANDIDATES = ((2, 3), (1, 2), (3, 1))


def _try_block(assoc, channels, dl_active, silent, failing, off, du, sb):
    """Try one block candidate against the accepted plan, in place.

    failing[i] counts the accepted plan's messages without a precoder on
    channels[i].  The candidate activates the block's users other than
    off + du and silences base station off + sb, which can change only
    messages off..off+3, so only those are recounted.  On a majority of
    seeds with no failing message the candidate stays in dl_active and
    silent and the new counts are returned; otherwise both sets are
    restored and None is returned.
    """
    touched = range(off, off + 4)
    before = [unserved_messages(assoc, silent, dl_active, ch, touched) for ch in channels]
    added = {off + u for u in (1, 2, 3) if u != du}
    dl_active |= added
    silent.add(off + sb)
    after = [
        f - b + unserved_messages(assoc, silent, dl_active, ch, touched)
        for f, b, ch in zip(failing, before, channels)
    ]
    votes = sum(1 for f in after if f == 0)
    seeds = [ch.seed for ch in channels]
    if seed_majority(votes, seeds, "plan certification"):
        return after
    dl_active -= added
    silent.discard(off + sb)
    return None


def _avg_plan_pair(k, seeds, prime) -> SchemePlan:
    assoc = pair_association(k)
    blocks, t = divmod(k, 3)
    channels = [draw_channels(k, s, prime) for s in seeds]
    dl_active: set[int] = set()
    silent: set[int] = set()
    failing = [0] * len(seeds)
    for b in range(blocks):
        off = b * 3
        for du, sb in _PAIR_BLOCK_CANDIDATES:
            counts = _try_block(assoc, channels, dl_active, silent, failing, off, du, sb)
            if counts is not None:
                failing = counts
                break
        else:
            raise InternalCheckError(
                f"no downlink candidate certified for block {b + 1}"
            )

    off = blocks * 3
    part_active, part_silent = _partial_dl(assoc, silent, 2, off, seeds=seeds, prime=prime)
    dl_active |= part_active
    silent |= part_silent

    plan = SchemePlan(
        assoc=assoc,
        dl_active_users=frozenset(dl_active),
        dl_silent_bs=frozenset(silent),
        ul_active_users=frozenset(range(1, k + 1)),
        claimed_dl_dof=Fraction(len(dl_active)),
        claimed_ul_dof=Fraction(k),
    )
    return _certify_plan(plan, seeds, prime)


def _avg_cells_wide(k: int, nc: int) -> list[list[int]]:
    """Blocks of 2*nc - 1: pair membership plus cluster extensions."""
    length = 2 * nc - 1
    cells: list[list[int]] = []
    for i in range(1, k + 1):
        off = ((i - 1) // length) * length
        u = i - off
        if u <= nc - 1:
            lo, hi = i - 1, off + nc - 1
        elif u == nc:
            lo, hi = i - 1, i
        else:
            lo, hi = off + nc, i
        cells.append([j for j in range(lo, hi + 1) if 1 <= j <= k])
    return cells


def _avg_plan_wide(k, nc, seeds, prime) -> SchemePlan:
    assoc = association(k, nc, _avg_cells_wide(k, nc))
    length = 2 * nc - 1
    blocks, _t = divmod(k, length)
    dl_active = set()
    silent = set()
    for b in range(blocks):
        off = b * length
        dl_active |= {off + u for u in range(1, length + 1) if u != nc}
        silent.add(off + length)

    off = blocks * length
    part_active, part_silent = _partial_dl(assoc, silent, nc, off, seeds=seeds, prime=prime)
    dl_active |= part_active
    silent |= part_silent

    plan = SchemePlan(
        assoc=assoc,
        dl_active_users=frozenset(dl_active),
        dl_silent_bs=frozenset(silent),
        ul_active_users=frozenset(range(1, k + 1)),
        claimed_dl_dof=Fraction(len(dl_active)),
        claimed_ul_dof=Fraction(k),
    )
    return _certify_plan(plan, seeds, prime)


def avg_optimal(
    k: int,
    nc: int,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    prime: int = DEFAULT_PRIME,
) -> SchemePlan:
    """Best-average plan for the given budget."""
    if k < 1 or nc < 1:
        raise ValidationError("k and nc must be positive")
    if nc == 1:
        return _avg_plan_ncone(k, seeds, prime)
    if nc == 2:
        return _avg_plan_pair(k, seeds, prime)
    return _avg_plan_wide(k, nc, seeds, prime)
