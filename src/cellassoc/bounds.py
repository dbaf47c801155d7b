"""Converse certificates: upper bounds with machine-checkable flag data.

Three bound families, each emitting a BoundCertificate whose value can be
recomputed from the flagged data alone:

* pairwise chain bound (uplink): flag every i where users i and i+1 are not
  both associated with base station i.  A flagged pair can only have both
  messages decoded when message i is decoded at bs i-1, which forces an
  inactive user strictly to the left reachable through unflagged positions.
  The chain DP tracks exactly that credit, so the bound stays sound for
  the decode-and-pass model; a plain d_i + d_{i+1} <= 1 constraint at
  every flag overshoots it (an explicit counterexample lives in the tests).
  That DP is the third line rule of _kernels, next to the two sessions'.

* block reconstruction bound (downlink): split users into blocks of
  2*nc - 1.  When the middle bs of a block carries exactly its two local
  messages, the block's transmit signals can be rebuilt from 2*nc - 2
  received signals, so those suffice as seeds; otherwise all 2*nc - 1 are
  charged.  Any active message is a function of all transmit signals, and
  a linear map cannot be injective onto more symbols than it has inputs,
  so the seed count bounds the downlink sum.  Goodness is one per-user
  rule, _spoil_rule: the indices of the blocks a user's set keeps from
  being good, index b for block b + 1.  One association marks its users'
  blocks in one byte per block (_block_flags); a sweep carries, user by
  user, the spoiled blocks that a later user can still spoil, and counts
  each block when it is first spoiled (_spoil_part).  Either way the
  value is _reconstruction_value of the spoiled count.

* counting bound (average): per full block, one session is charged
  2*nc - 1 and the other 2*nc - 2 depending on the middle-bs association
  test, so the two-session sum is 4*nc - 3 either way; tail users are
  charged 1 per session.  The per-block split is an asymptotic accounting
  device; soundness is claimed only for the aggregate average value.

Each kind (KIND_*) has one issuer in ISSUERS, which the CLI, the
searches and verify_certificate share; the counting kind is issued by
counting_bound at nc >= 2 and by ncone_bound at nc = 1.  Bounds never
claim tightness.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction

from . import _kernels
from .errors import ValidationError
from .model import (
    CellAssociation,
    Record,
    bool_from_json,
    check_int,
    frac_from_str,
    int_from_json,
    ints_from_json,
    shown,
)

KIND_CHAIN = "lemma2_chain"
KIND_RECONSTRUCTION = "dl_reconstruction"
KIND_COUNTING = "avg_counting"


class BlockFlag(Record):
    """Classification of one full block of 2*nc - 1 users."""

    block: int
    start: int
    good: bool

    def to_json(self) -> dict:
        return {"block": self.block, "start": self.start, "good": self.good}


class BoundCertificate(Record):
    """Self-contained certificate: kind + flagged data reproduce value."""

    kind: str
    flagged: tuple
    value: Fraction
    k: int
    nc: int
    assumptions: tuple[str, ...] = ()
    _json_extras = ("per_user",)

    @property
    def per_user(self) -> Fraction:
        """The bound per user, value / k."""
        return self.value / self.k

    @classmethod
    def from_json(cls, data: object) -> "BoundCertificate":
        if not isinstance(data, dict) or {"kind", "flagged", "value", "k", "nc"} - set(data):
            raise ValidationError("certificate JSON must have kind, flagged, value, k, nc")
        kind = data["kind"]
        if kind == KIND_CHAIN:
            flagged = tuple(ints_from_json(data["flagged"], "flagged"))
        elif kind in (KIND_RECONSTRUCTION, KIND_COUNTING):
            if not isinstance(data["flagged"], list) or not all(
                isinstance(f, dict) and not {"block", "start", "good"} - set(f)
                for f in data["flagged"]
            ):
                raise ValidationError("flagged must be a list of block, start, good objects")
            flagged = tuple(
                BlockFlag(
                    block=int_from_json(f["block"], "block"),
                    start=int_from_json(f["start"], "start"),
                    good=bool_from_json(f["good"], "flag good"),
                )
                for f in data["flagged"]
            )
        else:
            raise ValidationError(f"unknown certificate kind{shown(kind, ' ')}")
        value = frac_from_str(data["value"])
        k = check_int("certificate k", int_from_json(data["k"], "k"), 1)
        nc = int_from_json(data["nc"], "nc")
        if "per_user" in data and frac_from_str(data["per_user"]) != value / k:
            raise ValidationError("certificate per_user must equal value / k")
        assumptions = data.get("assumptions", [])
        if not isinstance(assumptions, list) or not all(isinstance(a, str) for a in assumptions):
            raise ValidationError("assumptions must be a list of strings")
        return cls(
            kind=kind,
            flagged=flagged,
            value=value,
            k=k,
            nc=nc,
            assumptions=tuple(assumptions),
        )


def chain_flags(assoc: CellAssociation) -> tuple[int, ...]:
    """Indices i in [1..k-1] where users i, i+1 are not both tied to bs i."""
    cells = assoc.cells
    return tuple(i for i in range(1, assoc.k) if not (i in cells[i - 1] and i in cells[i]))


def _chain_dp(k: int, flags) -> int:
    """Max sum of d in {0,1}^k under the flagged-pair rules with credits.

    This is the chain rule of _kernels on the association with exactly
    these flags: every user holds its own bs, and user m holds bs m-1
    exactly when m-1 is unflagged.
    """
    flagset = set(flags)
    return _kernels.chain_max([(m,) if m - 1 in flagset else (m - 1, m) for m in range(1, k + 1)])


def lemma2_chain_bound(assoc: CellAssociation) -> BoundCertificate:
    """Uplink sum-DoF upper bound from pairwise association flags."""
    flags = chain_flags(assoc)
    value = Fraction(_chain_dp(assoc.k, flags))
    return BoundCertificate(
        kind=KIND_CHAIN,
        flagged=flags,
        value=value,
        k=assoc.k,
        nc=assoc.nc,
    )


def _block_layout(k: int, nc: int) -> tuple[int, int, int]:
    length = 2 * nc - 1
    full = k // length
    return length, full, k - full * length


def _spoil_rule(k: int, nc: int, strict: bool) -> Callable[[int, object], Iterator[int]]:
    """spoiled(i, cell): the full blocks that user i, holding the set cell, keeps from being good.

    spoiled yields the index b of each such block, block b + 1, possibly
    more than once.  A block is good when both local users mid and mid + 1
    of its middle bs mid hold it, and, for the strict test of the
    reconstruction argument, no other user holds it.
    """
    length, full, _tail = _block_layout(k, nc)

    def spoiled(i: int, cell) -> Iterator[int]:
        # r = 0: user i is local to block b + 1 as mid, r = 1: as mid + 1.
        b, r = divmod(i - nc, length)
        if r < 2 and 0 <= b < full and i - r not in cell:
            yield b
        if strict:
            for j in cell:
                block, r = divmod(j - nc, length)
                if not r and 0 <= block < full and i - j not in (0, 1):
                    yield block

    return spoiled


def _block_flags(assoc: CellAssociation, strict: bool) -> tuple[BlockFlag, ...]:
    """One flag per full block: good unless some user's spoiled blocks (_spoil_rule) hold it."""
    length, full, _tail = _block_layout(assoc.k, assoc.nc)
    spoiled, marked = _spoil_rule(assoc.k, assoc.nc, strict), bytearray(full)
    for i, cell in enumerate(assoc.cells, 1):
        for b in spoiled(i, cell):
            marked[b] = 1
    return tuple(
        BlockFlag(block=b + 1, start=b * length + 1, good=not marked[b]) for b in range(full)
    )


def _reconstruction_value(k: int, nc: int, spoiled: int) -> int:
    """Seed count when spoiled of the full blocks are not good.

    2*nc - 2 per good block, 2*nc - 1 per spoiled one, 1 per tail user.
    """
    _length, full, tail = _block_layout(k, nc)
    return (2 * nc - 2) * full + spoiled + tail


def _spoil_part(k: int, nc: int, w: int):
    """The strict test's spoiled blocks over a window-w family, as a part of a family pass.

    A part is (start, moves, step), as _kernels.rule_part makes of a line
    rule.  User m's step is the set of blocks its set spoils
    (_spoil_rule), each written as its middle bs's offset from m; a
    state is the set of blocks spoiled so far that a later user can
    still spoil, each written as its middle bs's offset from the next
    user; and a move's gain is the number of blocks it newly spoils, so
    an association's gains add up to its spoiled count.  In a window-w
    family user m spoils only blocks whose middle bs lies in [m - r, m +
    w], r = max(w, 1), so a block leaves the state once its middle bs
    lies below m + 1 - r: no later user spoils it again.  Offsets keep
    states free of any position, so moves serve every depth.
    """
    length, spoiled, reach = 2 * nc - 1, _spoil_rule(k, nc, True), max(w, 1)

    def step(m: int, cell) -> frozenset:
        return frozenset([nc + b * length - m for b in spoiled(m, cell)])

    def moves(column, live: frozenset, weight: int) -> list[tuple[frozenset, int, int]]:
        return [
            (frozenset([o - 1 for o in live | blocks if o > -reach]), weight * n, n)
            for blocks in column
            for n in [len(blocks - live)]
        ]

    return frozenset(), moves, step


def _counting_value(k: int, nc: int) -> Fraction:
    """(4*nc - 3)/2 per full block plus 1 per tail user."""
    _length, full, tail = _block_layout(k, nc)
    return Fraction(4 * nc - 3, 2) * full + tail


def counting_bound(assoc: CellAssociation) -> BoundCertificate:
    """Average per-user DoF bound; requires nc >= 2.

    The value depends only on (k, nc): (4*nc - 3)/2 per full block plus 1
    per tail user, divided by k for the per-user form.
    """
    if assoc.nc < 2:
        raise ValidationError("counting bound requires nc >= 2; see ncone_bound")
    flags = _block_flags(assoc, strict=False)
    value = _counting_value(assoc.k, assoc.nc)
    return BoundCertificate(
        kind=KIND_COUNTING,
        flagged=flags,
        value=value,
        k=assoc.k,
        nc=assoc.nc,
        assumptions=(
            "per-block good/bad split is an accounting device; "
            "soundness is claimed for the aggregate average only",
        ),
    )


def reconstruction_bound(assoc: CellAssociation) -> BoundCertificate:
    """Downlink sum-DoF bound by counting reconstruction seed signals."""
    if assoc.nc < 2:
        raise ValidationError("reconstruction bound requires nc >= 2; see ncone_bound")
    flags = _block_flags(assoc, strict=True)
    value = Fraction(_reconstruction_value(assoc.k, assoc.nc, sum(not f.good for f in flags)))
    return BoundCertificate(
        kind=KIND_RECONSTRUCTION,
        flagged=flags,
        value=value,
        k=assoc.k,
        nc=assoc.nc,
    )


def ncone_bound(k: int) -> BoundCertificate:
    """Asymptotic average bound for the single-association regime (nc = 1).

    The 2/3 per-user constant holds in the large-k limit; at small k the
    tail slack can make a higher average achievable, so this certificate is
    informative rather than a finite-k soundness claim.  Raises
    ValidationError unless k is a positive integer (model.check_int).
    """
    value = Fraction(2 * check_int("k", k, 1), 3)
    return BoundCertificate(
        kind=KIND_COUNTING,
        flagged=(),
        value=value,
        k=k,
        nc=1,
        assumptions=("asymptotic constant; not a finite-k bound",),
    )


# Kind -> the issuer of that kind's certificate for an association.  Each
# entry looks its constructor up when called, so a wrapper put on the
# module's name (perfbench/tracing.py) sees the call.
ISSUERS = {
    KIND_CHAIN: lambda assoc: lemma2_chain_bound(assoc),
    KIND_RECONSTRUCTION: lambda assoc: reconstruction_bound(assoc),
    KIND_COUNTING: lambda assoc: counting_bound(assoc) if assoc.nc >= 2 else ncone_bound(assoc.k),
}


def recompute_value(cert: BoundCertificate) -> Fraction:
    """Rebuild the bound value from the flagged data alone."""
    if cert.kind == KIND_CHAIN:
        return Fraction(_chain_dp(cert.k, cert.flagged))
    _length, full, _tail = _block_layout(cert.k, cert.nc)
    if cert.nc == 1 and not cert.flagged:
        return Fraction(2 * cert.k, 3)
    if len(cert.flagged) != full:
        raise ValidationError("certificate flags do not match the block layout")
    if cert.kind == KIND_COUNTING:
        return _counting_value(cert.k, cert.nc)
    if cert.kind == KIND_RECONSTRUCTION:
        spoiled = sum(not f.good for f in cert.flagged)
        return Fraction(_reconstruction_value(cert.k, cert.nc, spoiled))
    raise ValidationError(f"unknown certificate kind{shown(cert.kind, ' ')}")


def verify_certificate(cert: BoundCertificate, assoc: CellAssociation) -> bool:
    """Re-derive the flags with the kind's issuer and recompute the value from the flags.

    The assumptions are not compared.  A kind that has no certificate for
    the association (reconstruction at nc = 1) does not verify.
    """
    issue = ISSUERS.get(cert.kind)
    if issue is None or cert.k != assoc.k or cert.nc != assoc.nc:
        return False
    try:
        expected = issue(assoc).flagged
    except ValidationError:  # the issuer issues none here
        return False
    return cert.flagged == expected and recompute_value(cert) == cert.value
