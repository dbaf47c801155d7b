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
  so the seed count bounds the downlink sum.

* counting bound (average): per full block, one session is charged
  2*nc - 1 and the other 2*nc - 2 depending on the middle-bs association
  test, so the two-session sum is 4*nc - 3 either way; tail users are
  charged 1 per session.  The per-block split is an asymptotic accounting
  device; soundness is claimed only for the aggregate average value.

Bounds never claim tightness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .errors import ValidationError
from .model import (
    CellAssociation,
    frac_from_str,
    frac_to_str,
    int_from_json,
    ints_from_json,
)

KIND_CHAIN = "lemma2_chain"
KIND_RECONSTRUCTION = "dl_reconstruction"
KIND_COUNTING = "avg_counting"


@dataclass(frozen=True)
class BlockFlag:
    """Classification of one full block of 2*nc - 1 users."""

    block: int
    start: int
    good: bool

    def to_json(self) -> dict:
        return {"block": self.block, "start": self.start, "good": self.good}


@dataclass(frozen=True)
class BoundCertificate:
    """Self-contained certificate: kind + flagged data reproduce value."""

    kind: str
    flagged: tuple
    value: Fraction
    k: int
    nc: int
    assumptions: tuple[str, ...] = ()

    @property
    def per_user(self) -> Fraction:
        """The bound per user, value / k."""
        return self.value / self.k

    def to_json(self) -> dict:
        flagged: list
        if self.kind == KIND_CHAIN:
            flagged = list(self.flagged)
        else:
            flagged = [f.to_json() for f in self.flagged]
        return {
            "kind": self.kind,
            "flagged": flagged,
            "value": frac_to_str(self.value),
            "k": self.k,
            "nc": self.nc,
            "per_user": frac_to_str(self.per_user),
            "assumptions": list(self.assumptions),
        }

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
                    good=bool(f["good"]),
                )
                for f in data["flagged"]
            )
        else:
            raise ValidationError(f"unknown certificate kind {kind!r}")
        value = frac_from_str(data["value"])
        k, nc = int_from_json(data["k"], "k"), int_from_json(data["nc"], "nc")
        if k < 1:
            raise ValidationError(f"certificate k must be positive, got {k}")
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


def _good_blocks(k: int, nc: int, cells, strict: bool) -> tuple[bool, ...]:
    """Goodness of each full block, read from the association sets cells."""
    length, full, _tail = _block_layout(k, nc)
    goods = []
    for b in range(full):
        mid = b * length + nc  # middle bs of the block
        good = mid in cells[mid - 1] and mid in cells[mid]
        if good and strict:
            # The reconstruction argument needs the middle bs to carry no
            # message besides its two local ones.
            good = not any(
                mid in cells[i - 1] for i in range(1, k + 1) if i not in (mid, mid + 1)
            )
        goods.append(good)
    return tuple(goods)


def _block_flags(assoc: CellAssociation, strict: bool) -> tuple[BlockFlag, ...]:
    length = 2 * assoc.nc - 1
    goods = _good_blocks(assoc.k, assoc.nc, assoc.cells, strict)
    return tuple(
        BlockFlag(block=b + 1, start=b * length + 1, good=good)
        for b, good in enumerate(goods)
    )


def _reconstruction_value(nc: int, goods, tail: int) -> int:
    """Seed count: 2*nc - 2 per good block, 2*nc - 1 per other, 1 per tail user."""
    return sum((2 * nc - 2) if good else (2 * nc - 1) for good in goods) + tail


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
    _length, _full, tail = _block_layout(assoc.k, assoc.nc)
    flags = _block_flags(assoc, strict=True)
    value = Fraction(_reconstruction_value(assoc.nc, (f.good for f in flags), tail))
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
    informative rather than a finite-k soundness claim.
    """
    value = Fraction(2 * k, 3)
    return BoundCertificate(
        kind=KIND_COUNTING,
        flagged=(),
        value=value,
        k=k,
        nc=1,
        assumptions=("asymptotic constant; not a finite-k bound",),
    )


def recompute_value(cert: BoundCertificate) -> Fraction:
    """Rebuild the bound value from the flagged data alone."""
    if cert.kind == KIND_CHAIN:
        return Fraction(_chain_dp(cert.k, cert.flagged))
    _length, full, tail = _block_layout(cert.k, cert.nc)
    if cert.nc == 1 and not cert.flagged:
        return Fraction(2 * cert.k, 3)
    if len(cert.flagged) != full:
        raise ValidationError("certificate flags do not match the block layout")
    if cert.kind == KIND_COUNTING:
        return _counting_value(cert.k, cert.nc)
    if cert.kind == KIND_RECONSTRUCTION:
        return Fraction(_reconstruction_value(cert.nc, (f.good for f in cert.flagged), tail))
    raise ValidationError(f"unknown certificate kind {cert.kind!r}")


def verify_certificate(cert: BoundCertificate, assoc: CellAssociation) -> bool:
    """Re-derive flags from the association and check value consistency."""
    if cert.k != assoc.k or cert.nc != assoc.nc:
        return False
    if cert.kind == KIND_CHAIN:
        expected: tuple = chain_flags(assoc)
    elif cert.kind == KIND_RECONSTRUCTION:
        if cert.nc < 2:  # reconstruction_bound issues none
            return False
        expected = _block_flags(assoc, strict=True)
    elif cert.kind == KIND_COUNTING:
        if cert.nc == 1:
            expected = ()
        else:
            expected = _block_flags(assoc, strict=False)
    else:
        return False
    return cert.flagged == expected and recompute_value(cert) == cert.value
