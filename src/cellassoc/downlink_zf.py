"""One-shot zero-forcing oracle for the downlink.

A set of active users is feasible when every active message admits a
precoder over its own association set that is heard at full gain by its
user and contributes zero interference at every other active user.  The
messages decouple, so feasibility is a per-message rank condition.

Each user i hears only base stations i-1 and i, so the support graph of
every interference subsystem is a path forest, every square minor expands
to a single monomial of nonzero coefficients, and every rank decision is
independent of the channel values.  Message m is served iff one side of it
is left open (see _kernels._pure): m-1 is in C_m and some user in [a, m-1]
is inactive, where [a, m-1] is the run of consecutive base stations of C_m
that ends at m-1; or m is in C_m and, for the run [m, b] that starts at m,
b = k or some user in [m+1, b+1] is inactive.  max_downlink_dof maximizes
that rule exactly with a DP along the line.

GF(p) arithmetic only emits the certificate: zf_feasible builds each
message's nullspace precoder on one exact channel draw by back-substitution
along the runs of C_m (see _message_witness), in O(|C_m|), and
verify_witness re-checks them by direct evaluation, independent of how
they were built.  certify_downlink does both on the first seed's draw;
evaluations and scheme plans are certified that way, so only the first
seed is ever used.
zf_feasible_majority, which draws several seeds and takes a majority
(warning via GenericityWarning if they split), is kept as the multi-seed
reference that tests compare the value-free rule against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _kernels
from .errors import EmptyCellError, GenericityWarning, InternalCheckError, ValidationError
from .model import (
    DEFAULT_PRIME,
    DEFAULT_SEEDS,
    CellAssociation,
    ChannelRealization,
    check_active,
    draw_channels,
    int_from_json,
)


@dataclass(frozen=True)
class ZfWitness:
    """Explicit precoders certifying one feasible active set.

    precoders[m][j] is the coefficient message m places on base station j;
    every j in the user's association set appears, possibly with value 0.
    """

    seed: int
    prime: int
    precoders: dict[int, dict[int, int]]

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "prime": self.prime,
            "precoders": {
                str(m): {str(j): v for j, v in sorted(vec.items())}
                for m, vec in sorted(self.precoders.items())
            },
        }

    @classmethod
    def from_json(cls, data: object) -> "ZfWitness":
        if not isinstance(data, dict) or {"seed", "prime", "precoders"} - set(data):
            raise ValidationError("witness JSON must have seed, prime, precoders")
        if not isinstance(data["precoders"], dict):
            raise ValidationError("witness precoders must be an object")
        precoders = {}
        for m, vec in data["precoders"].items():
            if not isinstance(vec, dict):
                raise ValidationError(f"precoder of message {m!r} must be an object")
            precoders[int_from_json(m, "message")] = {
                int_from_json(j, "bs"): int_from_json(v, "precoder coefficient")
                for j, v in vec.items()
            }
        return cls(
            seed=int_from_json(data["seed"], "seed"),
            prime=int_from_json(data["prime"], "prime"),
            precoders=precoders,
        )


@dataclass(frozen=True)
class DlEvaluation:
    """Result of a downlink maximization."""

    sum_dof: int
    active_users: frozenset[int]
    witness: Optional[ZfWitness]
    seeds: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "sum_dof": self.sum_dof,
            "active_users": sorted(self.active_users),
            "witness": None if self.witness is None else self.witness.to_json(),
            "seeds": list(self.seeds),
            "exact": True,
            "disagreements": 0,
        }


def strip_silent(assoc: CellAssociation, silent_bs) -> CellAssociation:
    """Remove silenced base stations from every association set."""
    silent = frozenset(silent_bs)
    return CellAssociation(
        k=assoc.k,
        nc=assoc.nc,
        cells=tuple(cell - silent for cell in assoc.cells),
    )


def _check_active(assoc: CellAssociation, active) -> frozenset[int]:
    active = check_active(assoc.k, active)
    for m in active:
        if not assoc.cells[m - 1]:
            raise EmptyCellError(f"active user {m} has an empty association set")
    return active


def _gain(ch: ChannelRealization, i: int, j: int) -> int:
    if j == i or j == i - 1:
        return ch.coeffs.get((i, j), 0)
    return 0


def _message_witness(cell, active, ch, m):
    """Nullspace precoder for message m over base stations cell, or None.

    The rows are the other active users; user r hears columns r-1 and r
    only.  Columns c and c+1 are linked when user c+1 is a row with both
    gains nonzero, and the linked runs of cell decouple.  A run [a, c] is
    pinned to zero when user a hears a alone (g(a, a) != 0) or user c+1
    hears c alone (g(c+1, c) != 0); an unpinned run has one free column,
    its last.  Of the unpinned runs that user m hears through a nonzero
    gain, the first one carries the precoder: 1 at c, then back-substitution
    along the links, 0 elsewhere.  That is the vector an RREF over the same
    rows returns (free columns ascending, the first with nonzero desired
    gain), at O(|cell|) per message.
    """
    p = ch.prime
    cols = sorted(j for j in cell if 1 <= j <= ch.k)

    def row(r, j):
        return ch.coeffs.get((r, j), 0) % p if r != m and r in active else 0

    runs, start = [], 0
    for i, c in enumerate(cols):
        if i + 1 == len(cols) or cols[i + 1] != c + 1 or not (row(c + 1, c) and row(c + 1, c + 1)):
            runs.append((cols[start], c))
            start = i + 1
    for a, c in runs:
        if row(a, a) or row(c + 1, c):
            continue
        if (a < m <= c + 1 and _gain(ch, m, m - 1) % p) or (a <= m <= c and _gain(ch, m, m) % p):
            vec = dict.fromkeys(cols, 0)
            vec[c] = 1
            for r in range(c, a, -1):
                vec[r - 1] = -row(r, r) * vec[r] * pow(row(r, r - 1), p - 2, p) % p
            return vec
    return None


def zf_feasible(assoc, active, ch) -> Optional[ZfWitness]:
    """Witness for the active set under one realization, or None.

    Every active user must have a nonempty association set; an empty one
    raises EmptyCellError since such a user can never be served.
    """
    active = _check_active(assoc, active)
    if ch.k != assoc.k:
        raise ValidationError(f"realization has k={ch.k}, association has k={assoc.k}")
    precoders = {}
    for m in sorted(active):
        vec = _message_witness(assoc.cells[m - 1], active, ch, m)
        if vec is None:
            return None
        precoders[m] = vec
    return ZfWitness(seed=ch.seed, prime=ch.prime, precoders=precoders)


def verify_witness(witness: ZfWitness, assoc, active, ch) -> bool:
    """Re-check a witness by direct evaluation of all gains and interference.

    User r hears base stations r-1 and r only, so it receives the
    precoder v as g(r, r-1)*v[r-1] + g(r, r)*v[r], and a precoder on base
    stations J leaks onto users J and J+1 alone.  Each message is checked
    at those receivers in O(1) each: O(|C_m|) per message, linear in the
    witness size overall.
    """
    active = frozenset(active)
    if ch.prime != witness.prime:
        return False
    if set(witness.precoders) != set(active):
        return False
    p = ch.prime
    for m, vec in witness.precoders.items():
        if not set(vec) <= set(assoc.cells[m - 1]):
            return False
        for r in ({j + d for j in vec for d in (0, 1)} & active) | {m}:
            heard = (_gain(ch, r, r - 1) * vec.get(r - 1, 0) + _gain(ch, r, r) * vec.get(r, 0)) % p
            if (heard == 0) == (r == m):  # user m must hear it, the others must not
                return False
    return True


def certify_downlink(assoc, active, seed: int, prime: int = DEFAULT_PRIME) -> ZfWitness:
    """Zero-forcing witness for the active set on one seed's channels, re-verified.

    Raises InternalCheckError when the set has no witness on that draw or
    the witness fails verify_witness.
    """
    ch = draw_channels(assoc.k, seed, prime)
    witness = zf_feasible(assoc, active, ch)
    if witness is None:
        raise InternalCheckError("the downlink active set has no zero-forcing witness")
    if not verify_witness(witness, assoc, active, ch):
        raise InternalCheckError("downlink witness failed independent re-verification")
    return witness


def zf_feasible_majority(assoc, active, *, seeds=DEFAULT_SEEDS, prime=DEFAULT_PRIME):
    """Majority-vote feasibility over independent seeds.

    Returns (feasible, witness_or_None).  The witness comes from the first
    seed that agrees with the majority.
    """
    active = _check_active(assoc, active)
    realizations = [draw_channels(assoc.k, s, prime) for s in seeds]
    witnesses = [zf_feasible(assoc, active, ch) for ch in realizations]
    votes = sum(1 for w in witnesses if w is not None)
    if 0 < votes < len(seeds):
        warnings.warn(
            f"channel seeds {tuple(seeds)} disagreed on 1 feasibility "
            "decision(s) during plan certification; majority vote was used",
            GenericityWarning,
            stacklevel=2,
        )
    feasible = votes >= len(seeds) // 2 + 1
    witness = next((w for w in witnesses if w is not None), None) if feasible else None
    return feasible, witness


def max_downlink_dof(
    assoc: CellAssociation,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    prime: int = DEFAULT_PRIME,
) -> DlEvaluation:
    """Maximum simultaneously feasible active-user count for the downlink.

    Exact at every k: the line DP returns the largest active set, ties
    going to the lexicographically smallest one.  The witness comes from
    the first seed's channels and is re-verified on them.
    """
    if not seeds:
        raise ValidationError("at least one channel seed is required")
    active = _kernels.dl_max_active(assoc.k, assoc.cells)
    witness = certify_downlink(assoc, active, seeds[0], prime)
    return DlEvaluation(
        sum_dof=len(active),
        active_users=active,
        witness=witness,
        seeds=tuple(seeds),
    )
