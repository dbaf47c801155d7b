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
that rule exactly with one greedy pass along the line, which serves
every message the rule allows.

GF(p) arithmetic only emits the certificate, and each half of it is one
loop over the active messages.  zf_feasible builds each message's
nullspace precoder on one exact channel draw by back-substitution along
one of the two runs of C_m that user m hears, the run that ends at m-1
and, failing that, the run that starts at m, with one pow per run.  It
walks only those two runs; the rest of C_m gets 0.  It reads the gains
from the realization's two rows masked once per call to the active set
(_gain_rows: g(i, i-1) and g(i, i) mod p of each active user, 0 for the
others).  verify_witness re-checks the precoders by direct evaluation at
user m and at the active users j and j+1 that hear each nonzero
coefficient on bs j, independent of how they were built: it reads the
realization's rows (ch.left[r], ch.diag[r]) and the association itself
and shares no table with zf_feasible.
certify_downlink does both on the first seed's draw; evaluations and
scheme plans are certified that way, so only the first seed is ever used.
zf_feasible_majority, which draws several seeds and takes a majority
(warning via GenericityWarning if they split), is kept as the multi-seed
reference that tests compare the value-free rule against.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence

from . import _kernels
from .errors import EmptyCellError, GenericityWarning, InternalCheckError, ValidationError
from .model import (
    DEFAULT_PRIME,
    DEFAULT_SEEDS,
    CellAssociation,
    ChannelRealization,
    Record,
    check_active,
    check_seeds,
    draw_channels,
    int_from_json,
)


class ZfWitness(Record):
    """Explicit precoders certifying one feasible active set.

    precoders[m][j] is the coefficient message m places on base station j;
    every j in the user's association set appears, possibly with value 0.
    """

    seed: int
    prime: int
    precoders: dict[int, dict[int, int]]
    __hash__ = None  # it holds a dict

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


class DlEvaluation(Record):
    """Result of a downlink maximization."""

    sum_dof: int
    active_users: frozenset[int]
    witness: Optional[ZfWitness]
    seeds: tuple[int, ...]
    exact = True
    disagreements = 0
    _json_extras = ("exact", "disagreements")
    __hash__ = None  # its witness holds a dict


def strip_silent(assoc: CellAssociation, silent_bs) -> CellAssociation:
    """Remove silenced base stations from every association set."""
    silent = frozenset(silent_bs)
    return assoc._subsets(cell - silent for cell in assoc.cells)


def _check_active(assoc: CellAssociation, active) -> frozenset[int]:
    active = check_active(assoc.k, active)
    for m in active:
        if not assoc.cells[m - 1]:
            raise EmptyCellError(f"active user {m} has an empty association set")
    return active


def _gain_rows(ch: ChannelRealization, active) -> tuple[list[int], list[int]]:
    """(left, diag): the realization's rows mod p, masked to the active users.

    Both lists run over users 0..k+1 like the rows, so a user just past
    either end of the line reads as inactive, and g(1, 0) reads as 0, since
    bs 0 is off the line; a run walk therefore never leaves columns 1..k.
    """
    p, gains_left, gains_diag = ch.prime, ch.left, ch.diag
    left, diag = [0] * (ch.k + 2), [0] * (ch.k + 2)
    for i in active:
        left[i] = gains_left[i] % p
        diag[i] = gains_diag[i] % p
    return left, diag


def zf_feasible(assoc, active, ch) -> Optional[ZfWitness]:
    """Witness for the active set under one realization, or None.

    Every active user must have a nonempty association set; an empty one
    raises EmptyCellError since such a user can never be served.

    left and diag are _gain_rows of the active set.  The rows are the other
    active users; user r hears columns r-1 and r only.  Columns c and c+1
    are linked when user c+1 is a row with both gains nonzero, and the
    linked runs of C_m decouple.  User m hears columns m-1 and m alone and
    links no pair, so only two runs can carry its precoder: the left run
    [a, m-1] that ends at m-1, and the right run [m, b] that starts at m.
    The other runs stay at 0 unread.  A run has one free column, its last,
    unless it is pinned to zero.  The left run is pinned when user a hears
    a alone (g(a, a) != 0), and it carries when g(m, m-1) != 0.  The right
    run is pinned when user b+1 hears b alone (g(b+1, b) != 0), and it
    carries when g(m, m) != 0.  The first free run [a, c] that carries,
    left before right, gets 1 at its last column c, then back-substitution
    along the links, and 0 elsewhere in C_m.  That is the vector an RREF
    over the same rows returns (free columns ascending, the first with
    nonzero desired gain), read from the two runs alone.

    User r in (a, c] links r-1 and r, so g(r, r-1) != 0, and the step
    v[r-1] = -g(r, r) v[r] / g(r, r-1) gives v[r-1] = num[r] / den[r], with
    num[r] and den[r] the products of -g(s, s) and of g(s, s-1) over s in
    r..c.  One inverse of den[a+1] yields every 1/den[r] going up the run
    (1/den[r+1] = g(r, r-1) / den[r]; Montgomery's batch inversion), so a
    run costs one pow, not one per link.
    """
    active = _check_active(assoc, active)
    k, p, cells = ch.k, ch.prime, assoc.cells
    if k != assoc.k:
        raise ValidationError(f"realization has k={k}, association has k={assoc.k}")
    left, diag = _gain_rows(ch, active)
    precoders = {}
    for m in sorted(active):
        cell, c = cells[m - 1], 0  # c: the last column of the chosen run; 0 while none is
        if left[m] and m - 1 in cell:
            a = m - 1
            while left[a] and diag[a] and a - 1 in cell:
                a -= 1
            if not diag[a]:
                c = m - 1
        if not c and diag[m] and m in cell:
            b = m
            while left[b + 1] and diag[b + 1] and b + 1 in cell:
                b += 1
            if not left[b + 1]:
                a, c = m, b
        if not c:
            return None
        vec = {j: 0 for j in cell if 0 < j <= k}
        vec[c] = 1
        if c > a:
            num = den = 1
            for r in range(c, a, -1):
                num = vec[r - 1] = -diag[r] * num % p
                den = left[r] * den % p
            inv = pow(den, -1, p)  # 1/den[a+1]
            for r in range(a + 1, c + 1):
                vec[r - 1] = vec[r - 1] * inv % p
                inv = inv * left[r] % p
        precoders[m] = vec
    return ZfWitness(seed=ch.seed, prime=p, precoders=precoders)


def verify_witness(witness: ZfWitness, assoc, active, ch) -> bool:
    """Re-check a witness by direct evaluation of all gains and interference.

    User r hears base stations r-1 and r only, so it receives the
    precoder v as g(r, r-1)*v[r-1] + g(r, r)*v[r], and a nonzero
    coefficient on bs j reaches users j and j+1 alone.  Each message is
    checked at its own user m, which must hear it, then at each active
    receiver j or j+1 of each nonzero coefficient but m, which must not,
    in O(1) each: O(|C_m|) per message, linear in the witness size
    overall.  The gains are read from the realization's own rows, not
    from the masked rows zf_feasible builds.  A message or active user
    outside 1..k, or a realization of another k, fails the check before
    any row is read, so no index wraps to the other end.
    """
    active = frozenset(active)
    k = ch.k
    if ch.prime != witness.prime or assoc.k != k or witness.precoders.keys() != active:
        return False
    if active and not (0 < min(active) and max(active) <= k):
        return False
    p, left, diag, cells = ch.prime, ch.left, ch.diag, assoc.cells
    for m, vec in witness.precoders.items():
        if not vec.keys() <= cells[m - 1]:
            return False
        if (left[m] * vec.get(m - 1, 0) + diag[m] * vec.get(m, 0)) % p == 0:
            return False
        for j, v in vec.items():
            if v:
                if j != m and j in active and (left[j] * vec.get(j - 1, 0) + diag[j] * v) % p:
                    return False
                r = j + 1
                if r != m and r in active and (left[r] * v + diag[r] * vec.get(r, 0)) % p:
                    return False
    return True


def certify_downlink(assoc, active, seed: int) -> ZfWitness:
    """Zero-forcing witness for the active set on one seed's channels, re-verified.

    Raises InternalCheckError when the set has no witness on that draw or
    the witness fails verify_witness.
    """
    ch = draw_channels(assoc.k, seed)
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
    seeds = check_seeds(seeds)
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
    assoc: CellAssociation, *, seeds: Sequence[int] = DEFAULT_SEEDS
) -> DlEvaluation:
    """Maximum simultaneously feasible active-user count for the downlink.

    Exact at every k: the greedy line pass returns the largest active set,
    ties going to the lexicographically smallest one.  The witness comes
    from the first seed's channels and is re-verified on them.  The seeds
    are checked by model.check_seeds, the first one by draw_channels.
    """
    seeds = check_seeds(seeds)
    active = _kernels.dl_max_active(assoc.k, assoc.cells)
    witness = certify_downlink(assoc, active, seeds[0])
    return DlEvaluation(sum_dof=len(active), active_users=active, witness=witness, seeds=seeds)
