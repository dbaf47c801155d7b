"""Chain-topology network model: indices, channels, associations, rationals.

Users (mobile terminals) and base stations are both indexed 1..k.  User i
hears base stations i-1 and i, clipped to the index range, so the network
has exactly 2k-1 connected pairs.  Every other module goes through the
helpers here; the indexing convention lives in exactly one place.

Channel coefficients are uniform nonzero elements of a large prime field.
Rank decisions over that field are exact, and a fresh seed gives an
independent draw, which is how genericity is checked downstream.  Degrees
of freedom are never floats; they are ints or `fractions.Fraction`.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ValidationError

# Mersenne prime 2**31 - 1.
DEFAULT_PRIME = 2147483647

# Channel seeds: evaluations and scheme plans build and re-verify their
# witness on the first one only; zf_feasible_majority votes over all of them.
DEFAULT_SEEDS = (1, 2, 3)


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")


def _check_index(name: str, value: int, k: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not 1 <= value <= k:
        raise ValidationError(f"{name}={value} out of range [1..{k}]")


def check_active(k: int, active: Iterable[int]) -> frozenset[int]:
    """The active user set as a frozenset, each user checked to lie in [1..k]."""
    active = frozenset(active)
    for m in active:
        if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= k:
            raise ValidationError(f"active user {m!r} out of range [1..{k}]")
    return active


def connected(i: int, j: int, k: int) -> bool:
    """True iff user i hears base station j in a k-cell network."""
    _check_k(k)
    _check_index("user index", i, k)
    _check_index("bs index", j, k)
    return j == i or j == i - 1


def connected_bs(i: int, k: int) -> frozenset[int]:
    """Base stations heard by user i: {i-1, i} clipped to [1..k]."""
    _check_k(k)
    _check_index("user index", i, k)
    return frozenset(j for j in (i - 1, i) if 1 <= j <= k)


def heard_mts(j: int, k: int) -> frozenset[int]:
    """Users that hear base station j: {j, j+1} clipped to [1..k]."""
    _check_k(k)
    _check_index("bs index", j, k)
    return frozenset(i for i in (j, j + 1) if 1 <= i <= k)


@dataclass(frozen=True)
class Topology:
    """Connectivity of a k-cell chain network; pure function of indices."""

    k: int

    def __post_init__(self) -> None:
        _check_k(self.k)

    def connected(self, i: int, j: int) -> bool:
        return connected(i, j, self.k)

    def connected_bs(self, i: int) -> frozenset[int]:
        return connected_bs(i, self.k)

    def heard_mts(self, j: int) -> frozenset[int]:
        return heard_mts(j, self.k)

    def edge_count(self) -> int:
        return 2 * self.k - 1


@dataclass(frozen=True)
class ChannelRealization:
    """One exact draw of all nonzero channel coefficients.

    coeffs maps (user i, bs j) -> coefficient for every connected pair;
    unconnected pairs are identically zero and are not stored.
    """

    k: int
    prime: int
    seed: int
    coeffs: Mapping[tuple[int, int], int]

    def gain(self, i: int, j: int) -> int:
        """Channel coefficient from base station j to user i (0 if unconnected)."""
        _check_index("user index", i, self.k)
        _check_index("bs index", j, self.k)
        return self.coeffs.get((i, j), 0)


def draw_channels(k: int, seed: int, prime: int = DEFAULT_PRIME) -> ChannelRealization:
    """Draw coefficients for all connected pairs, uniform over [1, prime-1].

    Deterministic in (k, seed, prime): pairs are visited in a fixed order
    (users ascending, their base stations ascending), so the same arguments
    always reproduce the same realization.
    """
    _check_k(k)
    if prime < 3:
        raise ValidationError(f"prime must be >= 3, got {prime}")
    rng = random.Random(seed)
    coeffs = {}
    for i in range(1, k + 1):
        for j in sorted(connected_bs(i, k)):
            coeffs[(i, j)] = rng.randrange(1, prime)
    return ChannelRealization(k=k, prime=prime, seed=seed, coeffs=coeffs)


@dataclass(frozen=True)
class Violation:
    """One association-budget violation, tied to a user index."""

    i: int
    reason: str


@dataclass(frozen=True)
class CellAssociation:
    """Per-user base-station sets under a per-user budget nc.

    cells[i-1] is the association set of user i.  Empty sets are legal and
    mean the user is unserved.  Construction checks shape only; budget and
    range violations are reported by validate_association so that malformed
    inputs can be inspected rather than rejected outright.
    """

    k: int
    nc: int
    cells: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        _check_k(self.k)
        if not isinstance(self.nc, int) or isinstance(self.nc, bool) or self.nc < 1:
            raise ValidationError(f"nc must be a positive integer, got {self.nc!r}")
        if len(self.cells) != self.k:
            raise ValidationError(
                f"expected {self.k} association sets, got {len(self.cells)}"
            )

    def cell(self, i: int) -> frozenset[int]:
        _check_index("user index", i, self.k)
        return self.cells[i - 1]

    def cells_as_lists(self) -> list[list[int]]:
        return [sorted(c) for c in self.cells]

    def to_json(self) -> dict:
        return {"k": self.k, "nc": self.nc, "cells": self.cells_as_lists()}

    @classmethod
    def from_json(cls, data: object) -> "CellAssociation":
        if not isinstance(data, dict):
            raise ValidationError("association JSON must be an object")
        missing = {"k", "nc", "cells"} - set(data)
        if missing:
            raise ValidationError(f"association JSON missing keys: {sorted(missing)}")
        unknown = set(data) - {"k", "nc", "cells"}
        if unknown:
            raise ValidationError(f"unknown association keys: {sorted(unknown)}")
        k, nc, cells = data["k"], data["nc"], data["cells"]
        if not isinstance(cells, list) or not all(isinstance(c, list) for c in cells):
            raise ValidationError("cells must be a list of lists")
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValidationError(f"k must be an integer, got {k!r}")
        if not isinstance(cells, list) or len(cells) != k:
            raise ValidationError(f"cells must be a list of length k={k}")
        return association(k, nc, cells)


def association(k: int, nc: int, cells: Iterable[Iterable[int]]) -> CellAssociation:
    """Normalizing constructor: any iterable of iterables of ints."""
    normalized = []
    for raw in cells:
        members = []
        for j in raw:
            if not isinstance(j, int) or isinstance(j, bool):
                raise ValidationError(f"bs index must be an integer, got {j!r}")
            members.append(j)
        normalized.append(frozenset(members))
    return CellAssociation(k=k, nc=nc, cells=tuple(normalized))


def validate_association(assoc: CellAssociation) -> list[Violation]:
    """Report all budget and range violations; an empty list means valid."""
    violations = []
    for i in range(1, assoc.k + 1):
        cell = assoc.cells[i - 1]
        if len(cell) > assoc.nc:
            violations.append(Violation(i=i, reason=f"size {len(cell)} > {assoc.nc}"))
        out = sorted(j for j in cell if not 1 <= j <= assoc.k)
        if out:
            violations.append(
                Violation(i=i, reason=f"bs indices {out} out of range [1..{assoc.k}]")
            )
    return violations


def int_from_json(value: object, what: str) -> int:
    """Read an integer from parsed JSON: an int or a decimal string.

    Strings are accepted because JSON object keys are strings (witness
    precoders are keyed by message and bs).  Anything else, bools and
    floats included, raises ValidationError.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def ints_from_json(values: object, what: str) -> list[int]:
    """Read a JSON list of integers, each checked by int_from_json."""
    if not isinstance(values, list):
        raise ValidationError(f"{what} must be a list of integers, got {values!r}")
    return [int_from_json(v, what) for v in values]


def frac_to_str(value: Fraction | int) -> str:
    """Serialize an exact rational as 'p/q' (or 'p' when integral)."""
    return str(Fraction(value))


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def frac_from_str(text: str) -> Fraction:
    """Parse 'p/q' or 'p' in decimal digits with an optional sign.

    Decimal and exponent literals ('0.5', '1e3') raise ValidationError
    before any number is built, so no input can ask for a huge integer
    through an exponent.
    """
    if not isinstance(text, str):
        raise ValidationError(f"rational must be a string, got {text!r}")
    if not _RATIONAL.fullmatch(text.strip()):
        raise ValidationError(f"bad rational literal {text!r}: expected p or p/q")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}: {exc}") from exc


def average_per_user(dl_sum: int, ul_sum: int, k: int) -> Fraction:
    """Exact per-user average of the two session sums."""
    _check_k(k)
    return Fraction(dl_sum + ul_sum, 2 * k)
