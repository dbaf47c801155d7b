"""Chain-topology network model: indices, channels, associations, rationals.

Users (mobile terminals) and base stations are both indexed 1..k.  User i
hears base stations i-1 and i, clipped to the index range, so the network
has exactly 2k-1 connected pairs.  Every other module goes through the
helpers here; the indexing convention lives in exactly one place,
connected_bs, and so does the input contract: check_int (an int, never a
bool, within its range), check_ints (the same for a whole collection) and
check_seeds (a nonempty list of integers), which every public entry point
calls.

Channel coefficients are uniform nonzero elements of a large prime field,
held as two flat rows over users 0..k+1 (ChannelRealization: left[i] =
g(i, i-1), diag[i] = g(i, i), 0 off the line).  Rank decisions over that
field are exact, and a fresh seed gives an independent draw, which is how
genericity is checked downstream.  Degrees of freedom are never floats;
they are ints or `fractions.Fraction`.

Every result and input type of the package (associations, draws,
witnesses, evaluations, certificates, plans, reports) is a frozen
record: a subclass of Record, which lists its fields as annotations and
shares one set of methods, so defining a record type costs no generated
code at import.  One of them, to_json, writes every record whose JSON is
its fields by one rule (_json_value).
"""

from __future__ import annotations

import functools
import random
import re
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Optional

from .errors import SizeLimitError, ValidationError

# Mersenne prime 2**31 - 1.
DEFAULT_PRIME = 2147483647

# Channel seeds: evaluations and scheme plans build and re-verify their
# witness on the first one only; zf_feasible_majority votes over all of them.
DEFAULT_SEEDS = (1, 2, 3)

# Miller-Rabin bases of _is_prime: the first twelve primes make the test
# exact for every modulus below 2**64.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Record:
    """Base of the frozen record types: their methods, written once.

    A subclass's fields are its own annotated names, in order, and a
    class attribute of the same name is that field's default.  A record
    is built from its fields by position or by name, then the class's
    __post_init__, if it has one, checks or normalizes them (through
    object.__setattr__).  A built record refuses every assignment and
    deletion.  Two records are equal when they are of the same class and
    their fields are equal, leaving out the names in the class's
    _uncompared; hash follows ==, and a class that sets __hash__ = None
    stays unhashable.  repr writes Class(field=value, ...).  to_json maps
    each field, then each name in the class's _json_extras (a class
    constant or a property), to its value through _json_value.

    Defining a subclass generates no code: __init_subclass__ only reads
    its field names, defaults and __post_init__ once.  The keyword dict
    of a call becomes the instance's __dict__, so a record costs one dict.
    """

    _uncompared = ()
    _json_extras = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._names = frozenset(cls._fields)
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._post_init = getattr(cls, "__post_init__", None)
        cls._json_names = cls._fields + cls._json_extras

    def __init__(self, *args: object, **values: object) -> None:
        if args:
            given = dict(zip(self._fields, args))
            if len(given) < len(args) or given.keys() & values.keys():
                raise TypeError(f"{type(self).__name__} takes {self._fields}, each once")
            values.update(given)
        if values.keys() != self._names:
            values = {**self._defaults, **values}
            if values.keys() != self._names:
                raise TypeError(f"{type(self).__name__} takes {self._fields}, got {sorted(values)}")
        object.__setattr__(self, "__dict__", values)
        if self._post_init is not None:
            self._post_init()

    def __setattr__(self, name: str, _value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_json(self) -> dict:
        return {name: _json_value(getattr(self, name)) for name in self._json_names}


def _json_value(value: object) -> object:
    """A record's value as JSON data: the one rule of Record.to_json.

    A record is written by its own to_json, a Fraction by frac_to_str, a
    frozenset as its sorted list, a tuple as the list of its converted
    members and a dict with its values converted; any other value is its
    own JSON.  Fraction is matched by its exact class: an isinstance
    check against it, an abstract base class, costs several plain ones.
    """
    if isinstance(value, Record):
        return value.to_json()
    if type(value) is Fraction:
        return frac_to_str(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return list(map(_json_value, value))
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    return value


def shown(value: object, before: str, after: str = "") -> str:
    """before + repr(value) + after, or "" when value will not print.

    Python writes no int of more than sys.get_int_max_str_digits() digits
    as a str: a message that tried would raise ValueError in place of the
    error it carries, so such a value and the words around it are left out.
    """
    try:
        return f"{before}{value!r}{after}"
    except ValueError:
        return ""


def check_int(
    name: str, value: object, low: Optional[int] = None, high: Optional[int] = None
) -> int:
    """The integer argument `name`, checked and returned.

    An integer is an int and never a bool (isinstance(True, int) holds in
    Python); low and high, when given, are inclusive bounds.  Anything else
    raises ValidationError naming the argument and the broken condition.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer{shown(value, ', got ')}")
    if low is not None and high is not None:
        if not low <= value <= high:
            raise ValidationError(
                f"{name}{shown(value, ' ')} out of range{shown(high, f' [{low}..', ']')}"
            )
    elif low is not None and value < low:
        raise ValidationError(f"{name} must be at least {low}{shown(value, ', got ')}")
    elif high is not None and value > high:
        raise ValidationError(f"{name} must be at most{shown(high, ' ')}{shown(value, ', got ')}")
    return value


def check_ints(
    name: str, values: Iterable[object], low: Optional[int] = None, high: Optional[int] = None
) -> tuple[int, ...]:
    """Every element of values checked by check_int, as a tuple, in one call.

    The common case (all plain ints within the bounds) costs a few C-level
    passes and no Python call per element; only a failing collection is
    walked element by element to name its first bad entry.
    """
    values = tuple(values)
    if not {*map(type, values)} <= {int} or values and (
        (low is not None and min(values) < low) or (high is not None and max(values) > high)
    ):
        for value in values:
            check_int(name, value, low, high)
    return values


def check_seeds(seeds: object) -> tuple[int, ...]:
    """Channel seeds: a nonempty list or tuple of integers (a str is not one)."""
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ValidationError(f"seeds must be a nonempty list of integers{shown(seeds, ', got ')}")
    return check_ints("seed", seeds)


@functools.lru_cache(maxsize=16)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..37, exact for n < 2**64.

    n - 1 = d * 2**s with d odd; n is prime iff no base divides it (or it is
    a base) and every base a has a**d = 1 or a**(d * 2**r) = -1 for some r < s.
    The test takes about 0.1 ms on a 31-bit modulus and every channel draw
    asks it, so the few moduli in use are cached.
    """
    if n in _PRIME_BASES:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(
        n % a and (pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)))
        for a in _PRIME_BASES
    )


def check_active(k: int, active: Iterable[int]) -> frozenset[int]:
    """The active user set as a frozenset, each user checked to lie in [1..k]."""
    return frozenset(check_ints("active user", active, 1, k))


def connected_bs(i: int, k: int) -> frozenset[int]:
    """Base stations heard by user i: {i-1, i} clipped to [1..k]."""
    check_int("k", k, 1)
    check_int("user index", i, 1, k)
    return frozenset(j for j in (i - 1, i) if 1 <= j <= k)


def _check_draw(k: object, seed: object, prime: object) -> None:
    """The arguments of a channel draw: k >= 1, an integer seed, a prime modulus.

    The modulus is an odd prime below 2**64, the range in which the
    primality test is exact; a composite one raises ValidationError, since
    Z/prime is then no field.
    """
    check_int("k", k, 1)
    check_int("seed", seed)
    if not _is_prime(check_int("prime", prime, 3, 2**64 - 1)):
        raise ValidationError(f"prime must be a prime, got {prime}")


class ChannelRealization(Record):
    """One exact draw of all nonzero channel coefficients, as two flat rows.

    left[i] = g(i, i-1) and diag[i] = g(i, i), the gains user i hears from
    base stations i-1 and i; each row is a tuple of k+2 ints over users
    0..k+1.  Unconnected pairs are identically zero and are not stored,
    and the off-line slots are 0: left[0], diag[0], left[k+1] and
    diag[k+1] (users 0 and k+1 are off the line) and left[1] (bs 0 is).
    The arguments k, seed and prime are checked as _check_draw checks
    them, then the rows: a row of the wrong length, a member that is not
    an int (a bool or a float), or a nonzero off-line slot raises
    ValidationError.
    """

    k: int
    prime: int
    seed: int
    left: tuple[int, ...]
    diag: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_draw(self.k, self.seed, self.prime)
        for name, row in (("left", self.left), ("diag", self.diag)):
            if not isinstance(row, tuple) or len(row) != self.k + 2:
                raise ValidationError(f"{name} must be a tuple of k + 2 gains")
            check_ints(f"{name} gain", row)
        if self.left[0] or self.left[1] or self.diag[0] or self.left[-1] or self.diag[-1]:
            raise ValidationError("gains off the line (users 0 and k + 1, bs 0) must be 0")


def draw_channels(k: int, seed: int, prime: int = DEFAULT_PRIME) -> ChannelRealization:
    """Draw coefficients for all connected pairs, uniform over [1, prime-1].

    Deterministic in (k, seed, prime): the 2k-1 gains are drawn in a fixed
    order, g(1, 1), then g(i, i-1) and g(i, i) for i = 2..k, so diag takes
    draws 0, 2, 4, ... and left draws 1, 3, 5, ....  Each gain is what
    random.Random(seed).randrange(1, prime) draws next: getrandbits of the
    bit length of prime - 1, redrawn until it is below prime - 1, plus 1.
    The values are drawn 2k-1 at a time, the rejected ones dropped in
    order, then one at a time until 2k-1 remain: a rejection only skips a
    value of the same stream, so the gains are the same.  The arguments
    are checked as ChannelRealization checks them, before anything is
    drawn.
    """
    _check_draw(k, seed, prime)
    getrandbits = random.Random(seed).getrandbits
    width = prime - 1
    bits = width.bit_length()
    count = 2 * k - 1
    gains = [r + 1 for r in map(getrandbits, repeat(bits, count)) if r < width]
    while len(gains) < count:
        r = getrandbits(bits)
        if r < width:
            gains.append(r + 1)
    return ChannelRealization(
        k=k, prime=prime, seed=seed, left=(0, 0, *gains[1::2], 0), diag=(0, *gains[::2], 0)
    )


class Violation(Record):
    """One association-budget violation, tied to a user index."""

    i: int
    reason: str


class CellAssociation(Record):
    """Per-user base-station sets under a per-user budget nc.

    cells[i-1] is the association set of user i.  Empty sets are legal and
    mean the user is unserved.  Construction takes any k iterables of base
    station indices, checks the shape and that every member is an integer
    (one check_ints call, before any set is built, so 1.0 or True never
    merges into bs index 1), and stores them as frozensets; budget and
    range violations are reported by validate_association so that
    malformed inputs can be inspected rather than rejected outright.
    """

    k: int
    nc: int
    cells: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        check_int("k", self.k, 1)
        check_int("nc", self.nc, 1)
        cells = tuple(map(tuple, self.cells))
        if len(cells) != self.k:
            raise ValidationError(f"expected {self.k} association sets, got {len(cells)}")
        check_ints("bs index", chain.from_iterable(cells))
        object.__setattr__(self, "cells", tuple(map(frozenset, cells)))

    def _subsets(self, cells: Iterable[frozenset[int]]) -> "CellAssociation":
        """This association with each set replaced by a subset of it, in order.

        The members were checked when this association was built, so the
        copy is made without checking them again.
        """
        subsets = object.__new__(CellAssociation)
        object.__setattr__(subsets, "__dict__", {**self.__dict__, "cells": tuple(cells)})
        return subsets

    def cell(self, i: int) -> frozenset[int]:
        check_int("user index", i, 1, self.k)
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
        if len(cells) != check_int("k", k):
            raise ValidationError(f"cells must be a list of length k={k}")
        return association(k, nc, cells)


def association(k: int, nc: int, cells: Iterable[Iterable[int]]) -> CellAssociation:
    """Normalizing constructor: any iterable of iterables of ints.

    CellAssociation checks the bs indices in one check_ints call before
    any set is built, so 1.0 or True never merges into the bs index 1 (a
    set that already holds 1 would drop it unseen).
    """
    return CellAssociation(k=k, nc=nc, cells=cells)


def validate_association(assoc: CellAssociation) -> list[Violation]:
    """Report all budget and range violations; an empty list means valid.

    The common case, a valid association, is answered by C-level passes
    (the largest set against nc, the least and greatest member of the
    union against 1..k); only a failing one is walked user by user to name
    its violations.
    """
    members = frozenset().union(*assoc.cells)
    if max(map(len, assoc.cells)) <= assoc.nc and (
        not members or 1 <= min(members) and max(members) <= assoc.k
    ):
        return []
    violations = []
    for i in range(1, assoc.k + 1):
        cell = assoc.cells[i - 1]
        if len(cell) > assoc.nc:
            violations.append(Violation(i=i, reason=f"size {len(cell)} > {assoc.nc}"))
        out = sorted(j for j in cell if not 1 <= j <= assoc.k)
        if out:
            where = f" out of range [1..{assoc.k}]"
            reason = shown(out, "bs indices ", where) or f"{len(out)} bs indices{where}"
            violations.append(Violation(i=i, reason=reason))
    return violations


_INTEGER = re.compile(r"[+-]?[0-9]+")


def int_from_text(text: str) -> int:
    """Read an integer written in ASCII decimal, as int() reads it but stricter.

    The text must be ASCII digits with an optional sign, inside the
    whitespace that frac_from_str also strips: int() alone would also read
    "1_0" and non-ASCII digits.  Anything else raises
    int()'s own ValueError, and so does a string with more digits than
    Python reads.  Every integer read from text goes through here: JSON
    strings (int_from_json) and the command line's integer flags.
    """
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def int_from_json(value: object, what: str) -> int:
    """Read an integer from parsed JSON: an int or a decimal string.

    Strings are accepted because JSON object keys are strings (witness
    precoders are keyed by message and bs), and read by int_from_text.
    Anything else, bools and floats included, raises ValidationError.
    """
    if isinstance(value, str):
        try:
            return int_from_text(value)
        except ValueError:
            pass
    return check_int(what, value)


def bool_from_json(value: object, what: str) -> bool:
    """Read a JSON true or false; 0, 1 and every other value raise ValidationError."""
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false{shown(value, ', got ')}")
    return value


def ints_from_json(values: object, what: str) -> list[int]:
    """Read a JSON list of integers, each checked by int_from_json."""
    if not isinstance(values, list):
        raise ValidationError(f"{what} must be a list of integers{shown(values, ', got ')}")
    return [int_from_json(v, what) for v in values]


def frac_to_str(value: Fraction | int) -> str:
    """Serialize an exact rational as 'p/q' (or 'p' when integral)."""
    try:
        return str(Fraction(value))
    except ValueError as exc:  # a part past sys.get_int_max_str_digits()
        raise SizeLimitError("a value has more digits than Python writes as a decimal string") from exc


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def frac_from_str(text: str) -> Fraction:
    """Parse 'p/q' or 'p' in decimal digits with an optional sign.

    Decimal and exponent literals ('0.5', '1e3') raise ValidationError
    before any number is built, so no input can ask for a huge integer
    through an exponent.
    """
    if not isinstance(text, str):
        raise ValidationError(f"rational must be a string{shown(text, ', got ')}")
    if not _RATIONAL.fullmatch(text.strip()):
        raise ValidationError(f"bad rational literal {text!r}: expected p or p/q")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}: {exc}") from exc


def average_per_user(dl_sum: int, ul_sum: int, k: int) -> Fraction:
    """Exact per-user average of the two session sums."""
    check_int("k", k, 1)
    return Fraction(dl_sum + ul_sum, 2 * k)
