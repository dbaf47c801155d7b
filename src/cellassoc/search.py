"""Exhaustive search, soundness sweeps, and extrapolation probes.

The enumeration scope is windowed: user i may only associate within
[i - w, i + w] (clipped to the line), with at most nc picks.  Windows
default to nc.  Candidates are visited in lexicographic order (by user,
then by association set as a sorted tuple), and the searches report the
first maximizer, which is therefore the lexicographically smallest one.

A candidate's two session sums are the sizes of the largest active sets
the two value-free feasibility rules of _kernels allow, and only those
sizes are needed, so the family is walked with one forward max-count
layer per user and session (_kernels.FamilyLayers).  Consecutive
candidates differ only in their last users, so when user j's option
advances only the layers after users j..k are recomputed, and each of
those steps is memoized per user on (layer, option): a prefix of options
is walked once for the whole family.  No channel value is drawn per
candidate; the winner alone gets a zero-forcing witness and a decoding
order from max_downlink_dof and max_uplink_dof, which must reproduce the
search value.

A soundness sweep runs the same enumeration but compares every
candidate's session sums against the matching converse certificates,
returning any violations instead of a winner.  The chain bound is a
third rule of _kernels walked beside the two sessions; block goodness is
read straight from the candidate's association sets.

Both entry points count the family with math.comb before listing any
option and refuse one with more than cap candidates, which they can
tell after at most log2(cap) + 1 users since every user has at least two
options.

Periodic evaluation instantiates a repeating pattern at three sizes and
checks that both session values grow affinely, which is the cheap
signature of a per-user rate that has stabilized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Optional, Sequence

from ._kernels import FamilyLayers, chain_family, dl_family, ul_family
from .bounds import (
    BoundCertificate,
    _block_layout,
    _counting_value,
    _good_blocks,
    _reconstruction_value,
    counting_bound,
    ncone_bound,
)
from .downlink_zf import DlEvaluation, max_downlink_dof
from .errors import BudgetExceededError, InternalCheckError, ValidationError
from .model import (
    DEFAULT_PRIME,
    DEFAULT_SEEDS,
    CellAssociation,
    association,
    frac_to_str,
)
from .uplink_decode import UlEvaluation, max_uplink_dof

DEFAULT_CAP = 100_000

_OBJECTIVES = {
    "avg": "avg",
    "average": "avg",
    "ul": "ul",
    "up": "ul",
    "uplink": "ul",
    "dl": "dl",
    "down": "dl",
    "downlink": "dl",
}


def _normalize_objective(objective: str) -> str:
    key = str(objective).lower()
    if key not in _OBJECTIVES:
        raise ValidationError(
            f"objective must be one of avg/ul/dl (or up/down), got {objective!r}"
        )
    return _OBJECTIVES[key]


def _window(k: int, nc: int, window: Optional[int]) -> int:
    if k < 1 or nc < 1:
        raise ValidationError("k and nc must be positive")
    w = nc if window is None else window
    if w < 0:
        raise ValidationError("window must be nonnegative")
    return w


def _family_size(k: int, nc: int, w: int, cap: Optional[int] = None) -> Optional[int]:
    """Number of windowed associations, or None once it passes cap."""
    total = 1
    for i in range(1, k + 1):
        n = min(k, i + w) - max(1, i - w) + 1
        count = 0
        for r in range(min(nc, n) + 1):
            count += comb(n, r)
            if cap is not None and total * count > cap:
                return None
        total *= count
    return total


def _user_options(k: int, nc: int, w: int):
    """Per-user association choices, each list in lexicographic order."""
    options = []
    for i in range(1, k + 1):
        pool = range(max(1, i - w), min(k, i + w) + 1)
        opts = []
        for r in range(0, min(nc, len(pool)) + 1):
            opts.extend(itertools.combinations(pool, r))
        options.append(sorted(opts))
    return options


def _family(k: int, nc: int, window: Optional[int], cap: int):
    """(window, per-user options, candidate count) of a windowed family.

    Refuses a family of more than cap candidates before listing any option.
    """
    w = _window(k, nc, window)
    total = _family_size(k, nc, w, cap)
    if total is None:
        raise BudgetExceededError(
            f"the family has more than {cap} candidates (the cap); "
            "raise cap explicitly to proceed"
        )
    return w, _user_options(k, nc, w), total


def count_associations(k: int, nc: int, window: Optional[int] = None) -> int:
    """Number of windowed associations, without enumerating them."""
    return _family_size(k, nc, _window(k, nc, window))


def enumerate_associations(
    k: int, nc: int, window: Optional[int] = None
) -> Iterator[CellAssociation]:
    """All windowed associations in lexicographic order."""
    options = _user_options(k, nc, _window(k, nc, window))
    for combo in itertools.product(*options):
        yield association(k, nc, combo)


@dataclass(frozen=True)
class SearchResult:
    """Winner of an exhaustive search plus its certified evaluations."""

    k: int
    nc: int
    window: int
    objective: str
    candidates: int
    best_assoc: CellAssociation
    best_index: int
    value: Fraction
    dl: DlEvaluation
    ul: UlEvaluation
    bound: BoundCertificate
    rows: Optional[tuple] = None

    def to_json(self) -> dict:
        return {
            "scope": (
                f"windowed associations, |C_i| <= {self.nc}, "
                f"window +/-{self.window}"
            ),
            "k": self.k,
            "nc": self.nc,
            "window": self.window,
            "objective": self.objective,
            "candidates": self.candidates,
            "best_index": self.best_index,
            "value": frac_to_str(self.value),
            "assoc": self.best_assoc.to_json(),
            "dl": self.dl.to_json(),
            "ul": self.ul.to_json(),
            "bound": self.bound.to_json(),
            "disagreements": 0,
        }


def _objective_value(objective: str, k: int, dl: int, ul: int) -> Fraction:
    if objective == "avg":
        return Fraction(dl + ul, 2 * k)
    return Fraction(ul if objective == "ul" else dl)


# (dl, ul) weights of an integer key that orders candidates like the objective.
_KEY_WEIGHTS = {"avg": (1, 1), "ul": (0, 1), "dl": (1, 0)}


def _family_sums(k: int, options, families):
    """(combo, *sums) for every candidate of a family, in enumeration order.

    families holds one (start, next, steps) automaton per sum, built over
    options.  An odometer walks the options of users 1..k-1.  When user
    j + 1's option advances, the layers after users j + 1..k-1 are read
    from the per-user transfer rows of each automaton, and the sums of all
    of user k's options from one row of sums per automaton.
    """
    walks = [(FamilyLayers(family), [0] * k) for family in families]
    head, last = options[:-1], options[-1]
    tails = [(opt,) for opt in last]
    pick, prefix = [0] * len(head), [()] * k
    j = 0
    while True:
        for m in range(j, k - 1):
            o = pick[m]
            for walk, ids in walks:
                ids[m + 1] = walk.row(m, ids[m])[o]
            prefix[m + 1] = prefix[m] + (head[m][o],)
        sum_rows = [walk.sums(k - 1, ids[k - 1]) for walk, ids in walks]
        yield from zip(map(prefix[k - 1].__add__, tails), *sum_rows)
        j = k - 2
        while j >= 0 and pick[j] == len(head[j]) - 1:
            pick[j] = 0
            j -= 1
        if j < 0:
            return
        pick[j] += 1


def exhaustive_search(
    k: int,
    nc: int,
    window: Optional[int] = None,
    objective: str = "avg",
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    prime: int = DEFAULT_PRIME,
    cap: int = DEFAULT_CAP,
    collect_rows: bool = False,
) -> SearchResult:
    """Evaluate every windowed association and return the best one.

    Both sessions are evaluated for every candidate regardless of the
    objective, so collected rows always carry (index, dl, ul).  Refuses
    to start when the candidate count exceeds cap.  The seeds and prime
    only draw the channels of the winner's zero-forcing witness.
    """
    objective = _normalize_objective(objective)
    w, options, total = _family(k, nc, window, cap)
    if not seeds:
        raise ValidationError("at least one channel seed is required")

    dl_weight, ul_weight = _KEY_WEIGHTS[objective]
    best_key = -1
    best = None
    rows: list[tuple] = []

    families = (dl_family(k, options), ul_family(options))
    for index, (combo, dl, ul) in enumerate(_family_sums(k, options, families)):
        key = dl_weight * dl + ul_weight * ul
        if key > best_key:
            best_key = key
            best = index, combo, dl, ul
        if collect_rows:
            rows.append((index, dl, ul))

    best_index, best_combo, best_dl, best_ul = best
    best_value = _objective_value(objective, k, best_dl, best_ul)
    best_assoc = association(k, nc, best_combo)

    dl_ev = max_downlink_dof(best_assoc, seeds=seeds, prime=prime)
    ul_ev = max_uplink_dof(best_assoc)
    recheck = _objective_value(objective, k, dl_ev.sum_dof, ul_ev.sum_dof)
    if recheck != best_value:
        raise InternalCheckError(
            f"winner re-evaluation {recheck} disagrees with search value {best_value}"
        )

    bound = counting_bound(best_assoc) if nc >= 2 else ncone_bound(k)
    return SearchResult(
        k=k,
        nc=nc,
        window=w,
        objective=objective,
        candidates=total,
        best_assoc=best_assoc,
        best_index=best_index,
        value=best_value,
        dl=dl_ev,
        ul=ul_ev,
        bound=bound,
        rows=tuple(rows) if collect_rows else None,
    )


@dataclass(frozen=True)
class SweepReport:
    """Outcome of checking oracle values against certificates."""

    k: int
    nc: int
    window: int
    total: int
    violations: tuple
    tight: dict

    @property
    def sound(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "nc": self.nc,
            "window": self.window,
            "total": self.total,
            "sound": self.sound,
            "violations": list(self.violations),
            "tight": dict(self.tight),
        }


def soundness_sweep(
    k: int,
    nc: int,
    window: Optional[int] = None,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    prime: int = DEFAULT_PRIME,
    cap: int = DEFAULT_CAP,
) -> SweepReport:
    """Check every windowed association against its converse certificates.

    Uplink sums are compared with the chain bound for every nc; downlink
    sums with the reconstruction bound and session-average sums with the
    counting bound when nc >= 2 (those certificates are not defined for
    nc = 1).  Returns all violations; an empty list certifies soundness
    over the swept family.  No channel value enters a session sum, so
    seeds and prime are unused; they stay so that existing callers work.
    """
    w, options, total = _family(k, nc, window, cap)
    counting_twice = int(2 * _counting_value(k, nc))  # an integer for every k, nc
    tail = _block_layout(k, nc)[2]
    families = (dl_family(k, options), ul_family(options), chain_family(options))
    violations: list[dict] = []
    tight = {"chain": 0, "reconstruction": 0, "counting": 0}

    def violation(kind, combo, achieved, bound):
        cells = association(k, nc, combo).cells_as_lists()
        violations.append({"kind": kind, "assoc": cells, "achieved": achieved, "bound": bound})

    for combo, dl, ul, chain_value in _family_sums(k, options, families):
        if ul > chain_value:
            violation("lemma2_chain", combo, ul, chain_value)
        elif ul == chain_value:
            tight["chain"] += 1

        if nc >= 2:
            recon_value = _reconstruction_value(nc, _good_blocks(k, nc, combo, True), tail)
            if dl > recon_value:
                violation("dl_reconstruction", combo, dl, recon_value)
            elif dl == recon_value:
                tight["reconstruction"] += 1

            if dl + ul > counting_twice:
                violation(
                    "avg_counting",
                    combo,
                    frac_to_str(Fraction(dl + ul, 2)),
                    frac_to_str(Fraction(counting_twice, 2)),
                )
            elif dl + ul == counting_twice:
                tight["counting"] += 1

    return SweepReport(
        k=k, nc=nc, window=w, total=total,
        violations=tuple(violations), tight=tight,
    )


@dataclass(frozen=True)
class PeriodicPattern:
    """A repeating association template with offsets relative to each user.

    offsets[r] lists the base-station offsets (j - i) granted to users
    with (i - 1) % period == r; instantiation clips to [1..k].
    """

    period: int
    offsets: tuple

    def __post_init__(self):
        if not isinstance(self.period, int) or self.period < 1:
            raise ValidationError("period must be a positive integer")
        if len(self.offsets) != self.period:
            raise ValidationError("need exactly one offset set per residue")
        normalized = []
        for entry in self.offsets:
            values = sorted(set(int(o) for o in entry))
            normalized.append(tuple(values))
        object.__setattr__(self, "offsets", tuple(normalized))

    def instantiate(self, k: int, nc: int) -> CellAssociation:
        cells = []
        for i in range(1, k + 1):
            offs = self.offsets[(i - 1) % self.period]
            cell = [i + o for o in offs if 1 <= i + o <= k]
            if len(cell) > nc:
                raise ValidationError(
                    f"pattern gives user {i} {len(cell)} base stations, budget {nc}"
                )
            cells.append(cell)
        return association(k, nc, cells)

    def to_json(self) -> dict:
        return {"period": self.period, "offsets": [list(o) for o in self.offsets]}


@dataclass(frozen=True)
class PeriodicReport:
    """Three-point extrapolation of a periodic pattern's session sums."""

    pattern: PeriodicPattern
    nc: int
    ks: tuple
    dl_sums: tuple
    ul_sums: tuple
    dl_affine: bool
    ul_affine: bool
    dl_per_user: Optional[Fraction]
    ul_per_user: Optional[Fraction]
    avg_per_user: Optional[Fraction]

    def to_json(self) -> dict:
        opt = lambda v: None if v is None else frac_to_str(v)
        return {
            "pattern": self.pattern.to_json(),
            "nc": self.nc,
            "ks": list(self.ks),
            "dl_sums": list(self.dl_sums),
            "ul_sums": list(self.ul_sums),
            "dl_affine": self.dl_affine,
            "ul_affine": self.ul_affine,
            "dl_per_user": opt(self.dl_per_user),
            "ul_per_user": opt(self.ul_per_user),
            "avg_per_user": opt(self.avg_per_user),
            "disagreements": 0,
        }


def periodic_eval(
    pattern: PeriodicPattern,
    nc: int,
    copies: int = 3,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    prime: int = DEFAULT_PRIME,
) -> PeriodicReport:
    """Evaluate a pattern at copies, copies+1, copies+2 repetitions.

    When both session sums grow affinely in the repetition count, the
    per-user slopes are exact rationals and the edge effects have
    stabilized; non-affine growth leaves the per-user fields empty.
    """
    if copies < 1:
        raise ValidationError("copies must be at least 1")
    p = pattern.period
    ks = tuple(p * (copies + d) for d in range(3))
    dl_sums, ul_sums = [], []
    for kk in ks:
        assoc = pattern.instantiate(kk, nc)
        dl_ev = max_downlink_dof(assoc, seeds=seeds, prime=prime)
        ul_ev = max_uplink_dof(assoc)
        dl_sums.append(dl_ev.sum_dof)
        ul_sums.append(ul_ev.sum_dof)

    dl_d = (dl_sums[1] - dl_sums[0], dl_sums[2] - dl_sums[1])
    ul_d = (ul_sums[1] - ul_sums[0], ul_sums[2] - ul_sums[1])
    dl_affine = dl_d[0] == dl_d[1]
    ul_affine = ul_d[0] == ul_d[1]
    dl_pu = Fraction(dl_d[0], p) if dl_affine else None
    ul_pu = Fraction(ul_d[0], p) if ul_affine else None
    avg_pu = (
        Fraction(dl_d[0] + ul_d[0], 2 * p) if dl_affine and ul_affine else None
    )
    return PeriodicReport(
        pattern=pattern,
        nc=nc,
        ks=ks,
        dl_sums=tuple(dl_sums),
        ul_sums=tuple(ul_sums),
        dl_affine=dl_affine,
        ul_affine=ul_affine,
        dl_per_user=dl_pu,
        ul_per_user=ul_pu,
        avg_per_user=avg_pu,
    )


def tau(nc: int) -> Fraction:
    """Optimal session-average per-user value under budget nc."""
    if nc < 1:
        raise ValidationError("nc must be positive")
    if nc == 1:
        return Fraction(2, 3)
    return Fraction(4 * nc - 3, 4 * nc - 2)


def tau_downlink(nc: int) -> Fraction:
    """Optimal downlink per-user value under budget nc."""
    if nc < 1:
        raise ValidationError("nc must be positive")
    return Fraction(2 * nc, 2 * nc + 1)


@dataclass(frozen=True)
class TheoremComparison:
    """Closed-form targets next to an observed value."""

    nc: int
    tau: Fraction
    tau_downlink: Fraction
    relation_holds: Optional[bool]
    observed: Optional[Fraction]
    gap: Optional[Fraction]

    def to_json(self) -> dict:
        opt = lambda v: None if v is None else frac_to_str(v)
        return {
            "nc": self.nc,
            "tau": frac_to_str(self.tau),
            "tau_downlink": frac_to_str(self.tau_downlink),
            "relation_holds": self.relation_holds,
            "observed": opt(self.observed),
            "gap": opt(self.gap),
        }


def compare_with_theorem(
    nc: int, observed: Optional[Fraction] = None
) -> TheoremComparison:
    """Line up tau(nc), tau_downlink(nc), and their recursion.

    For nc >= 2 the average target satisfies
    tau(nc) = (1 + tau_downlink(nc - 1)) / 2; relation_holds records that
    check.  An observed per-user value (e.g. from a search or a periodic
    probe) is reported alongside with its gap to tau(nc).
    """
    t = tau(nc)
    td = tau_downlink(nc)
    relation = None
    if nc >= 2:
        relation = t == (1 + tau_downlink(nc - 1)) / 2
    gap = None if observed is None else t - observed
    return TheoremComparison(
        nc=nc,
        tau=t,
        tau_downlink=td,
        relation_holds=relation,
        observed=observed,
        gap=gap,
    )


_CONFIG_KEYS = {"k", "nc", "window", "objective", "seeds", "cap"}


def load_search_config(data: object) -> dict:
    """Validate a search run-configuration mapping.

    Accepted keys: k, nc, window, objective, seeds, cap.  Unknown keys
    are rejected so typos fail loudly instead of being ignored.
    """
    if not isinstance(data, dict):
        raise ValidationError("search config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    out: dict = {}
    for key in ("k", "nc", "window", "cap"):
        if key in data and data[key] is not None:
            value = data[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"config key {key} must be an integer")
            out[key] = value
    if "objective" in data and data["objective"] is not None:
        out["objective"] = _normalize_objective(data["objective"])
    if "seeds" in data and data["seeds"] is not None:
        seeds = data["seeds"]
        if (
            not isinstance(seeds, list)
            or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
        ):
            raise ValidationError("config key seeds must be a nonempty integer list")
        out["seeds"] = tuple(seeds)
    return out
