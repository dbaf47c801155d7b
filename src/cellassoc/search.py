"""Exhaustive search, soundness sweeps, and extrapolation probes.

The enumeration scope is windowed: user i may only associate within
[i - w, i + w] (clipped to the line), with at most nc picks.  Windows
default to nc.  Candidates are visited in lexicographic order (by user,
then by association set as a sorted tuple), and the searches report the
first maximizer, which is therefore the lexicographically smallest one.

Both session sums of a candidate come from the exact line DP of
_kernels (the two value-free feasibility rules maximized along the line),
so no channel values are drawn per candidate; the winner alone gets a
zero-forcing witness and a decoding order from max_downlink_dof and
max_uplink_dof, which must reproduce the search value.

A soundness sweep runs the same enumeration but compares every
candidate's session sums against the matching converse certificates,
returning any violations instead of a winner.

Periodic evaluation instantiates a repeating pattern at three sizes and
checks that both session values grow affinely, which is the cheap
signature of a per-user rate that has stabilized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator, Optional, Sequence

from . import _kernels
from .bounds import (
    BoundCertificate,
    _block_flags,
    _block_layout,
    _chain_dp,
    chain_flags,
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


def _user_options(k: int, nc: int, window: Optional[int]):
    """Per-user association choices, each list in lexicographic order."""
    if k < 1 or nc < 1:
        raise ValidationError("k and nc must be positive")
    w = nc if window is None else window
    if w < 0:
        raise ValidationError("window must be nonnegative")
    options = []
    for i in range(1, k + 1):
        pool = [j for j in range(i - w, i + w + 1) if 1 <= j <= k]
        opts = []
        for r in range(0, min(nc, len(pool)) + 1):
            opts.extend(itertools.combinations(pool, r))
        options.append(sorted(opts))
    return w, options


def count_associations(k: int, nc: int, window: Optional[int] = None) -> int:
    """Number of windowed associations, without enumerating them."""
    _w, options = _user_options(k, nc, window)
    return prod(len(o) for o in options)


def enumerate_associations(
    k: int, nc: int, window: Optional[int] = None
) -> Iterator[CellAssociation]:
    """All windowed associations in lexicographic order."""
    _w, options = _user_options(k, nc, window)
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
    disagreements: int
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
            "disagreements": self.disagreements,
        }


def _objective_value(objective: str, k: int, dl: int, ul: int) -> Fraction:
    if objective == "avg":
        return Fraction(dl + ul, 2 * k)
    return Fraction(ul if objective == "ul" else dl)


def _session_sums(k: int, options):
    """(combo, dl, ul) for every windowed association, in enumeration order.

    The uplink sum depends only on the connected part of each set, so it
    is memoized on that.
    """
    connected = [
        [tuple(j for j in opt if i - 1 <= j <= i) for opt in opts]
        for i, opts in enumerate(options, start=1)
    ]
    ul_memo: dict[tuple, int] = {}
    for combo, pruned in zip(itertools.product(*options), itertools.product(*connected)):
        dl = len(_kernels.dl_max_active(k, combo))
        ul = ul_memo.get(pruned)
        if ul is None:
            ul = ul_memo[pruned] = len(_kernels.ul_max_active(k, pruned))
        yield combo, dl, ul


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
    w, options = _user_options(k, nc, window)
    total = prod(len(o) for o in options)
    if total > cap:
        raise BudgetExceededError(
            f"{total} candidates exceed the cap of {cap}; "
            "raise cap explicitly to proceed"
        )
    if not seeds:
        raise ValidationError("at least one channel seed is required")

    best_value: Optional[Fraction] = None
    best_index = -1
    best_combo = None
    rows: list[tuple] = []

    for index, (combo, dl, ul) in enumerate(_session_sums(k, options)):
        value = _objective_value(objective, k, dl, ul)
        if best_value is None or value > best_value:
            best_value = value
            best_index = index
            best_combo = combo
        if collect_rows:
            rows.append((index, dl, ul))

    assert best_value is not None
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
        disagreements=dl_ev.disagreements,
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
    w, options = _user_options(k, nc, window)
    total = prod(len(o) for o in options)
    if total > cap:
        raise BudgetExceededError(
            f"{total} candidates exceed the cap of {cap}; "
            "raise cap explicitly to proceed"
        )

    length, full, tail = _block_layout(k, nc)
    counting_value = Fraction(4 * nc - 3, 2) * full + tail if nc >= 2 else None

    chain_memo: dict[tuple, int] = {}
    violations: list[dict] = []
    tight = {"chain": 0, "reconstruction": 0, "counting": 0}

    for combo, dl, ul in _session_sums(k, options):
        assoc = association(k, nc, combo)

        flags = chain_flags(assoc)
        chain_value = chain_memo.get(flags)
        if chain_value is None:
            chain_value = _chain_dp(k, flags)
            chain_memo[flags] = chain_value
        if ul > chain_value:
            violations.append(
                {
                    "kind": "lemma2_chain",
                    "assoc": assoc.cells_as_lists(),
                    "achieved": ul,
                    "bound": chain_value,
                }
            )
        elif ul == chain_value:
            tight["chain"] += 1

        if nc >= 2:
            blocks = _block_flags(assoc, strict=True)
            recon_value = sum(
                (2 * nc - 2) if f.good else (2 * nc - 1) for f in blocks
            ) + tail
            if dl > recon_value:
                violations.append(
                    {
                        "kind": "dl_reconstruction",
                        "assoc": assoc.cells_as_lists(),
                        "achieved": dl,
                        "bound": recon_value,
                    }
                )
            elif dl == recon_value:
                tight["reconstruction"] += 1

            avg_sum = Fraction(dl + ul, 2)
            if avg_sum > counting_value:
                violations.append(
                    {
                        "kind": "avg_counting",
                        "assoc": assoc.cells_as_lists(),
                        "achieved": frac_to_str(avg_sum),
                        "bound": frac_to_str(counting_value),
                    }
                )
            elif avg_sum == counting_value:
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
    disagreements: int

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
            "disagreements": self.disagreements,
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
    disagreements = 0
    for kk in ks:
        assoc = pattern.instantiate(kk, nc)
        dl_ev = max_downlink_dof(assoc, seeds=seeds, prime=prime)
        ul_ev = max_uplink_dof(assoc)
        dl_sums.append(dl_ev.sum_dof)
        ul_sums.append(ul_ev.sum_dof)
        disagreements += dl_ev.disagreements

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
        disagreements=disagreements,
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
