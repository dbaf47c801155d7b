"""Exhaustive search, soundness sweeps, and extrapolation probes.

The enumeration scope is windowed: user i may only associate within
[i - w, i + w] (clipped to the line), with at most nc picks.  Windows
default to nc.  Candidates are visited in lexicographic order (by user,
then by association set as a sorted tuple), and the searches report the
first maximizer, which is therefore the lexicographically smallest one.

A candidate's two session sums are the sizes of the largest active sets
the two value-free feasibility rules of _kernels allow, and only those
sizes are needed.  A search builds the graph of the family over the
pairs of rule states (_kernels.family_graph), from the two rules, each
made a part of it (_kernels.rule_part), each part's steps of the
family's options (_kernels.part_steps) and the objective's weights
(_WEIGHTS).  Its max-plus pass, _kernels.family_best, returns the index
of the first candidate of the best key, dl * weight + ul * weight, and
that candidate's (dl, ul) sums.  The winner is decoded from the
mixed-radix digits of that index (_decode), so a search lists no
candidate to find it.  No channel value is drawn per candidate; the
winner alone becomes an association and gets a zero-forcing witness and
a decoding order from max_downlink_dof and max_uplink_dof, which must
reproduce the search value.  Every search carries its rows (search
--format csv), read off the same graph (_Rows) only when they are read:
iterating them runs the text pass _kernels.family_texts down to the last
user, yielding each candidate's (dl, ul) sums lazily, and a row read by
index adds up the gains along the classes that its index decodes to.
The CLI's CSV writer runs the same pass to a shallower depth with each
row's text, so neither lists a candidate.

A soundness sweep runs one (max, count) pass of _kernels (family_above)
per certificate, each on a graph of two parts, and lists each part's
steps once for all its graphs: the chain bound on the uplink and
chain rules, ul - chain against 0; for nc >= 2, the reconstruction bound
on the downlink rule and the strict test's spoiled blocks
(bounds._spoil_part), dl - (newly spoiled blocks) against the value with
no block spoiled (bounds._reconstruction_value); and the counting bound
on the two sessions' rules, dl + ul against twice its value.  Each slack
adds up along the line, so a certificate holds iff its pass's best stays
within its bound, and its tight count is the pass's count at the bound.
Only a pass whose best passes its bound lists the associations above it,
by a descent in enumeration order; the sweep merges them by index, then
by certificate, and reads each violator's sets off its decoded options.
A sweep builds no association, and a sound one lists no candidate.  The
winner's bound and the sweep's kinds come from bounds.ISSUERS and
bounds.KIND_*.

Both entry points count the family (_family_size) before listing any
option and refuse one with more than cap candidates, or more than
MAX_CANDIDATES whatever the cap.  Every user has at least two options,
so a line with at least as many users as min(cap, MAX_CANDIDATES) has
bits is refused before any user is counted, and otherwise the count
stops as soon as the users counted, with two options for each user still
to come, pass the limit.  count_associations uses the same count and
refuses a family of more than 2**MAX_COUNT_BITS candidates, and
enumerate_associations refuses the same families when it is called.

Periodic evaluation instantiates a repeating pattern at three sizes and
checks that both session values grow affinely, which is the cheap
signature of a per-user rate that has stabilized.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from collections.abc import Iterator, Sequence
from typing import Optional

from ._kernels import (
    CHAIN_RULE,
    UL_RULE,
    dl_rule,
    family_above,
    family_best,
    family_graph,
    family_texts,
    part_steps,
    rule_part,
)
from .bounds import (
    ISSUERS,
    KIND_CHAIN,
    KIND_COUNTING,
    KIND_RECONSTRUCTION,
    BoundCertificate,
    _counting_value,
    _reconstruction_value,
    _spoil_part,
)
from .downlink_zf import DlEvaluation, max_downlink_dof
from .errors import BudgetExceededError, InternalCheckError, SizeLimitError, ValidationError
from .model import (
    DEFAULT_SEEDS,
    CellAssociation,
    Record,
    association,
    check_int,
    check_ints,
    check_seeds,
    frac_to_str,
    shown,
)
from .schemes import _check_size
from .uplink_decode import UlEvaluation, max_uplink_dof

DEFAULT_CAP = 100_000

# Largest family a search or sweep takes, whatever its cap: about 0.2 GB
# of CSV text, written in pieces.  Every user has at least two options, so
# such a family has at most 23 users, and _kernels.family_texts nests at
# most 24 deep.
MAX_CANDIDATES = 10**7

# Largest count count_associations works out, in bits (about 19,700
# decimal digits).  Every user has at least two choices, so a line of more
# users is refused before any user is counted.  The count of 6000 users at
# (nc, window) = (3, 3) takes about 36,000 bits.  The users are counted one
# by one, and no count or refusal takes more than about 0.35 s on a 2-vCPU
# VM: the slowest is near k = 32,500 with nc and window of 10**12.
MAX_COUNT_BITS = 2**16

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
    try:
        key = str(objective).lower()
    except ValueError:  # an int with more digits than Python writes
        key = None
    if key not in _OBJECTIVES:
        raise ValidationError(
            f"objective must be one of avg/ul/dl (or up/down){shown(objective, ', got ')}"
        )
    return _OBJECTIVES[key]


def _window(k: int, nc: int, window: Optional[int]) -> int:
    """The window half-width, after k, nc and window pass model.check_int."""
    check_int("k", k, 1)
    check_int("nc", nc, 1)
    return check_int("window", nc if window is None else window, 0)


def _family_size(k: int, nc: int, w: int, limit: int) -> Optional[int]:
    """Number of windowed associations, or None when it passes limit.

    User i sees n = min(k, i + w) - max(1, i - w) + 1 base stations and
    has the sum of comb(n, r) over r <= nc choices, at least two, each term
    worked out from the one before.  With bits = limit.bit_length(), a line
    of bits users or more has at least 2**bits > limit candidates and is
    refused before anything is counted.  Otherwise the users are counted
    one by one, and a partial count that, times the count so far and two
    for every user still to come, reaches 2**bits ends the count, so no
    product formed has more than bits + 1 bits.
    """
    bits, total = limit.bit_length(), 1
    if k >= bits:
        return None
    for i in range(1, k + 1):
        n = min(k, i + w) - max(1, i - w) + 1
        count, term = 0, 1
        for r in range(min(nc, n) + 1):
            count += term
            if count.bit_length() + total.bit_length() + (k - i) - 2 >= bits:
                return None
            term = term * (n - r) // (r + 1)
        total *= count
    return total if total <= limit else None


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

    Refuses a cap below 1 as invalid input, since every family has a
    candidate, and, before listing any option, a family of more than cap
    candidates or of more than MAX_CANDIDATES, whatever the cap.
    """
    w = _window(k, nc, window)
    check_int("cap", cap, 1)
    total = _family_size(k, nc, w, min(cap, MAX_CANDIDATES))
    if total is None:
        raise BudgetExceededError(
            f"the family has more than {cap} candidates (the cap); raise cap explicitly to proceed"
            if cap <= MAX_CANDIDATES
            else f"the family has more than {MAX_CANDIDATES} candidates, the most any search lists"
        )
    return w, _user_options(k, nc, w), total


def _decode(options, index: int) -> tuple:
    """The index-th choice of one option per user, in enumeration order.

    Candidates are listed in the product order of the options, the last
    user's varying fastest, so index is a mixed-radix number whose last
    digit picks the last user's option.
    """
    combo = []
    for opts in reversed(options):
        index, digit = divmod(index, len(opts))
        combo.append(opts[digit])
    return tuple(reversed(combo))


def count_associations(k: int, nc: int, window: Optional[int] = None) -> int:
    """Number of windowed associations, without enumerating them.

    A family of more than 2**MAX_COUNT_BITS candidates raises SizeLimitError.
    """
    total = _family_size(k, nc, _window(k, nc, window), 1 << MAX_COUNT_BITS)
    if total is None:
        raise SizeLimitError(
            f"the family has more than 2**{MAX_COUNT_BITS} candidates, "
            "the most count_associations counts"
        )
    return total


def enumerate_associations(
    k: int, nc: int, window: Optional[int] = None
) -> Iterator[CellAssociation]:
    """All windowed associations in lexicographic order.

    A family that count_associations refuses (more than 2**MAX_COUNT_BITS
    candidates) raises SizeLimitError at the call, before any option is
    listed.
    """
    count_associations(k, nc, window)
    options = _user_options(k, nc, _window(k, nc, window))
    return (association(k, nc, combo) for combo in itertools.product(*options))


class _Rows(Sequence):
    """The (index, dl, ul) rows of a search, read off its family graph.

    graph is the search's family_graph and total its candidate count.
    Iteration yields family_texts(graph, tuple, k) lazily, and a row read
    by index adds up the gains along the classes its index decodes to,
    so no candidate is listed either way.
    """

    def __init__(self, graph, total):
        self.graph, self._total = graph, total

    def __len__(self):
        return self._total

    def __iter__(self):
        sums = family_texts(self.graph, tuple, len(self.graph[1]))  # each candidate's (dl, ul)
        return ((i, dl, ul) for i, (dl, ul) in enumerate(sums))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        index = range(len(self))[index]
        node, users, rows, _last = self.graph
        dl = ul = 0
        for row_of, j in zip(rows, _decode(users, index)):
            afters, _g, (dl_gains, ul_gains) = row_of[node]
            node, dl, ul = afters[j], dl + dl_gains[j], ul + ul_gains[j]
        return index, dl, ul


class SearchResult(Record):
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
    # Every search sets it, None on a record built by hand.  A function of
    # (k, nc, window), so it takes no part in comparisons.
    rows: Optional[Sequence] = None
    _uncompared = ("rows",)
    __hash__ = None  # its downlink witness holds a dict

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


def _dl_rule(k: int, nc: int, w: int):
    """The downlink rule over a windowed family, its run capped at min(nc, w, k - 1).

    A left side, the run [a, m-1] of C_m, has at most nc members, and
    a >= m - w and a >= 1, so its length is at most min(nc, w, k - 1);
    user k's option k-L..k-1 reaches L = min(nc, w, k - 1).  So the cap
    is the family's longest left side: it keeps every decision and
    interns no longer run.
    """
    return dl_rule(k, min(nc, w, k - 1))


# The objective key of a candidate is dl * weight + ul * weight.
_WEIGHTS = {"avg": (1, 1), "ul": (0, 1), "dl": (1, 0)}


def _objective_value(objective: str, k: int, dl: int, ul: int) -> Fraction:
    dl_weight, ul_weight = _WEIGHTS[objective]
    return Fraction(dl_weight * dl + ul_weight * ul, 2 * k if objective == "avg" else 1)


def exhaustive_search(
    k: int,
    nc: int,
    window: Optional[int] = None,
    objective: str = "avg",
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    cap: int = DEFAULT_CAP,
) -> SearchResult:
    """Evaluate every windowed association and return the best one.

    The winner comes from the max-plus pass (_kernels.family_best).  Both
    sessions are evaluated for every candidate regardless of the
    objective, so the result's rows carry (index, dl, ul): a read-only
    sequence over the search's family graph (_Rows) that lists nothing
    until it is read, and no candidate then.  Refuses to start when the
    candidate count exceeds cap or MAX_CANDIDATES.  The seeds
    (model.check_seeds) only draw the channels of the winner's
    zero-forcing witness.
    """
    objective = _normalize_objective(objective)
    w, options, total = _family(k, nc, window, cap)
    seeds = check_seeds(seeds)

    parts = rule_part(_dl_rule(k, nc, w)), rule_part(UL_RULE)
    graph = family_graph(parts, [part_steps(part, options) for part in parts], _WEIGHTS[objective])
    best_index, sums = family_best(graph)
    best_value = _objective_value(objective, k, *sums)
    best_assoc = association(k, nc, _decode(options, best_index))

    dl_ev = max_downlink_dof(best_assoc, seeds=seeds)
    ul_ev = max_uplink_dof(best_assoc)
    recheck = _objective_value(objective, k, dl_ev.sum_dof, ul_ev.sum_dof)
    if recheck != best_value:
        raise InternalCheckError(
            f"winner re-evaluation {recheck} disagrees with search value {best_value}"
        )

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
        bound=ISSUERS[KIND_COUNTING](best_assoc),
        rows=_Rows(graph, total),
    )


class SweepReport(Record):
    """Outcome of checking oracle values against certificates."""

    k: int
    nc: int
    window: int
    total: int
    violations: tuple
    tight: dict
    _json_extras = ("sound",)
    __hash__ = None  # it holds a dict

    @property
    def sound(self) -> bool:
        return not self.violations


def soundness_sweep(
    k: int,
    nc: int,
    window: Optional[int] = None,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    cap: int = DEFAULT_CAP,
) -> SweepReport:
    """Check every windowed association against its converse certificates.

    Uplink sums are compared with the chain bound for every nc; downlink
    sums with the reconstruction bound and session-average sums with the
    counting bound when nc >= 2 (those certificates are not defined for
    nc = 1).  Returns all violations; an empty list certifies soundness
    over the swept family.  No channel value enters a session sum, so
    seeds is checked (model.check_seeds) and unused; perfbench/workloads.py
    passes it.
    """
    w, options, total = _family(k, nc, window, cap)
    check_seeds(seeds)

    def listed(part):  # a part and its steps of every option, listed once for every graph
        return part, part_steps(part, options)

    ul = listed(rule_part(UL_RULE))
    # (kind, name, listed parts, weights, bound): the certificate holds where
    # the weighted sum of the parts' gains is at most bound.
    checks = [(KIND_CHAIN, "chain", (ul, listed(rule_part(CHAIN_RULE))), (1, -1), 0)]
    if nc >= 2:  # blocks are defined for nc >= 2 only
        dl = listed(rule_part(_dl_rule(k, nc, w)))
        checks += [
            (KIND_RECONSTRUCTION, "reconstruction", (dl, listed(_spoil_part(k, nc, w))), (1, -1),
             _reconstruction_value(k, nc, 0)),
            (KIND_COUNTING, "counting", (dl, ul), (1, 1), int(2 * _counting_value(k, nc))),
        ]
    tight, broken = {"chain": 0, "reconstruction": 0, "counting": 0}, []
    for order, (kind, name, pair, weights, bound) in enumerate(checks):
        tight[name], above = family_above(family_graph(*zip(*pair), weights), bound)
        for index, (first, second) in above:
            # ul against the chain count, dl against the value at its spoiled
            # count, or dl + ul against twice the counting bound
            achieved, limit = first, bound + second
            if kind == KIND_COUNTING:
                achieved, limit = (frac_to_str(Fraction(v, 2)) for v in (first + second, bound))
            cells = [list(cell) for cell in _decode(options, index)]  # sorted tuples in 1..k
            violation = {"kind": kind, "assoc": cells, "achieved": achieved, "bound": limit}
            broken.append(((index, order), violation))
    violations = tuple(violation for _key, violation in sorted(broken))
    return SweepReport(k=k, nc=nc, window=w, total=total, violations=violations, tight=tight)


class PeriodicPattern(Record):
    """A repeating association template with offsets relative to each user.

    offsets[r] lists the base-station offsets (j - i) granted to users
    with (i - 1) % period == r; instantiation clips to [1..k].
    """

    period: int
    offsets: tuple

    def __post_init__(self):
        check_int("period", self.period, 1)
        if not isinstance(self.offsets, (list, tuple)):
            raise ValidationError(
                f"offsets must be a list of offset sets{shown(self.offsets, ', got ')}"
            )
        if len(self.offsets) != self.period:
            raise ValidationError("need exactly one offset set per residue")
        normalized = []
        for entry in self.offsets:
            if not isinstance(entry, (list, tuple, set, frozenset)):
                raise ValidationError(
                    f"each offset set must be a collection{shown(entry, ', got ')}"
                )
            normalized.append(tuple(sorted(set(check_ints("offset", entry)))))
        object.__setattr__(self, "offsets", tuple(normalized))

    def instantiate(self, k: int, nc: int) -> CellAssociation:
        _check_size(k, nc)
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


class PeriodicReport(Record):
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
    disagreements = 0
    _json_extras = ("disagreements",)


def periodic_eval(
    pattern: PeriodicPattern,
    nc: int,
    copies: int = 3,
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> PeriodicReport:
    """Evaluate a pattern at copies, copies+1, copies+2 repetitions.

    When both session sums grow affinely in the repetition count, the
    per-user slopes are exact rationals and the edge effects have
    stabilized; non-affine growth leaves the per-user fields empty.  nc
    and copies are positive integers, the seeds pass model.check_seeds,
    and no size may pass the scheme size limits (schemes._check_size).
    """
    check_int("nc", nc, 1)
    check_int("copies", copies, 1)
    seeds = check_seeds(seeds)
    p = pattern.period
    ks = tuple(p * (copies + d) for d in range(3))
    _check_size(ks[-1], nc)
    dl_sums, ul_sums = [], []
    for kk in ks:
        assoc = pattern.instantiate(kk, nc)
        dl_sums.append(max_downlink_dof(assoc, seeds=seeds).sum_dof)
        ul_sums.append(max_uplink_dof(assoc).sum_dof)

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
    """Optimal session-average per-user value under a positive integer budget nc."""
    if check_int("nc", nc, 1) == 1:
        return Fraction(2, 3)
    return Fraction(4 * nc - 3, 4 * nc - 2)


def tau_downlink(nc: int) -> Fraction:
    """Optimal downlink per-user value under a positive integer budget nc."""
    check_int("nc", nc, 1)
    return Fraction(2 * nc, 2 * nc + 1)


class TheoremComparison(Record):
    """Closed-form targets next to an observed value."""

    nc: int
    tau: Fraction
    tau_downlink: Fraction
    relation_holds: Optional[bool]
    observed: Optional[Fraction]
    gap: Optional[Fraction]


def compare_with_theorem(
    nc: int, observed: Optional[Fraction] = None
) -> TheoremComparison:
    """Line up tau(nc), tau_downlink(nc), and their recursion.

    For nc >= 2 the average target satisfies
    tau(nc) = (1 + tau_downlink(nc - 1)) / 2; relation_holds records that
    check.  An observed per-user value (e.g. from a search or a periodic
    probe) is reported alongside with its gap to tau(nc), both stored as
    Fractions so that to_json writes them as "p/q"; a float observed is
    the rational it holds, and its gap is taken exactly from that rational.
    """
    t = tau(nc)
    td = tau_downlink(nc)
    relation = None
    if nc >= 2:
        relation = t == (1 + tau_downlink(nc - 1)) / 2
    gap = None
    if observed is not None:
        observed = Fraction(observed)
        gap = t - observed
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
    are rejected so typos fail loudly instead of being ignored.  k, nc,
    window and cap must be integers (model.check_int; their ranges are
    checked by exhaustive_search) and seeds must pass model.check_seeds.
    """
    if not isinstance(data, dict):
        raise ValidationError("search config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    out: dict = {}
    for key in ("k", "nc", "window", "cap"):
        if key in data and data[key] is not None:
            out[key] = check_int(f"config key {key}", data[key])
    if "objective" in data and data["objective"] is not None:
        out["objective"] = _normalize_objective(data["objective"])
    if "seeds" in data and data["seeds"] is not None:
        out["seeds"] = check_seeds(data["seeds"])
    return out
