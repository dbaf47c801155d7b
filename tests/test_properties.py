"""Property tests: the local oracles against full-scan reference oracles.

The references below are the scan-everything form of the uplink scheduler,
the dense row reduction that built zero-forcing witnesses before the
back-substitution along the line, a witness check that sums every precoder
at every active user, the cumulative per-block certification of the
nc = 2 average-optimal plan by a seed majority, the include-first branch
and bound that maximized both sessions before the line DP, the backward
line DP that maximized both sessions and the chain bound before the
greedy pass, the hand-written chain DP that the chain rule of _kernels
replaced, the per-block scan of block goodness that the per-user rule of
the reconstruction bound replaced, the per-candidate maximization and
certificate checks that searches and sweeps ran before the family DP, and
the fold that FamilyLayers ran per table miss before its loops were
unrolled.  The package's versions look only at the users a decision can
affect, or share work between candidates; on random windowed associations
and families they must return exactly what the references return.  Every
scheme plan must also pass the multi-seed reference and both value-free
rules.
"""

import itertools
import math
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from cellassoc import _kernels, search
from cellassoc._kernels import _pure
from cellassoc.bounds import (
    ISSUERS,
    KIND_RECONSTRUCTION,
    BoundCertificate,
    _block_flags,
    _chain_dp,
    _reconstruction_value,
    _spoil_part,
    chain_flags,
    counting_bound,
    lemma2_chain_bound,
    reconstruction_bound,
    verify_certificate,
)
from cellassoc.downlink_zf import (
    ZfWitness,
    max_downlink_dof,
    strip_silent,
    verify_witness,
    zf_feasible,
    zf_feasible_majority,
)
from cellassoc.errors import EmptyCellError, InternalCheckError
from cellassoc.model import (
    DEFAULT_PRIME,
    ChannelRealization,
    association,
    connected_bs,
    draw_channels,
    frac_to_str,
    validate_association,
)
from cellassoc.schemes import SchemePlan, avg_optimal, downlink_optimal, pair_association
from cellassoc.uplink_decode import DecodingOrder, uplink_feasible, verify_order
from test_references import chain_covers, dl_covers, ul_covers

SETTINGS = settings(max_examples=150, deadline=None)


# --- reference oracles --------------------------------------------------------


def ref_step_allowed(assoc, active, decoded, m, b):
    if b not in assoc.cells[m - 1] or b not in connected_bs(m, assoc.k):
        return False
    for mp in (b, b + 1):  # the users that hear bs b; user k + 1 is never active
        if mp == m or mp not in active:
            continue
        if mp not in decoded or b not in assoc.cells[mp - 1]:
            return False
    return True


def ref_uplink_feasible(assoc, active):
    """Rescan every undecoded message after each step."""
    active = frozenset(active)
    decoded = set()
    steps = []
    while len(decoded) < len(active):
        chosen = None
        for m in sorted(active - decoded):
            for b in sorted(assoc.cells[m - 1] & connected_bs(m, assoc.k)):
                if ref_step_allowed(assoc, active, decoded, m, b):
                    chosen = (m, b)
                    break
            if chosen:
                break
        if chosen is None:
            return None
        decoded.add(chosen[0])
        steps.append(chosen)
    return DecodingOrder(steps=tuple(steps))


def ref_message_witness(assoc, active, ch, m):
    """Dense RREF over rows from a scan over every active user."""
    p = ch.prime
    cols = sorted(j for j in assoc.cells[m - 1] if 1 <= j <= assoc.k)
    if not cols:
        return None
    ncols = len(cols)
    rows = []
    for r in sorted(active):
        if r == m:
            continue
        if any(j in (r - 1, r) for j in cols):
            rows.append([gain(ch, r, j) for j in cols])

    pivots = []
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), -1)
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        pivots.append((rank, c))
        rank += 1
        if rank == len(rows):
            break

    pivot_cols = [c for _, c in pivots]
    desired = [gain(ch, m, j) for j in cols]
    for f in (c for c in range(ncols) if c not in pivot_cols):
        vec = [0] * ncols
        vec[f] = 1
        for r_i, c in pivots:
            vec[c] = (-rows[r_i][f]) % p
        if sum(d * v for d, v in zip(desired, vec)) % p != 0:
            return {j: vec[idx] for idx, j in enumerate(cols)}
    return None


def ref_run_precoder(cell, a, c, left, diag, p):
    """1 at column c of the linked run [a, c], back-substituted with one inverse per link."""
    k = len(left) - 2
    vec = {j: 0 for j in cell if 0 < j <= k}
    vec[c] = 1
    for r in range(c, a, -1):  # user r links r-1 and r, so g(r, r-1) != 0
        vec[r - 1] = -diag[r] * vec[r] * pow(left[r], -1, p) % p
    return vec


def ref_zf_feasible(assoc, active, ch):
    precoders = {}
    for m in sorted(active):
        vec = ref_message_witness(assoc, active, ch, m)
        if vec is None:
            return None
        precoders[m] = vec
    return ZfWitness(seed=ch.seed, prime=ch.prime, precoders=precoders)


# Per-block downlink candidates of the nc = 2 plan, as (inactive local user,
# silent local bs), tried in this order.
REF_PAIR_CANDIDATES = ((2, 3), (1, 2), (3, 1))


def ref_partial_dl(assoc, offset):
    """Downlink maximum of the truncated trailing block, and its unused base stations."""
    k = assoc.k
    t = k - offset
    if t == 0:
        return set(), set()
    cells = [[j - offset for j in cell if j > offset] for cell in assoc.cells[offset:]]
    sub = association(t, assoc.nc, cells)
    ev = max_downlink_dof(sub)
    used = set().union(*(sub.cells[u - 1] for u in ev.active_users))
    active = {offset + u for u in ev.active_users}
    return active, {offset + j for j in range(1, t + 1) if j not in used}


def ref_avg_plan_pair(k, seeds, prime):
    """The nc = 2 plan with every block certified on the cumulative plan."""
    assoc = pair_association(k)
    blocks = k // 3
    dl_active, silent = set(), set()
    for b in range(blocks):
        off = b * 3
        for du, sb in REF_PAIR_CANDIDATES:
            trial_active = dl_active | {off + u for u in (1, 2, 3) if u != du}
            trial_silent = silent | {off + sb}
            feasible, _w = zf_feasible_majority(
                strip_silent(assoc, trial_silent), trial_active, seeds=seeds, prime=prime
            )
            if feasible:
                dl_active, silent = trial_active, trial_silent
                break
        else:
            raise InternalCheckError(f"no downlink candidate certified for block {b + 1}")
    part_active, part_silent = ref_partial_dl(assoc, blocks * 3)
    dl_active |= part_active
    silent |= part_silent
    return SchemePlan(
        assoc=assoc,
        dl_active_users=frozenset(dl_active),
        dl_silent_bs=frozenset(silent),
        ul_active_users=frozenset(range(1, k + 1)),
        claimed_dl_dof=Fraction(len(dl_active)),
        claimed_ul_dof=Fraction(k),
    )


def ref_max_active(candidates, feasible):
    """Include-first branch and bound over ascending candidates.

    The incumbent moves only on strict improvement, so with downward-closed
    feasibility this returns the largest set whose indicator vector over
    the candidates is lexicographically greatest.
    """
    best = frozenset()
    n = len(candidates)

    def rec(idx, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        if idx == n or len(chosen) + (n - idx) <= len(best):
            return
        with_next = chosen | {candidates[idx]}
        if feasible(with_next):
            rec(idx + 1, with_next)
        rec(idx + 1, chosen)

    rec(0, frozenset())
    return best


def ref_line_dp(rule, cells):
    """Largest active set of a line rule on the association sets cells.

    The line DP that maximized both sessions and the chain bound before the
    greedy pass: a forward pass records, for each user, the states reachable
    before it, the state each leads to when the user is active and the
    states reachable after it; a backward pass counts the most users still
    to come from each state, and an include-first pick takes every user
    that keeps that count reachable.
    """
    start, idle, nxt, step = rule
    # moves[m-1] = (before, on, after): the states reachable before user m,
    # the state each of them leads to when m is active (none when the rule
    # forbids it) and the states reachable after m.
    here, moves = frozenset((start,)), []
    for m, cell in enumerate(cells, 1):
        on = {s: t for s in here if (t := nxt(step(m, cell), s)) is not None}
        moves.append((here, on))
        here = frozenset((idle, *on.values()))
    # togo[m][s]: most active users among m+1..k from state s before user m+1.
    togo = [dict.fromkeys(here, 0)]
    for before, on in reversed(moves):
        after = togo[-1]
        rest = after[idle]
        togo.append({s: max(rest, 1 + after[on[s]]) if s in on else rest for s in before})
    togo.reverse()
    state, want, chosen = start, togo[0][start], []
    for m, ((_before, on), after) in enumerate(zip(moves, togo[1:]), 1):
        t = on.get(state)
        if t is not None and after[t] == want - 1:
            chosen.append(m)
            state, want = t, want - 1
        else:
            state = idle
    return frozenset(chosen)


def ref_session_sums(k, options):
    """(combo, dl, ul) for every candidate, each maximized from scratch.

    The uplink sum depends only on the connected part of each set, so it
    is memoized on that.
    """
    connected = [
        [tuple(j for j in opt if i - 1 <= j <= i) for opt in opts]
        for i, opts in enumerate(options, start=1)
    ]
    ul_memo = {}
    for combo, pruned in zip(itertools.product(*options), itertools.product(*connected)):
        dl = len(_kernels.dl_max_active(k, combo))
        ul = ul_memo.get(pruned)
        if ul is None:
            ul = ul_memo[pruned] = len(_kernels.ul_max_active(pruned))
        yield combo, dl, ul


def ref_chain_dp(k: int, flags) -> int:
    """Max sum of d in {0,1}^k under the flagged-pair rules with credits.

    A flagged pair (i, i+1) may have both users active only if some earlier
    position z holds d_z = 0 with no flag strictly between z and i.  The DP
    state after position i is (d_i, credit through i, credit through i-1);
    credit through j means such a z <= j exists for a pair starting at j+1.
    """
    flagset = set(flags)
    # state: (d, c, c_prev) -> best sum
    states = {(0, 0, 0): 0}
    for i in range(1, k + 1):
        nxt: dict[tuple[int, int, int], int] = {}
        for (d_prev, c_prev, _c_pp), total in states.items():
            for d in (0, 1):
                if (i - 1) in flagset and d_prev and d and not _c_pp:
                    continue
                c = 1 if d == 0 else (1 if (c_prev and i not in flagset) else 0)
                key = (d, c, c_prev)
                val = total + d
                if nxt.get(key, -1) < val:
                    nxt[key] = val
        states = nxt
    return max(states.values())


def ref_layer_move(rule, shape, step):
    """(shape after, gain) of one user's step from a layer shape.

    The fold FamilyLayers._move ran on a table miss while a shape mapped
    each state to its count less the largest: the best count of each
    successor over both activities, then the antichain under the rule's
    covers, then the shape less its largest count.  rule is an automaton
    whose next(step, state, active) returns a tuple of states (see
    ref_automaton).
    """
    nxt, covers = rule
    layer = {}
    for s, n in shape.items():
        for a in (1, 0):
            for t in nxt(step, s, a):
                if layer.get(t, -1) < n + a:
                    layer[t] = n + a
    layer = {
        t: n
        for t, n in layer.items()
        if not any(m >= n and u != t and covers(u, t) for u, m in layer.items())
    }
    gain = max(layer.values())
    return {s: n - gain for s, n in layer.items()}, gain


def ref_automaton(rule, covers):
    """(next, covers) of a rule and its order, its next(step, state, active) a tuple of states.

    The interface ref_layer_move was written for: an active user leads to
    the rule's one next state or to none, an inactive one to idle.
    """
    _start, idle, nxt, _step = rule

    def next_states(step, state, active):
        if not active:
            return (idle,)
        t = nxt(step, state)
        return () if t is None else (t,)

    return next_states, covers


def ref_good_blocks(k, nc, cells, strict):
    """Goodness of each full block, scanning every user for each good block."""
    length = 2 * nc - 1
    goods = []
    for b in range(k // length):
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


def swept_spoiled(k, nc, options):
    """The spoiled count of every association of a family, in enumeration order,
    as a sweep adds it up: the gains of the spoiled part (bounds._spoil_part)
    along each association, its window read off the options."""
    w = max((abs(j - m) for m, opts in enumerate(options, 1) for cell in opts for j in cell), default=0)
    start, moves, step = _spoil_part(k, nc, w)
    counts = []
    for combo in itertools.product(*options):
        state, spoiled = start, 0
        for m, cell in enumerate(combo, 1):
            [(state, _weighted, gain)] = moves([step(m, cell)], state, 1)
            spoiled += gain
        counts.append(spoiled)
    return counts


def swept_reconstruction_values(k, nc, options):
    """The reconstruction bound of every association of a family, in enumeration order,
    as a sweep reads it: the value at each association's swept spoiled count."""
    return [_reconstruction_value(k, nc, spoiled) for spoiled in swept_spoiled(k, nc, options)]


def raised_part(part, extra):
    """part (see _kernels.rule_part) with extra added to the gain of user 1's every option,
    so to the sum of every association."""
    start, moves, step = part

    def raised_moves(column, state, weight):
        listed = moves([s for _first, s in column], state, weight)
        return [
            (after, weighted + weight * extra * first, gain + extra * first)
            for (first, _s), (after, weighted, gain) in zip(column, listed)
        ]

    return start, raised_moves, lambda m, cell: (m == 1, step(m, cell))


def ref_sweep(k, nc, sums):
    """Tight counts and violations from the certificates of each built association."""
    tight = {"chain": 0, "reconstruction": 0, "counting": 0}
    violations = []
    for combo, dl, ul in sums:
        assoc = association(k, nc, combo)
        checks = [("lemma2_chain", "chain", ul, lemma2_chain_bound(assoc).value)]
        if nc >= 2:
            checks += [
                ("dl_reconstruction", "reconstruction", dl, reconstruction_bound(assoc).value),
                ("avg_counting", "counting", Fraction(dl + ul, 2), counting_bound(assoc).value),
            ]
        for kind, name, achieved, bound in checks:
            if achieved > bound:
                if kind == "avg_counting":
                    achieved, bound = frac_to_str(achieved), frac_to_str(bound)
                else:
                    bound = int(bound)
                violations.append(
                    {"kind": kind, "assoc": assoc.cells_as_lists(),
                     "achieved": achieved, "bound": bound}
                )
            elif achieved == bound:
                tight[name] += 1
    return tight, violations


def ref_violations(assoc):
    """validate_association's report from a walk over every user."""
    found = []
    for i, cell in enumerate(assoc.cells, 1):
        if len(cell) > assoc.nc:
            found.append((i, f"size {len(cell)} > {assoc.nc}"))
        out = sorted(j for j in cell if not 1 <= j <= assoc.k)
        if out:
            found.append((i, f"bs indices {out} out of range [1..{assoc.k}]"))
    return found


# --- strategies ---------------------------------------------------------------


@st.composite
def windowed(draw, max_k=14):
    """A windowed association (entries may fall off the line) and an active set."""
    k = draw(st.integers(1, max_k))
    nc = draw(st.integers(1, 3))
    w = draw(st.integers(1, 2))
    cells = []
    for i in range(1, k + 1):
        # Mostly the base stations the user hears, plus a few others in the window.
        picked = {j for j in (i - 1, i) if draw(st.booleans())}
        picked |= set(draw(st.lists(st.integers(i - w, i + w), max_size=2)))
        cells.append(draw(st.permutations(sorted(picked)))[:nc])
    active = frozenset(i for i in range(1, k + 1) if draw(st.booleans()))
    return association(k, nc, cells), active


@st.composite
def wide(draw, max_k=12):
    """Any association within a window up to the whole line, and an active set."""
    k = draw(st.integers(1, max_k))
    nc = draw(st.integers(1, 4))
    w = draw(st.integers(1, k))
    cells = [
        draw(st.lists(st.integers(max(1, i - w), min(k, i + w)), max_size=nc, unique=True))
        for i in range(1, k + 1)
    ]
    active = frozenset(i for i in range(1, k + 1) if draw(st.booleans()))
    return association(k, nc, cells), active


# Windowed families (k <= 7, nc <= 3, window <= 3) of at most FAMILY_CAP
# candidates, so the per-candidate references stay fast.
FAMILY_CAP = 1000
SMALL_FAMILIES = tuple(
    (k, nc, w)
    for k in range(1, 8)
    for nc in range(1, 4)
    for w in range(4)
    if search.count_associations(k, nc, w) <= FAMILY_CAP
)


@st.composite
def families(draw):
    """(k, options): a small windowed family, or a random part of a larger one.

    A part keeps a nonempty subset of each user's options in random order,
    so the product of the option counts stays within FAMILY_CAP.
    """
    k, nc, w = draw(st.sampled_from(SMALL_FAMILIES))
    if draw(st.booleans()):
        return k, search._user_options(k, nc, w)
    k = draw(st.integers(1, 7))
    options = search._user_options(k, draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    picked, size = [], 1
    for opts in options:
        most = max(1, min(len(opts), FAMILY_CAP // size))
        idx = draw(st.lists(st.integers(0, len(opts) - 1), min_size=1, max_size=most, unique=True))
        picked.append([opts[i] for i in idx])
        size *= len(idx)
    return k, picked


# The objective key of a candidate is dl * weight + ul * weight.
OBJECTIVE_WEIGHTS = {"avg": (1, 1), "ul": (0, 1), "dl": (1, 0)}

primes = st.sampled_from((7, 13, DEFAULT_PRIME))
seeds_st = st.lists(st.integers(0, 2**31 - 2), min_size=1, max_size=3, unique=True)


# --- properties ---------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.one_of(windowed(), wide()))
# Decoding user 2 at bs 1 is what lets user 3 decode at bs 2.
@example((association(3, 2, [[1], [1, 2], [2]]), frozenset({2, 3})))
# Active user 3 hears bs 2 but does not hold it, so user 2 cannot decode
# there; users 1 and 2 then wait on each other at bs 1.
@example((association(3, 2, [[1], [1, 2], [3]]), frozenset({1, 2, 3})))
# User 1 can never take L, so the whole run [1, 2] decodes at R, 2 first.
@example((association(2, 2, [[1], [1, 2]]), frozenset({1, 2})))
# Users 2 and 3 take L; user 4 does not hold bs 3, so 5 then 4 take R.
@example((association(5, 2, [[1], [1, 2], [2, 3], [4], [4, 5]]), frozenset({2, 3, 4, 5})))
# User 2 takes L and user 4 takes R, but user 4 does not hold bs 3 for user 3.
@example((association(4, 2, [[1], [1, 2], [3], [4]]), frozenset({2, 3, 4})))
# Runs [1, 2] and [4, 5] are both ready at once; the lower run goes first.
@example((association(5, 2, [[1], [1, 2], [3], [3, 4], [4, 5]]), frozenset({1, 2, 4, 5})))
# User k = 3 takes R with nobody to wait on, then user 2 takes R after it.
@example((association(3, 2, [[1], [2], [2, 3]]), frozenset({2, 3})))
def test_uplink_feasible_matches_full_scan(case):
    assoc, active = case
    assert uplink_feasible(assoc, active) == ref_uplink_feasible(assoc, active)


def test_uplink_feasible_matches_full_scan_on_every_small_case():
    for k in range(1, 4):
        for nc in (1, 2):
            cells = [c for r in range(nc + 1) for c in itertools.combinations(range(1, k + 1), r)]
            for combo in itertools.product(cells, repeat=k):
                assoc = association(k, nc, combo)
                for active in subsets(range(1, k + 1)):
                    expected = ref_uplink_feasible(assoc, active)
                    assert uplink_feasible(assoc, active) == expected, (combo, active)


def gain(ch, i, j):
    """g(i, j) of the realization: 0 unless user i hears bs j, i.e. j is i - 1 or i."""
    if 1 <= i <= ch.k and j in (i - 1, i):
        return (ch.left if j == i - 1 else ch.diag)[i]
    return 0


def line_pairs(k):
    """The 2k - 1 connected (user, bs) pairs in draw order."""
    return [(i, j) for i in range(1, k + 1) for j in (i - 1, i) if j >= 1]


def with_zeros(ch, zeroed):
    """The realization with the coefficients at the given positions set to 0.

    Positions count the connected pairs in draw order (line_pairs).
    """
    pairs = line_pairs(ch.k)
    zero = {pairs[i] for i in zeroed if i < len(pairs)}
    left = tuple(0 if (i, i - 1) in zero else g for i, g in enumerate(ch.left))
    diag = tuple(0 if (i, i) in zero else g for i, g in enumerate(ch.diag))
    return ChannelRealization(k=ch.k, prime=ch.prime, seed=ch.seed, left=left, diag=diag)


def subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, n) for n in range(len(items) + 1)
    )


@SETTINGS
@given(
    st.one_of(windowed(), wide()),
    st.integers(0, 2**31 - 2),
    primes,
    # Positions of zeroed coefficients; half the draws stay honest.
    st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, 26))),
)
def test_zf_feasible_matches_full_scan_rows(case, seed, prime, zeroed):
    assoc, active = case
    active = frozenset(m for m in active if assoc.cells[m - 1])
    ch = with_zeros(draw_channels(assoc.k, seed, prime), zeroed)
    assert zf_feasible(assoc, active, ch) == ref_zf_feasible(assoc, active, ch)


def ref_verify_witness(witness, assoc, active, ch):
    """Sum every precoder at every active user, mod p."""
    p = ch.prime
    if witness.prime != p or set(witness.precoders) != set(active):
        return False
    for m, vec in witness.precoders.items():
        if not set(vec) <= set(assoc.cells[m - 1]):
            return False
        for r in active:
            heard = sum(gain(ch, r, j) * v for j, v in vec.items()) % p
            if (heard != 0) != (r == m):
                return False
    return True


TAMPERS = (
    "honest",
    "zero made nonzero",
    "nonzero zeroed",
    "key outside C_m",
    "missing message",
    "extra message",
)


def tampered(witness, assoc, active, how, pick, value):
    """The witness with one change of the kind how, or unchanged when none applies.

    pick chooses where the change goes among the places it can go, and
    value the coefficient it writes.
    """
    p, k = witness.prime, assoc.k
    precoders = {m: dict(vec) for m, vec in witness.precoders.items()}
    entries = sorted((m, j) for m, vec in precoders.items() for j in vec)
    if how in ("zero made nonzero", "nonzero zeroed"):
        wanted = how == "nonzero zeroed"
        places = [(m, j) for m, j in entries if (precoders[m][j] != 0) == wanted]
        if places:
            m, j = places[pick % len(places)]
            precoders[m][j] = 0 if wanted else 1 + value % (p - 1)
    elif how == "key outside C_m":
        places = [
            (m, j) for m in sorted(precoders) for j in range(k + 2) if j not in assoc.cells[m - 1]
        ]
        if places:
            m, j = places[pick % len(places)]
            precoders[m][j] = value % p
    elif how == "missing message" and precoders:
        del precoders[sorted(precoders)[pick % len(precoders)]]
    elif how == "extra message" and len(active) < k:
        idle = sorted(set(range(1, k + 1)) - active)
        precoders[idle[pick % len(idle)]] = {}
    return ZfWitness(seed=witness.seed, prime=p, precoders=precoders)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(windowed(), wide()),
    st.integers(0, 2**31 - 2),
    primes,
    st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, 26))),
    st.sampled_from(TAMPERS),
    st.integers(0, 2**16),
    st.integers(0, 2**31),
)
# Message 3's zero coefficient on bs 1 made nonzero reaches active user 1
# at its own bs only: user 2, which hears bs 1 too, is idle.
@example(
    (association(3, 2, [[1], [], [1, 3]]), frozenset({1, 3})),
    1, DEFAULT_PRIME, frozenset(), "zero made nonzero", 0, 5,
)
# Message 2's zero coefficient on bs 2 made nonzero reaches active user 3
# at bs 2 only; user 2 itself still hears its message.
@example(
    (association(3, 2, [[], [1, 2], [3]]), frozenset({2, 3})),
    1, DEFAULT_PRIME, frozenset(), "zero made nonzero", 0, 5,
)
# Active user 2 hears message 1 on both its stations, g(2, 1) and g(2, 2)
# against precoder entries that must cancel.
@example(
    (association(3, 2, [[1, 2], [2], []]), frozenset({1, 2})),
    1, DEFAULT_PRIME, frozenset(), "honest", 0, 0,
)
def test_verify_witness_matches_dense_reference(case, seed, prime, zeroed, how, pick, value):
    assoc, active = case
    active = frozenset(m for m in active if assoc.cells[m - 1])
    ch = with_zeros(draw_channels(assoc.k, seed, prime), zeroed)
    honest = zf_feasible(assoc, active, ch)
    if honest is None:
        # No witness exists on this draw: tamper with all-ones precoders instead.
        honest = ZfWitness(
            seed=seed,
            prime=prime,
            precoders={m: dict.fromkeys(assoc.cells[m - 1], 1) for m in active},
        )
    elif how == "honest":
        assert verify_witness(honest, assoc, active, ch)
    witness = tampered(honest, assoc, active, how, pick, value)
    expected = ref_verify_witness(witness, assoc, active, ch)
    assert verify_witness(witness, assoc, active, ch) == expected


def test_zf_feasible_matches_rref_on_every_small_case():
    # Every message m, cell of m, set of other active users and zero
    # pattern of one GF(13) draw at k <= 4.  Honest draws have no zero gain,
    # so only the zero patterns exercise the zero tests of the link, pin and
    # reach rules.  The other active users hold the whole line: a shorter
    # cell only stops a run walk sooner, where the run is pinned, so a
    # message served by any cell is served by that one.  Where another
    # active user has no witness, no association has one, and m's precoder
    # is no output of zf_feasible.
    outcomes = {"left run": 0, "right run": 0, "no witness": 0, "empty cell": 0}
    for k in range(1, 5):
        base = draw_channels(k, 1, 13)
        draws = [with_zeros(base, z) for z in subsets(range(2 * k - 1))]
        line = range(1, k + 1)
        for m in line:
            others = [r for r in line if r != m]
            for cell in subsets(line):
                for rest in subsets(others):
                    active = frozenset((m, *rest))
                    cells = [cell if i == m else line if i in rest else () for i in line]
                    assoc = association(k, k, cells)
                    for ch in draws:
                        if not cell:
                            with pytest.raises(EmptyCellError):
                                zf_feasible(assoc, active, ch)
                            outcomes["empty cell"] += 1
                            continue
                        got = zf_feasible(assoc, active, ch)
                        assert got == ref_zf_feasible(assoc, active, ch), (
                            k, m, cell, active, ch.left, ch.diag,
                        )
                        if got is None:
                            outcomes["no witness"] += 1
                        elif got.precoders[m].get(m - 1) == 1:  # the left run ends at m - 1
                            outcomes["left run"] += 1
                        else:
                            outcomes["right run"] += 1
    assert outcomes == {"left run": 5112, "right run": 7074, "no witness": 52040, "empty cell": 4514}
    assert sum(outcomes.values()) == 68740


@st.composite
def linked_runs(draw):
    """(k, a, c, left, diag, cell, side): unreduced gain rows, a run [a, c] in cell.

    The rows run over users 0..k+1 and get 0 in the off-line slots; the
    cell may hold columns off the run and off the line (0 and k + 1).  side
    says which run of its message [a, c] is: the left run of user c + 1 or
    the right run of user a.
    """
    k = draw(st.integers(2, 62))
    a = draw(st.integers(1, k - 1))
    c = draw(st.integers(a, k - 1))
    row = st.lists(st.integers(0, 2**64), min_size=k + 2, max_size=k + 2)
    extra = draw(st.frozensets(st.integers(0, k + 1)))
    side = draw(st.sampled_from(("left", "right")))
    return k, a, c, draw(row), draw(row), extra | frozenset(range(a, c + 1)), side


@SETTINGS
@given(primes, linked_runs())
@example(13, (4, 1, 3, [0, 0, 2, 3, 5, 0], [0, 1, 2, 3, 5, 0], frozenset({1, 2, 3}), "left"))
@example(13, (4, 1, 3, [0, 0, 2, 3, 5, 0], [0, 1, 2, 3, 5, 0], frozenset({0, 1, 2, 3, 5}), "right"))
def test_zf_feasible_matches_one_inverse_per_link(prime, run):
    # Runs of up to 60 links, where the exhaustive k <= 4 check above
    # reaches 3.  The users linking the run are active with both gains
    # nonzero, and the user at its free end is not, so its message takes
    # it; every user in the run serves its own message along a piece of it.
    k, a, c, left, diag, cell, side = run
    rest = range(a + 1, c + 1)
    for r in rest:
        left[r] = left[r] % prime or 1
        diag[r] = diag[r] % prime or 1
    if side == "left":
        m = c + 1
        left[m] = left[m] % prime or 1
        pieces = {r: range(a, r) for r in rest}  # the left run [a, r - 1] of user r
    else:
        m = a
        left[m], diag[m] = 0, diag[m] % prime or 1  # user m hears bs m alone
        pieces = {r: range(r, c + 1) for r in rest}  # the right run [r, c] of user r
    left[0] = left[1] = diag[0] = left[k + 1] = diag[k + 1] = 0
    ch = ChannelRealization(k=k, prime=prime, seed=1, left=tuple(left), diag=tuple(diag))
    cells = [cell if i == m else pieces.get(i, ()) for i in range(1, k + 1)]
    got = zf_feasible(association(k, k, cells), frozenset((m, *rest)), ch)
    rows = [g % prime for g in left], [g % prime for g in diag]
    assert got is not None
    assert got.precoders[m] == ref_run_precoder(cell, a, c, *rows, prime)
    for r, piece in pieces.items():
        assert got.precoders[r] == ref_run_precoder(piece, piece[0], piece[-1], *rows, prime)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), seeds_st, primes)
def test_pair_plan_matches_cumulative_certification(k, seeds, prime):
    seeds = tuple(seeds)
    assert avg_optimal(k, 2, seeds=seeds) == ref_avg_plan_pair(k, seeds, prime)


@SETTINGS
@given(
    st.sampled_from((avg_optimal, downlink_optimal)),
    st.integers(1, 4),
    st.integers(1, 60),
    seeds_st,
    primes,
)
def test_every_plan_passes_both_references(builder, nc, k, seeds, prime):
    plan = builder(k, nc, seeds=tuple(seeds))
    assoc = plan.assoc
    stripped = strip_silent(assoc, plan.dl_silent_bs)
    feasible, witness = zf_feasible_majority(
        stripped, plan.dl_active_users, seeds=tuple(seeds), prime=prime
    )
    assert feasible and witness is not None
    assert _kernels.dl_set_feasible(k, stripped.cells, plan.dl_active_users)
    assert _kernels.ul_set_feasible(assoc.cells, plan.ul_active_users)
    order = ref_uplink_feasible(assoc, plan.ul_active_users)
    assert order is not None and verify_order(order, assoc, plan.ul_active_users)


@SETTINGS
@given(st.one_of(windowed(max_k=12), wide()), st.integers(0, 2**31 - 2), primes)
# Message 3's left run {1, 2} is closed only by an active run of length 2,
# so a downlink run cap below the longest left side would serve it.
@example((association(3, 3, [[1, 2, 3], [2, 3], [1, 2]]), frozenset({1, 2, 3})), 1, 13)
# Message 1 is served because user 2, which holds bs 1 too, is inactive.
@example((association(2, 1, [[1], [1]]), frozenset({1})), 1, 13)
def test_rules_match_oracles(case, seed, prime):
    assoc, active = case
    k, cells = assoc.k, assoc.cells
    ch = draw_channels(k, seed, prime)
    # zf_feasible refuses an active user with an empty set; it is never served.
    served = all(assoc.cells[m - 1] for m in active) and (
        zf_feasible(assoc, active, ch) is not None
    )
    assert _kernels.dl_set_feasible(k, cells, active) == served
    decodable = uplink_feasible(assoc, active) is not None
    assert _kernels.ul_set_feasible(cells, active) == decodable


@SETTINGS
@given(st.one_of(windowed(max_k=12), wide()), st.integers(0, 2**31 - 2), primes)
# User 1 decodes at R, so user 2 is allowed from R, not only from idle.
@example((association(2, 2, [[1], [1, 2]]), frozenset()), 1, 13)
# Message 1 leaves user 2 due to be inactive; once user 2 is, message 3 is
# served from idle.
@example((association(3, 2, [[1], [], [2]]), frozenset()), 1, 13)
def test_line_dp_matches_branch_and_bound(case, seed, prime):
    assoc, _active = case
    k, cells = assoc.k, assoc.cells
    ch = draw_channels(k, seed, prime)
    # zf_feasible refuses an active user with an empty set, so those are skipped.
    dl_candidates = [m for m in range(1, k + 1) if cells[m - 1]]
    dl = ref_max_active(dl_candidates, lambda s: zf_feasible(assoc, s, ch) is not None)
    assert _kernels.dl_max_active(k, cells) == dl
    ul_candidates = [m for m in range(1, k + 1) if assoc.cells[m - 1] & connected_bs(m, k)]
    ul = ref_max_active(ul_candidates, lambda s: uplink_feasible(assoc, s) is not None)
    assert _kernels.ul_max_active(cells) == ul


@SETTINGS
@given(st.one_of(windowed(max_k=80), wide(max_k=80)))
def test_line_maxima_match_the_line_dp_on_long_lines(case):
    # The branch and bound stops at k = 12; the backward DP reaches any k.
    assoc, _active = case
    k, cells = assoc.k, assoc.cells
    dl_rule, ul_rule, chain_rule = family_rules(k, [(cell,) for cell in cells])
    assert _kernels.dl_max_active(k, cells) == ref_line_dp(dl_rule, cells)
    assert _kernels.ul_max_active(cells) == ref_line_dp(ul_rule, cells)
    assert _kernels.chain_max(cells) == len(ref_line_dp(chain_rule, cells))


def test_chain_dp_matches_reference_on_every_flag_set():
    for k in range(1, 11):
        for bits in itertools.product((False, True), repeat=k - 1):
            flags = tuple(i for i, flagged in enumerate(bits, 1) if flagged)
            assert _chain_dp(k, flags) == ref_chain_dp(k, flags), (k, flags)


@SETTINGS
@given(st.one_of(windowed(), wide()))
def test_chain_rule_matches_reference_dp(case):
    assoc, _active = case
    assert _kernels.chain_max(assoc.cells) == ref_chain_dp(assoc.k, chain_flags(assoc))


@settings(max_examples=80, deadline=None)
@given(families())
# Its tables hold forbidden moves, which gain nothing.
@example((3, search._user_options(3, 2, 1)))
def test_layer_moves_match_the_reference_fold(family):
    # A layer is one state at its count.  Fed the whole layer (idle one
    # below, as an inactive user before it left it), the reference keeps
    # the move's state alone at its largest count, the same gain, and
    # nothing below it but idle.
    k, options = family
    for rule, covers in zip(family_rules(k, options), (dl_covers, ul_covers, chain_covers)):
        idle, step_of = rule[1], rule[3]
        _start, moves, _step = _pure.rule_part(rule)
        _start, _users, rows, _last = rule_graph((rule, rule), options, (1, 1))
        # Each state the family's graph of the rule beside itself reaches
        # before a user, with each step of that user.
        met = {
            (state, step_of(m, cell))
            for m, (opts, row_of) in enumerate(zip(options, rows), 1)
            for state, _same in row_of
            for cell in opts
        }
        for state, step in met:
            [(after, _weighted, gain)] = moves([step], state, 1)
            layer = {idle: -1, state: 0}
            expected, expected_gain = ref_layer_move(ref_automaton(rule, covers), layer, step)
            top = frozenset(s for s, n in expected.items() if n == 0)
            assert (frozenset((after,)), gain) == (top, expected_gain), (state, step)
            assert all(n == 0 or (s, n) == (idle, -1) for s, n in expected.items()), expected


@settings(max_examples=200, deadline=None)
@given(families(), st.data())
def test_decode_matches_product_order(family, data):
    _k, options = family
    total = math.prod(map(len, options))
    index = data.draw(st.integers(0, total - 1))
    listed = itertools.product(*options)
    assert search._decode(options, index) == next(itertools.islice(listed, index, None))


def test_only_the_winner_and_the_violations_become_associations():
    built = []
    real = search.association

    def counted(*args):
        built.append(args)
        return real(*args)

    with mock.patch.object(search, "association", counted):
        for k, nc, w in SMALL_FAMILIES:
            result = search.exhaustive_search(k, nc, w)
            assert len(built) == 1 and real(*built.pop()) == result.best_assoc
            assert search.soundness_sweep(k, nc, w).sound
            assert built == []


def test_zeroed_prime_13_realizations_build():
    base = draw_channels(4, 1, 13)
    for zeroed in subsets(range(7)):
        ch = with_zeros(base, zeroed)
        zeros = sum(gain(ch, i, j) == 0 for i, j in line_pairs(4))
        assert ch.prime == 13 and zeros == len(zeroed)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_FAMILIES))
def test_search_winner_is_the_first_maximizer_at_its_index(family):
    k, nc, w = family
    sums = [(dl, ul) for _combo, dl, ul in ref_session_sums(k, search._user_options(k, nc, w))]
    listed = list(search.enumerate_associations(k, nc, w))
    for objective, (dl_weight, ul_weight) in OBJECTIVE_WEIGHTS.items():
        result = search.exhaustive_search(k, nc, w, objective)
        assert result.candidates == search.count_associations(k, nc, w) == len(sums)
        # The rows read off the graph (family_texts) are the reference sums too.
        assert [(dl, ul) for _index, dl, ul in result.rows] == sums
        keys = [dl_weight * dl + ul_weight * ul for dl, ul in sums]
        assert result.best_index == keys.index(max(keys))
        assert result.best_assoc == listed[result.best_index]


def test_search_rows_index_like_the_reference_list():
    for k, nc, w in SMALL_FAMILIES:
        options = search._user_options(k, nc, w)
        _combos, dls, uls = zip(*ref_session_sums(k, options))
        n = len(dls)
        expected = list(zip(range(n), dls, uls))
        rows = search.exhaustive_search(k, nc, w).rows
        assert len(rows) == n and list(rows) == expected
        assert rows[-1] == expected[-1] and rows[-n] == expected[0]
        assert rows[2:7] == tuple(expected[2:7])
        assert rows[::-3] == tuple(expected[::-3])
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                rows[index]


@SETTINGS
@given(st.one_of(windowed(max_k=12), wide()))
# User 5 holds the middle bs 2 of block 1 from three stations away.
@example((association(5, 2, [[1], [2], [2, 3], [4], [2, 5]]), frozenset()))
def test_sweep_bounds_match_certificates(case):
    assoc, _active = case
    k, nc = assoc.k, assoc.nc
    if nc == 1:  # blocks are defined for nc >= 2 only
        return
    for strict in (False, True):
        assert ref_good_blocks(k, nc, assoc.cells, strict) == tuple(
            f.good for f in _block_flags(assoc, strict)
        )
    # The sweep's values, on the family that offers each user its own set.
    one_each = [(tuple(sorted(cell)),) for cell in assoc.cells]
    assert swept_reconstruction_values(k, nc, one_each) == [reconstruction_bound(assoc).value]


def ref_or_mask_flags(k, nc, cells, strict):
    """(block, start, good) per full block, in the OR-mask form.

    Each user's spoiled blocks are an int bitmask, bit b for block b + 1,
    the masks are ORed over the users, and goodness is read bit by bit
    off the bit string of the OR.
    """
    length = 2 * nc - 1
    full = k // length
    spoiled = 0
    for i, cell in enumerate(cells, 1):
        b, r = divmod(i - nc, length)  # user i is local to block b + 1 when r < 2
        if r < 2 and 0 <= b < full and i - r not in cell:
            spoiled |= 1 << b
        for j in cell if strict else ():
            b, r = divmod(j - nc, length)  # j is the middle bs of block b + 1 when r = 0
            if not r and 0 <= b < full and i - j not in (0, 1):
                spoiled |= 1 << b
    bits = f"{spoiled:0{full}b}"[::-1]
    return tuple((b + 1, b * length + 1, bits[b] == "0") for b in range(full))


@SETTINGS
@given(st.one_of(windowed(max_k=40), wide()))
# User 5 holds the middle bs 2 of block 1 from three stations away.
@example((association(5, 2, [[1], [2], [2, 3], [4], [2, 5]]), frozenset()))
def test_block_flags_match_the_or_mask_form(case):
    assoc, _active = case
    k, nc = assoc.k, assoc.nc
    if nc == 1:  # blocks are defined for nc >= 2 only
        return
    for strict in (False, True):
        flags = _block_flags(assoc, strict)
        assert [(f.block, f.start, f.good) for f in flags] == list(
            ref_or_mask_flags(k, nc, assoc.cells, strict)
        ), strict
    # A sweep's spoiled part spoils the same blocks along the association:
    # its steps name their middle base stations, and its gains count each once.
    one_each = [(tuple(sorted(cell)),) for cell in assoc.cells]
    _start, _moves, step = _spoil_part(k, nc, k)
    mids = {m + o for m, [cell] in enumerate(one_each, 1) for o in step(m, cell)}
    assert mids == {f.start + nc - 1 for f in flags if not f.good}
    assert swept_spoiled(k, nc, one_each) == [len(mids)]


@SETTINGS
@given(windowed())
def test_issued_certificates_verify_after_a_json_round_trip(case):
    assoc, _active = case
    for kind, issue in ISSUERS.items():
        if kind == KIND_RECONSTRUCTION and assoc.nc < 2:  # no such certificate at nc = 1
            continue
        cert = issue(assoc)
        assert cert.kind == kind
        assert verify_certificate(BoundCertificate.from_json(cert.to_json()), assoc), kind


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_FAMILIES), families(), st.integers(2, 4))
# User 1 may hold bs 2, the middle of block 1, which user 3 spoils again
# after user 2 has passed it.
@example((3, 2, 1), (1, [[()]]), 2)
def test_reconstruction_values_match_certificates(small, part, nc):
    # Whole small families, and parts of families under a budget that
    # covers every option; blocks are defined for nc >= 2 only.
    k, small_nc, w = small
    part_k, part_options = part
    part_nc = max([nc] + [len(cell) for opts in part_options for cell in opts])
    cases = (
        (k, max(small_nc, 2), search._user_options(k, small_nc, w)),
        (part_k, part_nc, part_options),
    )
    for k, budget, options in cases:
        expected = [
            reconstruction_bound(association(k, budget, combo)).value
            for combo in itertools.product(*options)
        ]
        assert swept_reconstruction_values(k, budget, options) == expected, (k, budget)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_FAMILIES), st.integers(0, 2), st.integers(0, 2))
# Six violators of the chain bound, at six distinct indices.
@example((2, 1, 1), 0, 1)
def test_sweep_matches_reference_sweep(family, dl_extra, ul_extra):
    # Raised sums make the certificates fail, so violations are compared too.
    k, nc, w = family
    options = search._user_options(k, nc, w)
    sums = [
        (c, dl + dl_extra, ul + ul_extra, ref_chain_dp(k, chain_flags(association(k, nc, c))))
        for c, dl, ul in ref_session_sums(k, options)
    ]
    tight, violations = ref_sweep(k, nc, [row[:3] for row in sums])
    real = search.rule_part

    def raised(rule):
        # The passes' downlink and uplink parts gain the extras; the chain part does not.
        extra = ul_extra if rule is _pure.UL_RULE else 0 if rule is _pure.CHAIN_RULE else dl_extra
        return raised_part(real(rule), extra)

    with mock.patch.object(search, "rule_part", raised):
        report = search.soundness_sweep(k, nc, w)
    assert report.total == len(sums)
    assert report.tight == tight
    assert list(report.violations) == violations


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.integers(1, 3),
            st.lists(st.lists(st.integers(-1, k + 2), max_size=4), min_size=k, max_size=k),
        )
    )
)
def test_validation_matches_the_walk_over_every_user(case):
    # The valid case is decided from the whole association at once.
    assoc = association(*case)
    assert [(v.i, v.reason) for v in validate_association(assoc)] == ref_violations(assoc)


# --- the distinct-tuple walk --------------------------------------------------


def family_rules(k, options):
    """The downlink, uplink and chain rules over a family.

    The downlink run is capped at the longest left side of any option,
    read off the options themselves.
    """
    cap = max(
        (_pure._dl_step(k, m, cell)[0] for m, opts in enumerate(options, 1) for cell in opts),
        default=0,
    )
    return _pure.dl_rule(k, cap), _pure.UL_RULE, _pure.CHAIN_RULE


def rule_graph(rules, options, weights):
    """The family graph of two line rules (family_graph over each rule's rule_part and its steps)."""
    parts = [_pure.rule_part(rule) for rule in rules]
    return _kernels.family_graph(parts, [_kernels.part_steps(part, options) for part in parts], weights)


def ref_rule_sums(k, options):
    """The (dl, ul, chain) of each candidate in enumeration order, each maximized from scratch."""
    # Every family has nc <= 3, and chain_flags does not read nc.
    return [
        (dl, ul, ref_chain_dp(k, chain_flags(association(k, 3, combo))))
        for combo, dl, ul in ref_session_sums(k, options)
    ]


@settings(max_examples=80, deadline=None)
@given(families())
# Forbidden moves from states other than idle.
@example((3, search._user_options(3, 1, 1)))
def test_text_pass_and_rows_match_the_listing(family):
    k, options = family
    expected = ref_rule_sums(k, options)
    rules = family_rules(k, options)
    text = "%d,%d;".__mod__
    # Each pair of the (dl, ul, chain) rules, so that every rule meets the pass.
    for a, b in itertools.combinations(range(3), 2):
        texts = [text((sums[a], sums[b])) for sums in expected]
        graph = rule_graph((rules[a], rules[b]), options, (1, 1))
        # At every depth, one piece per prefix in enumeration order: the
        # texts of its subtree's candidates, joined in enumeration order.
        for depth in range(k + 1):
            size = math.prod(map(len, options[depth:]))
            pieces = list(_kernels.family_texts(graph, text, depth))
            assert pieces == ["".join(texts[i : i + size]) for i in range(0, len(texts), size)], (a, b)
    # A search's rows over the (dl, ul) graph, read whole, by index and by slice.
    reference = [(i, dl, ul) for i, (dl, ul, _chain) in enumerate(expected)]
    rows = search._Rows(rule_graph(family_rules(k, options)[:2], options, (1, 1)), len(expected))
    assert list(rows) == reference
    n = len(reference)
    assert [rows[i] for i in range(-n, n)] == reference + reference
    for part in (slice(None), slice(None, None, -1), slice(1, None, 2), slice(-3, None),
                 slice(2, -1, 3), slice(n, None), slice(-n - 5, n + 5)):
        assert rows[part] == tuple(reference[part]), part
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[i]


@settings(max_examples=100, deadline=None)
@given(families())
# Options out of sorted order: a class's first option is not its smallest set.
@example((3, [[(1, 2), (1,), ()], [(2,), (1, 2, 3), (1,)], [(3,), (2, 3), ()]]))
def test_max_plus_pass_finds_the_first_maximizer_on_any_option_lists(family):
    k, options = family
    dl_rule, ul_rule, _chain_rule = family_rules(k, options)
    sums = [(dl, ul) for _combo, dl, ul in ref_session_sums(k, options)]
    # B = k + 1 > k: the largest dl + ul first, then the largest ul among those.
    for weights in (*OBJECTIVE_WEIGHTS.values(), (k + 1, k + 2)):
        keys = [weights[0] * dl + weights[1] * ul for dl, ul in sums]
        index = keys.index(max(keys))
        graph = rule_graph((dl_rule, ul_rule), options, weights)
        assert _kernels.family_best(graph) == (index, sums[index])


@settings(max_examples=100, deadline=None)
@given(families(), st.permutations(range(3)), st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       st.integers(-1, 1), st.booleans())
# Options out of sorted order, and several above the bound.
@example((3, [[(1, 2), (1,), ()], [(2,), (1, 2, 3), (1,)], [(3,), (2, 3), ()]]), (0, 1, 2), (1, 1), -1,
         False)
# Classes of several options each after the first user, the bound at the best sum.
@example((3, search._user_options(3, 1, 1)), (0, 1, 2), (1, 1), 0, True)
def test_count_pass_matches_the_listing_on_any_option_lists(family, order, weights, shift, at_max):
    # Two of the three rules, weighted, against a bound at, next to or inside the range of sums.
    k, options = family
    rules = family_rules(k, options)
    a, b = order[:2]
    sums = [(s[a], s[b]) for s in ref_rule_sums(k, options)]
    values = [weights[0] * x + weights[1] * y for x, y in sums]
    bound = (max(values) if at_max else sorted(values)[len(values) // 2]) + shift
    tight, above = _kernels.family_above(rule_graph((rules[a], rules[b]), options, weights), bound)
    assert tight == values.count(bound)
    assert above == [(i, s) for i, (s, v) in enumerate(zip(sums, values)) if v > bound]
