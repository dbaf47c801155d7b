"""Property tests: the local oracles against full-scan reference oracles.

The references below are the scan-everything form of the uplink scheduler,
the dense row reduction that built zero-forcing witnesses before the
back-substitution along the line, the cumulative per-block
certification of the nc = 2 average-optimal plan by a seed majority, the
include-first branch and bound that maximized both sessions before the
line DP, the hand-written chain DP that the chain rule of _kernels
replaced, and the per-candidate maximization and certificate checks that
searches and sweeps ran before the family DP.  The package's versions look
only at the users a decision can affect, or share work between candidates;
on random windowed associations and families they must return exactly what
the references return.  Every scheme plan must also pass the multi-seed
reference and both value-free rules.
"""

import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellassoc import _kernels, search
from cellassoc.bounds import (
    _block_flags,
    _block_layout,
    _chain_dp,
    _good_blocks,
    _reconstruction_value,
    chain_flags,
    counting_bound,
    lemma2_chain_bound,
    reconstruction_bound,
)
from cellassoc.downlink_zf import (
    ZfWitness,
    _message_witness,
    max_downlink_dof,
    strip_silent,
    zf_feasible,
    zf_feasible_majority,
)
from cellassoc.errors import InternalCheckError
from cellassoc.model import (
    DEFAULT_PRIME,
    ChannelRealization,
    association,
    connected_bs,
    draw_channels,
    frac_to_str,
    heard_mts,
)
from cellassoc.schemes import SchemePlan, avg_optimal, downlink_optimal, pair_association
from cellassoc.uplink_decode import DecodingOrder, uplink_feasible, verify_order

SETTINGS = settings(max_examples=150, deadline=None)


# --- reference oracles --------------------------------------------------------


def ref_step_allowed(assoc, active, decoded, m, b):
    if b not in assoc.cells[m - 1] or b not in connected_bs(m, assoc.k):
        return False
    for mp in heard_mts(b, assoc.k):
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
            rows.append([ch.coeffs.get((r, j), 0) for j in cols])

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
    desired = [ch.coeffs.get((m, j), 0) for j in cols]
    for f in (c for c in range(ncols) if c not in pivot_cols):
        vec = [0] * ncols
        vec[f] = 1
        for r_i, c in pivots:
            vec[c] = (-rows[r_i][f]) % p
        if sum(d * v for d, v in zip(desired, vec)) % p != 0:
            return {j: vec[idx] for idx, j in enumerate(cols)}
    return None


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
            ul = ul_memo[pruned] = len(_kernels.ul_max_active(k, pruned))
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


def with_zeros(ch, zeroed):
    """The realization with the coefficients at the given positions set to 0."""
    pairs = sorted(ch.coeffs)
    zero = {pairs[i] for i in zeroed if i < len(pairs)}
    coeffs = {pair: 0 if pair in zero else v for pair, v in ch.coeffs.items()}
    return ChannelRealization(k=ch.k, prime=ch.prime, seed=ch.seed, coeffs=coeffs)


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


def test_message_witness_matches_rref_on_every_small_case():
    # Every message, cell, active set and zero pattern of one GF(13) draw at
    # k <= 4.  Honest draws have no zero gain, so only the zero patterns
    # exercise the zero tests of the link, pin and reach rules.
    cases = 0
    for k in range(1, 5):
        base = draw_channels(k, 1, 13)
        draws = [with_zeros(base, z) for z in subsets(range(2 * k - 1))]
        for m in range(1, k + 1):
            others = [r for r in range(1, k + 1) if r != m]
            for cell in subsets(range(1, k + 1)):
                assoc = association(k, k, [cell if i == m else () for i in range(1, k + 1)])
                for rest in subsets(others):
                    active = frozenset((m, *rest))
                    for ch in draws:
                        got = _message_witness(assoc.cells[m - 1], active, ch, m)
                        assert got == ref_message_witness(assoc, active, ch, m), (
                            k, m, cell, active, ch.coeffs,
                        )
                        cases += 1
    assert cases == 68740


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), seeds_st, primes)
def test_pair_plan_matches_cumulative_certification(k, seeds, prime):
    seeds = tuple(seeds)
    assert avg_optimal(k, 2, seeds=seeds, prime=prime) == ref_avg_plan_pair(k, seeds, prime)


@SETTINGS
@given(
    st.sampled_from((avg_optimal, downlink_optimal)),
    st.integers(1, 4),
    st.integers(1, 60),
    seeds_st,
    primes,
)
def test_every_plan_passes_both_references(builder, nc, k, seeds, prime):
    plan = builder(k, nc, seeds=tuple(seeds), prime=prime)
    assoc = plan.assoc
    stripped = strip_silent(assoc, plan.dl_silent_bs)
    feasible, witness = zf_feasible_majority(
        stripped, plan.dl_active_users, seeds=tuple(seeds), prime=prime
    )
    assert feasible and witness is not None
    assert _kernels.dl_set_feasible(k, stripped.cells, plan.dl_active_users)
    assert _kernels.ul_set_feasible(k, assoc.cells, plan.ul_active_users)
    order = ref_uplink_feasible(assoc, plan.ul_active_users)
    assert order is not None and verify_order(order, assoc, plan.ul_active_users)


@SETTINGS
@given(st.one_of(windowed(max_k=12), wide()), st.integers(0, 2**31 - 2), primes)
# Message 3's left run {1, 2} is closed only by an active run of length 2,
# so a downlink run cap below the longest left side would serve it.
@example((association(3, 3, [[1, 2, 3], [2, 3], [1, 2]]), frozenset({1, 2, 3})), 1, 13)
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
    assert _kernels.ul_set_feasible(k, cells, active) == decodable


@SETTINGS
@given(st.one_of(windowed(max_k=12), wide()), st.integers(0, 2**31 - 2), primes)
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
    assert _kernels.ul_max_active(k, cells) == ul


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
def test_family_sums_match_per_candidate_maxima(family):
    k, options = family
    automata = (
        _kernels.dl_family(k, options),
        _kernels.ul_family(options),
        _kernels.chain_family(options),
    )
    # Every family has nc <= 3, and chain_flags does not read nc.
    expected = [
        (dl, ul, ref_chain_dp(k, chain_flags(association(k, 3, combo))))
        for combo, dl, ul in ref_session_sums(k, options)
    ]
    assert search._family_sums(k, options, automata) == [list(s) for s in zip(*expected)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_FAMILIES))
def test_search_winner_is_the_first_maximizer_at_its_index(family):
    k, nc, w = family
    sums = [(dl, ul) for _combo, dl, ul in ref_session_sums(k, search._user_options(k, nc, w))]
    listed = list(search.enumerate_associations(k, nc, w))
    for objective, (dl_weight, ul_weight) in {"avg": (1, 1), "ul": (0, 1), "dl": (1, 0)}.items():
        result = search.exhaustive_search(k, nc, w, objective)
        assert result.candidates == search.count_associations(k, nc, w) == len(sums)
        keys = [dl_weight * dl + ul_weight * ul for dl, ul in sums]
        assert result.best_index == keys.index(max(keys))
        assert result.best_assoc == listed[result.best_index]


@SETTINGS
@given(st.one_of(windowed(max_k=12), wide()))
# User 5 holds the middle bs 2 of block 1 from three stations away.
@example((association(5, 2, [[1], [2], [2, 3], [4], [2, 5]]), frozenset()))
def test_sweep_bounds_match_certificates(case):
    assoc, _active = case
    k, nc = assoc.k, assoc.nc
    if nc == 1:  # blocks are defined for nc >= 2 only
        return
    combo = tuple(tuple(sorted(cell)) for cell in assoc.cells)
    for strict in (False, True):
        assert _good_blocks(k, nc, combo, strict) == tuple(
            f.good for f in _block_flags(assoc, strict)
        )
    tail = _block_layout(k, nc)[2]
    recon = _reconstruction_value(nc, _good_blocks(k, nc, combo, True), tail)
    assert recon == reconstruction_bound(assoc).value


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_FAMILIES), st.integers(0, 2), st.integers(0, 2))
def test_sweep_matches_reference_sweep(family, dl_extra, ul_extra):
    # Raised sums make the certificates fail, so violations are compared too.
    k, nc, w = family
    options = search._user_options(k, nc, w)
    sums = [
        (c, dl + dl_extra, ul + ul_extra, ref_chain_dp(k, chain_flags(association(k, nc, c))))
        for c, dl, ul in ref_session_sums(k, options)
    ]
    tight, violations = ref_sweep(k, nc, [row[:3] for row in sums])
    lists = [list(s) for s in zip(*sums)][1:]
    with mock.patch.object(search, "_family_sums", lambda _k, _options, _automata: lists):
        report = search.soundness_sweep(k, nc, w)
    assert report.total == len(sums)
    assert report.tight == tight
    assert list(report.violations) == violations
