"""Acceptance gate: nine certified behaviors, each timed against its budget.

Every test prints one [criterion N] PASS/FAIL line through the capture
barrier so a plain pytest run shows the verdicts inline.
"""

import itertools
import random
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cellassoc import (
    GenericityWarning,
    association,
    average_per_user,
    avg_optimal,
    counting_bound,
    downlink_optimal,
    draw_channels,
    lemma2_chain_bound,
    max_downlink_dof,
    max_uplink_dof,
    pair_association,
    reconstruction_bound,
    strip_silent,
    uplink_feasible,
    verify_order,
    verify_witness,
    zf_feasible_majority,
)
from cellassoc._encode import channel_arrays
from cellassoc._kernels import _pure
from cellassoc.search import (
    PeriodicPattern,
    compare_with_theorem,
    exhaustive_search,
    periodic_eval,
    soundness_sweep,
    tau,
    tau_downlink,
)
from cellassoc.uplink_decode import prune


@pytest.fixture
def announce(capfd):
    def _announce(line):
        with capfd.disabled():
            print(line, flush=True)

    return _announce


@contextmanager
def criterion(announce, n, budget=None):
    info = {"detail": ""}
    t0 = time.perf_counter()
    try:
        yield info
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {n} took {elapsed:.2f}s, budget {budget}s"
            )
    except BaseException:
        announce(f"[criterion {n}] FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    announce(f"[criterion {n}] PASS {info['detail']} ({elapsed:.2f}s)")


def _recertify(plan):
    stripped = strip_silent(plan.assoc, plan.dl_silent_bs)
    feasible, witness = zf_feasible_majority(stripped, plan.dl_active_users)
    assert feasible and witness is not None
    ch = draw_channels(stripped.k, witness.seed, prime=witness.prime)
    assert verify_witness(witness, stripped, plan.dl_active_users, ch)
    order = uplink_feasible(plan.assoc, plan.ul_active_users)
    assert order is not None
    assert verify_order(order, plan.assoc, plan.ul_active_users)


def test_criterion_1_avg_scheme_claims(announce):
    cases = [
        (12, 2, 8, 12, Fraction(5, 6)),
        (20, 3, 16, 20, Fraction(9, 10)),
        (12, 1, 8, 8, Fraction(2, 3)),
    ]
    with criterion(announce, 1, budget=5) as info:
        for k, nc, dl, ul, avg in cases:
            plan = avg_optimal(k, nc)
            assert plan.claimed_dl_dof == dl
            assert plan.claimed_ul_dof == ul
            assert average_per_user(dl, ul, k) == avg
            assert avg == tau(nc)
            _recertify(plan)
        info["detail"] = "avg plans (12,2)=5/6 (20,3)=9/10 (12,1)=2/3 recertified"


def test_criterion_2_downlink_scheme_claims(announce):
    cases = [
        (7, 3, 6, Fraction(6, 7)),
        (21, 3, 18, Fraction(6, 7)),
        (10, 2, 8, Fraction(4, 5)),
        (5, 2, 4, Fraction(4, 5)),
    ]
    with criterion(announce, 2, budget=5) as info:
        for k, nc, dl, per_user in cases:
            plan = downlink_optimal(k, nc)
            assert plan.claimed_dl_dof == dl
            assert Fraction(dl, k) == per_user == tau_downlink(nc)
            _recertify(plan)
        info["detail"] = "downlink plans (7,3)=6 (21,3)=18 (10,2)=8 (5,2)=4 recertified"


def test_criterion_3_target_recursion(announce):
    with criterion(announce, 3, budget=5) as info:
        for nc in (2, 3, 4):
            cmp = compare_with_theorem(nc)
            assert cmp.relation_holds is True
            assert cmp.tau == (1 + tau_downlink(nc - 1)) / 2
        assert compare_with_theorem(1).relation_holds is None
        assert tau(2) == Fraction(5, 6)
        assert tau(3) == Fraction(9, 10)
        assert tau(4) == Fraction(13, 14)
        info["detail"] = "tau(nc) = (1 + tau_dl(nc-1))/2 for nc in {2,3,4}"


def test_criterion_4_pair6_downlink_maximum(announce):
    with criterion(announce, 4, budget=10) as info:
        assoc = pair_association(6)
        ev = max_downlink_dof(assoc)
        assert ev.sum_dof == 4
        assert ev.to_json()["exact"] is True and ev.to_json()["disagreements"] == 0
        assert sorted(ev.active_users) == [1, 3, 4, 6]
        ch = draw_channels(6, ev.witness.seed, prime=ev.witness.prime)
        assert verify_witness(ev.witness, assoc, ev.active_users, ch)
        # Independent cross-check: majority-vote every one of the 64
        # active sets and recompute the maximum from scratch.
        best = 0
        feasible_sets = []
        for bits in range(1 << 6):
            active = frozenset(i for i in range(1, 7) if bits >> (i - 1) & 1)
            ok, _w = zf_feasible_majority(assoc, active)
            if ok:
                feasible_sets.append(active)
                best = max(best, len(active))
        assert best == 4
        assert frozenset(ev.active_users) in feasible_sets
        info["detail"] = "pair(6) downlink max 4 confirmed over all 64 active sets"


def test_criterion_5_certificates_and_sweeps(announce):
    with criterion(announce, 5) as info:
        cert = counting_bound(pair_association(12))
        assert cert.value == 10 and cert.per_user == Fraction(5, 6)
        cert = counting_bound(avg_optimal(25, 3).assoc)
        assert cert.per_user == Fraction(9, 10)
        cert = lemma2_chain_bound(downlink_optimal(5, 2).assoc)
        assert cert.value == 3
        cert = reconstruction_bound(pair_association(6))
        assert cert.value == 4 == max_downlink_dof(pair_association(6)).sum_dof
        totals = {}
        for k, nc in ((3, 1), (3, 2), (6, 2)):
            report = soundness_sweep(k, nc, 1)
            assert report.sound, report.violations
            totals[(k, nc)] = report.total
            assert report.tight["chain"] > 0
        assert totals == {(3, 1): 36, (3, 2): 112, (6, 2): 38416}
        info["detail"] = (
            "certificate pins hold; 36 + 112 + 38416 swept associations sound"
        )


def test_criterion_6_exhaustive_searches(announce):
    with criterion(announce, 6, budget=600) as info:
        r = exhaustive_search(3, 1, 1, objective="avg")
        assert r.value == Fraction(2, 3)
        assert r.best_assoc.cells_as_lists() == [[], [1], [3]]
        assert r.best_index == 5
        r = exhaustive_search(3, 2, 1, objective="ul")
        assert r.value == 3 and r.best_assoc == pair_association(3)
        r = exhaustive_search(6, 2, 1, objective="avg")
        assert r.value == Fraction(5, 6)
        assert r.best_assoc == pair_association(6)
        assert r.to_json()["disagreements"] == 0
        assert r.value == r.bound.per_user
        info["detail"] = (
            "searches: (3,1) avg 2/3, (3,2) ul 3, (6,2) avg 5/6 = counting bound"
        )


def test_criterion_7_periodic_patterns_cannot_beat_target(announce):
    with criterion(announce, 7, budget=900) as info:
        menu = [
            s for r in range(3) for s in itertools.combinations((-1, 0, 1), r)
        ]
        assert len(menu) == 7
        total = affine = 0
        best = Fraction(0)
        for offsets in itertools.product(menu, repeat=3):
            pattern = PeriodicPattern(period=3, offsets=offsets)
            report = periodic_eval(pattern, 2)
            total += 1
            if report.avg_per_user is not None:
                affine += 1
                assert report.avg_per_user <= Fraction(5, 6), pattern
                best = max(best, report.avg_per_user)
        assert total == 343 and affine == 315
        assert best == Fraction(5, 6) == tau(2)
        info["detail"] = "343 period-3 patterns, 315 affine, best average 5/6"


def test_criterion_8_randomized_invariants(announce):
    rng = random.Random(20260814)
    counts = {"dl_closure": 0, "ul_closure": 0, "dl_monotone": 0, "ul_prune": 0}
    with criterion(announce, 8, budget=120) as info:
        with warnings.catch_warnings():
            warnings.simplefilter("error", GenericityWarning)
            rounds = 0
            while min(counts.values()) < 100:
                rounds += 1
                assert rounds <= 1000
                k = rng.randint(2, 8)
                nc = rng.randint(1, 3)
                cells = []
                for i in range(1, k + 1):
                    pool = [j for j in range(i - nc, i + nc + 1) if 1 <= j <= k]
                    size = rng.randint(0, min(nc, len(pool)))
                    cells.append(rng.sample(pool, size))
                assoc = association(k, nc, cells)

                dl = max_downlink_dof(assoc)
                if dl.witness is not None:
                    ch = draw_channels(k, dl.witness.seed, prime=dl.witness.prime)
                    assert verify_witness(dl.witness, assoc, dl.active_users, ch)
                sub = frozenset(u for u in dl.active_users if rng.random() < 0.5)
                ok, _w = zf_feasible_majority(assoc, sub)
                assert ok
                counts["dl_closure"] += 1

                ul = max_uplink_dof(assoc)
                if ul.order is not None:
                    assert verify_order(ul.order, assoc, ul.active_users)
                sub = frozenset(u for u in ul.active_users if rng.random() < 0.5)
                assert uplink_feasible(assoc, sub) is not None
                counts["ul_closure"] += 1

                assert max_uplink_dof(prune(assoc)).sum_dof == ul.sum_dof
                counts["ul_prune"] += 1

                grown = [list(c) for c in assoc.cells_as_lists()]
                changed = False
                for i in range(1, k + 1):
                    cell = grown[i - 1]
                    if len(cell) >= nc:
                        continue
                    pool = [
                        j
                        for j in range(i - nc, i + nc + 1)
                        if 1 <= j <= k and j not in cell
                    ]
                    if pool:
                        cell.append(rng.choice(pool))
                        changed = True
                if changed:
                    bigger = association(k, nc, grown)
                    assert (
                        max_downlink_dof(bigger).sum_dof >= dl.sum_dof
                    )
                    counts["dl_monotone"] += 1
        info["detail"] = (
            f"{rounds} random instances, k <= 8: closure, pruning, and "
            "monotonicity verified with zero genericity warnings"
        )


def _brute_dl(k, cells_sets, h0, h1, active, prime):
    # Witness search over every precoder vector in the field.
    for m in active:
        cols = sorted(cells_sets[m - 1])
        if not cols:
            return False
        found = False
        for v in itertools.product(range(prime), repeat=len(cols)):
            des = 0
            for j, vj in zip(cols, v):
                if j == m:
                    des = (des + h1[m - 1] * vj) % prime
                elif j == m - 1:
                    des = (des + h0[m - 1] * vj) % prime
            if des == 0:
                continue
            ok = True
            for r in active:
                if r == m:
                    continue
                leak = 0
                for j, vj in zip(cols, v):
                    if j == r:
                        leak = (leak + h1[r - 1] * vj) % prime
                    elif j == r - 1:
                        leak = (leak + h0[r - 1] * vj) % prime
                if leak:
                    ok = False
                    break
            if ok:
                found = True
                break
        if not found:
            return False
    return True


def _brute_ul(k, cells_sets, active):
    # Exhaustive decode-order enumeration.
    def rec(decoded):
        if decoded == set(active):
            return True
        for m in sorted(set(active) - decoded):
            for b in sorted(cells_sets[m - 1] & {m - 1, m}):
                if b < 1:
                    continue
                ok = True
                for mp in (b, b + 1):
                    if mp == m or mp > k or mp not in active:
                        continue
                    if mp not in decoded or b not in cells_sets[mp - 1]:
                        ok = False
                        break
                if ok and rec(decoded | {m}):
                    return True
        return False

    return rec(set())


def test_criterion_9_brute_force_equivalence(announce):
    from cellassoc.search import enumerate_associations

    prime = 13
    with criterion(announce, 9, budget=300) as info:
        checked = mismatches = 0
        for k in range(1, 5):
            ch = draw_channels(k, 1, prime=prime)
            h0, h1 = channel_arrays(ch)
            for assoc in enumerate_associations(k, 2, 1):
                for bits in range(1 << k):
                    active = [i for i in range(1, k + 1) if bits >> (i - 1) & 1]
                    dl_rank = _pure.dl_set_feasible(k, assoc.cells, active)
                    dl_brute = _brute_dl(k, assoc.cells, h0, h1, active, prime)
                    ul_fix = _pure.ul_set_feasible(k, assoc.cells, active)
                    ul_brute = _brute_ul(k, assoc.cells, active)
                    checked += 1
                    if dl_rank != dl_brute or ul_fix != ul_brute:
                        mismatches += 1
        assert checked == 13508
        assert mismatches == 0
        info["detail"] = (
            "13508 (association, active set) pairs over GF(13): "
            "rank and fixpoint oracles match brute force exactly"
        )
