"""Reference schemes: construction shapes, claims, certification."""

from dataclasses import replace
from fractions import Fraction

import pytest

from cellassoc import (
    DEFAULT_PRIME,
    DEFAULT_SEEDS,
    InternalCheckError,
    SchemePlan,
    SizeLimitError,
    ValidationError,
    average_per_user,
    avg_optimal,
    downlink_optimal,
    max_downlink_dof,
    max_uplink_dof,
    pair_association,
    strip_silent,
    uplink_feasible,
    zf_feasible_majority,
)
from cellassoc import schemes
from cellassoc.schemes import MAX_SCHEME_K, _certify_plan, _check_args


def test_pair_association_shape():
    a = pair_association(5)
    assert a.nc == 2
    assert a.cells_as_lists() == [[1], [1, 2], [2, 3], [3, 4], [4, 5]]
    assert pair_association(1).cells_as_lists() == [[1]]


def test_downlink_block_shape():
    # Block of 7 for nc = 3: descending suffixes, idle middle, ascending
    # prefixes of the middle bs cluster, last bs silent.
    plan = downlink_optimal(7, 3)
    assert plan.assoc.cells_as_lists() == [
        [1, 2, 3], [2, 3], [3], [], [4], [4, 5], [4, 5, 6],
    ]
    assert sorted(plan.dl_active_users) == [1, 2, 3, 5, 6, 7]
    assert sorted(plan.dl_silent_bs) == [7]
    assert plan.claimed_dl_dof == 6


def test_downlink_claims():
    for (k, nc), dl in [((7, 3), 6), ((21, 3), 18), ((10, 2), 8), ((5, 2), 4)]:
        plan = downlink_optimal(k, nc)
        assert plan.claimed_dl_dof == dl
        assert plan.claimed_dl_dof / k == Fraction(dl, k)


def test_downlink_partial_block():
    plan = downlink_optimal(9, 2)
    assert plan.claimed_dl_dof == 7
    assert plan.assoc.cells_as_lists()[5:] == [[6, 7], [7], [], [8]]


def test_downlink_matches_oracle_maximum():
    # The construction is not just feasible; it attains the oracle optimum
    # at sizes where the exact search is still comfortable.
    for (k, nc) in [(5, 2), (10, 2), (7, 3)]:
        plan = downlink_optimal(k, nc)
        assert max_downlink_dof(plan.assoc).sum_dof == plan.claimed_dl_dof


def test_avg_claims():
    cases = [
        ((12, 2), 8, 12, Fraction(5, 6)),
        ((20, 3), 16, 20, Fraction(9, 10)),
        ((12, 1), 8, 8, Fraction(2, 3)),
        ((6, 1), 4, 4, Fraction(2, 3)),
    ]
    for (k, nc), dl, ul, avg in cases:
        plan = avg_optimal(k, nc)
        assert plan.claimed_dl_dof == dl
        assert plan.claimed_ul_dof == ul
        assert average_per_user(dl, ul, k) == avg


def test_avg_ncone_shape():
    plan = avg_optimal(6, 1)
    assert plan.assoc.cells_as_lists() == [[1], [], [2], [4], [], [5]]
    assert sorted(plan.dl_active_users) == [1, 3, 4, 6]
    assert sorted(plan.ul_active_users) == [1, 3, 4, 6]
    assert 3 in plan.dl_silent_bs and 6 in plan.dl_silent_bs


def test_avg_pair_keeps_full_uplink():
    plan = avg_optimal(12, 2)
    assert plan.assoc == pair_association(12)
    assert sorted(plan.ul_active_users) == list(range(1, 13))
    assert len(plan.dl_active_users) == 8


def test_avg_wide_block_shape():
    plan = avg_optimal(10, 3)
    # Blocks of 5; within a block: pair membership plus cluster extensions,
    # middle user downlink-idle, last bs silent.
    assert plan.assoc.cells_as_lists()[:5] == [
        [1, 2], [1, 2], [2, 3], [3, 4], [3, 4, 5],
    ]
    assert sorted(plan.dl_silent_bs) == [5, 10]
    assert sorted(plan.dl_active_users) == [1, 2, 4, 5, 6, 7, 9, 10]


def test_avg_is_built_from_the_downlink_plan():
    # tau(nc) = (1 + tau_dl(nc - 1)) / 2 holds at every finite k, edges
    # included: the average sum is the nc - 1 downlink sum plus k.
    for nc in range(2, 6):
        for k in range(1, 61):
            avg = avg_optimal(k, nc)
            dl = downlink_optimal(k, nc - 1)
            assert avg.dl_active_users == dl.dl_active_users
            assert avg.ul_active_users == frozenset(range(1, k + 1))
    for k in range(1, 61):
        assert avg_optimal(k, 1) == downlink_optimal(k, 1)


def test_avg_partial_blocks():
    plan = avg_optimal(13, 2)
    assert plan.claimed_dl_dof == 9
    assert plan.claimed_ul_dof == 13
    plan = avg_optimal(14, 2)
    assert plan.claimed_dl_dof == 9
    plan = avg_optimal(4, 1)
    assert plan.claimed_dl_dof == 3
    assert plan.claimed_ul_dof == 3
    # Finite-size slack: the average beats the asymptotic 2/3 here.
    assert average_per_user(3, 3, 4) == Fraction(3, 4)


def test_plans_recertify_independently():
    for plan in (avg_optimal(12, 2), avg_optimal(9, 3), downlink_optimal(10, 2)):
        stripped = strip_silent(plan.assoc, plan.dl_silent_bs)
        feasible, witness = zf_feasible_majority(stripped, plan.dl_active_users)
        assert feasible and witness is not None
        assert uplink_feasible(plan.assoc, plan.ul_active_users) is not None


def test_avg_matches_oracle_maximum_at_small_k():
    plan = avg_optimal(6, 2)
    assert max_downlink_dof(plan.assoc).sum_dof == plan.claimed_dl_dof == 4
    assert max_uplink_dof(plan.assoc).sum_dof == plan.claimed_ul_dof == 6


def test_plan_json_roundtrip():
    plan = avg_optimal(7, 2)
    data = plan.to_json()
    assert data["claimed_dl_dof"] == "5"
    assert data["claimed_ul_dof"] == "7"
    assert SchemePlan.from_json(data) == plan
    with pytest.raises(ValidationError):
        SchemePlan.from_json({"assoc": plan.assoc.to_json()})


def test_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        avg_optimal(0, 1)
    with pytest.raises(ValidationError):
        downlink_optimal(5, 0)


def test_tiny_networks():
    for k in (1, 2):
        for nc in (1, 2, 3):
            plan_a = avg_optimal(k, nc)
            plan_d = downlink_optimal(k, nc)
            assert plan_a.claimed_ul_dof >= 1
            assert plan_d.claimed_dl_dof >= 1


def _tampered(plan, **changes):
    """The plan with the given sets replaced and its claims kept consistent."""
    plan = replace(plan, **changes)
    return replace(
        plan,
        claimed_dl_dof=Fraction(len(plan.dl_active_users)),
        claimed_ul_dof=Fraction(len(plan.ul_active_users)),
    )


def test_certification_refuses_tampered_plans():
    seeds, prime = DEFAULT_SEEDS, DEFAULT_PRIME
    # avg nc = 2, blocks of three: user 2 is idle and bs 3 silent in block one.
    avg = avg_optimal(12, 2)
    assert _certify_plan(avg, seeds, prime) == avg
    idle_served = _tampered(avg, dl_active_users=avg.dl_active_users | {2})
    # Un-silencing bs 3 alone cannot hurt (each precoder only gains a
    # column), so bs 2 is silenced in its place: message 3 is left with
    # bs 3, which active user 4 now hears.
    moved_silence = _tampered(avg, dl_silent_bs=avg.dl_silent_bs - {3} | {2})
    # downlink nc = 3, blocks of seven: user 4 has an empty set.
    dl = downlink_optimal(7, 3)
    assert not dl.assoc.cells[3]
    empty_uplink = _tampered(dl, ul_active_users=dl.ul_active_users | {4})
    for plan in (idle_served, moved_silence, empty_uplink):
        with pytest.raises(InternalCheckError):
            _certify_plan(plan, seeds, prime)


def test_refuses_oversized_networks_before_building(monkeypatch):
    def never(*_args):
        raise AssertionError("an association was built")

    monkeypatch.setattr(schemes, "association", never)
    for builder in (avg_optimal, downlink_optimal):
        with pytest.raises(SizeLimitError):
            builder(MAX_SCHEME_K + 1, 3)


def test_refuses_plans_with_too_many_entries_before_building(monkeypatch):
    # A plan holds up to k * min(nc, k) association entries.
    def never(*_args):
        raise AssertionError("an association was built")

    monkeypatch.setattr(schemes, "association", never)
    for builder in (avg_optimal, downlink_optimal):
        for k, nc in ((MAX_SCHEME_K, MAX_SCHEME_K), (4 * MAX_SCHEME_K // 5 + 1, 5), (2001, 2000)):
            with pytest.raises(SizeLimitError, match="association entries"):
                builder(k, nc)
    for k, nc in ((MAX_SCHEME_K, 4), (2000, 2000), (4 * MAX_SCHEME_K // 5, 5), (5, 10**12)):
        _check_args(k, nc, DEFAULT_SEEDS)
