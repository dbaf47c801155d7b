"""Decode-and-pass oracle: orders, fixpoint, pruning."""

import random

import pytest

from cellassoc import (
    DecodingOrder,
    ValidationError,
    association,
    max_uplink_dof,
    pair_association,
    uplink_feasible,
    verify_order,
)
from cellassoc.uplink_decode import prune


def test_pair_decodes_right_to_left():
    a = pair_association(6)
    order = uplink_feasible(a, range(1, 7))
    assert order is not None
    # Canonical order: the only initially eligible step is the last user at
    # its own bs; everything then unlocks leftwards.
    assert order.steps == ((6, 6), (5, 5), (4, 4), (3, 3), (2, 2), (1, 1))
    assert verify_order(order, a, range(1, 7))


def test_pair_max_is_all_users():
    for k in (1, 2, 5, 6, 11):
        ev = max_uplink_dof(pair_association(k))
        assert ev.sum_dof == k
        assert ev.to_json()["exact"] is True
        assert verify_order(ev.order, pair_association(k), ev.active_users)


def test_single_association_conflict():
    # Both users only reach bs 1; whoever decodes first blocks the other.
    a = association(2, 1, [[1], [1]])
    assert uplink_feasible(a, {1, 2}) is None
    assert uplink_feasible(a, {1}) is not None
    assert max_uplink_dof(a).sum_dof == 1


def test_isolated_pairs_value():
    a = association(3, 1, [[1], [], [2]])
    ev = max_uplink_dof(a)
    assert ev.sum_dof == 2
    assert sorted(ev.active_users) == [1, 3]


def test_idle_corridor_rescues_a_flagged_pair():
    # Users 4 and 5 share no bs with each other's decoders, yet both stay
    # active because user 1 is idle and 2, 3 decode at their left bss.
    a = association(6, 2, [[], [1, 2], [2, 3], [4], [4, 5], [5, 6]])
    active = {2, 3, 4, 5, 6}
    order = uplink_feasible(a, active)
    assert order is not None
    assert verify_order(order, a, active)
    assert max_uplink_dof(a).sum_dof == 5


def test_order_verification_rejects_tampering():
    a = pair_association(3)
    order = uplink_feasible(a, {1, 2, 3})
    assert order is not None
    # Reversing the steps decodes user 1 while user 2 is still pending.
    reversed_order = DecodingOrder(steps=tuple(reversed(order.steps)))
    assert not verify_order(reversed_order, a, {1, 2, 3})
    # Decoding at a bs outside the association set is illegal.
    bad_bs = DecodingOrder(steps=((3, 1),) + order.steps[1:])
    assert not verify_order(bad_bs, a, {1, 2, 3})
    # The order must cover exactly the active set.
    assert not verify_order(DecodingOrder(steps=order.steps[1:]), a, {1, 2, 3})


def test_unconnected_members_are_inert():
    # Far-away association members cannot decode; only {i-1, i} can.
    a = association(4, 2, [[1, 3], [4], [2], [3]])
    p = prune(a)
    assert p.cells_as_lists() == [[1], [], [2], [3]]
    for bits in range(16):
        active = {i for i in range(1, 5) if bits >> (i - 1) & 1}
        if any(not p.cell(i) for i in active):
            continue
        assert (uplink_feasible(a, active) is None) == (
            uplink_feasible(p, active) is None
        )


def test_prune_invariance_randomized():
    rng = random.Random(31)
    for _ in range(40):
        k = rng.randint(2, 8)
        cells = []
        for i in range(1, k + 1):
            cells.append(rng.sample(range(1, k + 1), rng.randint(0, min(3, k))))
        a = association(k, 3, cells)
        p = prune(a)
        ev_a = max_uplink_dof(a)
        ev_p = max_uplink_dof(p)
        assert ev_a.sum_dof == ev_p.sum_dof
        assert ev_a.active_users == ev_p.active_users


def test_downward_closure_on_max_set():
    rng = random.Random(17)
    for _ in range(30):
        k = rng.randint(2, 8)
        cells = [
            rng.sample(
                range(max(1, i - 1), min(k, i + 1) + 1),
                rng.randint(0, 2),
            )
            for i in range(1, k + 1)
        ]
        a = association(k, 2, cells)
        ev = max_uplink_dof(a)
        for drop in ev.active_users:
            assert uplink_feasible(a, ev.active_users - {drop}) is not None


def test_exact_beyond_former_limit():
    # The branch and bound used to stop being exact above 20 users.
    a = pair_association(25)
    ev = max_uplink_dof(a)
    assert ev.to_json()["exact"] is True
    assert ev.sum_dof == 25
    assert verify_order(ev.order, a, ev.active_users)


def test_active_set_validation():
    a = pair_association(3)
    with pytest.raises(ValidationError):
        uplink_feasible(a, {0})
    with pytest.raises(ValidationError):
        uplink_feasible(a, {4})


def test_order_json_roundtrip():
    a = pair_association(4)
    order = uplink_feasible(a, {1, 2, 3, 4})
    data = order.to_json()
    assert data == {"steps": [{"m": m, "bs": b} for m, b in order.steps]}
    assert DecodingOrder.from_json(data) == order
    with pytest.raises(ValidationError):
        DecodingOrder.from_json({"steps": [{"m": 1}]})
