"""Indexing, channel draws, association containers, rational helpers."""

import copy
import pickle
import random
from collections.abc import Hashable
from fractions import Fraction

import pytest

from cellassoc import (
    DEFAULT_PRIME,
    CellAssociation,
    EmptyCellError,
    ValidationError,
    association,
    average_per_user,
    connected_bs,
    draw_channels,
    frac_from_str,
    frac_to_str,
    uplink_feasible,
    validate_association,
    zf_feasible,
)
from cellassoc.bounds import BlockFlag, BoundCertificate, counting_bound, lemma2_chain_bound
from cellassoc.downlink_zf import DlEvaluation, ZfWitness, certify_downlink
from cellassoc.model import ChannelRealization, Violation, check_active
from cellassoc.schemes import SchemePlan, avg_optimal
from cellassoc.search import (
    PeriodicPattern,
    PeriodicReport,
    SearchResult,
    SweepReport,
    TheoremComparison,
    compare_with_theorem,
    exhaustive_search,
    periodic_eval,
    soundness_sweep,
)
from cellassoc.uplink_decode import DecodingOrder, UlEvaluation, max_uplink_dof


def test_connectivity_rule():
    k = 5
    for i in range(1, k + 1):
        assert i in connected_bs(i, k)
        if i >= 2:
            assert i - 1 in connected_bs(i, k)
    assert 2 not in connected_bs(1, 5)
    assert 5 not in connected_bs(3, 5)
    assert 2 not in connected_bs(4, 5)


def test_connectivity_rejects_out_of_range():
    with pytest.raises(ValidationError, match="user index 0 out of range"):
        connected_bs(0, 3)
    with pytest.raises(ValidationError, match="user index 7 out of range"):
        connected_bs(7, 6)
    with pytest.raises(ValidationError, match="k must be at least 1"):
        connected_bs(1, 0)


def test_neighbor_sets():
    assert connected_bs(1, 4) == frozenset({1})
    assert connected_bs(3, 4) == frozenset({2, 3})
    # The users that hear bs j are j and j + 1, clipped to the line.
    assert {i for i in range(1, 5) if 4 in connected_bs(i, 4)} == {4}
    assert {i for i in range(1, 5) if 2 in connected_bs(i, 4)} == {2, 3}


def test_topology_edge_count():
    # One edge per user to its own bs, one more to the previous bs.
    for k in (1, 2, 5, 9):
        assert sum(len(connected_bs(i, k)) for i in range(1, k + 1)) == 2 * k - 1


def test_channel_draws_are_deterministic_and_nonzero():
    a = draw_channels(6, 3)
    b = draw_channels(6, 3)
    c = draw_channels(6, 4)
    assert (a.left, a.diag) == (b.left, b.diag)
    assert (a.left, a.diag) != (c.left, c.diag)
    # Rows over users 0..7, nonzero exactly at the connected pairs.
    assert len(a.left) == len(a.diag) == 8
    assert {(i, i - 1) for i in range(8) if a.left[i]} | {
        (i, i) for i in range(8) if a.diag[i]
    } == {(i, j) for i in range(1, 7) for j in connected_bs(i, 6)}
    assert all(0 <= v < DEFAULT_PRIME for v in a.left + a.diag)


def test_channel_draw_order_is_frozen():
    # Draw order is part of the wire contract: users ascending, then each
    # user's base stations ascending, so diag takes draws 0, 2, 4 and left
    # draws 1, 3.
    ch = draw_channels(3, 1)
    assert ch.diag == (0, 288545019, 1819850096, 1640193507, 0)
    assert ch.left == (0, 0, 1222356006, 1722851097, 0)


def test_channel_draws_equal_randrange_draws():
    # One batch of getrandbits replaces randrange(1, prime) per coefficient;
    # the small moduli make it redraw often.
    for seed in (1, -5, 2**40):
        for prime in (3, 5, 7, 13, 2**31 - 1, 2**61 - 1):
            for k in range(1, 41):
                rng = random.Random(seed)
                expected = [rng.randrange(1, prime) for _ in range(2 * k - 1)]
                ch = draw_channels(k, seed, prime)
                assert ch.diag == (0, *expected[0::2], 0)
                assert ch.left == (0, 0, *expected[1::2], 0)


def test_association_roundtrip_and_normalization():
    a = association(3, 2, [[2, 1], [], [3]])
    assert a.cells_as_lists() == [[1, 2], [], [3]]
    data = a.to_json()
    assert data == {"k": 3, "nc": 2, "cells": [[1, 2], [], [3]]}
    assert CellAssociation.from_json(data) == a


def test_association_checks_members_before_building_sets():
    # A set that holds bs 1 would swallow True or 1.0 unseen.
    for bad in (True, 1.0):
        with pytest.raises(ValidationError, match="bs index must be an integer"):
            association(2, 2, [[1, bad], [2]])
    # Any k iterables of ints are stored as frozensets.
    a = CellAssociation(k=2, nc=2, cells=[[2, 1], iter([2])])
    assert a.cells == (frozenset({1, 2}), frozenset({2}))


def test_association_from_json_rejects_unknown_keys():
    data = {"k": 2, "nc": 1, "cells": [[1], [2]], "celss": [[1], [2]]}
    with pytest.raises(ValidationError, match="unknown association keys"):
        CellAssociation.from_json(data)


def test_association_from_json_rejects_garbage():
    with pytest.raises(ValidationError):
        CellAssociation.from_json({"k": 3, "nc": 2})
    with pytest.raises(ValidationError):
        CellAssociation.from_json({"k": 3, "nc": 2, "cells": [[1], [2]]})
    with pytest.raises(ValidationError):
        CellAssociation.from_json("not a mapping")
    with pytest.raises(ValidationError):
        association(2, 1, [["x"], []])


def test_validate_association_reports_instead_of_raising():
    a = association(3, 1, [[1, 2], [7], []])
    problems = validate_association(a)
    assert {v.i for v in problems} == {1, 2}
    reasons = " ".join(v.reason for v in problems)
    assert "size" in reasons and "out of range" in reasons
    # Empty sets are legal.
    assert validate_association(association(2, 1, [[], []])) == []


def test_validate_association_reports_indices_too_long_to_print():
    # 10**5000 has more digits than Python converts to a str by default, so
    # the reason counts the out-of-range indices instead of listing them.
    problems = validate_association(association(3, 2, [[1], [2], [10**5000, 0]]))
    assert [(v.i, v.reason) for v in problems] == [(3, "2 bs indices out of range [1..3]")]
    problems = validate_association(association(3, 2, [[1], [2], [7, 0]]))
    assert [(v.i, v.reason) for v in problems] == [(3, "bs indices [0, 7] out of range [1..3]")]


def test_validate_association_finds_each_lone_violation():
    # A valid association is answered without walking the users, so each
    # of the three checks must catch its violation on its own.
    for cells, violation in (
        ([[1], [2, 3], [4]], (3, "bs indices [4] out of range [1..3]")),
        ([[1], [0, 3], [3]], (2, "bs indices [0] out of range [1..3]")),
        ([[1], [1, 2, 3], [3]], (2, "size 3 > 2")),
    ):
        problems = validate_association(association(3, 2, cells))
        assert [(v.i, v.reason) for v in problems] == [violation]


def test_fraction_helpers():
    assert frac_to_str(Fraction(10, 12)) == "5/6"
    assert frac_to_str(4) == "4"
    assert frac_from_str("5/6") == Fraction(5, 6)
    assert frac_from_str("7") == Fraction(7)
    with pytest.raises(ValidationError):
        frac_from_str("five sixths")
    with pytest.raises(ValidationError):
        frac_from_str("1/0")
    assert frac_from_str(" -3/4 ") == Fraction(-3, 4)


def test_frac_from_str_rejects_decimal_and_exponent_literals():
    for text in ("0.5", "1e3", "1e300000", "1E-2", ".5", "1_000", "inf", "nan", "1/2.0"):
        with pytest.raises(ValidationError):
            frac_from_str(text)


def test_average_per_user():
    assert average_per_user(8, 12, 12) == Fraction(5, 6)
    assert average_per_user(0, 0, 3) == 0
    with pytest.raises(ValidationError):
        average_per_user(1, 1, 0)


def test_active_set_check_is_shared_by_both_sessions():
    assert check_active(3, [1, 3, 3]) == frozenset({1, 3})
    a = association(3, 1, [[1], [], [3]])
    ch = draw_channels(3, 1)
    # True is not user 1, although isinstance(True, int) holds.
    for bad in (0, 4, "2", True):
        if isinstance(bad, int) and not isinstance(bad, bool):
            message = f"active user {bad!r} out of range [1..3]"
        else:
            message = f"active user must be an integer, got {bad!r}"
        for check in (
            lambda: check_active(3, {bad}),
            lambda: zf_feasible(a, {bad}, ch),
            lambda: certify_downlink(a, {bad}, 1),
            lambda: uplink_feasible(a, {bad}),
        ):
            with pytest.raises(ValidationError) as info:
                check()
            assert str(info.value) == message
            assert type(info.value) is ValidationError
    # Only the downlink refuses an active user with an empty set.
    with pytest.raises(EmptyCellError, match="active user 2 has an empty association set"):
        zf_feasible(a, {2}, ch)
    assert uplink_feasible(a, {2}) is None


def test_frozen_records_that_hold_dicts_are_unhashable():
    result = exhaustive_search(3, 1, 1)
    holding_dicts = (result.dl.witness, result.dl, result, soundness_sweep(3, 1, 1))
    for record in holding_dicts:
        assert not isinstance(record, Hashable), type(record).__name__
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assoc = association(4, 2, [[1], [1, 2], [2, 3], [4]])
    pattern = PeriodicPattern(period=2, offsets=((0,), (-1, 0)))
    dict_free = (
        assoc, Violation(1, "empty"), draw_channels(3, 1), max_uplink_dof(assoc),
        max_uplink_dof(assoc).order, lemma2_chain_bound(assoc), result.bound,
        counting_bound(assoc).flagged[0], avg_optimal(6, 2), pattern,
        periodic_eval(pattern, 2), compare_with_theorem(2),
    )
    for record in dict_free:
        assert isinstance(record, Hashable) and hash(record) == hash(record), record


def _records():
    """One small record of each of the 15 record types, with its pinned repr."""
    assoc = association(2, 1, [[1], [1, 2]])
    order = DecodingOrder(steps=((1, 1),))
    dl = DlEvaluation(sum_dof=1, active_users=frozenset({1}), witness=None, seeds=(1,))
    ul = UlEvaluation(sum_dof=1, active_users=frozenset({2}), order=order)
    bound = BoundCertificate(kind="counting", flagged=(), value=Fraction(3, 2), k=2, nc=1)
    pattern = PeriodicPattern(period=1, offsets=([0, 0],))
    half = Fraction(1, 2)
    return [
        (Violation(i=1, reason="empty"), "Violation(i=1, reason='empty')"),
        (
            assoc,
            "CellAssociation(k=2, nc=1, cells=(frozenset({1}), frozenset({1, 2})))",
        ),
        (
            ChannelRealization(1, 13, 5, (0, 0, 0), (0, 4, 0)),
            "ChannelRealization(k=1, prime=13, seed=5, left=(0, 0, 0), diag=(0, 4, 0))",
        ),
        (
            ZfWitness(seed=1, prime=13, precoders={1: {1: 1}}),
            "ZfWitness(seed=1, prime=13, precoders={1: {1: 1}})",
        ),
        (
            dl,
            "DlEvaluation(sum_dof=1, active_users=frozenset({1}), witness=None, seeds=(1,))",
        ),
        (order, "DecodingOrder(steps=((1, 1),))"),
        (
            ul,
            "UlEvaluation(sum_dof=1, active_users=frozenset({2}), "
            "order=DecodingOrder(steps=((1, 1),)))",
        ),
        (BlockFlag(1, 1, True), "BlockFlag(block=1, start=1, good=True)"),
        (
            bound,
            "BoundCertificate(kind='counting', flagged=(), value=Fraction(3, 2), k=2, nc=1, "
            "assumptions=())",
        ),
        (
            SchemePlan(assoc, frozenset({1}), frozenset(), frozenset({2}), half, half),
            "SchemePlan(assoc=CellAssociation(k=2, nc=1, cells=(frozenset({1}), "
            "frozenset({1, 2}))), dl_active_users=frozenset({1}), dl_silent_bs=frozenset(), "
            "ul_active_users=frozenset({2}), claimed_dl_dof=Fraction(1, 2), "
            "claimed_ul_dof=Fraction(1, 2))",
        ),
        (
            SearchResult(2, 1, 1, "avg", 4, assoc, 3, half, dl, ul, bound),
            "SearchResult(k=2, nc=1, window=1, objective='avg', candidates=4, "
            "best_assoc=CellAssociation(k=2, nc=1, cells=(frozenset({1}), frozenset({1, 2}))), "
            "best_index=3, value=Fraction(1, 2), dl=DlEvaluation(sum_dof=1, "
            "active_users=frozenset({1}), witness=None, seeds=(1,)), ul=UlEvaluation(sum_dof=1, "
            "active_users=frozenset({2}), order=DecodingOrder(steps=((1, 1),))), "
            "bound=BoundCertificate(kind='counting', flagged=(), value=Fraction(3, 2), k=2, "
            "nc=1, assumptions=()), rows=None)",
        ),
        (
            SweepReport(k=2, nc=1, window=1, total=3, violations=(), tight={"avg": 1}),
            "SweepReport(k=2, nc=1, window=1, total=3, violations=(), tight={'avg': 1})",
        ),
        (pattern, "PeriodicPattern(period=1, offsets=((0,),))"),
        (
            PeriodicReport(pattern, 1, (3,), (2,), (3,), True, False, half, None, None),
            "PeriodicReport(pattern=PeriodicPattern(period=1, offsets=((0,),)), nc=1, ks=(3,), "
            "dl_sums=(2,), ul_sums=(3,), dl_affine=True, ul_affine=False, "
            "dl_per_user=Fraction(1, 2), ul_per_user=None, avg_per_user=None)",
        ),
        (
            TheoremComparison(1, half, half, None, None, None),
            "TheoremComparison(nc=1, tau=Fraction(1, 2), tau_downlink=Fraction(1, 2), "
            "relation_holds=None, observed=None, gap=None)",
        ),
    ]


def test_records_keep_their_contract():
    records = _records()
    assert len({type(record) for record, _ in records}) == 15
    for record, text in records:
        cls = type(record)
        names = list(cls.__annotations__)
        values = [getattr(record, name) for name in names]
        assert repr(record) == text
        # Equal fields make equal records, by position or by name.
        for twin in (cls(*values), cls(**dict(zip(names, values))), copy.copy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record and not twin != record, text
            if isinstance(record, Hashable):
                assert hash(twin) == hash(record), text
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, name) for name in names] == values
        # Missing, unknown, duplicated and surplus fields.
        for args, kwargs in (
            ((), dict(zip(names[1:], values[1:]))),
            (values, {"unknown": 1}),
            (values, {names[0]: values[0]}),
            ([*values, None], {}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
    # Records of different classes differ, whatever their fields hold.
    assert BlockFlag(1, 1, True) != UlEvaluation(1, 1, True)
    assert Violation(1, ((0,),)) != PeriodicPattern(1, ((0,),))
    assert Violation(1, "empty") != Violation(1, "full")
    # Defaults apply, and SearchResult compares without its rows.
    search = records[10][0]
    bound = search.bound
    assert bound.assumptions == () and search.rows is None
    fields = [getattr(search, name) for name in SearchResult.__annotations__ if name != "rows"]
    with_rows = SearchResult(*fields, rows=[1])
    assert with_rows.rows == [1] and with_rows == search
    marked = BoundCertificate("counting", (), Fraction(3, 2), 2, 1, assumptions=("x",))
    assert marked != bound and hash(bound) == hash(
        BoundCertificate("counting", (), Fraction(3, 2), 2, 1)
    )
    # __post_init__ still runs.
    built = CellAssociation(2, 1, [[1], (2, 1)])
    assert built.cells == (frozenset({1}), frozenset({1, 2}))
    assert all(type(cell) is frozenset for cell in built.cells)
    with pytest.raises(ValidationError, match="diag must be a tuple of k \\+ 2 gains"):
        ChannelRealization(1, 13, 5, (0, 0, 0), (0, 4))
