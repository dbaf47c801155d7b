"""Indexing, channel draws, association containers, rational helpers."""

from fractions import Fraction

import pytest

from cellassoc import (
    DEFAULT_PRIME,
    CellAssociation,
    Topology,
    ValidationError,
    association,
    average_per_user,
    connected,
    connected_bs,
    draw_channels,
    frac_from_str,
    frac_to_str,
    heard_mts,
    validate_association,
)


def test_connectivity_rule():
    k = 5
    for i in range(1, k + 1):
        assert connected(i, i, k)
        if i >= 2:
            assert connected(i, i - 1, k)
    assert not connected(1, 2, 5)
    assert not connected(3, 5, 5)
    assert not connected(4, 2, 5)


def test_connectivity_rejects_out_of_range():
    with pytest.raises(ValidationError):
        connected(0, 1, 3)
    with pytest.raises(ValidationError):
        connected(1, 4, 3)
    with pytest.raises(ValidationError):
        connected_bs(7, 6)
    with pytest.raises(ValidationError):
        heard_mts(0, 6)


def test_neighbor_sets():
    assert connected_bs(1, 4) == frozenset({1})
    assert connected_bs(3, 4) == frozenset({2, 3})
    assert heard_mts(4, 4) == frozenset({4})
    assert heard_mts(2, 4) == frozenset({2, 3})


def test_topology_edge_count():
    # One edge per user to its own bs, one more to the previous bs.
    for k in (1, 2, 5, 9):
        assert Topology(k).edge_count() == 2 * k - 1


def test_channel_draws_are_deterministic_and_nonzero():
    a = draw_channels(6, 3)
    b = draw_channels(6, 3)
    c = draw_channels(6, 4)
    assert a.coeffs == b.coeffs
    assert a.coeffs != c.coeffs
    assert set(a.coeffs) == {
        (i, j) for i in range(1, 7) for j in connected_bs(i, 6)
    }
    assert all(1 <= v < DEFAULT_PRIME for v in a.coeffs.values())


def test_channel_draw_order_is_frozen():
    # Draw order is part of the wire contract: users ascending, then each
    # user's base stations ascending.
    ch = draw_channels(3, 1)
    assert ch.coeffs == {
        (1, 1): 288545019,
        (2, 1): 1222356006,
        (2, 2): 1819850096,
        (3, 2): 1722851097,
        (3, 3): 1640193507,
    }


def test_gain_zero_off_topology():
    ch = draw_channels(4, 1)
    assert ch.gain(1, 2) == 0
    assert ch.gain(4, 2) == 0
    assert ch.gain(2, 1) != 0


def test_association_roundtrip_and_normalization():
    a = association(3, 2, [[2, 1], [], [3]])
    assert a.cells_as_lists() == [[1, 2], [], [3]]
    data = a.to_json()
    assert data == {"k": 3, "nc": 2, "cells": [[1, 2], [], [3]]}
    assert CellAssociation.from_json(data) == a


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
