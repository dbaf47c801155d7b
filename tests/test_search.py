"""Windowed enumeration, exhaustive search, sweeps, periodic probes."""

from fractions import Fraction

import pytest

from cellassoc import (
    BudgetExceededError,
    ValidationError,
    association,
    pair_association,
)
from cellassoc import search
from cellassoc.search import (
    PeriodicPattern,
    compare_with_theorem,
    count_associations,
    enumerate_associations,
    exhaustive_search,
    load_search_config,
    periodic_eval,
    soundness_sweep,
    tau,
    tau_downlink,
)


def test_candidate_counts():
    assert count_associations(1, 1, 1) == 2
    assert count_associations(2, 2, 1) == 16
    assert count_associations(3, 1, 1) == 36
    assert count_associations(6, 2, 1) == 38416
    # Default window equals nc.
    assert count_associations(3, 1) == count_associations(3, 1, 1)


def test_counts_of_huge_windows_and_lines():
    # Windows wider than the line are clipped to it.
    assert count_associations(2, 1, 100_000_000) == 9
    assert count_associations(3, 2, 10**9) == count_associations(3, 2, 2) == 7**3
    # Users 1-3 and k-2..k see 4, 5, 6 base stations, the others 7.
    assert count_associations(6000, 3, 3) == (15 * 26 * 42) ** 2 * 64 ** 5994
    assert [a.cells_as_lists() for a in enumerate_associations(2, 1, 10**8)] == [
        a.cells_as_lists() for a in enumerate_associations(2, 1, 1)
    ]


def test_refusal_lists_no_option(monkeypatch):
    def never(*_args):
        raise AssertionError("options were listed")

    monkeypatch.setattr(search, "_user_options", never)
    with pytest.raises(BudgetExceededError, match="more than 100000 candidates"):
        exhaustive_search(60000, 3, 3)
    with pytest.raises(BudgetExceededError):
        soundness_sweep(2383, 3, 3)


def test_enumeration_is_lexicographic_and_complete():
    assocs = list(enumerate_associations(2, 1, 1))
    assert len(assocs) == count_associations(2, 1, 1) == 9
    cells = [a.cells_as_lists() for a in assocs]
    assert cells[0] == [[], []]
    assert cells == sorted(cells)
    assert [[1], [2]] in cells and [[2], [1]] in cells


def test_search_small_average():
    r = exhaustive_search(3, 1, 1, objective="avg")
    assert r.value == Fraction(2, 3)
    assert r.best_assoc.cells_as_lists() == [[], [1], [3]]
    assert r.best_index == 5
    assert r.candidates == 36
    assert r.to_json()["disagreements"] == 0
    assert r.dl.sum_dof == 2 and r.ul.sum_dof == 2


def test_search_uplink_objective():
    r = exhaustive_search(3, 2, 1, objective="ul")
    assert r.value == 3
    assert r.best_assoc == pair_association(3)
    assert r.best_index == 38
    assert r.candidates == 112


def test_search_pair_budget_attains_counting_bound():
    r = exhaustive_search(6, 2, 1, objective="avg")
    assert r.value == Fraction(5, 6)
    assert r.best_assoc == pair_association(6)
    assert r.candidates == 38416
    assert r.bound.kind == "avg_counting"
    assert Fraction(r.bound.value, r.k) == r.value
    assert r.to_json()["disagreements"] == 0


def test_search_winner_is_lex_min():
    # Ties are broken toward the earliest candidate in enumeration order.
    r = exhaustive_search(3, 1, 1, objective="avg")
    for idx, assoc in enumerate(enumerate_associations(3, 1, 1)):
        if idx >= r.best_index:
            break
        assert idx < r.best_index


def test_collect_rows():
    r = exhaustive_search(3, 1, 1, objective="avg", collect_rows=True)
    assert r.rows is not None and len(r.rows) == 36
    assert r.rows[0] == (0, 0, 0)
    assert r.rows[5] == (5, 2, 2)
    best_avg = max(Fraction(dl + ul, 2 * 3) for _i, dl, ul in r.rows)
    assert best_avg == r.value


def test_cap_refuses_large_runs():
    with pytest.raises(BudgetExceededError):
        exhaustive_search(6, 2, 1, cap=1000)
    with pytest.raises(BudgetExceededError, match="more than 1000 candidates"):
        soundness_sweep(6, 2, 1, cap=1000)
    # The cap is checked against the exact count: 784 candidates pass 784.
    assert soundness_sweep(4, 2, 1, cap=784).total == 784
    with pytest.raises(BudgetExceededError):
        soundness_sweep(4, 2, 1, cap=783)
    # Raising the cap explicitly unlocks the same run.
    r = exhaustive_search(4, 2, 1, cap=1000)
    assert r.candidates == 784


def test_objective_aliases():
    for name in ("avg", "average", "AVG"):
        assert exhaustive_search(2, 1, 1, objective=name).objective == "avg"
    for name in ("ul", "up", "uplink"):
        assert exhaustive_search(2, 1, 1, objective=name).objective == "ul"
    for name in ("dl", "down", "downlink"):
        assert exhaustive_search(2, 1, 1, objective=name).objective == "dl"
    with pytest.raises(ValidationError):
        exhaustive_search(2, 1, 1, objective="sideways")


def test_result_json():
    data = exhaustive_search(3, 1, 1).to_json()
    assert data["value"] == "2/3"
    assert data["candidates"] == 36
    assert "window" in data["scope"]
    assert data["bound"]["kind"] == "avg_counting"
    assert data["bound"]["value"] == "2"


def test_soundness_sweep():
    report = soundness_sweep(4, 2, 1)
    assert report.total == 784
    assert report.sound
    assert report.violations == ()
    assert report.tight == {"chain": 184, "reconstruction": 18, "counting": 2}
    assert report.to_json()["sound"] is True


def test_soundness_sweep_ncone_budget():
    # nc = 1 has no reconstruction or counting certificate; only the chain
    # bound is checked and it is still never violated.
    report = soundness_sweep(3, 1, 1)
    assert report.total == 36
    assert report.sound
    assert report.tight["chain"] > 0
    assert report.tight["reconstruction"] == 0


def test_periodic_pattern_normalization():
    p = PeriodicPattern(period=2, offsets=((0, -1, 0), [1, -1]))
    assert p.offsets == ((-1, 0), (-1, 1))
    with pytest.raises(ValidationError):
        PeriodicPattern(period=0, offsets=())
    with pytest.raises(ValidationError):
        PeriodicPattern(period=2, offsets=((0,),))


def test_periodic_pattern_instantiation_clips():
    p = PeriodicPattern(period=1, offsets=((-1, 0),))
    assert p.instantiate(3, 2) == pair_association(3)
    with pytest.raises(ValidationError):
        p.instantiate(3, 1)


def test_periodic_pair_probe():
    pair = PeriodicPattern(period=3, offsets=((-1, 0),) * 3)
    r = periodic_eval(pair, 2)
    assert r.ks == (9, 12, 15)
    assert r.dl_sums == (6, 8, 10)
    assert r.ul_sums == (9, 12, 15)
    assert r.dl_affine and r.ul_affine
    assert r.dl_per_user == Fraction(2, 3)
    assert r.ul_per_user == 1
    assert r.avg_per_user == Fraction(5, 6)
    assert r.to_json()["disagreements"] == 0


def test_periodic_single_budget_probe():
    ncone = PeriodicPattern(period=3, offsets=((0,), (), (-1,)))
    r = periodic_eval(ncone, 1)
    assert r.dl_sums == (6, 8, 10)
    assert r.ul_sums == (6, 8, 10)
    assert r.avg_per_user == Fraction(2, 3)


def test_periodic_non_affine_growth_is_flagged():
    chain = PeriodicPattern(period=3, offsets=((-1,),) * 3)
    r = periodic_eval(chain, 1, copies=1)
    assert r.ks == (3, 6, 9)
    assert r.dl_sums == (1, 3, 4)
    assert not r.dl_affine and not r.ul_affine
    assert r.dl_per_user is None and r.avg_per_user is None
    assert r.to_json()["avg_per_user"] is None


def test_tau_values():
    assert tau(1) == Fraction(2, 3)
    assert tau(2) == Fraction(5, 6)
    assert tau(3) == Fraction(9, 10)
    assert tau(4) == Fraction(13, 14)
    assert tau_downlink(1) == Fraction(2, 3)
    assert tau_downlink(2) == Fraction(4, 5)
    assert tau_downlink(3) == Fraction(6, 7)
    assert tau_downlink(4) == Fraction(8, 9)
    with pytest.raises(ValidationError):
        tau(0)


def test_theorem_relation():
    for nc in (2, 3, 4, 7):
        cmp = compare_with_theorem(nc)
        assert cmp.relation_holds is True
    assert compare_with_theorem(1).relation_holds is None
    cmp = compare_with_theorem(2, observed=Fraction(5, 6))
    assert cmp.gap == 0
    assert cmp.to_json()["tau"] == "5/6"


def test_load_search_config():
    cfg = load_search_config(
        {"k": 6, "nc": 2, "window": 1, "objective": "average", "seeds": [1, 2]}
    )
    assert cfg == {"k": 6, "nc": 2, "window": 1, "objective": "avg", "seeds": (1, 2)}
    assert load_search_config({}) == {}
    with pytest.raises(ValidationError):
        load_search_config({"k": 6, "mystery": 1})
    with pytest.raises(ValidationError):
        load_search_config({"k": "six"})
    with pytest.raises(ValidationError):
        load_search_config({"k": True})
    with pytest.raises(ValidationError):
        load_search_config({"seeds": []})
    with pytest.raises(ValidationError):
        load_search_config(["k", 6])


def test_windowed_scope_is_a_subset():
    # Window 1 only ever offers {i-1, i, i+1}; a membership outside that
    # range is representable by the model but not by the windowed family.
    wide = association(4, 1, [[3], [], [], []])
    cells = {tuple(a.cells_as_lists()[0]) for a in enumerate_associations(4, 1, 1)}
    assert (3,) not in cells
    assert wide.k == 4
