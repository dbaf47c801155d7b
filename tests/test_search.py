"""Windowed enumeration, exhaustive search, sweeps, periodic probes."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from cellassoc import (
    BudgetExceededError,
    SizeLimitError,
    ValidationError,
    association,
    pair_association,
)
from cellassoc import cli, search
from cellassoc._kernels import CHAIN_RULE, UL_RULE, family_best, family_graph, part_steps, rule_part
from cellassoc.bounds import _counting_value
from cellassoc.schemes import MAX_SCHEME_K
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
from test_properties import raised_part


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


def per_user_product(k, nc, w):
    """The family size as the product of each user's choices."""
    sizes = (min(k, i + w) - max(1, i - w) + 1 for i in range(1, k + 1))
    return math.prod(sum(math.comb(n, r) for r in range(nc + 1)) for n in sizes)


def test_counts_equal_the_per_user_product(monkeypatch):
    families = list(itertools.product(range(1, 13), range(1, 5), range(6)))
    for k, nc, w in families:
        expected = per_user_product(k, nc, w)
        assert count_associations(k, nc, w) == expected, (k, nc, w)
        # The count the cap and the ceiling share stops exactly past its limit.
        assert search._family_size(k, nc, w, expected) == expected
        assert search._family_size(k, nc, w, expected - 1) is None
    monkeypatch.setattr(search, "MAX_COUNT_BITS", 20)
    for k, nc, w in families:
        expected = per_user_product(k, nc, w)
        if expected <= 2**20:
            assert count_associations(k, nc, w) == expected
        else:
            with pytest.raises(SizeLimitError, match=r"more than 2\*\*20 candidates"):
                count_associations(k, nc, w)


def test_counts_past_the_size_limit_are_refused():
    bits = search.MAX_COUNT_BITS
    # Every user of a line with window 0 has two choices.
    assert count_associations(bits, 1, 0) == 2**bits
    for k, nc, w in (
        (bits + 1, 1, 0),
        (10**5, 2, 1),
        (10**12, 2, None),
        (10**12, 10**12, 10**12),
        (bits // 2, 10**12, 10**12),
        (6000, 1, 10**4),
    ):
        with pytest.raises(SizeLimitError, match=f"more than 2\\*\\*{bits} candidates"):
            count_associations(k, nc, w)


def test_refusal_lists_no_option(monkeypatch):
    def never(*_args):
        raise AssertionError("options were listed")

    monkeypatch.setattr(search, "_user_options", never)
    with pytest.raises(BudgetExceededError, match="more than 100000 candidates"):
        exhaustive_search(60000, 3, 3)
    with pytest.raises(BudgetExceededError):
        soundness_sweep(2383, 3, 3)


def test_enumeration_refuses_what_the_count_refuses_when_called(monkeypatch):
    def never(*_args):
        raise AssertionError("options were listed")

    monkeypatch.setattr(search, "_user_options", never)
    for k in (10**5, 10**12):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=r"more than 2\*\*\d+ candidates"):
            enumerate_associations(k, 2, 1)  # refused before the first next()
        assert time.perf_counter() - start < 1, k
    monkeypatch.undo()
    monkeypatch.setattr(search, "MAX_COUNT_BITS", 12)
    for k, nc, w in itertools.product(range(1, 9), range(1, 4), range(3)):
        if per_user_product(k, nc, w) > 2**12:
            with pytest.raises(SizeLimitError):
                enumerate_associations(k, nc, w)
            continue
        # Accepted families list every choice of one window set per user.
        pools = [range(max(1, i - w), min(k, i + w) + 1) for i in range(1, k + 1)]
        choices = [
            sorted(c for r in range(nc + 1) for c in itertools.combinations(pool, r))
            for pool in pools
        ]
        expected = [[list(c) for c in combo] for combo in itertools.product(*choices)]
        assert [a.cells_as_lists() for a in enumerate_associations(k, nc, w)] == expected


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


def test_paper_claims_and_closed_forms_hold_far_past_the_enumeration():
    # The max-plus pass at window nc, on lines far longer than a search
    # lists.  With B > k, weights (B, B + 1) find the largest dl + ul and,
    # among the associations that reach it, the largest ul; (B + 1, B) the
    # largest dl among them.
    for nc, longest in ((1, 60), (2, 60), (3, 40), (4, 24)):
        for k in range(1, longest + 1):
            parts = rule_part(search._dl_rule(k, nc, nc)), rule_part(UL_RULE)
            options = search._user_options(k, nc, nc)
            steps = [part_steps(part, options) for part in parts]
            best = lambda weights: family_best(family_graph(parts, steps, weights))
            _, (dl_first, ul_most) = best((k + 1, k + 2))
            _, (dl_most, ul_first) = best((k + 2, k + 1))
            total = dl_first + ul_most
            assert dl_most + ul_first == total, (k, nc)
            if nc == 1:
                # Some average-optimal association reaches the largest dl sum.
                assert dl_most == best((1, 0))[1][0], k
                assert total == 2 * ((2 * k + 1) // 3), k
            else:
                # Some average-optimal association reaches the largest ul sum.
                assert ul_most == best((0, 1))[1][1], (k, nc)
                short = nc + 1 <= k % (2 * nc - 1) <= 2 * nc - 2
                assert total == 2 * _counting_value(k, nc) - short, (k, nc)


def test_search_rows():
    r = exhaustive_search(3, 1, 1, objective="avg")
    assert r.rows is not None and len(r.rows) == 36
    assert r.rows[0] == (0, 0, 0)
    assert r.rows[5] == (5, 2, 2)
    best_avg = max(Fraction(dl + ul, 2 * 3) for _i, dl, ul in r.rows)
    assert best_avg == r.value
    # Iterating reads the rows that a whole slice reads, in order.
    assert list(r.rows) == list(r.rows[:]) == [r.rows[i] for i in range(36)]


def test_iterating_rows_lists_no_candidate():
    # 147,456 candidates: one 8-byte reference per candidate would take 1.2 MB.
    rows = exhaustive_search(9, 1, 1, cap=200_000).rows
    tracemalloc.start()
    try:
        count = sum(1 for _row in rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == len(rows) == 147_456 and peak < 500_000, peak


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


def test_ceiling_refuses_huge_families_whatever_the_cap(monkeypatch):
    def never(*_args):
        raise AssertionError("the family was listed")

    # Neither the family graph that every pass reads, the max-plus pass
    # (JSON and CSV search), the count pass (sweeps) nor the text pass
    # (CSV rows) may start.
    monkeypatch.setattr(search, "family_graph", never)
    monkeypatch.setattr(search, "family_best", never)
    monkeypatch.setattr(search, "family_above", never)
    monkeypatch.setattr(search, "family_texts", never)
    assert count_associations(12, 2, 1) == 4_519_603_984 > search.MAX_CANDIDATES
    ceiling = f"more than {search.MAX_CANDIDATES} candidates, the most any search lists"
    for cap in (search.MAX_CANDIDATES + 1, 10**10, 10**100):
        for call in (exhaustive_search, soundness_sweep):
            with pytest.raises(BudgetExceededError, match=ceiling):
                call(12, 2, 1, cap=cap)
    # At or below the ceiling the cap itself refuses, as before.
    with pytest.raises(BudgetExceededError, match=r"more than 10000000 candidates \(the cap\)"):
        exhaustive_search(12, 2, 1, cap=search.MAX_CANDIDATES)
    monkeypatch.undo()
    # A cap above the ceiling still runs a family below it.
    assert exhaustive_search(4, 2, 1, cap=10**10).candidates == 784
    assert soundness_sweep(4, 2, 1, cap=10**10).total == 784


def test_only_csv_rows_list_the_family(monkeypatch, tmp_path):
    listed, passes = [], []
    real = search.family_texts

    def listing(graph, text, depth):
        listed.append([depth, 0])  # (depth listed, prefixes yielded so far)
        for piece in real(graph, text, depth):
            listed[-1][1] += 1
            yield piece

    def counted(name):
        wrapped = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *args: passes.append(name) or wrapped(*args))

    def never(*_args):
        raise AssertionError("a sweep built an association")

    monkeypatch.setattr(search, "family_texts", listing)
    monkeypatch.setattr(cli, "family_texts", listing)
    for name in ("family_best", "family_above"):
        counted(name)
    part = search.rule_part

    def raised(rule):
        # One more uplink user than the passes find, as in test_sweep_matches_reference_sweep.
        return raised_part(part(rule), 1 if rule is UL_RULE else 0)

    # (depth d, prefixes listed) of a CLI CSV search: 196 prefixes of 196
    # rows each, and 225 of 225; (2, 1, 1) has 9 rows, one subtree at d = 0.
    prefixes = {(6, 2, 1): [3, 196], (4, 3, 3): [2, 225], (2, 1, 1): [0, 1]}
    for family, expected in prefixes.items():
        k = family[0]
        for objective in ("avg", "ul", "dl"):
            # A JSON search runs family_best alone; its rows read the same graph.
            result = exhaustive_search(*family, objective)
            assert listed == [] and passes == ["family_best"]
            assert len(result.rows) == result.candidates
            # A row read by index lists nothing; iteration yields one prefix per candidate.
            assert result.rows[-1][0] == result.candidates - 1
            assert result.rows[0][0] == 0
            assert listed == []
            assert sum(1 for _row in result.rows) == result.candidates
            assert listed == [[k, result.candidates]]
            listed.clear()
            passes.clear()
            # The CLI yields only the depth-d prefixes' subtree texts.
            argv = ["search", "--k", str(k), "--nc", str(family[1]), "--window", str(family[2])]
            assert cli.main(argv + ["--objective", objective, "--format", "csv",
                                    "--out", str(tmp_path / "rows.csv")]) == 0
            assert passes == ["family_best"]
            assert listed == [expected]
            depth, count = expected
            size = result.candidates // count
            assert depth < k and size * count == result.candidates
            counts = [len(opts) for opts in search._user_options(*family)]
            assert size <= cli._CSV_BLOCK_ROWS < size * ([math.inf] + counts)[depth]  # the shallowest d
            listed.clear()
            passes.clear()
        # A sweep runs one count pass per certificate, three at nc >= 2.
        sweep_passes = ["family_above"] * (3 if family[1] >= 2 else 1)
        # A sound sweep counts its tight candidates and lists none.
        with monkeypatch.context() as patched:
            patched.setattr(search, "association", never)
            assert soundness_sweep(*family).sound
        assert listed == [] and passes == sweep_passes
        passes.clear()
        # Raised sums break certificates, and the passes' descents find them
        # without listing the family; the sweep reads each violator's sets off
        # its options.
        with monkeypatch.context() as patched:
            patched.setattr(search, "rule_part", raised)
            patched.setattr(search, "association", never)
            report = soundness_sweep(*family)
        assert report.violations and listed == []
        assert passes == sweep_passes
        passes.clear()


def test_a_sweep_lists_each_session_step_once(monkeypatch):
    # The reconstruction and counting graphs share the downlink part, and
    # the chain and counting graphs the uplink part: each session's step
    # is read once per option, not once per graph.
    calls = {"dl": 0, "ul": 0}
    part = search.rule_part

    def counted(rule):
        start, moves, step = part(rule)
        if rule is CHAIN_RULE:
            return start, moves, step
        name = "ul" if rule is UL_RULE else "dl"

        def counted_step(m, cell):
            calls[name] += 1
            return step(m, cell)

        return start, moves, counted_step

    monkeypatch.setattr(search, "rule_part", counted)
    assert soundness_sweep(5, 2, 1).sound
    options = sum(map(len, search._user_options(5, 2, 1)))
    assert calls == {"dl": options, "ul": options}


def test_cap_below_one_is_invalid_input():
    # Every family has at least one candidate, so no such cap can be met.
    for cap in (0, -1):
        with pytest.raises(ValidationError, match=f"cap must be at least 1, got {cap}"):
            exhaustive_search(5, 2, 1, cap=cap)
        with pytest.raises(ValidationError, match="cap must be at least 1"):
            soundness_sweep(5, 2, 1, cap=cap)
    # A cap of 1 is valid input that this family of two candidates exceeds.
    with pytest.raises(BudgetExceededError, match="more than 1 candidates"):
        exhaustive_search(1, 1, 0, cap=1)


def test_entry_points_reject_non_integer_sizes():
    calls = (exhaustive_search, soundness_sweep, count_associations)
    for args in ((3, 1, 1.5), (3, 2, 1.0), (3, 1, "1"), (3, 1, True), (2.0, 1, 1), (3, "1", 1)):
        for call in calls:
            with pytest.raises(ValidationError, match="must be an integer"):
                call(*args)
    for cap in ("10", 2.5e9, 10.0, True):
        for call in (exhaustive_search, soundness_sweep):
            with pytest.raises(ValidationError, match="cap must be an integer"):
                call(3, 1, 1, cap=cap)
    with pytest.raises(ValidationError, match="window must be an integer"):
        list(enumerate_associations(3, 1, 1.5))


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


def test_periodic_pattern_rejects_non_integer_offsets():
    for bad in (0.9, -1.2, True, "x", None):
        with pytest.raises(ValidationError, match="offset must be an integer"):
            PeriodicPattern(period=1, offsets=((0, bad),))


def test_periodic_pattern_rejects_malformed_offsets_and_period():
    for offsets in (5, (5,), (None,), ({0: 1},), "0"):
        with pytest.raises(ValidationError):
            PeriodicPattern(period=1, offsets=offsets)
    with pytest.raises(ValidationError, match="period must be an integer"):
        PeriodicPattern(period=True, offsets=((0,),))


def test_periodic_eval_rejects_non_integer_arguments():
    pair = PeriodicPattern(period=1, offsets=((-1, 0),))
    for copies in (True, 2.5, "2"):
        with pytest.raises(ValidationError, match="copies must be an integer"):
            periodic_eval(pair, 2, copies=copies)
    for nc in ("2", 2.0, True):
        with pytest.raises(ValidationError, match="nc must be an integer"):
            periodic_eval(pair, nc)


def test_periodic_eval_rejects_nonpositive_budget():
    pair = PeriodicPattern(period=1, offsets=((-1, 0),))
    for nc in (0, -1):
        with pytest.raises(ValidationError, match="nc must be at least 1"):
            periodic_eval(pair, nc)


def test_periodic_pattern_instantiation_clips():
    p = PeriodicPattern(period=1, offsets=((-1, 0),))
    assert p.instantiate(3, 2) == pair_association(3)
    with pytest.raises(ValidationError):
        p.instantiate(3, 1)


def test_periodic_sizes_above_the_scheme_limit_are_refused_before_building(monkeypatch):
    def never(*_args):
        raise AssertionError("an association was built")

    pair = PeriodicPattern(period=1, offsets=((-1, 0),))
    monkeypatch.setattr(search, "association", never)
    with pytest.raises(SizeLimitError, match="scheme size limit"):
        pair.instantiate(MAX_SCHEME_K + 1, 2)
    monkeypatch.setattr(PeriodicPattern, "instantiate", never)
    # The first two sizes are within the limit and the third is not.
    with pytest.raises(SizeLimitError, match=f"k = {MAX_SCHEME_K + 1} exceeds"):
        periodic_eval(pair, 2, copies=MAX_SCHEME_K - 1)
    for copies in (10**12, 10**100):
        with pytest.raises(SizeLimitError):
            periodic_eval(pair, 2, copies=copies)


def test_periodic_sizes_too_long_to_print_are_refused_without_printing_them():
    pair = PeriodicPattern(period=1, offsets=((-1, 0),))
    huge = 10**5000  # more digits than Python converts to a str by default
    want = f"k exceeds the scheme size limit of {MAX_SCHEME_K}"
    with pytest.raises(SizeLimitError) as info:
        pair.instantiate(huge, 2)
    assert str(info.value) == want
    with pytest.raises(SizeLimitError) as info:
        periodic_eval(pair, 2, copies=huge)
    assert str(info.value) == want


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
