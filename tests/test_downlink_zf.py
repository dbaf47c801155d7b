"""Zero-forcing oracle: witnesses, structure, and invariances."""

import random
import warnings
from fractions import Fraction

import pytest

from cellassoc import (
    EmptyCellError,
    GenericityWarning,
    InternalCheckError,
    ValidationError,
    ZfWitness,
    association,
    draw_channels,
    max_downlink_dof,
    pair_association,
    strip_silent,
    verify_witness,
    zf_feasible,
    zf_feasible_majority,
)
from cellassoc.model import ChannelRealization


def test_single_cell_network():
    a = association(1, 1, [[1]])
    ch = draw_channels(1, 1)
    w = zf_feasible(a, {1}, ch)
    assert w is not None
    assert verify_witness(w, a, {1}, ch)


def test_shared_bs_blocks_the_single_column():
    # User 2 hears bs 1, so message 1 cannot be zero-forced past it.
    a = association(2, 2, [[1], [1, 2]])
    ch = draw_channels(2, 1)
    assert zf_feasible(a, {1, 2}, ch) is None
    assert zf_feasible(a, {1}, ch) is not None
    assert zf_feasible(a, {2}, ch) is not None


def test_active_user_with_empty_cell_raises():
    a = association(2, 1, [[1], []])
    ch = draw_channels(2, 1)
    with pytest.raises(EmptyCellError):
        zf_feasible(a, {1, 2}, ch)


def test_active_set_validation():
    a = association(3, 1, [[1], [2], [3]])
    ch = draw_channels(3, 1)
    with pytest.raises(ValidationError):
        zf_feasible(a, {0, 1}, ch)
    with pytest.raises(ValidationError):
        zf_feasible(a, {4}, ch)
    with pytest.raises(ValidationError):
        zf_feasible(a, {1}, draw_channels(4, 1))


def test_pair_six_max_is_four():
    ev = max_downlink_dof(pair_association(6))
    assert ev.sum_dof == 4
    assert sorted(ev.active_users) == [1, 3, 4, 6]
    assert ev.to_json()["exact"] is True
    assert ev.to_json()["disagreements"] == 0
    assert ev.witness is not None


def test_witness_survives_independent_reverification():
    a = pair_association(6)
    ev = max_downlink_dof(a)
    w = ev.witness
    ch = draw_channels(6, w.seed)
    assert verify_witness(w, a, ev.active_users, ch)
    # Zeroing a precoder kills the desired gain, so verification must fail.
    bad = {m: dict(v) for m, v in w.precoders.items()}
    m0 = min(bad)
    bad[m0] = {j: 0 for j in bad[m0]}
    tampered = ZfWitness(seed=w.seed, prime=w.prime, precoders=bad)
    assert not verify_witness(tampered, a, ev.active_users, ch)
    # Leaking onto another active user must fail too: bs 3 is in message
    # 3's set and is heard by active user 4.
    leaky = {m: dict(v) for m, v in w.precoders.items()}
    leaky[3][3] = 1
    assert not verify_witness(
        ZfWitness(seed=w.seed, prime=w.prime, precoders=leaky),
        a, ev.active_users, ch,
    )


def test_witness_json_roundtrip():
    ev = max_downlink_dof(pair_association(4))
    w = ev.witness
    assert ZfWitness.from_json(w.to_json()) == w
    with pytest.raises(ValidationError):
        ZfWitness.from_json({"seed": 1})


def test_downward_closure_on_max_set():
    a = pair_association(6)
    ev = max_downlink_dof(a)
    for drop in ev.active_users:
        sub = ev.active_users - {drop}
        feasible, w = zf_feasible_majority(a, sub)
        assert feasible
        assert verify_witness(w, a, sub, draw_channels(6, w.seed))


def test_monotone_under_association_growth():
    # Enlarging any association set preserves feasibility of an active set.
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(2, 7)
        nc = rng.randint(2, 3)
        cells = []
        for i in range(1, k + 1):
            pool = list(range(max(1, i - 2), min(k, i + 2) + 1))
            cells.append(rng.sample(pool, rng.randint(0, min(nc - 1, len(pool)))))
        a = association(k, nc, cells)
        ev = max_downlink_dof(a)
        if not ev.active_users:
            continue
        i = rng.randint(1, k)
        extra = rng.randint(1, k)
        grown_cells = [set(c) for c in a.cells]
        grown_cells[i - 1].add(extra)
        grown = association(k, nc, grown_cells)
        feasible, _w = zf_feasible_majority(grown, ev.active_users)
        assert feasible, (a.cells_as_lists(), i, extra, sorted(ev.active_users))


def test_strip_silent():
    a = pair_association(4)
    s = strip_silent(a, {3})
    assert s.cells_as_lists() == [[1], [1, 2], [2], [4]]


def test_exact_beyond_former_limit():
    # The branch and bound used to stop being exact above 16 users.
    a = pair_association(18)
    ev = max_downlink_dof(a)
    assert ev.to_json()["exact"] is True
    assert ev.sum_dof == 12
    assert verify_witness(ev.witness, a, ev.active_users, draw_channels(18, ev.witness.seed))


def test_majority_vote_warns_on_seed_split(monkeypatch):
    # Honest draws cannot split in this topology (path-forest supports make
    # every minor a monomial), so force a split by zeroing one seed's
    # desired gain.
    import cellassoc.downlink_zf as dz

    real = draw_channels(1, 1)

    def fake_draw(k, seed, prime=real.prime):
        coeffs = dict(draw_channels(k, seed, prime=prime).coeffs)
        if seed == 2:
            coeffs[(1, 1)] = 0
        return ChannelRealization(k=k, prime=prime, seed=seed, coeffs=coeffs)

    monkeypatch.setattr(dz, "draw_channels", fake_draw)
    a = association(1, 1, [[1]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        feasible, w = zf_feasible_majority(a, {1}, seeds=(1, 2, 3))
    assert feasible
    assert w is not None and w.seed == 1
    assert any(issubclass(c.category, GenericityWarning) for c in caught)


def test_no_warnings_on_honest_draws():
    with warnings.catch_warnings():
        warnings.simplefilter("error", GenericityWarning)
        for k in range(1, 8):
            max_downlink_dof(pair_association(k))


def test_empty_active_set_is_feasible():
    a = association(3, 1, [[], [], []])
    ev = max_downlink_dof(a)
    assert ev.sum_dof == 0
    assert ev.active_users == frozenset()
