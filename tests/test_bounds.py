"""Converse certificates: chain, reconstruction, counting."""

from fractions import Fraction

import pytest

from cellassoc import (
    BoundCertificate,
    ValidationError,
    association,
    counting_bound,
    downlink_optimal,
    lemma2_chain_bound,
    max_downlink_dof,
    max_uplink_dof,
    ncone_bound,
    pair_association,
    reconstruction_bound,
    verify_certificate,
)
from cellassoc.bounds import chain_flags, recompute_value


def test_chain_flags_definition():
    # Index i is flagged unless bs i serves both users that hear it.
    assert chain_flags(pair_association(6)) == ()
    assert chain_flags(association(3, 1, [[1], [], [2]])) == (1, 2)
    assert chain_flags(downlink_optimal(5, 2).assoc) == (1, 2, 3, 4)


def test_chain_bound_pinned_values():
    assert lemma2_chain_bound(pair_association(6)).value == 6
    assert lemma2_chain_bound(association(3, 1, [[1], [], [2]])).value == 2
    assert lemma2_chain_bound(downlink_optimal(5, 2).assoc).value == 3


def test_chain_bound_on_fully_flagged_chains():
    # With every index flagged, active runs are capped at two and each run
    # of two needs an idle left neighbor (runs cannot start at user 1), so
    # the bound is k - ceil((k - 1) / 3); the all-empty model achieves 0.
    for k in (1, 2, 3, 4, 5, 6, 7, 10):
        a = association(k, 1, [[] for _ in range(k)])
        assert lemma2_chain_bound(a).value == k - (k + 1) // 3
        assert max_uplink_dof(a).sum_dof == 0


def test_chain_bound_allows_corridor_violations():
    # A flagged adjacent pair may keep both users when an idle user sits at
    # the end of an unflagged corridor to its left.
    a = association(6, 2, [[], [1, 2], [2, 3], [4], [4, 5], [5, 6]])
    assert chain_flags(a) == (1, 3)
    cert = lemma2_chain_bound(a)
    assert cert.value == 5
    assert max_uplink_dof(a).sum_dof == 5
    assert verify_certificate(cert, a)


def test_chain_bound_respects_model_everywhere_small():
    # Spot families beyond the systematic sweeps elsewhere.
    a = association(6, 2, [[1], [2], [2], [4], [4], [6]])
    assert max_uplink_dof(a).sum_dof <= lemma2_chain_bound(a).value


def test_reconstruction_pinned_values():
    cert = reconstruction_bound(pair_association(6))
    assert cert.value == 4
    assert [f.good for f in cert.flagged] == [True, True]
    assert max_downlink_dof(pair_association(6)).sum_dof == 4

    cert = reconstruction_bound(downlink_optimal(5, 2).assoc)
    assert cert.value == 5  # one bad block of 3 plus a 2-user tail


def test_reconstruction_needs_exclusive_middle_bs():
    # Both middle bss pass the local membership test, but bs 2 also serves
    # user 1, which re-opens a fifth downlink stream; the certificate must
    # classify that block as bad.
    a = association(6, 2, [[1, 2], [2, 3], [2, 3], [3, 4], [5, 6], [5, 6]])
    cert = reconstruction_bound(a)
    assert [f.good for f in cert.flagged] == [False, True]
    assert cert.value == 5
    assert max_downlink_dof(a).sum_dof == 5


def test_counting_pinned_values():
    assert counting_bound(pair_association(12)).per_user == Fraction(5, 6)
    a25 = association(25, 3, [[i] for i in range(1, 26)])
    assert counting_bound(a25).per_user == Fraction(9, 10)
    # Tail users count fully.
    a13 = pair_association(13)
    cert = counting_bound(a13)
    assert cert.value == Fraction(11)
    assert cert.per_user == Fraction(11, 13)


def test_counting_requires_multi_association():
    with pytest.raises(ValidationError):
        counting_bound(association(3, 1, [[1], [2], [3]]))
    with pytest.raises(ValidationError):
        reconstruction_bound(association(3, 1, [[1], [2], [3]]))


def test_ncone_certificate_is_marked_asymptotic():
    cert = ncone_bound(12)
    assert cert.per_user == Fraction(2, 3)
    assert cert.value == Fraction(8)
    assert cert.nc == 1
    assert any("asymptotic" in a for a in cert.assumptions)


def test_certificate_json_roundtrip():
    for cert in (
        lemma2_chain_bound(pair_association(5)),
        counting_bound(pair_association(7)),
        reconstruction_bound(pair_association(7)),
        ncone_bound(9),
    ):
        again = BoundCertificate.from_json(cert.to_json())
        assert again == cert
    with pytest.raises(ValidationError):
        BoundCertificate.from_json({"kind": "mystery", "value": "1"})


def test_recompute_and_verify():
    a = pair_association(9)
    for cert in (
        lemma2_chain_bound(a),
        counting_bound(a),
        reconstruction_bound(a),
    ):
        assert recompute_value(cert) == cert.value
        assert verify_certificate(cert, a)
        forged = BoundCertificate(
            kind=cert.kind,
            flagged=cert.flagged,
            value=cert.value + 1,
            k=cert.k,
            nc=cert.nc,
            per_user=cert.per_user,
            assumptions=cert.assumptions,
        )
        assert not verify_certificate(forged, a)
    # A certificate for one association must not verify against another.
    other = association(9, 2, [[] for _ in range(9)])
    assert not verify_certificate(lemma2_chain_bound(a), other)


def test_single_budget_reconstruction_certificate_is_refused():
    # No reconstruction certificate exists for nc = 1; a forged one whose
    # block middle is the last base station used to raise IndexError.
    forged = BoundCertificate.from_json(
        {"kind": "dl_reconstruction", "flagged": [{"block": 1, "start": 1, "good": True}],
         "value": "0", "k": 1, "nc": 1}
    )
    assert not verify_certificate(forged, association(1, 1, [[1]]))


def test_chain_edge_cases():
    assert lemma2_chain_bound(association(1, 1, [[1]])).value == 1
    assert lemma2_chain_bound(association(1, 1, [[]])).value == 1
