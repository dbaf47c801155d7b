"""The input contract of every public entry point, one table of bad arguments.

An integer argument is an int and never a bool, within its range
(model.check_int); channel seeds are a nonempty list or tuple of integers
(model.check_seeds); the channel modulus is a prime below 2**64.  Every
violation raises ValidationError, which the CLI reports with exit 2, and
never a bare TypeError, a ZeroDivisionError or a silently wrong answer.
"""

import pytest

from cellassoc import (
    DEFAULT_PRIME,
    BoundCertificate,
    CellAssociation,
    ChannelRealization,
    PeriodicPattern,
    ValidationError,
    DecodingOrder,
    SchemePlan,
    ZfWitness,
    association,
    avg_optimal,
    compare_with_theorem,
    count_associations,
    downlink_optimal,
    draw_channels,
    exhaustive_search,
    max_downlink_dof,
    ncone_bound,
    pair_association,
    periodic_eval,
    soundness_sweep,
    tau,
    tau_downlink,
    zf_feasible_majority,
)
from cellassoc.model import _is_prime, int_from_json
from cellassoc.search import load_search_config

PAIR = PeriodicPattern(period=1, offsets=((-1, 0),))

# (entry point and argument, call with the bad value, an out-of-range value).
# None marks an argument without a range (a channel seed may be any integer).
INT_ARGS = [
    ("avg_optimal k", lambda v: avg_optimal(v, 2), 0),
    ("avg_optimal nc", lambda v: avg_optimal(4, v), 0),
    ("downlink_optimal k", lambda v: downlink_optimal(v, 2), -1),
    ("downlink_optimal nc", lambda v: downlink_optimal(4, v), 0),
    ("pair_association k", pair_association, 0),
    ("tau nc", tau, 0),
    ("tau_downlink nc", tau_downlink, -2),
    ("compare_with_theorem nc", compare_with_theorem, 0),
    ("ncone_bound k", ncone_bound, 0),
    ("ncone_bound k negative", ncone_bound, -3),
    ("draw_channels k", lambda v: draw_channels(v, 1), 0),
    ("draw_channels seed", lambda v: draw_channels(3, v), None),
    ("draw_channels prime", lambda v: draw_channels(3, 1, v), 2),
    ("draw_channels prime above 2**64", lambda v: draw_channels(3, 1, v), 2**64 + 13),
    ("exhaustive_search k", lambda v: exhaustive_search(v, 1, 1), 0),
    ("exhaustive_search nc", lambda v: exhaustive_search(3, v, 1), 0),
    ("exhaustive_search cap", lambda v: exhaustive_search(3, 1, 1, cap=v), 0),
    ("soundness_sweep k", lambda v: soundness_sweep(v, 1, 1), 0),
    ("soundness_sweep nc", lambda v: soundness_sweep(3, v, 1), 0),
    ("soundness_sweep cap", lambda v: soundness_sweep(3, 1, 1, cap=v), 0),
    ("count_associations k", lambda v: count_associations(v, 1, 1), 0),
    ("count_associations nc", lambda v: count_associations(3, v, 1), 0),
    ("periodic_eval nc", lambda v: periodic_eval(PAIR, v), 0),
    ("periodic_eval copies", lambda v: periodic_eval(PAIR, 2, copies=v), 0),
    ("PeriodicPattern period", lambda v: PeriodicPattern(period=v, offsets=((0,),)), 0),
    ("association k", lambda v: association(v, 1, [[1]]), 0),
    ("association nc", lambda v: association(1, v, [[1]]), 0),
]

# A window of None means "nc", so None is not a bad window.
WINDOW_ARGS = [
    ("exhaustive_search window", lambda v: exhaustive_search(3, 1, v), -1),
    ("soundness_sweep window", lambda v: soundness_sweep(3, 1, v), -1),
    ("count_associations window", lambda v: count_associations(3, 1, v), -1),
]

BAD_INTS = (True, 2.5, "3", None)

INT_CASES = [
    pytest.param(call, bad, id=f"{name}={bad!r}")
    for name, call, out_of_range in INT_ARGS
    for bad in BAD_INTS + (() if out_of_range is None else (out_of_range,))
] + [
    pytest.param(call, bad, id=f"{name}={bad!r}")
    for name, call, out_of_range in WINDOW_ARGS
    for bad in (True, 2.5, "3", out_of_range)
]

SEED_ARGS = [
    ("max_downlink_dof", lambda s: max_downlink_dof(pair_association(4), seeds=s)),
    ("zf_feasible_majority", lambda s: zf_feasible_majority(pair_association(4), {1}, seeds=s)),
    ("avg_optimal", lambda s: avg_optimal(5, 2, seeds=s)),
    ("downlink_optimal", lambda s: downlink_optimal(5, 2, seeds=s)),
    ("exhaustive_search", lambda s: exhaustive_search(3, 1, 1, seeds=s)),
    ("soundness_sweep", lambda s: soundness_sweep(3, 1, 1, seeds=s)),
    ("periodic_eval", lambda s: periodic_eval(PAIR, 2, seeds=s)),
    ("load_search_config", lambda s: load_search_config({"seeds": s})),
]

BAD_SEEDS = ((), ("a",), (2.5,), (None,), "123")

SEED_CASES = [
    pytest.param(call, bad, id=f"{name} seeds={bad!r}")
    for name, call in SEED_ARGS
    for bad in BAD_SEEDS
]


@pytest.mark.parametrize("call, bad", INT_CASES)
def test_bad_integer_arguments_raise_validation_error(call, bad):
    with pytest.raises(ValidationError):
        call(bad)


@pytest.mark.parametrize("call, bad", SEED_CASES)
def test_bad_seeds_raise_validation_error(call, bad):
    with pytest.raises(ValidationError):
        call(bad)


def test_good_arguments_pass_the_same_entry_points():
    for _name, call in SEED_ARGS:
        call([7, 8])
        call((-7,))  # a seed may be any integer
    assert draw_channels(3, -5).seed == -5
    assert tau(2) == compare_with_theorem(2).tau
    assert ncone_bound(3).to_json()["value"] == "2"


def test_witness_round_trips_through_json():
    for assoc, seeds in (
        (pair_association(4), (1, 2, 3)),
        (pair_association(9), [5]),
        (association(5, 2, [[1], [1, 2], [], [3, 4], [4, 5]]), (2**40,)),
    ):
        witness = max_downlink_dof(assoc, seeds=seeds).witness
        again = ZfWitness.from_json(witness.to_json())
        assert again == witness
        assert again.seed == seeds[0] and type(again.seed) is int


def test_modulus_must_be_prime():
    for modulus in (4, 9, 561, 4294967297):
        with pytest.raises(ValidationError, match=f"prime must be a prime, got {modulus}"):
            draw_channels(3, 1, modulus)
    for modulus in (7, 13, DEFAULT_PRIME):
        assert draw_channels(3, 1, modulus).prime == modulus
    # A witness read from JSON is re-verified on a fresh draw, which refuses Z/9.
    data = max_downlink_dof(pair_association(4)).witness.to_json()
    witness = ZfWitness.from_json(dict(data, prime=9))
    with pytest.raises(ValidationError):
        draw_channels(4, witness.seed, witness.prime)


def test_realizations_built_directly_keep_the_field_contract():
    # Z/4 gains 1 and 3 once gave pair_association(9) a downlink "witness"
    # that verify_witness accepted; the constructor now refuses the modulus.
    # Gains 1 on each user's own bs and 3 on the one before, as rows.
    gains = {"left": (0, 0, *[3] * 8, 0), "diag": (0, *[1] * 9, 0)}
    with pytest.raises(ValidationError, match="prime must be a prime, got 4"):
        ChannelRealization(k=9, prime=4, seed=1, **gains)
    for bad, match in (
        ({"k": 0}, "k must be at least 1"),
        ({"k": True}, "k must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"prime": 2**64 + 13}, "prime 18446744073709551629 out of range"),
        ({"prime": 9}, "prime must be a prime, got 9"),
    ):
        with pytest.raises(ValidationError, match=match):
            ChannelRealization(**{"k": 9, "prime": 13, "seed": 1, **gains, **bad})
    assert ChannelRealization(k=9, prime=13, seed=1, **gains).prime == 13


def test_realization_rows_keep_their_contract():
    # Rows run over users 0..k+1; a row of the wrong length or kind, a
    # member that is not an int, or a nonzero gain off the line is refused.
    left, diag = (0, 0, 3, 3, 0), (0, 1, 1, 1, 0)
    off_line = "gains off the line .* must be 0"
    for bad_left, bad_diag, match in (
        (left[:-1], diag, r"left must be a tuple of k \+ 2 gains"),
        (left, diag + (0,), r"diag must be a tuple of k \+ 2 gains"),
        (list(left), diag, r"left must be a tuple of k \+ 2 gains"),
        ((0, 0, True, 3, 0), diag, "left gain must be an integer, got True"),
        (left, (0, 1, 1.0, 1, 0), "diag gain must be an integer, got 1.0"),
        ((5, 0, 3, 3, 0), diag, off_line),  # user 0
        ((0, 5, 3, 3, 0), diag, off_line),  # g(1, 0): bs 0
        ((0, 0, 3, 3, 5), diag, off_line),  # user k + 1
        (left, (5, 1, 1, 1, 0), off_line),
        (left, (0, 1, 1, 1, 5), off_line),
    ):
        with pytest.raises(ValidationError, match=match):
            ChannelRealization(k=3, prime=13, seed=1, left=bad_left, diag=bad_diag)
    ch = ChannelRealization(k=3, prime=13, seed=1, left=left, diag=diag)
    assert (ch.left, ch.diag) == (left, diag)


def test_associations_built_directly_have_integer_members():
    # Such a set once passed validate_association and evaluated to 1 and 1.
    for bad in (1.5, True):
        with pytest.raises(ValidationError, match="bs index must be an integer"):
            CellAssociation(k=2, nc=1, cells=(frozenset({bad}), frozenset({2})))
    assert CellAssociation(k=2, nc=1, cells=(frozenset({1}), frozenset())).cells[0] == {1}


def test_primality_test_is_exact():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3, 20_000) if _is_prime(n) != trial(n)] == []
    # Strong pseudoprimes to the bases 2..7 and 2..23, and large primes.
    assert not _is_prime(3215031751) and not _is_prime(3825123056546413051)
    assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59)


# Strings that int() reads as integers but that are no ASCII decimal literal:
# underscores, Unicode digits (Arabic-Indic three, fullwidth one), and
# prefixes, points, exponents and signs that int() or float() would take.
NOT_DECIMAL = ("1_0", "\u0663", "\uff11", "0x10", "1e3", "1.0", "", " ", "+", "- 3", "\u22123")


@pytest.mark.parametrize("text", NOT_DECIMAL, ids=ascii)
def test_json_integer_strings_must_be_ascii_decimal(text):
    with pytest.raises(ValidationError, match="message must be an integer"):
        int_from_json(text, "message")
    witness = max_downlink_dof(pair_association(4)).witness.to_json()
    plan = avg_optimal(5, 2).to_json()
    cert = ncone_bound(3).to_json()
    for reader, data in (
        (ZfWitness, dict(witness, precoders={text: {"1": 1}})),
        (ZfWitness, dict(witness, seed=text)),
        (SchemePlan, dict(plan, dl_silent_bs=[text])),
        (DecodingOrder, {"steps": [{"m": text, "bs": 1}]}),
        (BoundCertificate, dict(cert, k=text)),
    ):
        with pytest.raises(ValidationError):
            reader.from_json(data)


def test_json_integer_strings_keep_sign_and_outer_whitespace():
    texts = ("7", " 7 ", "-3", "+4", "007", "\t12\n")
    assert [int_from_json(text, "x") for text in texts] == [7, 7, -3, 4, 7, 12]
    assert int_from_json(-5, "x") == -5
    with pytest.raises(ValidationError, match="x must be an integer"):
        int_from_json("9" * 5000, "x")  # more digits than int() reads
