"""Exact function arithmetic and closed subalgebras as partitions."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordalg import (CarrierMismatch, EmptyCarrier, NotBlockConstant,
                    RationalFn, SubalgebraPartition, UnknownElement,
                    as_fraction, chain, check_carrier, monotone_envelope)
from ordalg.rng import rng_for, sample_values

CARRIER = ("p", "q", "r")


def fn(**values):
    return RationalFn(CARRIER, values)


def test_as_fraction_forms():
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction("-3") == Fraction(-3)
    assert as_fraction(4) == Fraction(4)
    assert as_fraction(Fraction(2, 6)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        as_fraction("one half")


def test_constructor_validation():
    with pytest.raises(EmptyCarrier):
        RationalFn((), {})
    with pytest.raises(UnknownElement):
        RationalFn(("p", "p"), {"p": 0})
    with pytest.raises(UnknownElement):
        fn(p=0, q=1)
    with pytest.raises(UnknownElement):
        fn(p=0, q=1, r=2, s=3)


def test_constant_validates_its_carrier():
    with pytest.raises(EmptyCarrier):
        RationalFn.constant((), 1)
    with pytest.raises(UnknownElement):
        RationalFn.constant(("p", "p"), 1)
    assert RationalFn.constant(["q", "p"], "1/2") == RationalFn(("q", "p"), {"q": "1/2",
                                                                         "p": "1/2"})


RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
SCALARS = st.one_of(RATIONALS, st.integers(-5, 5), RATIONALS.map(str))


def assert_same(got: RationalFn, want: RationalFn) -> None:
    """Equal carrier, values (in carrier order, all Fractions), hash and document."""
    assert got.carrier == want.carrier
    assert list(got.values.items()) == list(want.values.items())
    assert all(type(v) is Fraction for v in got.values.values())
    assert hash(got) == hash(want)
    assert got.to_dict() == want.to_dict()
    assert repr(got) == repr(want)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(carrier=st.permutations(CARRIER),
       left=st.lists(RATIONALS, min_size=3, max_size=3),
       right=st.one_of(st.lists(RATIONALS, min_size=3, max_size=3), SCALARS),
       r=SCALARS)
def test_derived_values_match_public_constructor(carrier, left, right, r):
    """Every derived value equals the same value rebuilt through RationalFn(...)."""
    carrier = tuple(carrier)
    a = RationalFn(carrier, dict(zip(carrier, left)))
    if isinstance(right, list):
        b = RationalFn(carrier, dict(zip(carrier, right)))
        bv = b.values
    else:
        b = right
        bv = dict.fromkeys(carrier, as_fraction(right))

    def ref(op, u=a.values, v=bv):
        return RationalFn(list(carrier), {x: op(u[x], v[x]) for x in carrier})

    cases = [(a + b, ref(operator.add)), (b + a, ref(operator.add, bv, a.values)),
             (a - b, ref(operator.sub)), (b - a, ref(operator.sub, bv, a.values)),
             (a * b, ref(operator.mul)), (b * a, ref(operator.mul, bv, a.values)),
             (a.join(b), ref(max)), (a.meet(b), ref(min)),
             (-a, RationalFn(list(carrier), {x: -a.values[x] for x in carrier})),
             (a.scale(r), RationalFn(list(carrier),
                                     {x: as_fraction(r) * a.values[x] for x in carrier})),
             (RationalFn.constant(carrier, r), RationalFn(list(carrier), dict.fromkeys(
                 carrier, r))),
             (monotone_envelope(a, chain(carrier), "upper"),
              RationalFn(list(carrier), {x: max(a.values[y] for y in carrier[:i + 1])
                                         for i, x in enumerate(carrier)}))]
    for got, want in cases:
        assert_same(got, want)
    assert a.le(b) == all(a.values[x] <= bv[x] for x in carrier)
    assert a.ge(b) == all(a.values[x] >= bv[x] for x in carrier)


def test_pointwise_ops_against_oracle():
    rng = rng_for(21, "fnalg-ops")
    for _ in range(50):
        a = RationalFn(CARRIER, sample_values(rng, CARRIER))
        b = RationalFn(CARRIER, sample_values(rng, CARRIER))
        for got, op in [(a + b, lambda u, v: u + v),
                        (a - b, lambda u, v: u - v),
                        (a * b, lambda u, v: u * v),
                        (a.join(b), max), (a.meet(b), min)]:
            assert got == RationalFn(
                CARRIER, {x: op(a.values[x], b.values[x]) for x in CARRIER})
        assert a.le(b) == all(a.values[x] <= b.values[x] for x in CARRIER)
        assert a.scale(Fraction(-2, 3)) == RationalFn(
            CARRIER, {x: Fraction(-2, 3) * a.values[x] for x in CARRIER})


def test_scalar_mixing():
    a = fn(p="1/2", q=0, r=-1)
    assert (a + 1).values["q"] == 1
    assert (2 - a).values["r"] == 3
    assert (a * 2) == a.scale(2) == 2 * a
    assert a.join(0).values["r"] == 0
    assert a.meet("1/4").values["p"] == Fraction(1, 4)


def test_pos_neg_abs_identities():
    """a = a+ - a- and |a| = a+ + a-."""
    rng = rng_for(22, "fnalg-abs")
    for _ in range(30):
        a = RationalFn(CARRIER, sample_values(rng, CARRIER))
        pos, neg, mag = a.pos_part(), a.neg_part(), abs(a)
        assert pos - neg == a
        assert pos + neg == mag == abs(a)
        assert pos.meet(neg) == RationalFn.zero(CARRIER)
        assert pos.ge(0) and neg.ge(0)


def test_order_is_partial():
    a = fn(p=0, q=1, r=0)
    b = fn(p=1, q=0, r=0)
    assert not a.le(b) and not b.le(a)


def test_norm_and_extremes():
    a = fn(p="-3/2", q="1/3", r=0)
    assert a.sup_norm() == Fraction(3, 2)
    assert a.min_value() == Fraction(-3, 2)
    assert a.max_value() == Fraction(1, 3)
    assert not a.is_constant()
    assert RationalFn.constant(CARRIER, 7).is_constant()
    assert RationalFn.one(CARRIER) - 1 == RationalFn.zero(CARRIER)


def test_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        fn(p=0, q=0, r=0) + RationalFn(("p", "q"), {"p": 0, "q": 0})


@pytest.mark.parametrize("other", [("p", "q"), ("p", "q", "s"), ("p", "q", "r", "s")])
def test_different_label_sets_raise(other):
    """Only the label order may differ; other label sets raise, with one details shape."""
    a = fn(p=0, q=1, r=2)
    b = RationalFn(other, dict.fromkeys(other, 0))
    for call in (lambda: check_carrier(other, CARRIER), lambda: a.on(other),
                 lambda: a.on(("p", "q", "r", "r")),
                 lambda: a + b, lambda: b.le(a),
                 lambda: SubalgebraPartition.discrete(other).contains(a)):
        with pytest.raises(CarrierMismatch) as err:
            call()
        assert set(err.value.details) == {"expected", "found"}


def test_permuted_carrier_is_the_same_carrier():
    """A function is read in the carrier order of whatever receives it."""
    a = RationalFn(("q", "p", "r"), {"p": 1, "q": 2, "r": 3})
    b = fn(p=1, q=2, r=3)
    check_carrier(a.carrier, CARRIER)
    assert a.on(CARRIER).carrier == CARRIER and a.on(CARRIER).values == b.values
    assert b.on(CARRIER) is b
    assert a == b and hash(a) == hash(b)
    assert (a + b).carrier == a.carrier and (b + a).carrier == CARRIER
    assert a + b == b + a == b.scale(2)
    assert a.le(b) and b.le(a) and a.ge(b)
    assert a.join(b.scale(2)) == b.scale(2)
    assert SubalgebraPartition.discrete(("r", "p", "q")).contains(a)


def test_hash_and_dict_roundtrip():
    a = fn(p="1/2", q="-3", r=0)
    b = fn(p="2/4", q=-3, r="0")
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    doc = a.to_dict()
    assert doc["values"] == {"p": "1/2", "q": "-3", "r": "0"}
    assert RationalFn.from_dict(doc) == a


def test_call_and_getitem():
    a = fn(p=1, q=2, r=3)
    assert a("q") == a["q"] == 2
    with pytest.raises(UnknownElement):
        a("z")


def test_partition_canonical_form():
    part = SubalgebraPartition(CARRIER, (("r", "q"), ("p",)))
    assert part.blocks == (("p",), ("q", "r"))
    assert part.block_of("r") == ("q", "r")
    assert SubalgebraPartition.discrete(CARRIER).separates_points
    assert not SubalgebraPartition.indiscrete(CARRIER).separates_points


def test_partition_equality_ignores_label_order():
    pq, qp = SubalgebraPartition.discrete("pq"), SubalgebraPartition.discrete("qp")
    assert pq == qp and hash(pq) == hash(qp)
    assert pq.carrier != qp.carrier       # each keeps its own label order
    permuted = SubalgebraPartition(("r", "q", "p"), (("r",), ("q", "p")))
    assert permuted == SubalgebraPartition(CARRIER, (("p", "q"), ("r",)))
    assert SubalgebraPartition.indiscrete("pq") == SubalgebraPartition.indiscrete("qp")
    assert SubalgebraPartition.indiscrete("pq") != pq
    assert SubalgebraPartition.discrete("pr") != pq


def test_partition_validation():
    with pytest.raises(UnknownElement):
        SubalgebraPartition(CARRIER, (("p", "q"),))
    with pytest.raises(UnknownElement):
        SubalgebraPartition(CARRIER, (("p", "q"), ("q", "r")))


def test_partition_membership():
    part = SubalgebraPartition(CARRIER, (("p", "q"), ("r",)))
    inside = fn(p=2, q=2, r=5)
    outside = fn(p=2, q=3, r=5)
    assert part.contains(inside)
    assert not part.contains(outside)
    with pytest.raises(NotBlockConstant) as err:
        part.require_member(outside)
    assert err.value.details["block"] == ["p", "q"]


def test_partition_serialization():
    part = SubalgebraPartition(CARRIER, (("p", "q"), ("r",)))
    assert part.to_dict() == {"carrier": ["p", "q", "r"],
                              "blocks": [["p", "q"], ["r"]]}
