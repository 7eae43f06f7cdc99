"""The value classes: immutable slots, equality and hashing by value.

The four records (``MaxIdeal``, ``FamilyMember``, ``SWGrid`` and
``SubalgebraPartition``) and the five slotted values share one immutable
base; the reports are plain mutable classes whose lists start fresh.
"""

from fractions import Fraction

import pytest

from ordalg import (AxiomReport, AxiomResult, EnvelopePair, FamilyMember, MaxIdeal,
                    PQRoundtripReport, ProximityOracle, QuasiOrder, RationalFn, SWGrid,
                    SbalSkeleton, SubalgebraPartition, chain, enumerate_posets)

F = RationalFn("pq", {"p": 0, "q": 1})

# Each record twice from separate parts, and once with one field changed.
RECORDS = {
    "MaxIdeal": (lambda: MaxIdeal(("p", "q")), lambda: MaxIdeal(("q",))),
    "FamilyMember": (lambda: FamilyMember(Fraction(1, 2), "q", RationalFn("pq", {"p": 0, "q": 1}),
                                          ("q",)),
                     lambda: FamilyMember(Fraction(1, 2), "p", F, ("q",))),
    "SWGrid": (lambda: SWGrid(Fraction(0), Fraction(1, 8), Fraction(1), (Fraction(1, 3),)),
               lambda: SWGrid(Fraction(0), Fraction(1, 8), Fraction(1), ())),
    "SubalgebraPartition": (lambda: SubalgebraPartition("pqr", [["p", "r"], ["q"]]),
                            lambda: SubalgebraPartition.discrete("pqr")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_to_a_record_field_raises(name):
    record = RECORDS[name][0]()
    for field in record.__slots__:
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(record, field, None)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_with_equal_fields_are_equal_and_hash_alike(name):
    build, other = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other() and not (a == other())
    assert len({a, b, other()}) == 2


def test_a_partition_listed_in_another_order_is_the_same_partition():
    plain = SubalgebraPartition("pqr", [["p", "r"], ["q"]])
    for permuted in (SubalgebraPartition("pqr", [["q"], ["r", "p"]]),
                     SubalgebraPartition("rqp", [["q"], ["r", "p"]])):
        assert permuted == plain and hash(permuted) == hash(plain)


def test_records_of_another_class_are_never_equal():
    assert MaxIdeal(("p",)) != ("p",)
    assert SWGrid(Fraction(0), Fraction(1), Fraction(1), ()) != (0, 1, 1, ())


def test_immutable_values_have_no_instance_dict():
    """The shared base declares empty slots, so no subclass instance grows a __dict__."""
    order = QuasiOrder("pq", [("p", "q")])
    skeleton = SbalSkeleton(order)
    values = [order, chain("pq"), enumerate_posets(3)[0], skeleton,
              ProximityOracle.from_order(chain("pq")), F,
              EnvelopePair(skeleton, F, RationalFn.zero("pq"))]
    values += [build() for build, _ in RECORDS.values()]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises(AttributeError):
            value.extra = 1


def test_reports_start_empty_and_share_no_list():
    result = AxiomResult("S1")
    assert (result.checked, result.premise_hits, result.counterexample) == (0, 0, None)
    assert result.passed
    first = AxiomReport(subject="skeleton", seed=0, samples=5)
    second = AxiomReport(subject="skeleton", seed=0, samples=5)
    assert first.results == [] and first.results is not second.results
    first.results.append(result)
    assert second.results == []
    one, two = PQRoundtripReport(("p",), 1, 0), PQRoundtripReport(("p",), 1, 0)
    for name in ("qp_mismatches", "pq_mismatches", "recompose_failures"):
        assert getattr(one, name) == [] and getattr(one, name) is not getattr(two, name)
    assert one.identical
