"""Positive cones, the shift closure, and the functor grid roundtrip."""

import itertools
from fractions import Fraction

import pytest

from ordalg import (FinitePoset, RationalFn, SbalSkeleton, TooLargeToEnumerate,
                    chain, roundtrip_pq)
from ordalg import order, sbal, sbal_plus
from ordalg.rng import rng_for, sample_values

VEE = FinitePoset("abc", [("a", "c"), ("b", "c")])


def test_positive_cone_membership():
    skel = SbalSkeleton(chain("pq"))
    up = RationalFn("pq", {"p": 0, "q": 1})
    assert skel.contains_nonneg(up)
    assert not skel.contains_nonneg(up - 1)
    down = RationalFn("pq", {"p": 1, "q": 0})
    assert not skel.contains_nonneg(down)


def test_q_decompose_recovers_members():
    """The canonical shift writes m = (m + shift) - shift with a positive-cone part."""
    skel = SbalSkeleton(VEE)
    rng = rng_for(71, "qdec")
    for _ in range(50):
        m = skel.sample_member(rng)
        part, shift = sbal_plus._shift(m)
        assert skel.contains_nonneg(part)
        assert shift >= 0
        assert part - shift == m
        # The canonical shift is minimal: nonnegative members need none.
        if m.ge(0):
            assert shift == 0 and part == m


def test_shifted_join_identity():
    """(a-r) v (b-s) = ((a+s) v (b+r)) - (r+s): the join inside the positive cone."""
    rng = rng_for(72, "sjoin")
    carrier = ("p", "q")
    for _ in range(60):
        a = RationalFn(carrier, sample_values(rng, carrier))
        b = RationalFn(carrier, sample_values(rng, carrier))
        r, s = Fraction(3, 8), Fraction(5, 4)
        assert (a + s).join(b + r) - (r + s) == (a - r).join(b - s)


@pytest.mark.parametrize("order", [chain("p"), chain("pq"), VEE,
                                   FinitePoset("pq", [])],
                         ids=["point", "chain2", "vee", "antichain2"])
def test_roundtrip_identical(order):
    report = roundtrip_pq(SbalSkeleton(order))
    assert report.identical
    assert report.checked == report.grid_points == 17 ** len(order.elements)
    assert report.qp_mismatches == [] and report.pq_mismatches == []
    assert report.recompose_failures == []


def test_roundtrip_agrees_with_direct_membership():
    """Grid verdicts match plain cone membership, re-derived here."""
    order = chain("pq")
    skel = SbalSkeleton(order)
    report = roundtrip_pq(skel)
    grid = [Fraction(k, 4) for k in range(-8, 9)]
    direct = sum(1 for u, v in itertools.product(grid, repeat=2)
                 if RationalFn("pq", {"p": u, "q": v}).values["p"] <= v)
    members = sum(1 for u, v in itertools.product(grid, repeat=2)
                  if skel.contains(RationalFn("pq", {"p": u, "q": v})))
    assert direct == members
    assert report.checked == len(grid) ** 2


def test_roundtrip_cap():
    with pytest.raises(TooLargeToEnumerate):
        roundtrip_pq(SbalSkeleton(chain("pqrs")))


def test_wrong_decomposition_is_a_recompose_failure(monkeypatch):
    real = sbal_plus._shift

    def off_by_one(m):
        a, r = real(m)
        return a, r + 1

    monkeypatch.setattr(sbal_plus, "_shift", off_by_one)
    report = roundtrip_pq(SbalSkeleton(chain("pq")))
    assert report.recompose_failures and not report.identical
    assert not report.qp_mismatches and not report.pq_mismatches


def test_roundtrip_routes_are_independent(monkeypatch):
    """A wrong decomposition route shows up: the grid compares two routes."""
    monkeypatch.setattr(sbal_plus, "_shift", lambda m: (m, Fraction(0)))   # the shift is dropped
    report = roundtrip_pq(SbalSkeleton(chain("pq")))
    assert report.identical is False
    assert report.qp_mismatches
    bad = report.qp_mismatches[0]
    assert bad["direct"] is True and bad["qp"] is False
    assert min(Fraction(v) for v in bad["fn"].values()) < 0


def test_pq_mismatches_are_the_nonnegative_qp_mismatches(monkeypatch):
    """A faulty positive cone shows in PQ exactly where QP fails on m >= 0."""
    monkeypatch.setattr(SbalSkeleton, "contains_nonneg", lambda self, f: True)
    report = roundtrip_pq(SbalSkeleton(chain("pq")))
    expected = [{"fn": e["fn"], "direct": e["direct"], "pq": e["qp"]}
                for e in report.qp_mismatches
                if min(Fraction(v) for v in e["fn"].values()) >= 0]
    assert report.pq_mismatches == expected
    assert 0 < len(report.pq_mismatches) < len(report.qp_mismatches)


def test_roundtrip_decides_monotonicity_twice_per_grid_function(monkeypatch):
    """Direct membership and the shifted positive-cone membership, nothing more."""
    calls = []
    real = order.is_monotone

    def counted(f, o):
        calls.append(f)
        return real(f, o)

    for module in (order, sbal):
        monkeypatch.setattr(module, "is_monotone", counted)
    report = roundtrip_pq(SbalSkeleton(chain("pq")))
    assert report.identical and report.checked == 17 ** 2
    assert len(calls) == 2 * 17 ** 2 == 578
