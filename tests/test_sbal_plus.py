"""Positive cones, the shift closure, and the functor grid roundtrip."""

import itertools
from fractions import Fraction

import pytest

from ordalg import (FinitePoset, NotInSkeleton, NotMonotone, RationalFn,
                    SbalSkeleton, TooLargeToEnumerate, chain, q_contains,
                    q_decompose, roundtrip_pq)
from ordalg.rng import rng_for, sample_values

VEE = FinitePoset("abc", [("a", "c"), ("b", "c")])


def test_positive_cone_membership():
    skel = SbalSkeleton(chain("pq"))
    up = RationalFn("pq", {"p": 0, "q": 1})
    assert skel.contains_nonneg(up)
    skel.require_nonneg_member(up)
    assert not skel.contains_nonneg(up - 1)
    with pytest.raises(NotInSkeleton) as err:
        skel.require_nonneg_member(up - 1)
    assert not isinstance(err.value, NotMonotone)
    assert str(err.value) == "negative value at 'p'"
    assert err.value.details == {"element": "p", "value": "-1"}
    down = RationalFn("pq", {"p": 1, "q": 0})
    assert not skel.contains_nonneg(down)
    with pytest.raises(NotMonotone):
        skel.require_nonneg_member(down)


def test_q_decompose_recovers_members():
    """m = (m + shift) - shift with a nonnegative monotone part."""
    skel = SbalSkeleton(VEE)
    rng = rng_for(71, "qdec")
    for _ in range(50):
        m = skel.sample_member(rng)
        part, shift = q_decompose(skel, m)
        assert skel.contains_nonneg(part)
        assert shift >= 0
        assert part - shift == m
        assert q_contains(skel, m)
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
    real = q_decompose

    def off_by_one(skeleton, m):
        a, r = real(skeleton, m)
        return a, r + 1

    monkeypatch.setattr("ordalg.sbal_plus.q_decompose", off_by_one)
    report = roundtrip_pq(SbalSkeleton(chain("pq")))
    assert report.recompose_failures and not report.identical
    assert not report.qp_mismatches and not report.pq_mismatches


def test_roundtrip_routes_are_independent(monkeypatch):
    """A wrong decomposition route shows up: the grid compares two routes."""
    monkeypatch.setattr("ordalg.sbal_plus.q_contains",
                        lambda sk, m: sk.contains_nonneg(m))   # the shift is dropped
    report = roundtrip_pq(SbalSkeleton(chain("pq")))
    assert report.identical is False
    assert report.qp_mismatches
    bad = report.qp_mismatches[0]
    assert bad["direct"] is True and bad["qp"] is False
    assert min(Fraction(v) for v in bad["fn"].values()) < 0
