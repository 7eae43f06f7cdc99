"""Approximation certificates and interpolation traces."""

from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordalg import (FinitePoset, NoApproximantWithinTolerance,
                    NonPositiveEpsilon, NotMonotone, ProximityOracle,
                    RationalFn, SbalSkeleton, SWGrid, TooLargeToEnumerate,
                    chain, dieudonne_claim, dieudonne_sequence, random_poset,
                    sw_approximate)
from ordalg.approx import DIEUDONNE_STEP_CAP
from ordalg.order import is_monotone, monotone_envelope
from ordalg.proximity import R2_CARRIER
from ordalg.rng import rng_for, sample_values

VEE = FinitePoset("abc", [("a", "c"), ("b", "c")])


def monotone_sample(order, rng):
    raw = RationalFn(order.elements, sample_values(rng, order.elements))
    return monotone_envelope(raw, order)


def check_family(cert, f, order):
    """Every certificate invariant, re-derived from scratch."""
    s = f.max_value()
    for piece in cert.family:
        assert piece.r <= s
        assert f.values[piece.y] < piece.r or piece.r == s
        assert is_monotone(piece.fn, order)
        # r <= a_{r,y} <= s, a_{r,y}(y) = r, and = s on the level set.
        assert piece.fn.ge(piece.r) and piece.fn.le(s)
        assert piece.fn.values[piece.y] == piece.r
        assert piece.upset == tuple(x for x in order.elements
                                    if f.values[x] >= piece.r)
        assert all(piece.fn.values[x] == s for x in piece.upset)
        assert f.le(piece.fn)
    for x, i in cert.cover:
        assert cert.family[i].fn.values[x] <= f.values[x] + cert.epsilon


def test_pinned_two_chain_certificate():
    """f = (0, 1), eps = 1/4: two pieces, approximant (1/8, 1)."""
    skel = SbalSkeleton(chain("pq"))
    f = RationalFn("pq", {"p": 0, "q": 1})
    cert = sw_approximate(f, skel, Fraction(1, 4))
    assert cert.family_size == 2
    assert cert.approximant == RationalFn("pq", {"p": Fraction(1, 8), "q": 1})
    check_family(cert, f, skel.order)


def test_sw_bound_and_membership():
    rng = rng_for(61, "sw")
    for trial in range(40):
        order = random_poset(rng_for(61, "sw-poset", str(trial)), 2 + trial % 4)
        skel = SbalSkeleton(order)
        f = monotone_sample(order, rng)
        eps = (Fraction(1, 8), Fraction(1, 64), Fraction(1, 1024))[trial % 3]
        cert = sw_approximate(f, skel, eps)
        assert skel.contains(cert.approximant)
        assert f.le(cert.approximant)
        assert (cert.approximant - f).sup_norm() <= eps
        check_family(cert, f, order)


def reference_grid(values, epsilon):
    """The materialized grid: attained values and the eps/2 ladder in (min, max], plus max."""
    top, bottom = max(values), min(values)
    grid = {v for v in values if bottom < v <= top}
    step = epsilon / 2
    k = 1
    while bottom + k * step <= top:
        grid.add(bottom + k * step)
        k += 1
    grid.add(top)
    return sorted(grid)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(numerators=st.lists(st.integers(-20, 20), min_size=2, max_size=6),
       denominator=st.integers(1, 8),
       eps=st.fractions(min_value=Fraction(1, 64), max_value=8))
def test_sw_grid_matches_reference(numerators, denominator, eps):
    values = [Fraction(k, denominator) for k in numerators]
    bottom, top = min(values), max(values)
    assume(bottom < top and (top - bottom) / eps <= 2000)
    ref = reference_grid(values, eps)
    grid = SWGrid.from_values(values, eps)
    assert len(grid) == len(ref)
    assert all(r in grid for r in ref)
    # Probe each gap between consecutive members, and the gap below the
    # first, at its left end and at its midpoint, which is no member.
    for lo, hi in zip([bottom] + ref[:-1], ref):
        mid = (lo + hi) / 2
        assert mid not in grid
        for v in (lo, mid):
            assert grid.above(v) == ref[bisect_right(ref, v)]
    assert bottom not in grid
    with pytest.raises(ValueError):
        grid.above(top)


def test_sw_work_does_not_grow_with_range_over_eps():
    """A 2-chain from -2 to 2 at eps = 1/100000: an 800,000-entry grid, two pieces."""
    skel = SbalSkeleton(chain("pq"))
    f = RationalFn("pq", {"p": -2, "q": 2})
    eps = Fraction(1, 100000)
    cert = sw_approximate(f, skel, eps)
    assert cert.family_size == 2
    assert len(cert.grid) == 800000
    assert f.le(cert.approximant) and (cert.approximant - f).sup_norm() <= eps
    check_family(cert, f, skel.order)


def test_sw_rejects_bad_inputs():
    skel = SbalSkeleton(chain("pq"))
    down = RationalFn("pq", {"p": 1, "q": 0})
    with pytest.raises(NotMonotone):
        sw_approximate(down, skel, Fraction(1, 8))
    up = RationalFn("pq", {"p": 0, "q": 1})
    with pytest.raises(NonPositiveEpsilon):
        sw_approximate(up, skel, 0)


def test_sw_constant_shortcut():
    skel = SbalSkeleton(VEE)
    f = RationalFn.constant("abc", Fraction(5, 3))
    cert = sw_approximate(f, skel, Fraction(1, 1024))
    assert cert.approximant == f
    assert cert.family_size == 0 and cert.cover == ()


def test_pinned_dieudonne_claim():
    """f = (1, 0) below g = (1, 1) at radius 1/2 gives (3/4, 3/4)."""
    oracle = ProximityOracle.from_order(chain("pq"))
    f = RationalFn("pq", {"p": 1, "q": 0})
    g = RationalFn.constant("pq", 1)
    a = dieudonne_claim(f, g, oracle, Fraction(1, 2))
    assert a == RationalFn.constant("pq", Fraction(3, 4))
    assert (f - Fraction(1, 2)).le(a) and a.le(g)


def test_claim_names_where_the_pair_is_unrelated():
    """An unrelated pair is refused at a point where env(f) > g."""
    for order in (chain("pq"), VEE, chain("pqr")):
        oracle = ProximityOracle.from_order(order)
        rng = rng_for(63, "claim-refused", "".join(order.elements))
        refused = 0
        for _ in range(40):
            f = RationalFn(order.elements, sample_values(rng, order.elements))
            g = RationalFn(order.elements, sample_values(rng, order.elements))
            if oracle.decide(f, g):
                continue
            refused += 1
            with pytest.raises(NoApproximantWithinTolerance) as err:
                dieudonne_claim(f, g, oracle, Fraction(1, 4))
            assert str(err.value) == "f is not totally below g"
            details = err.value.details
            assert details["radius"] == "1/4"
            x = details["point"]
            env = monotone_envelope(f, order)
            assert Fraction(details["envelope"]) == env.values[x] > g.values[x]
            assert Fraction(details["bound"]) == g.values[x]
        assert refused > 0


def test_claim_rejects_nonpositive_radius():
    oracle = ProximityOracle.from_order(chain("pq"))
    f = RationalFn.zero("pq")
    with pytest.raises(NonPositiveEpsilon):
        dieudonne_claim(f, f, oracle, 0)


def test_sequence_invariants_on_random_pairs():
    rng = rng_for(62, "dieudonne")
    for trial in range(30):
        order = random_poset(rng_for(62, "dd-poset", str(trial)), 2 + trial % 3)
        oracle = ProximityOracle.from_order(order)
        f = RationalFn(order.elements, sample_values(rng, order.elements))
        g = oracle.witness(f) + abs(RationalFn(order.elements,
                                               sample_values(rng, order.elements)))
        assert oracle.decide(f, g)
        trace = dieudonne_sequence(f, g, oracle, 12)
        assert trace.bound_violations() == []
        assert trace.steps == 12
        for term in trace.terms:
            assert oracle.skeleton.contains(term)
        w = trace.limit_witness
        assert w is not None
        assert f.le(w) and w.le(g) and oracle.skeleton.contains(w)
        # Cauchy tail: distance between consecutive terms is summable.
        total = sum(((trace.terms[n] - trace.terms[n - 1]).sup_norm()
                     for n in range(1, len(trace.terms))), Fraction(0))
        assert total <= 2


def test_sequence_approaches_the_interval():
    """max(f - a_n) shrinks like 1/2^n while a_n stays below g."""
    oracle = ProximityOracle.from_order(chain("pq"))
    f = RationalFn("pq", {"p": 1, "q": 0})
    g = RationalFn.constant("pq", 1)
    trace = dieudonne_sequence(f, g, oracle, 10)
    for n in range(1, trace.steps + 1):
        a_n = trace.terms[n]
        overshoot = (f - a_n).join(0).sup_norm()
        assert overshoot <= Fraction(1, 2 ** n)
        assert a_n.le(g)


def test_sequence_requires_proximal_pair():
    oracle = ProximityOracle.from_order(chain("pq"))
    f = RationalFn("pq", {"p": 1, "q": 0})
    g = RationalFn("pq", {"p": 1, "q": Fraction(7, 8)})
    with pytest.raises(NoApproximantWithinTolerance):
        dieudonne_sequence(f, g, oracle, 4)
    with pytest.raises(NonPositiveEpsilon):
        dieudonne_sequence(f, g, oracle, 0)


def test_sequence_on_permuted_carriers():
    """Arguments in other label orders give the trace of carrier-ordered copies."""
    oracle = ProximityOracle.from_order(chain("pq"))
    f = RationalFn("qp", {"p": 0, "q": 1})
    g = RationalFn("pq", {"p": 2, "q": 3})
    plain = dieudonne_sequence(f.on(oracle.carrier), g, oracle, 6).to_dict()
    assert plain["violations"] == [] and plain["limit_witness"] is not None
    assert dieudonne_sequence(f, g, oracle, 6).to_dict() == plain
    assert dieudonne_sequence(f, g.on(("q", "p")), oracle, 6).to_dict() == plain


def test_trace_serialization():
    oracle = ProximityOracle.r2()
    f = RationalFn(oracle.carrier, {"x": 0, "y": 0})
    trace = dieudonne_sequence(f, f + 1, oracle, 3)
    doc = trace.to_dict()
    assert doc["steps"] == 3
    assert doc["violations"] == []
    assert doc["limit_witness"] is not None


def test_dieudonne_step_cap():
    oracle = ProximityOracle.r2()
    f = RationalFn.constant(R2_CARRIER, 0)
    g = RationalFn.constant(R2_CARRIER, 1)
    trace = dieudonne_sequence(f, g, oracle, DIEUDONNE_STEP_CAP)
    assert trace.steps == DIEUDONNE_STEP_CAP and not trace.bound_violations()
    with pytest.raises(TooLargeToEnumerate) as err:
        dieudonne_sequence(f, g, oracle, DIEUDONNE_STEP_CAP + 1)
    assert err.value.details == {"steps": DIEUDONNE_STEP_CAP + 1, "cap": DIEUDONNE_STEP_CAP}
