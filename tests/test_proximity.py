"""Proximity oracles, the axiom suite, and the two-point plane analog."""

import itertools
from fractions import Fraction

import pytest

from ordalg import (CarrierMismatch, FinitePoset, ProximityOracle,
                    QuasiOrder, RationalFn, SbalSkeleton, chain,
                    check_axioms, combined_order, complete_quasi_order,
                    is_nachbin, monotone_envelope, positive_below,
                    prox_decide, separation_point)
from ordalg.fnalg import SubalgebraPartition
from ordalg.proximity import R2_CARRIER
from ordalg.rng import rng_for, sample_values

from finite_cases import quasi_orders_up_to_iso, weak_orderings

VEE = FinitePoset("abc", [("a", "c"), ("b", "c")])


def r2fn(u, v):
    return RationalFn(R2_CARRIER, {"x": u, "y": v})


def r2_decide(a, b):
    """Closed-form totally-below on the plane: some scalar r has a <= r <= b."""
    return max(a) <= min(b)


def test_r2_closed_form_matches_skeleton_route():
    """max(a) <= min(b) and the constant-cone envelope route agree."""
    oracle = ProximityOracle.r2()
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    for au, av, bu, bv in itertools.product(grid, repeat=4):
        a, b = r2fn(au, av), r2fn(bu, bv)
        closed = r2_decide((au, av), (bu, bv))
        assert oracle.decide(a, b) == closed
        assert oracle.skeleton.envelope(a).le(b) == closed
        assert oracle.witness(a) == RationalFn.constant(R2_CARRIER, max(au, av))


def test_skeleton_oracle_routes_agree():
    """decide equals the definition: some cone member between a and b."""
    oracle = ProximityOracle.from_order(VEE)
    rng = rng_for(41, "routes")
    pool = [Fraction(k) for k in (-1, 0, 1)]
    for _ in range(60):
        a = RationalFn("abc", sample_values(rng, "abc"))
        b = RationalFn("abc", sample_values(rng, "abc"))
        direct = oracle.decide(a, b)
        exists = any(
            a.le(c) and c.le(b)
            for combo in itertools.product(sorted(set(a.values.values()) | set(pool)),
                                           repeat=3)
            for c in [RationalFn("abc", dict(zip("abc", combo)))]
            if oracle.skeleton.contains(c))
        assert direct == exists


def test_decide_matches_the_envelope_on_every_weak_ordering():
    """The pairwise criterion against the envelope route, exhaustively up to 3 points.

    Both routes compare values only, so one instance per weak ordering of
    the 2n values of (a, b) covers every rational instance on an order.
    """
    cases = 0
    for n, classes in ((1, 1), (2, 3), (3, 9)):
        orders = quasi_orders_up_to_iso(n)
        assert len(orders) == classes
        rankings = weak_orderings(2 * n)
        for order in orders:
            oracle = ProximityOracle.from_order(order)
            carrier = order.elements
            for ranks in rankings:
                a = RationalFn(carrier, dict(zip(carrier, ranks[:n])))
                b = RationalFn(carrier, dict(zip(carrier, ranks[n:])))
                assert oracle.decide(a, b) == oracle.witness(a).le(b), (order, ranks)
                cases += 1
    assert cases == 42_375


def test_decide_reads_either_argument_on_a_permuted_carrier():
    rankings = weak_orderings(6)[::97]
    for order in quasi_orders_up_to_iso(3):
        oracle = ProximityOracle.from_order(order)
        carrier = order.elements
        flipped = carrier[::-1]
        for ranks in rankings:
            a = RationalFn(carrier, dict(zip(carrier, ranks[:3])))
            b = RationalFn(carrier, dict(zip(carrier, ranks[3:])))
            expected = oracle.witness(a).le(b)
            assert oracle.decide(a, b.on(flipped)) == expected
            assert oracle.decide(a.on(flipped), b) == expected
    with pytest.raises(CarrierMismatch):
        ProximityOracle.r2().decide(r2fn(0, 0), RationalFn("ab", {"a": 0, "b": 0}))


def test_prox_decide_witness_interpolates():
    oracle = ProximityOracle.from_order(chain("abc"))
    a = RationalFn("abc", {"a": 0, "b": -1, "c": 1})
    b = RationalFn("abc", {"a": 1, "b": 1, "c": 1})
    related, w = prox_decide(oracle, a, b)
    assert related
    assert a.le(w) and w.le(b)
    assert oracle.decide(w, w)
    related, w = prox_decide(oracle, b, a)
    assert not related and w is None


def test_separation_point():
    oracle = ProximityOracle.from_order(chain("ab"))
    a = RationalFn("ab", {"a": 1, "b": 0})
    b = RationalFn("ab", {"a": 1, "b": 0})
    reason = separation_point(oracle, a, b)
    assert reason["point"] == "b"
    assert Fraction(reason["envelope"]) > Fraction(reason["bound"])


def test_witness_is_envelope_or_constant():
    skel = ProximityOracle.from_order(chain("ab"))
    f = RationalFn("ab", {"a": 1, "b": 0})
    assert skel.witness(f) == monotone_envelope(f, chain("ab"))
    r2 = ProximityOracle.r2()
    g = r2fn(1, 0)
    assert r2.witness(g) == RationalFn.constant(R2_CARRIER, 1)


def test_oracle_carrier_check():
    oracle = ProximityOracle.r2()
    with pytest.raises(CarrierMismatch):
        oracle.decide(RationalFn("ab", {"a": 0, "b": 0}), r2fn(0, 0))


def test_skeleton_membership_is_reflexivity():
    oracle = ProximityOracle.from_order(chain("ab"))
    up = RationalFn("ab", {"a": 0, "b": 1})
    down = RationalFn("ab", {"a": 1, "b": 0})
    assert oracle.decide(up, up) and oracle.skeleton.contains(up)
    assert not oracle.decide(down, down) and not oracle.skeleton.contains(down)


def test_permuted_carriers_decide_in_either_argument_order():
    """Arguments listed in different label orders get the verdicts of carrier-ordered copies."""
    oracle = ProximityOracle.from_order(chain("pq"))
    a = RationalFn(("q", "p"), {"p": 0, "q": 0})
    b = RationalFn(("p", "q"), {"p": 1, "q": 1})
    related, witness = prox_decide(oracle, a, b)
    assert related is True
    assert witness.carrier == oracle.carrier and witness == a
    assert prox_decide(oracle, b, a) == (False, None)
    assert separation_point(oracle, b, a) == {"point": "p", "envelope": "1", "bound": "0"}
    assert a.le(b) and not b.le(a)
    assert a + b == b + a == b


def test_r2_witness_checks_the_carrier():
    oracle = ProximityOracle.r2()
    with pytest.raises(CarrierMismatch):
        oracle.witness(RationalFn("ab", {"a": 0, "b": 1}))
    assert oracle.witness(RationalFn("yx", {"x": 0, "y": 1})) == r2fn(1, 1)


@pytest.mark.parametrize("oracle", [
    ProximityOracle.r2(),
    ProximityOracle.from_order(chain("abc")),
    ProximityOracle.from_order(VEE),
    ProximityOracle.from_order(FinitePoset("ab")),
    ProximityOracle.from_order(complete_quasi_order("abc")),
], ids=["r2", "chain3", "vee", "antichain2", "complete3"])
def test_axiom_suite_passes(oracle):
    report = check_axioms(oracle, samples=400, seed=13)
    assert report.all_passed(), [r.to_dict() for r in report.results if not r.passed]
    for name in ("P1", "P2", "P3", "P4", "P5", "RP5", "P6", "P7", "P8", "P9"):
        assert report.result(name).premise_hits > 0, name


def test_axiom_suite_deterministic():
    one = check_axioms(ProximityOracle.r2(), samples=200, seed=99)
    two = check_axioms(ProximityOracle.r2(), samples=200, seed=99)
    assert [r.to_dict() for r in one.results] == [r.to_dict() for r in two.results]


def test_p11_fails_exactly_when_a_strict_pair_exists():
    """-(monotone) is not monotone along a strict pair; otherwise P11 holds."""
    failing = [chain("ab"), chain("abc"), VEE]
    holding = [FinitePoset("ab"), FinitePoset("abc")]
    for order in failing:
        report = check_axioms(ProximityOracle.from_order(order), samples=150,
                              seed=14, include_devries=True)
        res = report.result("P11")
        assert not res.passed
        assert res.counterexample is not None
        a = RationalFn(order.elements, res.counterexample["a"])
        b = RationalFn(order.elements, res.counterexample["b"])
        oracle = ProximityOracle.from_order(order)
        assert oracle.decide(a, b)
        assert not oracle.decide(-b, -a)
    for order in holding:
        report = check_axioms(ProximityOracle.from_order(order), samples=150,
                              seed=14, include_devries=True)
        assert report.result("P11").passed
    r2_report = check_axioms(ProximityOracle.r2(), samples=150, seed=14,
                             include_devries=True)
    assert r2_report.result("P11").passed


def test_p12_reporting():
    """P12 fails whenever some point indicator has zero lower envelope."""
    report = check_axioms(ProximityOracle.from_order(chain("ab")), samples=150,
                          seed=15, include_devries=True)
    assert not report.result("P12").passed
    b = RationalFn("ab", report.result("P12").counterexample["b"])
    assert positive_below(ProximityOracle.from_order(chain("ab")), b) is None
    r2_report = check_axioms(ProximityOracle.r2(), samples=150, seed=15,
                             include_devries=True)
    assert not r2_report.result("P12").passed
    free = check_axioms(ProximityOracle.from_order(FinitePoset("abc")),
                        samples=150, seed=15, include_devries=True)
    assert free.result("P12").passed


def test_p12_deterministic_candidate_ignores_carrier_order():
    """A maximal element listed first must not mask the falsifier."""
    top_first = FinitePoset(("t", "a"), [("a", "t")])
    report = check_axioms(ProximityOracle.from_order(top_first), samples=10,
                          seed=16, include_devries=True)
    assert not report.result("P12").passed


def test_positive_below():
    oracle = ProximityOracle.from_order(chain("ab"))
    good = RationalFn("ab", {"a": 0, "b": 1})
    found = positive_below(oracle, good)
    assert found is not None
    assert found.ge(0) and found != RationalFn.zero("ab")
    assert oracle.decide(found, good)
    bad = RationalFn("ab", {"a": 1, "b": 0})
    assert positive_below(oracle, bad) is None


def test_combined_order_and_relative_skeleton():
    oracle = ProximityOracle.from_order(chain("abc"))
    full = SubalgebraPartition.discrete("abc")
    assert combined_order(oracle, full) == QuasiOrder("abc", chain("abc").pairs)
    merged = SubalgebraPartition("abc", (("a", "c"), ("b",)))
    q = combined_order(oracle, merged)
    assert q.leq("c", "a") and q.leq("b", "a")
    assert q.equiv_blocks() == (("a", "b", "c"),)
    rel = SbalSkeleton(combined_order(oracle, merged))
    assert rel.contains(RationalFn.constant("abc", 3))
    assert not rel.contains(RationalFn("abc", {"a": 0, "b": 1, "c": 2}))


def test_is_nachbin_cases():
    full2 = SubalgebraPartition.discrete(("x", "y"))
    assert not is_nachbin(full2, ProximityOracle.r2())
    assert is_nachbin(SubalgebraPartition.discrete("ab"),
                      ProximityOracle.from_order(chain("ab")))
    assert is_nachbin(SubalgebraPartition.discrete("abc"),
                      ProximityOracle.from_order(VEE))
    constants = SubalgebraPartition.indiscrete("ab")
    assert not is_nachbin(SubalgebraPartition.discrete("ab"),
                          ProximityOracle.from_order(complete_quasi_order("ab")))
    # The constants do present the one-point quotient.
    assert is_nachbin(constants, ProximityOracle.from_order(chain("ab")))
    # A merged pair that the order stretches across collapses everything.
    merged = SubalgebraPartition("abc", (("a", "c"), ("b",)))
    assert not is_nachbin(merged, ProximityOracle.from_order(chain("abc")))


def test_is_nachbin_carrier_check():
    with pytest.raises(CarrierMismatch):
        is_nachbin(SubalgebraPartition.discrete("ab"), ProximityOracle.r2())


@pytest.mark.parametrize("oracle", [ProximityOracle.r2(),
                                    ProximityOracle.from_order(chain("xy"))],
                         ids=["r2", "chain2"])
def test_is_nachbin_ignores_the_algebra_carrier_order(oracle):
    for make in (SubalgebraPartition.discrete, SubalgebraPartition.indiscrete):
        assert is_nachbin(make("yx"), oracle) == is_nachbin(make("xy"), oracle)
    assert is_nachbin(SubalgebraPartition.indiscrete("yx"), oracle)
