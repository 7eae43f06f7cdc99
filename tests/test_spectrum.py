"""Ordered spectra, the unit and evaluation maps, and the adjunction."""

import importlib
import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest

from ordalg import (AntisymmetryViolation, FinitePoset, NotAMorphism,
                    ProximityOracle, RationalFn, SbalSkeleton,
                    SubalgebraPartition, TooLargeToEnumerate,
                    canonical_witness, chain, combined_order,
                    enumerate_adjunction, enumerate_monotone_maps,
                    enumerate_posets, eta, induced_order, is_monotone, phi,
                    phi_respects_proximity, point_ideal, posets_up_to,
                    spectrum)
from ordalg.rng import rng_for, sample_values
from ordalg.spectrum import _closed_under_endomaps

VEE = FinitePoset("abc", [("a", "c"), ("b", "c")])


@dataclass(frozen=True)
class LIdeal:
    """A lattice-algebra ideal of a block algebra: vanish on a zero set."""

    carrier: tuple
    zero_set: tuple

    def __post_init__(self):
        members = set(self.zero_set)
        assert members <= set(self.carrier)
        object.__setattr__(self, "zero_set",
                           tuple(z for z in self.carrier if z in members))

    def contains(self, f: RationalFn) -> bool:
        return all(f.values[z] == 0 for z in self.zero_set)

    def subset_of(self, other: "LIdeal") -> bool:
        # Vanishing on more points is the smaller ideal.
        return set(other.zero_set) <= set(self.zero_set)


def thd(oracle, algebra, ideal: LIdeal) -> LIdeal:
    """The ideal generated by the nonnegative reflexive part of ``ideal``.

    Concretely: functions vanishing on the downset of the zero set, in the
    order presenting the reflexive cone inside the algebra.  This is the
    reference route to the spectral order, independent of the canonical
    witnesses that ``induced_order`` decides with.
    """
    order = combined_order(oracle, algebra)
    return LIdeal(ideal.carrier, order.downset_of(ideal.zero_set))


def apply_point_map(spec, point_map, f, space):
    """The morphism f |-> phi(f) o point_map, applied to one function."""
    values = phi(spec.algebra, f, spec)
    return RationalFn(space.elements, {x: values.values[point_map[x]] for x in space.elements})


def recover_point_map(action, spec, space):
    """Read the spectral point map off a morphism given only by its action.

    The block indicators separate the spectrum points, so each point of the
    space must agree with the action on all of them at exactly one spectrum
    point.  This is the reference route the naturality squares are read
    through, independent of the point maps that present the hom-set.
    """
    carrier = spec.algebra.carrier
    family = [RationalFn(carrier, {z: int(z in block) for z in carrier})
              for block in spec.algebra.blocks]
    evaluated = [(phi(spec.algebra, f, spec), action(f)) for f in family]
    out = {}
    for x in space.elements:
        matches = [p.label for p in spec.points
                   if all(img.values[x] == vals.values[p.label] for vals, img in evaluated)]
        if len(matches) != 1:
            raise NotAMorphism("action does not evaluate at a unique spectrum point",
                               {"point": x, "matches": matches})
        out[x] = matches[0]
    return out


def discrete_spec(space):
    algebra = SubalgebraPartition.discrete(space.elements)
    oracle = ProximityOracle.from_order(space)
    return algebra, oracle, induced_order(algebra, oracle)


def test_spectrum_points_are_blocks():
    algebra = SubalgebraPartition("abc", (("a", "b"), ("c",)))
    points = spectrum(algebra)
    assert [p.label for p in points] == ["M(a|b)", "M(c)"]
    f = RationalFn("abc", {"a": 0, "b": 0, "c": 5})
    assert [f.values[z] == 0 for z in points[0].block] == [True, True]
    assert [f.values[z] == 0 for z in points[1].block] == [False]
    assert point_ideal(algebra, "b") == points[0]


def test_canonical_witness_is_largest_normalized_member():
    """c*_y beats every monotone 0..1 function vanishing on the block."""
    for order in (chain("abc"), VEE):
        for block in [(y,) for y in order.elements]:
            c = canonical_witness(order, block)
            assert is_monotone(c, order)
            assert set(c.values.values()) <= {0, 1}
            assert all(c.values[z] == 0 for z in block)
            pool = [Fraction(0), Fraction(1, 2), Fraction(1)]
            for combo in itertools.product(pool, repeat=len(order.elements)):
                g = RationalFn(order.elements, dict(zip(order.elements, combo)))
                if (is_monotone(g, order) and g.ge(0) and g.le(1)
                        and all(g.values[z] == 0 for z in block)):
                    assert g.le(c)


def test_thd_matches_membership_definition():
    """a is dominated by a vanishing reflexive member iff env|a| dies on Z."""
    oracle = ProximityOracle.from_order(VEE)
    algebra = SubalgebraPartition.discrete("abc")
    rng = rng_for(51, "thd")
    skeleton = oracle.skeleton
    for zero_set in [("c",), ("a",), ("a", "b"), ()]:
        ideal = LIdeal(algebra.carrier, zero_set)
        image = thd(oracle, algebra, ideal)
        for _ in range(40):
            a = RationalFn("abc", sample_values(rng, "abc"))
            dominated = skeleton.envelope(abs(a))
            definition = all(dominated.values[z] == 0 for z in zero_set)
            assert image.contains(a) == definition


def test_thd_is_downset_operator():
    oracle = ProximityOracle.from_order(chain("abc"))
    algebra = SubalgebraPartition.discrete("abc")
    ideal = LIdeal("abc", ("b",))
    image = thd(oracle, algebra, ideal)
    assert image.zero_set == ("a", "b")
    again = thd(oracle, algebra, image)
    assert again == image
    bigger = thd(oracle, algebra, LIdeal("abc", ("c",)))
    assert bigger.zero_set == ("a", "b", "c")
    # Order preservation: nested ideals have nested images.
    zero_sets = [(), ("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "b", "c")]
    for z1 in zero_sets:
        for z2 in zero_sets:
            i1, i2 = LIdeal("abc", z1), LIdeal("abc", z2)
            if i1.subset_of(i2):
                assert thd(oracle, algebra, i1).subset_of(thd(oracle, algebra, i2))


def test_induced_order_witness_route_matches_thd_route():
    """M_x <= M_y by witness iff thd(M_y) is contained in M_x."""
    for space in posets_up_to(3):
        algebra, oracle, spec = discrete_spec(space)
        for px in spec.points:
            for py in spec.points:
                witness_route = spec.order.leq(px.label, py.label)
                image = thd(oracle, algebra, LIdeal(algebra.carrier, py.block))
                thd_route = image.subset_of(LIdeal(algebra.carrier, px.block))
                assert witness_route == thd_route


def test_certificates_witness_failures():
    space = chain("ab")
    _, _, spec = discrete_spec(space)
    assert spec.order.leq("M(a)", "M(b)")
    assert not spec.order.leq("M(b)", "M(a)")
    cert = spec.certificates[("M(b)", "M(a)")]
    assert cert == canonical_witness(space, ("a",))
    assert cert.values["b"] == 1


def test_eta_is_order_isomorphism_on_small_posets():
    for space in posets_up_to(4):
        report = eta(space)
        assert report.is_bijective and report.is_order_isomorphism


def test_eta_on_coarse_algebra_via_quotient():
    """A merged block collapses the spectrum to the quotient order."""
    oracle = ProximityOracle.from_order(chain("abc"))
    merged = SubalgebraPartition("abc", (("a", "b"), ("c",)))
    spec = induced_order(merged, oracle)
    assert [p.label for p in spec.points] == ["M(a|b)", "M(c)"]
    assert spec.order.leq("M(a|b)", "M(c)")
    assert not spec.order.leq("M(c)", "M(a|b)")
    assert spec.is_partial_order


def test_r2_collapse_and_quasi_order():
    """The two-point analog orders its spectrum both ways."""
    oracle = ProximityOracle.r2()
    algebra = SubalgebraPartition.discrete(oracle.carrier)
    spec = induced_order(algebra, oracle)
    assert spec.order.leq("M(x)", "M(y)")
    assert spec.order.leq("M(y)", "M(x)")
    assert not spec.is_partial_order
    assert spec.certificates == {}
    with pytest.raises(AntisymmetryViolation):
        spec.as_poset()


def test_phi_evaluates_blocks():
    oracle = ProximityOracle.from_order(chain("abc"))
    merged = SubalgebraPartition("abc", (("a", "b"), ("c",)))
    spec = induced_order(merged, oracle)
    f = RationalFn("abc", {"a": 2, "b": 2, "c": 7})
    values = phi(merged, f, spec)
    assert values.carrier == ("M(a|b)", "M(c)")
    assert values.values == {"M(a|b)": 2, "M(c)": 7}


def test_phi_on_a_permuted_carrier():
    algebra = SubalgebraPartition.discrete("pq")
    a = RationalFn("qp", {"p": 0, "q": 1})
    assert phi(algebra, a) == RationalFn(("M(p)", "M(q)"), {"M(p)": 0, "M(q)": 1})


def test_phi_respects_proximity_small():
    for space in (chain("ab"), VEE, chain("abcd")):
        report = phi_respects_proximity(space, samples=300, seed=5)
        assert report.ok and report.related_hits > 0


def test_dual_morphism_accepts_exactly_the_monotone_maps():
    """Every 3-point space and target: the cone route keeps h iff h is monotone on every pair."""
    for space in enumerate_posets(3, "abc"):
        for target in enumerate_posets(3, "pqr"):
            report = enumerate_adjunction(space, SbalSkeleton(target), seed=3)
            spec_order = report.spectrum.order
            candidates = (dict(zip(space.elements, images))
                          for images in itertools.product(spec_order.elements, repeat=3))
            assert report.morphism_maps == [
                h for h in candidates if all(spec_order.leq(h[x], h[y]) for x, y in space.pairs)]


def test_apply_point_map_acts_by_composition():
    skeleton = SbalSkeleton(chain("pq"))
    oracle = ProximityOracle.from_skeleton(skeleton)
    algebra = SubalgebraPartition.discrete("pq")
    spec = induced_order(algebra, oracle)
    f = RationalFn("pq", {"p": 3, "q": 8})
    out = apply_point_map(spec, {"a": "M(p)", "b": "M(p)", "c": "M(q)"}, f, VEE)
    assert out.values == {"a": 3, "b": 3, "c": 8}


def test_recover_point_map_from_action():
    skeleton = SbalSkeleton(chain("pq"))
    oracle = ProximityOracle.from_skeleton(skeleton)
    algebra = SubalgebraPartition.discrete("pq")
    spec = induced_order(algebra, oracle)
    point_map = {"a": "M(p)", "b": "M(p)", "c": "M(q)"}
    action = lambda f: apply_point_map(spec, point_map, f, VEE)
    assert recover_point_map(action, spec, VEE) == point_map


def naturality_squares(space, spec, hom):
    """Both squares for every h in ``hom`` and monotone endomap, read by action.

    Each composite morphism is built from its action alone, its point map
    recovered through the block indicators and checked legal from the
    definition: monotone on all pairs into ``spec.order``.  Returns whether
    every square commutes, and how many squares were checked.
    """
    spec_poset = spec.as_poset()
    carrier = spec.algebra.carrier
    label_of = {z: point_ideal(spec.algebra, z).label for z in carrier}
    squares = []
    for h in hom:
        for psi in enumerate_monotone_maps(space, space):
            def reindexed(f, h=h, psi=psi):
                g = apply_point_map(spec, h, f, space)
                return RationalFn(space.elements, {x: g.values[psi[x]] for x in space.elements})
            squares.append((reindexed, {x: h[psi[x]] for x in space.elements}))
        for k in enumerate_monotone_maps(spec_poset, spec_poset):
            def composite(f, h=h, k=k):
                vals = phi(spec.algebra, f, spec)
                beta_f = RationalFn(carrier, {z: vals.values[k[label_of[z]]] for z in carrier})
                return apply_point_map(spec, h, beta_f, space)
            squares.append((composite, {x: k[h[x]] for x in space.elements}))
    commute = True
    for action, want in squares:
        got = recover_point_map(action, spec, space)
        legal = all(spec.order.leq(got[x], got[y]) for x, y in space.pairs)
        commute = commute and legal and got == want
    return commute, len(squares)


def test_naturality_closure_matches_the_squares_by_action():
    """Spaces of up to 3 points, targets of up to 2: every legal h, psi and k."""
    squares = 0
    for space in posets_up_to(3):
        for target in posets_up_to(2):
            skeleton = SbalSkeleton(target)
            report = enumerate_adjunction(space, skeleton)
            commute, checked = naturality_squares(space, report.spectrum,
                                                  report.morphism_maps)
            squares += checked
            closed = _closed_under_endomaps(space, report.spectrum.as_poset(),
                                            report.morphism_maps)
            assert commute is closed is report.naturality_ok is True
    assert squares == 1119


def test_naturality_fails_without_one_composite():
    """Dropping one composite breaks closure, on either side of the squares.

    A constant map is k o h for a constant k; on a 1-point space it is no
    h o psi of another map.  The map reversing a 2-chain target on a 2-point
    antichain is h o psi for the swap psi, and no k o h for monotone k.
    """
    for space in posets_up_to(3):
        for target in enumerate_posets(2):
            report = enumerate_adjunction(space, SbalSkeleton(target))
            spec_poset = report.spectrum.as_poset()
            hom = report.morphism_maps
            assert _closed_under_endomaps(space, spec_poset, hom)
            constants = [h for h in hom if len(set(h.values())) == 1]
            assert len(constants) == 2
            for c in constants:
                assert not _closed_under_endomaps(space, spec_poset,
                                                  [h for h in hom if h != c])
    space = FinitePoset("ab", [])
    report = enumerate_adjunction(space, SbalSkeleton(chain("pq")))
    reversed_map = {"a": "M(q)", "b": "M(p)"}
    assert reversed_map in report.morphism_maps
    assert not _closed_under_endomaps(space, report.spectrum.as_poset(),
                                      [h for h in report.morphism_maps if h != reversed_map])


def test_adjunction_pinned_counts():
    two = chain("pq")
    report = enumerate_adjunction(two, SbalSkeleton(two))
    assert report.count == 3
    assert report.bijective and report.naturality_ok
    vee_report = enumerate_adjunction(VEE, SbalSkeleton(two))
    assert vee_report.count == 5
    assert vee_report.bijective and vee_report.naturality_ok


def test_adjunction_matches_monotone_map_count():
    """|hom(X, spec)| equals the number of monotone maps, per pair."""
    shapes = [chain("pq"), VEE, FinitePoset("pqr", [("p", "q"), ("p", "r")])]
    for space in shapes[:2]:
        for target in shapes:
            report = enumerate_adjunction(space, SbalSkeleton(target))
            assert report.bijective
            assert len(report.monotone_maps) == len(report.morphism_maps)


def test_adjunction_cap():
    big = chain("abcde")
    with pytest.raises(TooLargeToEnumerate):
        enumerate_adjunction(big, SbalSkeleton(chain("pq")))


def test_adjunction_cap_refuses_before_building_the_spectrum(monkeypatch):
    # ``ordalg.spectrum`` is the exported function, so reach the module by name.
    module = importlib.import_module("ordalg.spectrum")
    original, calls = module.induced_order, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, "induced_order", counted)
    labels = [f"p{i}" for i in range(200)]
    with pytest.raises(TooLargeToEnumerate) as err:
        enumerate_adjunction(chain("ab"), SbalSkeleton(chain(labels)))
    assert err.value.details == {"space": 2, "spectrum": 200, "cap": 4}
    assert calls == []


def test_spectrum_serialization():
    _, _, spec = discrete_spec(chain("ab"))
    doc = spec.to_dict()
    assert doc["is_partial_order"] is True
    assert doc["points"] == [["a"], ["b"]]
    assert ["M(a)", "M(b)"] == doc["order"]["elements"]
