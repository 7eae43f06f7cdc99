"""Relabeling invariance: equivalent inputs get equal or corresponding verdicts.

A random poset is renamed by a bijection sigma onto new labels, listed in a
random order, and every function is moved along sigma onto a carrier listed
in its own random order.  Each verdict on the renamed instance must equal
the verdict on the original, or be its image under sigma.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ordalg import (FinitePoset, ProximityOracle, RationalFn, SbalSkeleton,
                    SubalgebraPartition, check_axioms, check_skeleton_axioms,
                    induced_order, monotone_envelope, prox_decide,
                    sw_approximate)

VALUES = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4]))


@st.composite
def relabeled(draw):
    n = draw(st.integers(1, 5))
    labels = tuple(f"x{i}" for i in range(n))
    line = draw(st.permutations(labels))
    edges = [(line[i], line[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    space = FinitePoset(labels, edges)
    sigma = dict(zip(labels, draw(st.permutations("abcde"[:n]))))
    image = FinitePoset(tuple(draw(st.permutations(tuple(sigma.values())))),
                        [(sigma[x], sigma[y]) for x, y in space.pairs])
    fns = [RationalFn(labels, dict(zip(labels, draw(st.lists(VALUES, min_size=n,
                                                             max_size=n)))))
           for _ in range(2)]
    moved = [RationalFn(tuple(draw(st.permutations(image.elements))),
                        {sigma[x]: v for x, v in f.values.items()}) for f in fns]
    return space, image, sigma, fns, moved


def move(f: RationalFn, sigma: dict) -> RationalFn:
    return RationalFn(tuple(sigma[x] for x in f.carrier),
                      {sigma[x]: v for x, v in f.values.items()})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=relabeled(), seed=st.integers(0, 1000))
def test_verdicts_correspond_under_relabeling(case, seed):
    space, image, sigma, (a, b), (a2, b2) = case
    oracle, oracle2 = ProximityOracle.from_order(space), ProximityOracle.from_order(image)

    for (u, v), (u2, v2) in (((a, b), (a2, b2)), ((b, a), (b2, a2)), ((a, a), (a2, a2))):
        related, witness = prox_decide(oracle, u, v)
        related2, witness2 = prox_decide(oracle2, u2, v2)
        assert related2 == related
        assert witness2 == (move(witness, sigma) if related else None)

    for direction in ("upper", "lower"):
        assert (monotone_envelope(a2, image, direction)
                == move(monotone_envelope(a, space, direction), sigma))

    spec = induced_order(SubalgebraPartition.discrete(space.elements), oracle)
    spec2 = induced_order(SubalgebraPartition.discrete(b2.carrier), oracle2)
    assert spec2.is_partial_order == spec.is_partial_order
    for x in space.elements:
        for y in space.elements:
            assert (spec2.order.leq(f"M({sigma[x]})", f"M({sigma[y]})")
                    == spec.order.leq(f"M({x})", f"M({y})"))

    target = monotone_envelope(a, space)
    target2 = monotone_envelope(a2, image).on(b2.carrier)
    for eps in (Fraction(1, 2), Fraction(1, 16)):
        cert = sw_approximate(target, SbalSkeleton(space), eps)
        cert2 = sw_approximate(target2, SbalSkeleton(image), eps)
        assert cert2.approximant == move(cert.approximant, sigma)
        assert (cert2.family_size, len(cert2.grid)) == (cert.family_size, len(cert.grid))

    def failed(report):
        return [r.name for r in report.results if not r.passed]

    assert (failed(check_axioms(oracle2, samples=8, seed=seed, include_devries=True))
            == failed(check_axioms(oracle, samples=8, seed=seed, include_devries=True)))
    assert (failed(check_skeleton_axioms(oracle2.skeleton, samples=8, seed=seed))
            == failed(check_skeleton_axioms(oracle.skeleton, samples=8, seed=seed)) == [])
