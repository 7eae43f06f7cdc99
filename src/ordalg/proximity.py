"""Proximity relations on finite function algebras.

A proximity here is a binary relation ``a prox b`` on functions refining
the pointwise order, read "a is totally below b".  Every skeleton cone S
induces one:

    a prox b  iff  some member s of S has a <= s <= b,

and on a finite carrier this is decidable through envelopes: the least
cone member above a is the upper monotone envelope, so

    a prox b  iff  upper_envelope(a) <= b  iff  a <= lower_envelope(b).

The reflexive elements (a prox a) are exactly the cone members, so the
relation and the cone determine each other.

Every oracle decides through the envelope of its skeleton.  The plane
analog ``r2`` is no exception: it is the skeleton oracle of the two-way
complete quasi-order on a two-point carrier, whose reflexive elements are
the constants, and its ``kind`` is only the name reports print.  The
closed form max(a) <= min(b) lives in the tests, as the independent
reference the envelope route is compared with.

:func:`check_axioms` runs the seeded axiom suite: order compatibility
(P1-P4), interpolation (P5, and RP5 which asks for a reflexive
interpolant), additive and multiplicative compatibility (P6, P7), constants
(P8), scaling (P9), and optionally the de Vries style negation axiom (P11)
and positive density (P12), both of which genuinely fail for most cones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from . import rng as rngmod
from .fnalg import RationalFn, SubalgebraPartition, check_carrier
from .order import QuasiOrder, complete_quasi_order, monotone_envelope
from .sbal import AxiomReport, AxiomResult, SbalSkeleton, _doc

R2_CARRIER = ("x", "y")


class ProximityOracle:
    """A decidable proximity on the full function algebra of a carrier."""

    __slots__ = ("kind", "skeleton")

    def __init__(self, kind: str, skeleton: SbalSkeleton):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "skeleton", skeleton)

    def __setattr__(self, name, value):
        raise AttributeError("ProximityOracle is immutable")

    @classmethod
    def from_skeleton(cls, skeleton: SbalSkeleton) -> "ProximityOracle":
        return cls("skeleton", skeleton)

    @classmethod
    def from_order(cls, order: QuasiOrder) -> "ProximityOracle":
        return cls("skeleton", SbalSkeleton(order))

    @classmethod
    def r2(cls) -> "ProximityOracle":
        return cls("r2", SbalSkeleton(complete_quasi_order(R2_CARRIER)))

    @property
    def carrier(self) -> tuple:
        return self.skeleton.carrier

    def decide(self, a: RationalFn, b: RationalFn) -> bool:
        return self.skeleton.envelope(a).le(b)

    def witness(self, a: RationalFn) -> RationalFn:
        """The least cone member above a; interpolates whenever a prox b."""
        return self.skeleton.envelope(a)

    def __repr__(self) -> str:
        return f"ProximityOracle({self.kind!r}, {self.skeleton.order!r})"


def prox_decide(oracle: ProximityOracle, a: RationalFn,
                b: RationalFn) -> Tuple[bool, Optional[RationalFn]]:
    """Decide a prox b; on success also return an interpolating member s.

    The witness satisfies a <= s <= b, s reflexive, and is canonical (the
    envelope), so repeated runs return identical certificates.
    """
    if not oracle.decide(a, b):
        return False, None
    return True, oracle.witness(a)


def separation_point(oracle: ProximityOracle, a: RationalFn, b: RationalFn) -> dict:
    """Machine-readable reason why a prox b fails: a point where env(a) > b."""
    env = oracle.witness(a)
    x = next(x for x in env.carrier if env.values[x] > b.values[x])
    return {"point": x, "envelope": str(env.values[x]), "bound": str(b.values[x])}


def _strict_pair_counterexample(oracle: ProximityOracle) -> Optional[RationalFn]:
    """A reflexive element whose negation is not reflexive, if one exists.

    Take any strictly related pair x < y and the indicator of y's upset:
    it is monotone, but its negation decreases along x < y.  No such pair
    means the relation is symmetric and negation preserves the cone.
    """
    order = oracle.skeleton.order
    pairs = order.strict_pairs()
    if not pairs:
        return None
    _, y = pairs[0]
    return RationalFn(order.elements,
                      {z: Fraction(1) if order.leq(y, z) else Fraction(0)
                       for z in order.elements})


def positive_below(oracle: ProximityOracle, b: RationalFn) -> Optional[RationalFn]:
    """A function a with 0 < a prox b, or None when none exists.

    a prox b constrains a <= lower_envelope(b); a nonzero nonnegative a
    fits under that bound iff the bound is itself nonnegative and nonzero,
    in which case the bound is the canonical witness.
    """
    low = monotone_envelope(b, oracle.skeleton.order, "lower")
    if low.ge(0) and low != RationalFn.zero(low.carrier):
        return low
    return None


PROX_AXIOMS = ("P1", "P2", "P3", "P4", "P5", "RP5", "P6", "P7", "P8", "P9")
DEVRIES_AXIOMS = ("P11", "P12")


def check_axioms(oracle: ProximityOracle, *, samples: int = 1000,
                 seed: int = rngmod.DEFAULT_SEED,
                 include_devries: bool = False) -> AxiomReport:
    """Seeded axiom suite for a proximity oracle.

    Premises are built constructively in about half the rounds (so each
    axiom is exercised non-vacuously) and drawn blindly in the rest.  The
    report carries, per axiom, the number of rounds, the number of rounds
    whose premise held, and the first counterexample if any.  P11 and P12
    additionally try a deterministic candidate derived from the order, so
    a falsifiable instance is reported even if random sampling misses it.
    """
    rng = rngmod.rng_for(seed, "prox-axioms")
    carrier = oracle.carrier
    names = PROX_AXIOMS + (DEVRIES_AXIOMS if include_devries else ())
    runs = {name: AxiomResult(name) for name in names}

    def rand_fn() -> RationalFn:
        return RationalFn(carrier, rngmod.sample_values(rng, carrier))

    def nonneg_fn() -> RationalFn:
        return RationalFn(carrier, rngmod.sample_nonneg_values(rng, carrier))

    def above(f: RationalFn) -> RationalFn:
        """Something f is totally below, by construction."""
        return oracle.witness(f) + nonneg_fn()

    def related_pair() -> Tuple[RationalFn, RationalFn]:
        a = rand_fn()
        b = above(a) if rng.random() < 0.5 else rand_fn()
        return a, b

    for _ in range(samples):
        # P1: a prox b implies a <= b.
        a, b = related_pair()
        runs["P1"].record(oracle.decide(a, b), a.le(b), lambda: _doc(a=a, b=b))

        # P2: a <= b prox c <= d implies a prox d.
        b2 = rand_fn()
        c2 = above(b2) if rng.random() < 0.5 else rand_fn()
        a2 = b2 - nonneg_fn()
        d2 = c2 + nonneg_fn()
        runs["P2"].record(oracle.decide(b2, c2), oracle.decide(a2, d2),
                          lambda: _doc(a=a2, b=b2, c=c2, d=d2))

        # P3: a prox b and a prox c imply a prox b ^ c.
        a3 = rand_fn()
        b3 = above(a3) if rng.random() < 0.5 else rand_fn()
        c3 = above(a3) if rng.random() < 0.5 else rand_fn()
        runs["P3"].record(oracle.decide(a3, b3) and oracle.decide(a3, c3),
                          oracle.decide(a3, b3.meet(c3)),
                          lambda: _doc(a=a3, b=b3, c=c3))

        # P4: a prox c and b prox c imply a v b prox c.
        a4, b4 = rand_fn(), rand_fn()
        c4 = (oracle.witness(a4).join(oracle.witness(b4)) + nonneg_fn()
              if rng.random() < 0.5 else rand_fn())
        runs["P4"].record(oracle.decide(a4, c4) and oracle.decide(b4, c4),
                          oracle.decide(a4.join(b4), c4),
                          lambda: _doc(a=a4, b=b4, c=c4))

        # P5 / RP5: interpolation, with a reflexive interpolant for RP5.
        a5, b5 = related_pair()
        if oracle.decide(a5, b5):
            w = oracle.witness(a5)
            interpolates = oracle.decide(a5, w) and oracle.decide(w, b5)
            runs["P5"].record(True, interpolates, lambda: _doc(a=a5, b=b5, c=w))
            runs["RP5"].record(True, interpolates and oracle.decide(w, w),
                               lambda: _doc(a=a5, b=b5, c=w))
        else:
            runs["P5"].record(False, True, dict)
            runs["RP5"].record(False, True, dict)

        # P6: additivity in both slots.
        a6, b6 = related_pair()
        c6, d6 = related_pair()
        runs["P6"].record(oracle.decide(a6, b6) and oracle.decide(c6, d6),
                          oracle.decide(a6 + c6, b6 + d6),
                          lambda: _doc(a=a6, b=b6, c=c6, d=d6))

        # P7: products of nonnegative related pairs.
        a7 = abs(rand_fn())
        b7 = above(a7) if rng.random() < 0.5 else abs(rand_fn())
        c7 = abs(rand_fn())
        d7 = above(c7) if rng.random() < 0.5 else abs(rand_fn())
        runs["P7"].record(oracle.decide(a7, b7) and oracle.decide(c7, d7),
                          oracle.decide(a7 * c7, b7 * d7),
                          lambda: _doc(a=a7, b=b7, c=c7, d=d7))

        # P8: every constant is reflexive.
        r8 = RationalFn.constant(carrier, rngmod.sample_scalar(rng))
        runs["P8"].record(True, oracle.decide(r8, r8), lambda: _doc(r=r8))

        # P9: nonnegative scaling preserves the relation.
        a9, b9 = related_pair()
        r9 = rngmod.sample_nonneg_scalar(rng)
        runs["P9"].record(oracle.decide(a9, b9),
                          oracle.decide(a9.scale(r9), b9.scale(r9)),
                          lambda: _doc(a=a9, b=b9, r=r9))

        if include_devries:
            # P11: a prox b implies -b prox -a.
            a11, b11 = related_pair()
            runs["P11"].record(oracle.decide(a11, b11),
                               oracle.decide(-b11, -a11),
                               lambda: _doc(a=a11, b=b11))
            # P12: below any 0 < b sits some 0 < a.
            b12 = abs(rand_fn())
            premise = b12 != RationalFn.zero(carrier)
            runs["P12"].record(premise,
                               positive_below(oracle, b12) is not None if premise else True,
                               lambda: _doc(b=b12))

    if include_devries:
        # Deterministic candidates, independent of the sampling above.
        c = _strict_pair_counterexample(oracle)
        if c is not None:
            runs["P11"].record(oracle.decide(c, c), oracle.decide(-c, -c),
                               lambda: _doc(a=c, b=c))
        # The point indicator with the best chance to falsify P12: one
        # whose upset is nontrivial, so its lower envelope collapses to 0.
        order = oracle.skeleton.order
        probe = next((x for x in carrier if order.upset(x) != (x,)), carrier[0])
        peak = RationalFn(carrier, {x: Fraction(1) if x == probe else Fraction(0)
                                    for x in carrier})
        runs["P12"].record(peak != RationalFn.zero(carrier),
                           positive_below(oracle, peak) is not None,
                           lambda: _doc(b=peak))

    report = AxiomReport(subject=f"proximity:{oracle.kind}", seed=seed, samples=samples)
    report.results = list(runs.values())
    return report


def combined_order(oracle: ProximityOracle, algebra: SubalgebraPartition) -> QuasiOrder:
    """The quasi-order presenting the cone elements that lie in a subalgebra.

    A function is reflexive for the oracle and belongs to the subalgebra
    iff it is monotone for the closure of the oracle's order together with
    both directions of every block, so that single quasi-order presents
    the relative cone.
    """
    check_carrier(algebra.carrier, oracle.carrier)
    pairs = set(oracle.skeleton.order.pairs)
    for block in algebra.blocks:
        for u in block:
            for v in block:
                pairs.add((u, v))
    return QuasiOrder(oracle.skeleton.order.elements, pairs)


def is_nachbin(algebra: SubalgebraPartition, oracle: ProximityOracle) -> bool:
    """Density of the envelope of the relative cone in the subalgebra.

    The envelope consists of the functions constant on the two-way classes
    of the combined order; on a finite carrier density is equality, which
    holds iff those classes are exactly the algebra's blocks.
    """
    classes = combined_order(oracle, algebra).equiv_blocks()
    return SubalgebraPartition(algebra.carrier, classes).blocks == algebra.blocks
