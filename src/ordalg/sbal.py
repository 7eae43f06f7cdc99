"""Skeleton cones and their formal-difference envelopes.

The member set of a :class:`SbalSkeleton` is the monotone cone of a
quasi-order: all order-preserving rational functions on the carrier.  The
cone is closed under addition, join, meet, nonnegative scaling, shifts by
arbitrary rationals, and products of nonnegative members, and it contains
the constants.  It is not closed under negation; the envelope below
repairs exactly that.

:class:`EnvelopePair` represents a formal difference ``pos - neg`` of two
cone members.  Two pairs are identified when ``pos + other.neg ==
other.pos + neg``, which is ordinary cancellation, so the quotient embeds
into the full function algebra by evaluating the difference.  All pair
operations are chosen so that this evaluation is a lattice-algebra
morphism:

    [a,b] + [c,d] = [a+c, b+d]
    [a,b] * [c,d] = [ac+bd, ad+bc]        (on nonnegative representatives)
    [a,b] v [c,d] = [(a+d) v (b+c), b+d]
    [a,b] ^ [c,d] = [(a+d) ^ (b+c), b+d]
    [a,b] <= [c,d]  iff  a+d <= c+b
    r[a,b] = [ra, rb] and (-r)[a,b] = [rb, ra] for r >= 0.

Multiplication is only performed after shifting both representatives to be
nonnegative (``[a,b] = [a+r, b+r]`` for any rational r), which keeps all
four products inside the cone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from . import rng as rngmod
from .errors import CarrierMismatch, NotAMorphism
from .fnalg import RationalFn, SubalgebraPartition, _Immutable, as_fraction
from .order import QuasiOrder, is_monotone, monotone_envelope, require_monotone


class SbalSkeleton(_Immutable):
    """The monotone cone of a quasi-order, with membership and sampling."""

    __slots__ = ("order",)

    def __init__(self, order: QuasiOrder):
        object.__setattr__(self, "order", order)

    @property
    def carrier(self) -> tuple:
        return self.order.elements

    def contains(self, f: RationalFn) -> bool:
        return is_monotone(f, self.order)

    def contains_nonneg(self, f: RationalFn) -> bool:
        return is_monotone(f, self.order) and f.ge(0)

    def require_member(self, f: RationalFn) -> None:
        require_monotone(f, self.order)

    def envelope(self, f: RationalFn) -> RationalFn:
        """Least member above f; equals f exactly when f is a member."""
        return monotone_envelope(f, self.order, "upper")

    def zero(self) -> RationalFn:
        return RationalFn.zero(self.carrier)

    def one(self) -> RationalFn:
        return RationalFn.one(self.carrier)

    def sample_member(self, rng: random.Random) -> RationalFn:
        """A random member: the envelope of a random function."""
        return self.envelope(
            RationalFn._make(self.carrier, rngmod.sample_values(rng, self.carrier)))

    def sample_nonneg_member(self, rng: random.Random) -> RationalFn:
        return self.envelope(
            RationalFn._make(self.carrier, rngmod.sample_nonneg_values(rng, self.carrier)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SbalSkeleton):
            return NotImplemented
        return self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"SbalSkeleton({self.order!r})"


class EnvelopePair(_Immutable):
    """A formal difference of two skeleton members."""

    __slots__ = ("skeleton", "pos", "neg")

    def __init__(self, skeleton: SbalSkeleton, pos: RationalFn, neg: RationalFn):
        skeleton.require_member(pos)
        skeleton.require_member(neg)
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    @classmethod
    def _make(cls, skeleton: SbalSkeleton, pos: RationalFn, neg: RationalFn) -> "EnvelopePair":
        """A pair from representatives already in the cone; nothing is checked.

        The cone is closed under every operation that derives a pair from
        pairs (shifts, sums, swapping the representatives, products of
        nonnegative members, nonnegative scaling, join and meet), so derived
        pairs come through here and only the public constructor validates.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "skeleton", skeleton)
        object.__setattr__(p, "pos", pos)
        object.__setattr__(p, "neg", neg)
        return p

    @classmethod
    def zero(cls, skeleton: SbalSkeleton) -> "EnvelopePair":
        z = skeleton.zero()
        return cls(skeleton, z, z)

    @classmethod
    def one(cls, skeleton: SbalSkeleton) -> "EnvelopePair":
        return cls(skeleton, skeleton.one(), skeleton.zero())

    def diff(self) -> RationalFn:
        """The value pos - neg in the ambient function algebra."""
        return self.pos - self.neg

    def _coerce(self, other) -> "EnvelopePair":
        if isinstance(other, EnvelopePair):
            if other.skeleton != self.skeleton:
                raise CarrierMismatch("pairs built over different skeletons")
            return other
        r = as_fraction(other)
        return EnvelopePair(self.skeleton,
                            RationalFn.constant(self.skeleton.carrier, max(r, 0)),
                            RationalFn.constant(self.skeleton.carrier, max(-r, 0)))

    def shift(self, r) -> "EnvelopePair":
        """The same class with both representatives moved by r."""
        r = as_fraction(r)
        return EnvelopePair._make(self.skeleton, self.pos + r, self.neg + r)

    def nonneg_representative(self) -> "EnvelopePair":
        low = min(self.pos.min_value(), self.neg.min_value())
        return self.shift(max(Fraction(0), -low))

    def __add__(self, other):
        q = self._coerce(other)
        return EnvelopePair._make(self.skeleton, self.pos + q.pos, self.neg + q.neg)

    __radd__ = __add__

    def __neg__(self):
        return EnvelopePair._make(self.skeleton, self.neg, self.pos)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        u = self.nonneg_representative()
        v = self._coerce(other).nonneg_representative()
        a, b, c, d = u.pos, u.neg, v.pos, v.neg
        return EnvelopePair._make(self.skeleton, a * c + b * d, a * d + b * c)

    __rmul__ = __mul__

    def scale(self, r) -> "EnvelopePair":
        r = as_fraction(r)
        if r >= 0:
            return EnvelopePair._make(self.skeleton, self.pos.scale(r), self.neg.scale(r))
        return EnvelopePair._make(self.skeleton, self.neg.scale(-r), self.pos.scale(-r))

    def join(self, other) -> "EnvelopePair":
        q = self._coerce(other)
        a, b, c, d = self.pos, self.neg, q.pos, q.neg
        return EnvelopePair._make(self.skeleton, (a + d).join(b + c), b + d)

    def meet(self, other) -> "EnvelopePair":
        q = self._coerce(other)
        a, b, c, d = self.pos, self.neg, q.pos, q.neg
        return EnvelopePair._make(self.skeleton, (a + d).meet(b + c), b + d)

    def le(self, other) -> bool:
        q = self._coerce(other)
        return (self.pos + q.neg).le(q.pos + self.neg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnvelopePair):
            return NotImplemented
        if other.skeleton != self.skeleton:
            return False
        return self.pos + other.neg == other.pos + self.neg

    def __hash__(self) -> int:
        return hash(self.diff())

    def __repr__(self) -> str:
        return f"EnvelopePair(pos={self.pos!r}, neg={self.neg!r})"


def _vjoin(u, v):
    return u.join(v) if isinstance(u, RationalFn) else max(u, v)


def _vmeet(u, v):
    return u.meet(v) if isinstance(u, RationalFn) else min(u, v)


def envelope_umt(alpha: Callable[[RationalFn], object], p: EnvelopePair, *,
                 verify: bool = True, seed: int = rngmod.DEFAULT_SEED,
                 samples: int = 32):
    """Value at p of the unique extension of alpha along the embedding.

    alpha must be a cone morphism into a lattice-ordered algebra: additive,
    join/meet-preserving, multiplicative on nonnegative members, and
    compatible with nonnegative scalars and the unit.  The extension is
    forced by additivity: beta([a,b]) = alpha(a) - alpha(b), and this is
    well defined on equivalence classes by cancellation.  With ``verify``
    the morphism laws are spot-checked on seeded samples and a violation
    raises NotAMorphism.
    """
    skeleton = p.skeleton
    if verify:
        rng = rngmod.rng_for(seed, "envelope-umt")
        for i in range(samples):
            a = skeleton.sample_member(rng)
            b = skeleton.sample_member(rng)
            checks = [
                ("additive", alpha(a + b), alpha(a) + alpha(b)),
                ("join", alpha(a.join(b)), _vjoin(alpha(a), alpha(b))),
                ("meet", alpha(a.meet(b)), _vmeet(alpha(a), alpha(b))),
            ]
            pp = skeleton.sample_nonneg_member(rng)
            qq = skeleton.sample_nonneg_member(rng)
            checks.append(("multiplicative", alpha(pp * qq), alpha(pp) * alpha(qq)))
            r = rngmod.sample_nonneg_scalar(rng)
            checks.append(("homogeneous", alpha(a.scale(r)), r * alpha(a)))
            for law, lhs, rhs in checks:
                if lhs != rhs:
                    raise NotAMorphism(f"alpha fails the {law} law on a sampled input",
                                       {"law": law, "sample": i})
    return alpha(p.pos) - alpha(p.neg)


def concrete_envelope(skeleton: SbalSkeleton) -> SubalgebraPartition:
    """The closed subalgebra generated by the envelope: block-constant functions.

    Formal differences of cone members are exactly the functions constant
    on each two-way class of the quasi-order, so the envelope is presented
    by that partition.
    """
    return SubalgebraPartition(skeleton.carrier, skeleton.order.equiv_blocks())


class AxiomResult:
    """Outcome of one axiom over a seeded sample run; the first failure is kept."""

    def __init__(self, name: str, checked: int = 0, premise_hits: int = 0,
                 counterexample: Optional[dict] = None):
        self.name = name
        self.checked = checked
        self.premise_hits = premise_hits
        self.counterexample = counterexample

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def record(self, premise: bool, conclusion: bool, witness: Callable[[], dict]) -> None:
        self.checked += 1
        if not premise:
            return
        self.premise_hits += 1
        if not conclusion and self.counterexample is None:
            self.counterexample = witness()

    def to_dict(self) -> dict:
        return {"name": self.name, "checked": self.checked,
                "premise_hits": self.premise_hits, "passed": self.passed,
                "counterexample": self.counterexample}


class AxiomReport:
    """Per-axiom results for one object under test."""

    def __init__(self, subject: str, seed: int, samples: int,
                 results: Optional[List[AxiomResult]] = None):
        self.subject = subject
        self.seed = seed
        self.samples = samples
        self.results = [] if results is None else results

    def result(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def all_passed(self, names: Optional[Sequence[str]] = None) -> bool:
        if names is None:
            return all(r.passed for r in self.results)
        return all(self.result(n).passed for n in names)

    def to_dict(self) -> dict:
        return {"subject": self.subject, "seed": self.seed, "samples": self.samples,
                "results": [r.to_dict() for r in self.results]}


def _doc(**fields) -> dict:
    """A counterexample document: functions as value maps, scalars as strings."""
    return {k: {x: str(v) for x, v in f.values.items()} if isinstance(f, RationalFn) else str(f)
            for k, f in fields.items()}


def archimedean_premise(a: RationalFn, b: RationalFn, c: RationalFn,
                        d: RationalFn) -> bool:
    """Exactly decide "n*a + b <= n*c + d for every natural n >= 1".

    On a finite carrier the quantified family collapses pointwise: the
    slope condition a <= c must hold, strictly unless the n = 1 instance
    already forces b <= d at that point.
    """
    return all(
        (a.values[x] < c.values[x]
         and a.values[x] + b.values[x] <= c.values[x] + d.values[x])
        or (a.values[x] == c.values[x] and b.values[x] <= d.values[x])
        for x in a.carrier)


def check_skeleton_axioms(skeleton: SbalSkeleton, *, samples: int = 1000,
                          seed: int = rngmod.DEFAULT_SEED) -> AxiomReport:
    """Seeded verification of the ordered-algebra laws S1 to S9 on the cone.

    S1 order-translation, S2/S3 join and meet translation, S4 commutative
    unital multiplication on nonnegative members, S5 distributivity, S6
    product monotonicity, S7 embedding of the rational constants, S8
    boundedness, S9 the archimedean implication.  For S9 the premise
    "n*a + b <= n*c + d for every natural n" is decided exactly: on a
    finite carrier it holds iff at every point either a < c and
    a + b <= c + d, or a = c and b <= d.
    """
    rng = rngmod.rng_for(seed, "skeleton-axioms")
    # Constants for S7 and S8, on the skeleton's already checked carrier.
    const = lambda r: RationalFn._make(skeleton.carrier, dict.fromkeys(skeleton.carrier, r))
    runs = {name: AxiomResult(name) for name in
            ("S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9")}

    for _ in range(samples):
        a = skeleton.sample_member(rng)
        b = skeleton.sample_member(rng)
        c = skeleton.sample_member(rng)

        # S1: a <= b iff a + c <= b + c.
        runs["S1"].record(True, a.le(b) == (a + c).le(b + c), lambda: _doc(a=a, b=b, c=c))
        # S2/S3: translation distributes over join and meet.
        runs["S2"].record(True, a.join(b) + c == (a + c).join(b + c), lambda: _doc(a=a, b=b, c=c))
        runs["S3"].record(True, a.meet(b) + c == (a + c).meet(b + c), lambda: _doc(a=a, b=b, c=c))

        p = skeleton.sample_nonneg_member(rng)
        q = skeleton.sample_nonneg_member(rng)
        s = skeleton.sample_nonneg_member(rng)
        one = skeleton.one()
        s4 = (p * q == q * p and (p * q) * s == p * (q * s) and one * p == p
              and skeleton.contains_nonneg(p * q))
        runs["S4"].record(True, s4, lambda: _doc(p=p, q=q, s=s))
        runs["S5"].record(True, p * (q + s) == p * q + p * s, lambda: _doc(p=p, q=q, s=s))
        # S6: 0 <= p <= p + q and 0 <= s give p*s <= (p+q)*s.
        runs["S6"].record(True, (p * s).le((p + q) * s), lambda: _doc(p=p, q=q, s=s))

        r1 = rngmod.sample_scalar(rng)
        r2 = rngmod.sample_scalar(rng)
        s7 = (const(r1 + r2) == const(r1) + const(r2)
              and const(max(r1, r2)) == const(r1).join(const(r2))
              and const(min(r1, r2)) == const(r1).meet(const(r2))
              and const(r1 * r2) == const(r1) * const(r2)
              and const(Fraction(1)) == skeleton.one()
              and skeleton.contains(const(r1))
              and (r1 <= r2) == const(r1).le(const(r2)))
        runs["S7"].record(True, s7, lambda: _doc(r1=r1, r2=r2))

        bound = a.sup_norm()
        runs["S8"].record(True, const(-bound).le(a) and a.le(const(bound)),
                          lambda: _doc(a=a, bound=bound))

        # S9: half the rounds build the premise, half leave it to chance.
        if rng.random() < 0.5:
            aa, cc = a.meet(b), a.join(b)
            bb, dd = c, c + skeleton.sample_nonneg_member(rng)
        else:
            aa, cc, bb, dd = a, b, c, skeleton.sample_member(rng)
        premise = archimedean_premise(aa, bb, cc, dd)
        runs["S9"].record(premise, aa.le(cc) if premise else True,
                          lambda: _doc(a=aa, b=bb, c=cc, d=dd))

    report = AxiomReport(subject="skeleton", seed=seed, samples=samples)
    report.results = list(runs.values())
    return report
