"""Constructive approximation inside skeleton cones.

Two procedures, both exact over the rationals.

:func:`sw_approximate` builds, for a cone member f and a tolerance eps, a
member a of the cone with ||f - a|| <= eps out of finitely many canonical
pieces.  For a grid value r and a point y below the level set
F_r = {f >= r} the piece

    a_{r,y} = r + (s - r) * (b_y ^ 1),    b_y = 2 * c*_y,

(with s = max f and c*_y the 0/1 indicator of the complement of y's
downset) satisfies r <= a_{r,y} <= s, equals r at y and s on F_r, and
dominates f.  One piece is chosen per carrier point, with r the smallest
grid value above f at that point, and a is the meet of the chosen pieces.
The grid is the ladder min f + k*eps/2 up to s, which makes the chosen r
land within eps of f pointwise, plus the attained values of f (s among
them) that are off the ladder.  It is held as (bottom, step, top) and the
off-ladder values, so each r is found in closed form and the work per
call does not grow with range/eps.  The returned certificate carries the
grid, which answers size, membership and the next member above a value,
and every constructed piece, so the inequalities above can be re-checked
verbatim.

:func:`dieudonne_claim` interpolates: given f totally below g and a
radius r, it returns a cone member a with f - r <= a <= g.  The lemma
allows f totally below g only in the limit of approximant pairs, but the
relation {(a, b) : env(a) <= b} of a skeleton oracle is closed in the sup
norm (the envelope is 1-Lipschitz), so such a limit pair is related
itself.  The claim therefore takes the pair on the nose and refuses an
unrelated one, naming a point where env(f) > g.  What this reading drops
is only a fixed-radius claim for an unrelated pair that has a related
pair within r/2 of it.  :func:`dieudonne_sequence` iterates
the claim with radii 1/2, 1/4, ... producing a trace a_0 = a_1, a_2, ...
satisfying, exactly at every step n >= 1,

    f - 1/2^n <= a_n <= g                          (lower-upper bounds)
    a_{n-1} - 1/2^{n-1} <= a_n <= a_{n-1} + 1/2^{n-1}   (successive gaps)

so the terms form a Cauchy sequence approaching the order interval [f, g]
inside the cone.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import NoApproximantWithinTolerance, NonPositiveEpsilon, TooLargeToEnumerate
from .fnalg import RationalFn, _Record, as_fraction
from .order import require_monotone
from .proximity import ProximityOracle, separation_point
from .sbal import SbalSkeleton
from .spectrum import canonical_witness


class FamilyMember(_Record):
    """One constructed piece a_{r,y}, with the level set it tops out on."""

    __slots__ = ("r", "y", "fn", "upset")

    def __init__(self, r: Fraction, y: str, fn: RationalFn, upset: tuple):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "upset", upset)


class SWGrid(_Record):
    """The grid the levels r are chosen from, held in closed form.

    Its members are the ladder bottom + k*step for k >= 1 up to top, and
    ``off_ladder``: the sorted attained values in (bottom, top], top among
    them, that are not on the ladder.  Size, membership and the next member
    above a value are computed without listing the ladder.
    """

    __slots__ = ("bottom", "step", "top", "off_ladder")

    def __init__(self, bottom: Fraction, step: Fraction, top: Fraction, off_ladder: tuple):
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "off_ladder", off_ladder)

    @classmethod
    def from_values(cls, values: Sequence[Fraction], epsilon: Fraction) -> SWGrid:
        bottom, step = min(values), epsilon / 2
        off = {v for v in values if (v - bottom) % step}
        return cls(bottom, step, max(values), tuple(sorted(off)))

    @property
    def size(self) -> int:
        """The number of members; it may exceed ``sys.maxsize``, which ``len`` cannot."""
        return (self.top - self.bottom) // self.step + len(self.off_ladder)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, value) -> bool:
        return value in self.off_ladder or (
            self.bottom < value <= self.top and not (value - self.bottom) % self.step)

    def above(self, value) -> Fraction:
        """The least member strictly greater than value, which must be below top."""
        if value >= self.top:
            raise ValueError(f"no grid member lies above {value}")
        k = max((value - self.bottom) // self.step + 1, 1)
        i = bisect_right(self.off_ladder, value)
        return min(self.bottom + k * self.step,
                   self.off_ladder[i] if i < len(self.off_ladder) else self.top)


class SWCertificate:
    """Approximant plus everything needed to re-check it from scratch."""

    def __init__(self, approximant: RationalFn, epsilon: Fraction, grid: SWGrid,
                 family: Tuple[FamilyMember, ...], cover: tuple):
        self.approximant = approximant
        self.epsilon = epsilon
        self.grid = grid
        self.family = family
        self.cover = cover

    @property
    def family_size(self) -> int:
        return len(self.family)

    def to_dict(self) -> dict:
        return {"approximant": self.approximant.to_dict(),
                "epsilon": str(self.epsilon),
                "family_size": self.family_size,
                "grid_size": self.grid.size,
                "cover": [[x, i] for x, i in self.cover]}


def sw_approximate(f: RationalFn, skeleton: SbalSkeleton, epsilon) -> SWCertificate:
    """A cone member within epsilon of f, in the uniform norm, with certificate.

    f must itself be a cone member; the meet of the constructed pieces then
    satisfies f <= a and a <= f + epsilon pointwise, both exactly.
    """
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise NonPositiveEpsilon("the tolerance must be positive", {"epsilon": str(epsilon)})
    order = skeleton.order
    require_monotone(f, order)

    grid = SWGrid.from_values([f.values[x] for x in order.elements], epsilon)
    if f.is_constant():
        return SWCertificate(f, epsilon, grid, (), ())

    top = f.max_value()

    family: List[FamilyMember] = []
    index: dict = {}
    cover: List[tuple] = []

    def member(r: Fraction, y: str) -> int:
        if (r, y) in index:
            return index[(r, y)]
        b_y = canonical_witness(order, (y,)).scale(2)
        fn = b_y.meet(1).scale(top - r) + r
        upset = tuple(x for x in order.elements if f.values[x] >= r)
        family.append(FamilyMember(r, y, fn, upset))
        index[(r, y)] = len(family) - 1
        return index[(r, y)]

    for x in order.elements:
        value = f.values[x]
        if value < top:
            r = grid.above(value)
            cover.append((x, member(r, x)))
        else:
            y = next(z for z in order.elements if f.values[z] < top)
            cover.append((x, member(top, y)))

    approximant = family[cover[0][1]].fn
    for _, i in cover[1:]:
        approximant = approximant.meet(family[i].fn)

    return SWCertificate(approximant, epsilon, grid, tuple(family), tuple(cover))


def dieudonne_claim(f: RationalFn, g: RationalFn, oracle: ProximityOracle, r) -> RationalFn:
    """A cone member a with f - r <= a <= g, for f totally below g.

    The oracle's interpolant between f and g, lowered by r/2.
    """
    r = as_fraction(r)
    if r <= 0:
        raise NonPositiveEpsilon("the radius must be positive", {"radius": str(r)})
    w = oracle.witness(f)
    if not w.le(g):
        raise NoApproximantWithinTolerance(
            "f is not totally below g", {"radius": str(r), **separation_point(oracle, f, g)})
    return w - r / 2


class DieudonneTrace:
    """The refinement sequence a_0 = a_1, a_2, ..., with its inputs."""

    def __init__(self, f: RationalFn, g: RationalFn, terms: Tuple[RationalFn, ...],
                 limit_witness: RationalFn):
        self.f = f
        self.g = g
        self.terms = terms
        self.limit_witness = limit_witness

    @property
    def steps(self) -> int:
        return len(self.terms) - 1

    def bound_violations(self) -> List[dict]:
        """Exact per-step checks of the two trace invariants; empty means good."""
        out = []
        for n in range(1, len(self.terms)):
            a_n, prev = self.terms[n], self.terms[n - 1]
            tol = Fraction(1, 2 ** n)
            gap = Fraction(1, 2 ** (n - 1))
            if not (self.f - tol).le(a_n):
                out.append({"step": n, "invariant": "lower"})
            if not a_n.le(self.g):
                out.append({"step": n, "invariant": "upper"})
            if (a_n - prev).sup_norm() > gap:
                out.append({"step": n, "invariant": "gap"})
        return out

    def to_dict(self) -> dict:
        return {"steps": self.steps,
                "terms": [t.to_dict()["values"] for t in self.terms],
                "violations": self.bound_violations(),
                "limit_witness": self.limit_witness.to_dict()["values"]}


# Term n of a trace carries denominators of 2^n, so a report grows about
# quadratically with the step count; longer traces are refused.
DIEUDONNE_STEP_CAP = 256


def dieudonne_sequence(f: RationalFn, g: RationalFn, oracle: ProximityOracle,
                       steps: int) -> DieudonneTrace:
    """Iterate the interpolation claim with dyadically shrinking radii.

    Step m squeezes the next term between f v (a_m - 1/2^{m+1}) minus the
    new radius and g ^ (a_m + 1/2^m), reusing the claim on the squeezed
    pair.  The exact order-interval witness (the envelope of f, met with g)
    is reported alongside the trace.
    """
    if steps < 1:
        raise NonPositiveEpsilon("need at least one step", {"steps": steps})
    if steps > DIEUDONNE_STEP_CAP:
        raise TooLargeToEnumerate(f"a trace is capped at {DIEUDONNE_STEP_CAP} steps",
                                  {"steps": steps, "cap": DIEUDONNE_STEP_CAP})
    a1 = dieudonne_claim(f, g, oracle, Fraction(1, 2))
    terms = [a1, a1]
    for m in range(1, steps):
        lower_pad = Fraction(1, 2 ** (m + 1))
        upper_pad = Fraction(1, 2 ** m)
        a_m = terms[-1]
        u = f.join(a_m - lower_pad)
        v = g.meet(a_m + upper_pad)
        terms.append(dieudonne_claim(u, v, oracle, lower_pad))
    return DieudonneTrace(f, g, tuple(terms), oracle.witness(f).meet(g))
