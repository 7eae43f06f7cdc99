"""Positive cones and the shift construction recovering signed cones.

The positive members of a skeleton cone (monotone and nonnegative) form a
structure of their own: addition, join, meet, products, nonnegative
scalars, and a difference axiom (whenever a constant r sits below a, the
member a - r exists).  The whole signed cone is recovered from it by
formal shifts a - r with real r; on the concrete cones here the shifted
elements are simply the monotone functions again, via

    m  =  (m + max(0, -min m))  -  max(0, -min m),

so the two constructions are mutually inverse.  :func:`roundtrip_pq`
checks that inverse pair membership-by-membership on an exhaustive value
grid.  It compares two separate decision routes for each grid function m:
direct monotonicity of m against the order, and :func:`q_contains`, which
shifts m by its negative excursion and asks the positive cone about the
result.  The second route never asks whether m itself is monotone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

from .errors import NotInSkeleton, TooLargeToEnumerate
from .fnalg import RationalFn, as_fraction
from .order import QuasiOrder, is_monotone, require_monotone
from .sbal import SbalSkeleton

GRID_CAP = 3


class SbalPlusSkeleton:
    """The nonnegative members of a skeleton cone."""

    __slots__ = ("order",)

    def __init__(self, order: QuasiOrder):
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("SbalPlusSkeleton is immutable")

    @property
    def carrier(self) -> tuple:
        return self.order.elements

    def contains(self, f: RationalFn) -> bool:
        return is_monotone(f, self.order) and f.ge(0)

    def require_member(self, f: RationalFn) -> None:
        require_monotone(f, self.order)
        if not f.ge(0):
            x = next(x for x in f.carrier if f.values[x] < 0)
            raise NotInSkeleton(f"negative value at {x!r}",
                                {"element": x, "value": str(f.values[x])})

    def difference(self, a: RationalFn, r) -> RationalFn:
        """The member b with a = b + r, for a constant 0 <= r <= a."""
        r = as_fraction(r)
        self.require_member(a)
        if r < 0 or not RationalFn.constant(a.carrier, r).le(a):
            raise NotInSkeleton("the constant is not below the member",
                                {"r": str(r), "min": str(a.min_value())})
        b = a - r
        self.require_member(b)
        return b

    def __eq__(self, other) -> bool:
        if not isinstance(other, SbalPlusSkeleton):
            return NotImplemented
        return self.order == other.order

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.order))

    def __repr__(self) -> str:
        return f"SbalPlusSkeleton({self.order!r})"


def positive_cone(skeleton: SbalSkeleton) -> SbalPlusSkeleton:
    """P: keep the nonnegative members."""
    return SbalPlusSkeleton(skeleton.order)


def q_decompose(plus: SbalPlusSkeleton, m: RationalFn) -> Tuple[RationalFn, Fraction]:
    """Write a signed member as a - r with a in the positive cone.

    The canonical choice shifts by exactly the negative excursion of m.
    Raises NotMonotone, a NotInSkeleton, when m is not in the shift
    closure (that is, not monotone).
    """
    require_monotone(m, plus.order)
    r = max(Fraction(0), -m.min_value())
    a = m + r
    plus.require_member(a)
    return a, r


def q_contains(plus: SbalPlusSkeleton, m: RationalFn) -> bool:
    """Membership in the shift closure, decided through decomposition."""
    r = max(Fraction(0), -m.min_value())
    return plus.contains(m + r)


@dataclass
class PQRoundtripReport:
    """Membership agreement for both composite functors on a value grid."""

    carrier: tuple
    grid_points: int
    checked: int
    qp_mismatches: List[dict] = field(default_factory=list)
    pq_mismatches: List[dict] = field(default_factory=list)
    recompose_failures: List[dict] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not (self.qp_mismatches or self.pq_mismatches or self.recompose_failures)

    def to_dict(self) -> dict:
        return {"carrier": list(self.carrier), "grid_points": self.grid_points,
                "checked": self.checked, "identical": self.identical,
                "qp_mismatches": self.qp_mismatches[:5],
                "pq_mismatches": self.pq_mismatches[:5],
                "recompose_failures": self.recompose_failures[:5]}


def roundtrip_pq(skeleton: SbalSkeleton, *, bound: int = 2,
                 denominator: int = 4) -> PQRoundtripReport:
    """Exhaustive membership identity for QP on S and PQ on the positive cone.

    Every function with coordinates k/denominator in [-bound, bound] is
    tested: membership in S must agree with membership in Q(P(S)) decided
    through decomposition, and membership in P(S) with membership in
    (Q(P(S)))+ decided the same way; the canonical decomposition must also
    recompose to the original function.  Carriers above three points are
    refused (the grid grows exponentially).
    """
    carrier = skeleton.carrier
    if len(carrier) > GRID_CAP:
        raise TooLargeToEnumerate(f"grid roundtrip is capped at {GRID_CAP} points",
                                  {"carrier": len(carrier), "cap": GRID_CAP})
    plus = positive_cone(skeleton)
    values = [Fraction(k, denominator) for k in range(-bound * denominator,
                                                      bound * denominator + 1)]
    report = PQRoundtripReport(carrier, len(values) ** len(carrier), 0)
    for combo in itertools.product(values, repeat=len(carrier)):
        m = RationalFn._make(carrier, dict(zip(carrier, combo)))
        report.checked += 1
        direct = skeleton.contains(m)
        nonneg = m.ge(0)
        through_qp = q_contains(plus, m)
        if direct != through_qp:
            report.qp_mismatches.append({"fn": m.to_dict()["values"],
                                         "direct": direct, "qp": through_qp})
        # plus.contains(m) is exactly "direct and nonneg".
        direct_plus = direct and nonneg
        through_pq = through_qp and nonneg
        if direct_plus != through_pq:
            report.pq_mismatches.append({"fn": m.to_dict()["values"],
                                         "direct": direct_plus, "pq": through_pq})
        if direct:
            # q_decompose raises unless a is in the positive cone.
            a, r = q_decompose(plus, m)
            if a - r != m:
                report.recompose_failures.append({"fn": m.to_dict()["values"]})
    return report
