"""The positive cone and the shift construction recovering the signed cone.

The positive members of a skeleton cone (monotone and nonnegative) form a
structure of their own: addition, join, meet, products and nonnegative
scalars.  On the concrete cones here it is the predicate
:meth:`SbalSkeleton.contains_nonneg` on the same skeleton.  The whole
signed cone is recovered from it by formal shifts a - r with real r; the
shifted elements are simply the monotone functions again, via

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

from .errors import TooLargeToEnumerate
from .fnalg import RationalFn
from .order import require_monotone
from .sbal import SbalSkeleton

GRID_CAP = 3
GRID_BOUND = 2
GRID_DENOMINATOR = 4


def q_decompose(skeleton: SbalSkeleton, m: RationalFn) -> Tuple[RationalFn, Fraction]:
    """Write a signed member as a - r with a in the positive cone.

    The canonical choice shifts by exactly the negative excursion of m.
    Raises NotMonotone, a NotInSkeleton, when m is not in the shift
    closure (that is, not monotone).
    """
    require_monotone(m, skeleton.order)
    r = max(Fraction(0), -m.min_value())
    a = m + r
    skeleton.require_nonneg_member(a)
    return a, r


def q_contains(skeleton: SbalSkeleton, m: RationalFn) -> bool:
    """Membership in the shift closure, decided through decomposition."""
    r = max(Fraction(0), -m.min_value())
    return skeleton.contains_nonneg(m + r)


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


def roundtrip_pq(skeleton: SbalSkeleton) -> PQRoundtripReport:
    """Exhaustive membership identity for QP on S and PQ on the positive cone.

    Every function with coordinates k/GRID_DENOMINATOR in [-GRID_BOUND,
    GRID_BOUND] is tested: membership in S must agree with membership in Q(P(S)) decided
    through decomposition, and membership in P(S) with membership in
    (Q(P(S)))+ decided the same way; the canonical decomposition must also
    recompose to the original function.  Carriers above three points are
    refused (the grid grows exponentially).
    """
    carrier = skeleton.carrier
    if len(carrier) > GRID_CAP:
        raise TooLargeToEnumerate(f"grid roundtrip is capped at {GRID_CAP} points",
                                  {"carrier": len(carrier), "cap": GRID_CAP})
    span = GRID_BOUND * GRID_DENOMINATOR
    values = [Fraction(k, GRID_DENOMINATOR) for k in range(-span, span + 1)]
    report = PQRoundtripReport(carrier, len(values) ** len(carrier), 0)
    for combo in itertools.product(values, repeat=len(carrier)):
        m = RationalFn._make(carrier, dict(zip(carrier, combo)))
        report.checked += 1
        direct = skeleton.contains(m)
        nonneg = m.ge(0)
        through_qp = q_contains(skeleton, m)
        if direct != through_qp:
            report.qp_mismatches.append({"fn": m.to_dict()["values"],
                                         "direct": direct, "qp": through_qp})
        # skeleton.contains_nonneg(m) is exactly "direct and nonneg".
        direct_plus = direct and nonneg
        through_pq = through_qp and nonneg
        if direct_plus != through_pq:
            report.pq_mismatches.append({"fn": m.to_dict()["values"],
                                         "direct": direct_plus, "pq": through_pq})
        if direct:
            # q_decompose raises unless a is in the positive cone.
            a, r = q_decompose(skeleton, m)
            if a - r != m:
                report.recompose_failures.append({"fn": m.to_dict()["values"]})
    return report
