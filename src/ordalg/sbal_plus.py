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
direct monotonicity of m against the order, and the shift route, which
shifts m by its negative excursion r = max(0, -min m) and asks the
positive cone about a = m + r.  The second route never asks whether m
itself is monotone.  Each grid function is shifted once, and the shifted
pair (a, r) serves both the shift route and the recompose check
a - r == m.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import TooLargeToEnumerate
from .fnalg import RationalFn
from .sbal import SbalSkeleton

GRID_CAP = 3
GRID_BOUND = 2
GRID_DENOMINATOR = 4


def _shift(m: RationalFn) -> Tuple[RationalFn, Fraction]:
    """The canonical shift (m + r, r) with r = max(0, -min m)."""
    r = max(Fraction(0), -m.min_value())
    return m + r, r


class PQRoundtripReport:
    """Membership agreement for both composite functors on a value grid."""

    def __init__(self, carrier: tuple, grid_points: int, checked: int,
                 qp_mismatches: Optional[List[dict]] = None,
                 pq_mismatches: Optional[List[dict]] = None,
                 recompose_failures: Optional[List[dict]] = None):
        self.carrier = carrier
        self.grid_points = grid_points
        self.checked = checked
        self.qp_mismatches = [] if qp_mismatches is None else qp_mismatches
        self.pq_mismatches = [] if pq_mismatches is None else pq_mismatches
        self.recompose_failures = [] if recompose_failures is None else recompose_failures

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
    through the shift, and membership in P(S) with membership in
    (Q(P(S)))+ decided the same way; the canonical shift of a member must
    also recompose to the original function.  Each grid function is
    decided once per route: direct monotonicity, nonnegativity, one shift
    and positive-cone membership of the shifted function.  Carriers above
    three points are refused (the grid grows exponentially).

    The PQ comparison is the QP one restricted to nonnegative functions:
    membership in P(S) is "direct and nonneg" and the PQ route answers
    "through_qp and nonneg", so the two differ iff m is nonnegative and
    direct != through_qp.  Every PQ mismatch is therefore a QP mismatch on
    the same function, and ``pq_mismatches`` is read off the QP comparison.
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
        a, r = _shift(m)
        through_qp = skeleton.contains_nonneg(a)
        if direct != through_qp:
            fn = m.to_dict()["values"]
            report.qp_mismatches.append({"fn": fn, "direct": direct, "qp": through_qp})
            if nonneg:
                report.pq_mismatches.append({"fn": fn, "direct": direct, "pq": through_qp})
        if direct and a - r != m:
            report.recompose_failures.append({"fn": m.to_dict()["values"]})
    return report
