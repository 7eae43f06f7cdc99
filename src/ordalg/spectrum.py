"""Ordered spectra of finite function algebras.

Every maximal lattice-algebra ideal of a block algebra is the set of
functions vanishing on one block, so the spectrum of a subalgebra is its
partition.  The proximity orders the spectrum through the operator

    thd(I) = { a : |a| <= c for some nonnegative reflexive c in I },

which on a finite carrier sends the ideal of functions vanishing on Z to
the ideal of functions vanishing on the downset of Z (for the order that
presents the reflexive cone inside the algebra).  Writing M_y for the
ideal of a point y, the spectral order is

    M_x <= M_y  iff  thd(M_y) is contained in M_x,

and the containment is decided by a single canonical witness: the 0/1
indicator c*_y of the complement of y's downset.  It is the pointwise
largest normalized nonnegative reflexive element of M_y, so

    M_x <= M_y  iff  c*_y(x) = 0,

and c*_y itself certifies every failing containment.

:func:`eta` sends a point to its vanishing ideal and is verified to be an
order isomorphism onto the spectrum; :func:`phi` evaluates algebra
elements on the spectrum; :func:`enumerate_adjunction` matches monotone
maps into a spectrum with proximity-preserving algebra morphisms out of
its algebra, exhaustively at small sizes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from . import rng as rngmod
from .errors import TooLargeToEnumerate
from .fnalg import RationalFn, SubalgebraPartition, _Record
from .order import FinitePoset, QuasiOrder, enumerate_monotone_maps
from .proximity import ProximityOracle, combined_order
from .sbal import SbalSkeleton, concrete_envelope

ADJUNCTION_CAP = 4


class MaxIdeal(_Record):
    """The maximal ideal of functions vanishing on one partition block."""

    __slots__ = ("block",)

    def __init__(self, block: tuple):
        object.__setattr__(self, "block", block)

    @property
    def label(self) -> str:
        return "M(" + "|".join(self.block) + ")"


def spectrum(algebra: SubalgebraPartition) -> Tuple[MaxIdeal, ...]:
    """One maximal ideal per block, in block order."""
    return tuple(MaxIdeal(block) for block in algebra.blocks)


def point_ideal(algebra: SubalgebraPartition, x: str) -> MaxIdeal:
    return MaxIdeal(algebra.block_of(x))


def canonical_witness(order: QuasiOrder, block: tuple) -> RationalFn:
    """The indicator c*_y of the complement of a block's downset.

    Monotone, nonnegative, vanishing on the block, and pointwise largest
    among 0/1-normalized such functions, so it alone decides whether the
    thd-image of the block's ideal sits inside another point ideal.
    """
    down = set(order.downset_of(block))
    return RationalFn(order.elements,
                      {z: Fraction(0) if z in down else Fraction(1) for z in order.elements})


class OrderedSpectrum:
    """The spectrum of a subalgebra with its proximity-induced order.

    ``base`` is the combined order presenting the relative cone and
    ``witnesses`` the canonical witness c*_y of each point; ``certificates``
    maps each failing relation (x, y) to c*_y, which shows it.
    """

    def __init__(self, algebra: SubalgebraPartition, points: Tuple[MaxIdeal, ...],
                 order: QuasiOrder, certificates: Dict[Tuple[str, str], RationalFn],
                 base: QuasiOrder, witnesses: List[RationalFn]):
        self.algebra = algebra
        self.points = points
        self.order = order
        self.certificates = certificates
        self.base = base
        self.witnesses = witnesses

    @property
    def is_partial_order(self) -> bool:
        return self.order.is_antisymmetric

    def as_poset(self) -> FinitePoset:
        return FinitePoset(self.order.elements, self.order.pairs)

    def to_dict(self) -> dict:
        return {"points": [list(p.block) for p in self.points],
                "order": self.order.to_dict(),
                "is_partial_order": self.is_partial_order}


def induced_order(algebra: SubalgebraPartition, oracle: ProximityOracle) -> OrderedSpectrum:
    """Order the spectrum by thd-containment, decided by canonical witnesses."""
    order = combined_order(oracle, algebra)
    points = spectrum(algebra)
    witnesses = [canonical_witness(order, p.block) for p in points]
    pairs = []
    certificates: Dict[Tuple[str, str], RationalFn] = {}
    for px in points:
        for py, w in zip(points, witnesses):
            if w.values[px.block[0]] == 0:
                pairs.append((px.label, py.label))
            else:
                certificates[(px.label, py.label)] = w
    spec_order = QuasiOrder(tuple(p.label for p in points), pairs)
    return OrderedSpectrum(algebra, points, spec_order, certificates, order, witnesses)


class EtaReport:
    """The unit map of the duality on one space, with its verification."""

    def __init__(self, space: FinitePoset, spectrum: OrderedSpectrum,
                 mapping: Dict[str, MaxIdeal], is_bijective: bool, is_order_isomorphism: bool):
        self.space = space
        self.spectrum = spectrum
        self.mapping = mapping
        self.is_bijective = is_bijective
        self.is_order_isomorphism = is_order_isomorphism

    def to_dict(self) -> dict:
        return {"mapping": {x: m.label for x, m in self.mapping.items()},
                "spectrum": self.spectrum.to_dict(),
                "is_bijective": self.is_bijective,
                "is_order_isomorphism": self.is_order_isomorphism}


def eta(space: FinitePoset) -> EtaReport:
    """x |-> M_x into the spectrum of the full algebra, checked point by point."""
    algebra = SubalgebraPartition.discrete(space.elements)
    oracle = ProximityOracle.from_order(space)
    spec = induced_order(algebra, oracle)
    mapping = {x: point_ideal(algebra, x) for x in space.elements}
    labels = [m.label for m in mapping.values()]
    bijective = (len(set(labels)) == len(labels)
                 and set(labels) == {p.label for p in spec.points})
    iso = bijective and all(
        space.leq(x, y) == spec.order.leq(mapping[x].label, mapping[y].label)
        for x in space.elements for y in space.elements)
    return EtaReport(space, spec, mapping, bijective, iso)


def phi(algebra: SubalgebraPartition, f: RationalFn,
        spec: Optional[OrderedSpectrum] = None) -> RationalFn:
    """Evaluate an algebra element on the spectrum: block value per ideal."""
    algebra.require_member(f)
    points = spec.points if spec is not None else spectrum(algebra)
    return RationalFn(tuple(p.label for p in points),
                      {p.label: f.values[p.block[0]] for p in points})


class PhiReport:
    """Sampled preserve/reflect comparison for the evaluation map."""

    def __init__(self, checked: int, related_hits: int, mismatches: List[dict]):
        self.checked = checked
        self.related_hits = related_hits
        self.mismatches = mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {"checked": self.checked, "related_hits": self.related_hits,
                "ok": self.ok, "mismatches": self.mismatches[:5]}


def phi_respects_proximity(space: FinitePoset, *, samples: int = 1000,
                           seed: int = rngmod.DEFAULT_SEED,
                           spec: Optional[OrderedSpectrum] = None) -> PhiReport:
    """phi preserves and reflects the relation, on sampled pairs.

    The source relation is decided by the skeleton oracle on the space; the
    target relation by a fresh oracle over the spectral order computed from
    canonical witnesses, or given as ``spec`` when :func:`eta` built it.
    Half the sampled pairs are built to be related so both directions of
    the equivalence get exercised.
    """
    oracle = ProximityOracle.from_order(space)
    algebra = SubalgebraPartition.discrete(space.elements)
    if spec is None:
        spec = induced_order(algebra, oracle)
    spec_oracle = ProximityOracle.from_order(spec.order)
    rng = rngmod.rng_for(seed, "phi-respects")
    carrier = space.elements
    report = PhiReport(0, 0, [])
    for _ in range(samples):
        a = RationalFn._make(carrier, rngmod.sample_values(rng, carrier))
        if rng.random() < 0.5:
            b = oracle.witness(a) + RationalFn._make(carrier,
                                                     rngmod.sample_nonneg_values(rng, carrier))
        else:
            b = RationalFn._make(carrier, rngmod.sample_values(rng, carrier))
        source = oracle.decide(a, b)
        target = spec_oracle.decide(phi(algebra, a, spec), phi(algebra, b, spec))
        report.checked += 1
        report.related_hits += source
        if source != target:
            report.mismatches.append({"a": a.to_dict()["values"], "b": b.to_dict()["values"],
                                      "source": source, "target": target})
    return report


class AdjunctionReport:
    """Exhaustive match between space maps and algebra morphisms."""

    def __init__(self, space: FinitePoset, spectrum: OrderedSpectrum, monotone_maps: List[dict],
                 morphism_maps: List[dict], theta: List[Tuple[dict, dict]], bijective: bool,
                 naturality_ok: bool):
        self.space = space
        self.spectrum = spectrum
        self.monotone_maps = monotone_maps
        self.morphism_maps = morphism_maps
        self.theta = theta
        self.bijective = bijective
        self.naturality_ok = naturality_ok

    @property
    def count(self) -> int:
        return len(self.theta)

    def to_dict(self) -> dict:
        return {"monotone_maps": len(self.monotone_maps),
                "morphisms": len(self.morphism_maps),
                "bijective": self.bijective,
                "naturality_ok": self.naturality_ok}


def _map_key(h: Mapping[str, str]) -> tuple:
    return tuple(sorted(h.items()))


def enumerate_adjunction(space: FinitePoset, skeleton: SbalSkeleton, *,
                         seed: int = rngmod.DEFAULT_SEED) -> AdjunctionReport:
    """Enumerate both hom-sets and verify the canonical correspondence.

    A morphism is presented by its point map h into the spectrum, acting
    by f |-> phi(f) o h.  Monotone maps from the space into the spectrum
    are the order route.  Candidate morphisms are all point maps; the cone
    route keeps each h whose pullback keeps every probe reflexive on the
    space.  The probes are the canonical witnesses, then eight samples
    from the relative cone drawn from ``seed``, evaluated on the spectrum.
    The two hom-sets must be equal.  Naturality is decided exhaustively
    by :func:`_closed_under_endomaps` on the cone-route hom-set.  Both
    sides are refused above ADJUNCTION_CAP points before any spectrum is
    built.
    """
    spectrum_size = len(skeleton.order.equiv_blocks())
    if len(space.elements) > ADJUNCTION_CAP or spectrum_size > ADJUNCTION_CAP:
        raise TooLargeToEnumerate(
            f"adjunction enumeration is capped at {ADJUNCTION_CAP} points per side",
            {"space": len(space.elements), "spectrum": spectrum_size,
             "cap": ADJUNCTION_CAP})
    spec = induced_order(concrete_envelope(skeleton), ProximityOracle.from_skeleton(skeleton))
    # The label fixes the sampled stream: renaming it changes every probe sample.
    rng = rngmod.rng_for(seed, "dual-morphism")
    relative = SbalSkeleton(spec.base)
    drawn = [relative.sample_member(rng) for _ in range(8)]
    probes = [phi(spec.algebra, s, spec).values for s in spec.witnesses + drawn]
    space_cone = SbalSkeleton(space)
    elements = space.elements
    spec_poset = spec.as_poset()
    monotone_maps = enumerate_monotone_maps(space, spec_poset)
    morphisms = []
    for images in itertools.product(spec_poset.elements, repeat=len(elements)):
        h = dict(zip(elements, images))
        # The cone route: every probe, pulled back along h, is in the space cone.
        if all(space_cone.contains(RationalFn._make(elements, {x: v[h[x]] for x in elements}))
               for v in probes):
            morphisms.append(h)
    # theta(alpha_h) = alpha_h* o eta sends x to alpha_h^-1(M_x) = M_h(x), which
    # is h(x): with morphisms presented by their point maps, theta is the identity.
    theta = [(h, h) for h in morphisms]
    bijective = {_map_key(h) for h in morphisms} == {_map_key(h) for h in monotone_maps}
    naturality_ok = _closed_under_endomaps(space, spec_poset, morphisms)
    return AdjunctionReport(space, spec, monotone_maps, morphisms, theta,
                            bijective, naturality_ok)


def _closed_under_endomaps(space: FinitePoset, spec_poset: FinitePoset,
                           hom: List[dict]) -> bool:
    """Naturality of theta, decided as closure of the hom-set.

    A morphism alpha is presented by its point map h, acting by
    f |-> phi(f) o h, and theta(alpha) = h.  Reindexing by a monotone
    endomap psi of the space turns alpha into f |-> alpha(f) o psi, whose
    point map is h o psi; composing with the algebra endomorphism that a
    monotone endomap k of the spectrum presents gives point map k o h.  So
    the space-side square for (h, psi) holds iff h o psi is a legal point
    map, and the algebra-side square for (h, k) iff k o h is one: both
    squares hold for every legal h, psi and k iff ``hom`` contains every
    h o psi and k o h.  Each composite is one set lookup of its image tuple
    in ``space.elements`` order, so every triple is checked.
    """
    elements = space.elements
    legal = set()
    for h in hom:
        legal.add(tuple(map(h.__getitem__, elements)))
    endos_space = enumerate_monotone_maps(space, space)
    endos_spec = enumerate_monotone_maps(spec_poset, spec_poset)
    for h in hom:
        for psi in endos_space:
            if tuple(map(h.__getitem__, map(psi.__getitem__, elements))) not in legal:
                return False
        for k in endos_spec:
            if tuple(map(k.__getitem__, map(h.__getitem__, elements))) not in legal:
                return False
    return True
