"""Finite quasi-orders and posets, with the monotone-cone machinery.

A finite carrier with the discrete topology is compact, and any reflexive
transitive relation on it is automatically closed as a subset of the
square, so a :class:`FinitePoset` is exactly a finite ordered compact
space and a :class:`QuasiOrder` its non-antisymmetric generalization.
Constructors take any generating relation and close it reflexively and
transitively, and reject unknown labels; :class:`FinitePoset` also rejects
two-way pairs.  Each order stores its two-way classes, found once at
construction and read by every order fact that needs them, and
``cover_pairs``, a fixed tuple generating the relation: a cycle through
each two-way class plus the covers between classes (the transitive
reduction; Aho, Garey and Ullman, SIAM J. Comput. 1972).  Monotonicity is
checked on that tuple alone; only a failure is named from all pairs.

The order-theoretic core of the package lives here:

* :func:`is_monotone` membership of a function in the monotone cone,
* :func:`monotone_envelope` the least monotone function above (or the
  greatest below) a given one,
* :func:`enumerate_posets` all posets of a given size up to isomorphism.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    AntisymmetryViolation,
    EmptyCarrier,
    NotMonotone,
    TooLargeToEnumerate,
    UnknownElement,
)
from .fnalg import RationalFn, _Immutable, check_carrier

Pair = Tuple[str, str]

ENUMERATION_CAP = 6


class QuasiOrder(_Immutable):
    """A reflexive transitive relation on a finite carrier.

    ``pairs`` may be any generating set; the constructor stores the
    reflexive-transitive closure.  Element iteration follows the
    declaration order, which makes every derived output deterministic.
    """

    __slots__ = ("elements", "_index", "_leq", "_down", "_up", "_blocks", "_covers")

    def __init__(self, elements: Sequence[str], pairs: Iterable[Pair] = ()):
        elements = tuple(elements)
        if not elements:
            raise EmptyCarrier("an order needs a nonempty carrier")
        if len(set(elements)) != len(elements):
            raise UnknownElement("carrier labels must be distinct", {"carrier": list(elements)})
        index = {x: i for i, x in enumerate(elements)}
        succ: Dict[str, set] = {x: {x} for x in elements}
        for x, y in pairs:
            for z in (x, y):
                if z not in index:
                    raise UnknownElement(f"relation mentions {z!r} outside the carrier",
                                         {"element": z})
            succ[x].add(y)
        # Warshall's closure: after step k, every x reaching k reaches all of k's successors.
        for k in elements:
            for x in elements:
                if k in succ[x]:
                    succ[x] |= succ[k]
        up = {x: tuple(y for y in elements if y in succ[x]) for x in elements}
        down = {y: tuple(x for x in elements if y in succ[x]) for y in elements}
        leq = frozenset((x, y) for x in elements for y in succ[x])
        # Cover pairs: a cycle through each two-way class, then covers between class heads.
        head: Dict[str, str] = {}
        blocks: List[tuple] = []
        covers: List[Pair] = []
        for x in elements:
            if x in head:
                continue
            block = [y for y in up[x] if x in succ[y]]
            blocks.append(tuple(block))
            for y in block:
                head[y] = x
            if len(block) > 1:
                covers.extend(zip(block, block[1:] + block[:1]))
        for x in elements:
            if head[x] != x:
                continue
            above = [y for y in up[x] if head[y] == y and y != x]
            for y in above:
                if not any(z != y and y in succ[z] for z in above):
                    covers.append((x, y))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_leq", leq)
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_blocks", tuple(blocks))
        object.__setattr__(self, "_covers", tuple(covers))

    @property
    def pairs(self) -> frozenset:
        """The full closed relation, as a frozenset of (below, above) pairs."""
        return self._leq

    @property
    def cover_pairs(self) -> tuple:
        """A fixed tuple generating the relation: two-way cycles, then covers."""
        return self._covers

    def _check(self, x: str) -> None:
        if x not in self._index:
            raise UnknownElement(f"{x!r} is not in the carrier", {"element": x})

    def leq(self, x: str, y: str) -> bool:
        self._check(x)
        self._check(y)
        return (x, y) in self._leq

    def downset(self, x: str) -> tuple:
        self._check(x)
        return self._down[x]

    def upset(self, x: str) -> tuple:
        self._check(x)
        return self._up[x]

    def downset_of(self, xs: Iterable[str]) -> tuple:
        members = set()
        for x in xs:
            members.update(self.downset(x))
        return tuple(z for z in self.elements if z in members)

    @property
    def is_antisymmetric(self) -> bool:
        return len(self._blocks) == len(self.elements)

    def equiv_blocks(self) -> tuple:
        """Classes of the two-way relation x <= y <= x, in carrier order."""
        return self._blocks

    def two_way_pair(self) -> Optional[Pair]:
        """The first pair x != y with x <= y <= x in ``sorted_pairs`` order, or None."""
        # Its x is the head of the first class of two or more, y that class's next member.
        return next(((b[0], b[1]) for b in self._blocks if len(b) > 1), None)

    def strict_pairs(self) -> list:
        """All pairs (x, y) with x <= y and not y <= x, in carrier order."""
        return [(x, y) for x in self.elements for y in self.elements
                if (x, y) in self._leq and (y, x) not in self._leq]

    def sorted_pairs(self) -> list:
        """All pairs, by the carrier index of the lower then the upper element."""
        return [(x, y) for x in self.elements for y in self._up[x]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuasiOrder):
            return NotImplemented
        # The closed relation holds every (x, x), so it determines the labels.
        return self._leq == other._leq

    def __hash__(self) -> int:
        return hash(self._leq)

    def __repr__(self) -> str:
        strict = [(x, y) for x, y in self.sorted_pairs() if x != y]
        return f"{type(self).__name__}({list(self.elements)!r}, {strict!r})"

    def to_dict(self) -> dict:
        return {"elements": list(self.elements),
                "leq": [[x, y] for x, y in self.sorted_pairs()]}


class FinitePoset(QuasiOrder):
    """A quasi-order that is additionally antisymmetric."""

    __slots__ = ()

    def __init__(self, elements: Sequence[str], pairs: Iterable[Pair] = ()):
        super().__init__(elements, pairs)
        pair = self.two_way_pair()
        if pair is not None:
            x, y = pair
            raise AntisymmetryViolation(f"{x!r} <= {y!r} <= {x!r} with {x!r} != {y!r}",
                                        {"pair": [x, y]})


def chain(labels: Sequence[str]) -> FinitePoset:
    """The total order with the given labels, smallest first."""
    labels = tuple(labels)
    return FinitePoset(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])


def complete_quasi_order(labels: Sequence[str]) -> QuasiOrder:
    """All pairs related both ways; its monotone functions are the constants."""
    labels = tuple(labels)
    return QuasiOrder(labels, [(x, y) for x in labels for y in labels])


def is_monotone(f: RationalFn, order: QuasiOrder) -> bool:
    """Membership of f in the monotone cone of the order."""
    check_carrier(f.carrier, order.elements)
    values = f.values
    return all(values[x] <= values[y] for x, y in order._covers)


def require_monotone(f: RationalFn, order: QuasiOrder) -> None:
    """Raise NotMonotone naming the first failing pair in ``sorted_pairs`` order."""
    if is_monotone(f, order):
        return
    values = f.values
    x, y = next((x, y) for x, y in order.sorted_pairs() if values[x] > values[y])
    raise NotMonotone(f"f({x!r}) > f({y!r}) although {x!r} <= {y!r}",
                      {"pair": [x, y], "values": [str(values[x]), str(values[y])]})


def monotone_envelope(f: RationalFn, order: QuasiOrder, direction: str = "upper") -> RationalFn:
    """The least monotone function above f, or the greatest below it.

    The upper envelope takes at each point the maximum of f over the
    point's downset; the lower envelope the minimum over the upset.  The
    envelope equals f exactly when f is already monotone, which is the
    membership test used by the skeleton proximity oracle.
    """
    check_carrier(f.carrier, order.elements)
    fv = f.values
    if direction == "upper":
        values = {x: max(fv[y] for y in down) for x, down in order._down.items()}
    elif direction == "lower":
        values = {x: min(fv[y] for y in up) for x, up in order._up.items()}
    else:
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    return RationalFn._make(order.elements, values)


def enumerate_monotone_maps(domain: QuasiOrder, codomain: QuasiOrder) -> List[dict]:
    """All order-preserving maps, as dicts, in deterministic order."""
    maps = []
    leq = codomain.pairs
    for images in itertools.product(codomain.elements, repeat=len(domain.elements)):
        h = dict(zip(domain.elements, images))
        if all((h[x], h[y]) in leq for x, y in domain.cover_pairs):
            maps.append(h)
    return maps


def _default_labels(n: int) -> tuple:
    return tuple(f"x{i + 1}" for i in range(n))


def _downset_systems(n: int) -> List[Tuple[int, ...]]:
    """Strict-downset bitmasks, one per element, in which label order is a linear extension."""
    systems: List[Tuple[int, ...]] = []

    def extend(down: List[int]) -> None:
        i = len(down)
        if i == n:
            systems.append(tuple(down))
            return
        for mask in range(1 << i):
            # transitivity: anything below a chosen predecessor is below i
            ok = True
            for j in range(i):
                if mask >> j & 1 and down[j] & ~mask:
                    ok = False
                    break
            if ok:
                extend(down + [mask])

    extend([])
    return systems


def _canonical_key(down: Tuple[int, ...]) -> int:
    """Minimum relation matrix over the relabelings that sort elements by invariant.

    Each element's invariant is (upset size, downset size).  Positions are
    filled one invariant group at a time, in sorted invariant order, and
    only the permutations within each group are tried.  An isomorphism
    preserves the invariants, so isomorphic posets have the same candidate
    matrices and the same minimum.  The matrix is read row by row as the
    bits of an integer, first entry highest, so integer order is the
    lexicographic order of the matrices.
    """
    n = len(down)
    below = list(down)
    up = [0] * n
    for j in range(n):
        below[j] |= 1 << j
        for i in range(n):
            up[i] += below[j] >> i & 1
    groups: Dict[tuple, List[int]] = {}
    for x in range(n):
        groups.setdefault((up[x], bin(below[x]).count("1")), []).append(x)
    best = None
    for choice in itertools.product(*map(itertools.permutations, map(groups.get, sorted(groups)))):
        perm = sum(choice, ())
        key = 0
        for i in perm:
            for j in perm:
                key = key << 1 | below[j] >> i & 1
        if best is None or key < best:
            best = key
    return best


def enumerate_posets(n: int, labels: Sequence[str] = None) -> List[FinitePoset]:
    """All posets on n elements, one representative per isomorphism class.

    Candidates are generated as strict-downset systems in which the label
    order is a linear extension; every poset is isomorphic to one of these.
    Each candidate is keyed by its relation matrix, minimized over the
    relabelings that list the elements by (upset size, downset size) and
    permute only within equal invariants; the representatives come in
    sorted key order.  Sizes above ENUMERATION_CAP are refused.
    """
    if n < 1:
        raise EmptyCarrier("poset enumeration starts at one element")
    if n > ENUMERATION_CAP:
        raise TooLargeToEnumerate(f"enumeration is capped at {ENUMERATION_CAP} elements",
                                  {"requested": n, "cap": ENUMERATION_CAP})
    labels = _default_labels(n) if labels is None else tuple(labels)
    posets = []
    for key in sorted(set(map(_canonical_key, _downset_systems(n)))):
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(n)
                 if key >> (n * n - 1 - i * n - j) & 1]
        posets.append(FinitePoset(labels, pairs))
    return posets


def posets_up_to(n: int) -> List[FinitePoset]:
    """Representatives of every isomorphism class of size 1..n."""
    out: List[FinitePoset] = []
    for k in range(1, n + 1):
        out.extend(enumerate_posets(k))
    return out


def random_poset(rng: random.Random, n: int) -> FinitePoset:
    """A random poset: edges of chance 1/2 along a shuffled linear order, closed."""
    labels = list(_default_labels(n))
    order = labels[:]
    rng.shuffle(order)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    return FinitePoset(tuple(labels), pairs)
