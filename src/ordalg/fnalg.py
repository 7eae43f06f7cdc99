"""Exact function algebras on finite carriers.

A :class:`RationalFn` is a map from a finite carrier of string labels into
the rationals, stored as ``fractions.Fraction`` so every lattice-algebra
operation below is exact.  Pointwise sum, product, join and meet make the
full function space a lattice-ordered algebra over the rationals; the
positive part, negative part and absolute value are derived from join and
meet in the usual way:

    a+ = a v 0,   a- = (-a) v 0,   |a| = a v (-a).

Closed unital subalgebras of the full function space correspond exactly to
partitions of the carrier: a subalgebra is the set of functions constant on
each block of its partition.  :func:`generate_closed_subalgebra` computes
the partition generated by a family of functions (the kernel partition),
which is the coarsest partition on which every generator is block-constant
and therefore presents the smallest closed subalgebra containing them.

A carrier is a set of labels: two carriers match when they hold the same
labels, in any order (:func:`check_carrier`), and a function is read in
the carrier order of whatever receives it (:meth:`RationalFn.on`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import CarrierMismatch, EmptyCarrier, NotBlockConstant, UnknownElement

Scalar = Union[Fraction, int, str]


def as_fraction(value: Scalar) -> Fraction:
    """Coerce ints, canonical "n/d" strings and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _checked_carrier(carrier: Sequence[str]) -> tuple:
    carrier = tuple(carrier)
    if not carrier:
        raise EmptyCarrier("a function needs a nonempty carrier")
    if len(set(carrier)) != len(carrier):
        raise UnknownElement("carrier labels must be distinct",
                             {"carrier": list(carrier)})
    return carrier


def check_carrier(found: tuple, expected: tuple) -> None:
    """Raise CarrierMismatch unless the two carriers hold the same labels."""
    if found != expected and (len(found) != len(expected) or set(found) != set(expected)):
        raise CarrierMismatch("carriers hold different labels",
                              {"expected": list(expected), "found": list(found)})


class _Immutable:
    """Base of the immutable values: slots are set once, through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Record(_Immutable):
    """An immutable value compared and hashed by its slots, in order."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class RationalFn(_Immutable):
    """A rational-valued function on a finite ordered carrier.

    The carrier is a tuple of distinct labels; iteration and serialization
    follow the carrier order, so all derived output is deterministic.
    Equality and hashing compare values label by label, so the carrier
    order is not part of a function's identity.  Instances are treated as
    immutable.
    """

    __slots__ = ("carrier", "values")

    def __init__(self, carrier: Sequence[str], values: Mapping[str, Scalar]):
        carrier = _checked_carrier(carrier)
        vals = {}
        for x in carrier:
            if x not in values:
                raise UnknownElement(f"no value for carrier element {x!r}", {"element": x})
            vals[x] = as_fraction(values[x])
        extra = set(values) - set(carrier)
        if extra:
            raise UnknownElement(f"values mention labels outside the carrier: {sorted(extra)}",
                                 {"extra": sorted(extra)})
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _make(cls, carrier: tuple, values: dict) -> "RationalFn":
        """An instance from parts that are already valid; nothing is checked.

        ``carrier`` must be the checked tuple of an existing function or
        order, and ``values`` a dict of Fractions keyed in carrier order.
        Derived values (arithmetic, lattice operations, envelopes) come
        through here so that only the public constructors validate.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "carrier", carrier)
        object.__setattr__(f, "values", values)
        return f

    @classmethod
    def constant(cls, carrier: Sequence[str], value: Scalar) -> "RationalFn":
        r = as_fraction(value)
        carrier = _checked_carrier(carrier)
        return cls._make(carrier, dict.fromkeys(carrier, r))

    @classmethod
    def zero(cls, carrier: Sequence[str]) -> "RationalFn":
        return cls.constant(carrier, 0)

    @classmethod
    def one(cls, carrier: Sequence[str]) -> "RationalFn":
        return cls.constant(carrier, 1)

    def __call__(self, x: str) -> Fraction:
        try:
            return self.values[x]
        except KeyError:
            raise UnknownElement(f"{x!r} is not in the carrier", {"element": x}) from None

    def __getitem__(self, x: str) -> Fraction:
        return self(x)

    def on(self, carrier: tuple) -> "RationalFn":
        """This function listed in the label order of ``carrier``.

        ``carrier`` is the carrier of an order, oracle or function and must
        hold the same labels as this function's, in any order.
        """
        if carrier == self.carrier:
            return self
        check_carrier(self.carrier, carrier)
        return RationalFn._make(carrier, {x: self.values[x] for x in carrier})

    def _operand(self, other: Union["RationalFn", Scalar]) -> Union[dict, Fraction]:
        """The values of a function on a matching carrier, or a scalar as one Fraction."""
        if isinstance(other, RationalFn):
            check_carrier(other.carrier, self.carrier)
            return other.values
        return as_fraction(other)

    def _map2(self, other, op) -> "RationalFn":
        g = self._operand(other)
        if isinstance(g, dict):
            values = {x: op(u, g[x]) for x, u in self.values.items()}
        else:
            values = {x: op(u, g) for x, u in self.values.items()}
        return RationalFn._make(self.carrier, values)

    def __add__(self, other):
        return self._map2(other, lambda u, v: u + v)

    __radd__ = __add__

    def __sub__(self, other):
        return self._map2(other, lambda u, v: u - v)

    def __rsub__(self, other):
        return self._map2(other, lambda u, v: v - u)

    def __mul__(self, other):
        return self._map2(other, lambda u, v: u * v)

    __rmul__ = __mul__

    def __neg__(self):
        return RationalFn._make(self.carrier, {x: -v for x, v in self.values.items()})

    def scale(self, r: Scalar) -> "RationalFn":
        r = as_fraction(r)
        return RationalFn._make(self.carrier, {x: r * v for x, v in self.values.items()})

    def join(self, other) -> "RationalFn":
        return self._map2(other, max)

    def meet(self, other) -> "RationalFn":
        return self._map2(other, min)

    def le(self, other) -> bool:
        """Pointwise order: self(x) <= other(x) everywhere."""
        g = self._operand(other)
        if isinstance(g, dict):
            return all(u <= g[x] for x, u in self.values.items())
        return all(u <= g for u in self.values.values())

    def ge(self, other) -> bool:
        g = self._operand(other)
        if isinstance(g, dict):
            return all(u >= g[x] for x, u in self.values.items())
        return all(u >= g for u in self.values.values())

    def pos_part(self) -> "RationalFn":
        return self.join(0)

    def neg_part(self) -> "RationalFn":
        return (-self).join(0)

    def __abs__(self) -> "RationalFn":
        return self.join(-self)

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values.values())

    def min_value(self) -> Fraction:
        return min(self.values.values())

    def max_value(self) -> Fraction:
        return max(self.values.values())

    def is_constant(self) -> bool:
        return self.min_value() == self.max_value()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(frozenset(self.values.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{x}: {v}" for x, v in self.values.items())
        return f"RationalFn({{{body}}})"

    def to_dict(self) -> dict:
        return {"carrier": list(self.carrier),
                "values": {x: str(self.values[x]) for x in self.carrier}}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "RationalFn":
        return cls(tuple(doc["carrier"]), dict(doc["values"]))


class SubalgebraPartition(_Immutable):
    """A closed unital subalgebra, presented by its carrier partition.

    The subalgebra consists of exactly the functions constant on each
    block.  Blocks are kept in a canonical form: within a block, labels
    appear in carrier order; blocks are ordered by their first label.
    """

    __slots__ = ("carrier", "blocks")

    def __init__(self, carrier: Sequence[str], blocks: Iterable[Iterable[str]]):
        carrier = tuple(carrier)
        blocks = tuple(tuple(b) for b in blocks)
        if not carrier:
            raise EmptyCarrier("a subalgebra needs a nonempty carrier")
        pos = {x: i for i, x in enumerate(carrier)}
        seen = []
        for block in blocks:
            for x in block:
                if x not in pos:
                    raise UnknownElement(f"block mentions {x!r} outside the carrier", {"element": x})
            seen.extend(block)
        if sorted(seen, key=pos.__getitem__) != list(carrier) or len(seen) != len(carrier):
            raise UnknownElement("blocks do not partition the carrier",
                                 {"carrier": list(carrier), "blocks": [list(b) for b in blocks]})
        canon = tuple(tuple(sorted(b, key=pos.__getitem__)) for b in blocks)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "blocks", tuple(sorted(canon, key=lambda b: pos[b[0]])))

    @classmethod
    def discrete(cls, carrier: Sequence[str]) -> "SubalgebraPartition":
        """The full function algebra: every point is its own block."""
        return cls(tuple(carrier), tuple((x,) for x in carrier))

    @classmethod
    def indiscrete(cls, carrier: Sequence[str]) -> "SubalgebraPartition":
        """The constants: a single block."""
        return cls(tuple(carrier), (tuple(carrier),))

    @property
    def separates_points(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def block_of(self, x: str) -> tuple:
        for block in self.blocks:
            if x in block:
                return block
        raise UnknownElement(f"{x!r} is not in the carrier", {"element": x})

    def __eq__(self, other) -> bool:
        # The set partition alone, as for RationalFn: label order is not identity.
        if not isinstance(other, SubalgebraPartition):
            return NotImplemented
        return set(map(frozenset, self.blocks)) == set(map(frozenset, other.blocks))

    def __hash__(self) -> int:
        return hash(frozenset(map(frozenset, self.blocks)))

    def contains(self, f: RationalFn) -> bool:
        """Membership: f lies in the subalgebra iff it is block-constant."""
        check_carrier(f.carrier, self.carrier)
        return all(len({f.values[x] for x in block}) == 1 for block in self.blocks)

    def require_member(self, f: RationalFn) -> None:
        if not self.contains(f):
            bad = next(b for b in self.blocks if len({f.values[x] for x in b}) > 1)
            raise NotBlockConstant("function distinguishes points of a block",
                                   {"block": list(bad), "values": {x: str(f.values[x]) for x in bad}})

    def to_dict(self) -> dict:
        return {"carrier": list(self.carrier), "blocks": [list(b) for b in self.blocks]}


def generate_closed_subalgebra(generators: Iterable[RationalFn],
                               carrier: Optional[Sequence[str]] = None) -> SubalgebraPartition:
    """Kernel partition of a generating family.

    Two points fall in the same block iff every generator agrees on them.
    The result is the coarsest partition making all generators
    block-constant, hence the smallest closed unital subalgebra containing
    them.  With no generators the result is the constants.
    """
    gens = list(generators)
    if carrier is None:
        if not gens:
            raise EmptyCarrier("need a carrier when the generating family is empty")
        carrier = gens[0].carrier
    carrier = tuple(carrier)
    for g in gens:
        check_carrier(g.carrier, carrier)
    classes: dict = {}
    for x in carrier:
        key = tuple(g.values[x] for g in gens)
        classes.setdefault(key, []).append(x)
    blocks = tuple(tuple(members) for members in classes.values())
    return SubalgebraPartition(carrier, blocks)
