"""Quasi-orders, closure, envelopes, and exhaustive poset enumeration."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordalg import (AntisymmetryViolation, EmptyCarrier, FinitePoset,
                    NotInSkeleton, NotMonotone, QuasiOrder, RationalFn,
                    SbalSkeleton, TooLargeToEnumerate, UnknownElement,
                    chain, complete_quasi_order, enumerate_monotone_maps,
                    enumerate_posets, is_monotone, monotone_envelope,
                    posets_up_to, random_poset, require_monotone,
                    sw_approximate)
from ordalg.order import _downset_systems
from ordalg.rng import rng_for, sample_values

# Iso-class and labeled counts of finite posets; frozen from an
# independent brute force over all reflexive-transitive-antisymmetric
# relations (re-derived below for n <= 4, and for n = 5 by the n! scan
# over the enumeration's candidates).  The iso-class counts are OEIS A000112.
ISO_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
LABELED_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219}


def brute_force_posets(labels):
    """All labeled posets on the given labels, as frozensets of pairs."""
    n = len(labels)
    off_diag = [(x, y) for x in labels for y in labels if x != y]
    diag = [(x, x) for x in labels]
    found = []
    for bits in itertools.product((False, True), repeat=len(off_diag)):
        rel = set(diag) | {p for p, keep in zip(off_diag, bits) if keep}
        if any((y, x) in rel for x, y in rel if x != y):
            continue
        if any((x, z) not in rel
               for x, y in rel for y2, z in rel if y == y2):
            continue
        found.append(frozenset(rel))
    assert n == 0 or len({len(r) for r in found}) >= 1
    return found


def reference_key(down):
    """The n! scan: the minimum relation matrix over every relabeling."""
    n = len(down)
    leq = {(i, j) for j in range(n) for i in range(n) if i == j or down[j] >> i & 1}
    return min(tuple(1 if (perm[i], perm[j]) in leq else 0 for i in range(n) for j in range(n))
               for perm in itertools.permutations(range(n)))


def downsets(poset):
    """Strict-downset bitmasks of a poset in its element order."""
    elements = poset.elements
    return tuple(sum(1 << i for i, x in enumerate(elements) if x != y and poset.leq(x, y))
                 for y in elements)


def canon(pairs, labels):
    """Label-free canonical form of a poset under label permutations."""
    n = len(labels)
    best = None
    for perm in itertools.permutations(range(n)):
        rename = dict(zip(labels, perm))
        key = tuple(sorted((rename[x], rename[y]) for x, y in pairs))
        if best is None or key < best:
            best = key
    return best


def test_closure_is_reflexive_and_transitive():
    q = QuasiOrder("abc", [("a", "b"), ("b", "c")])
    assert q.leq("a", "c")
    assert all(q.leq(x, x) for x in "abc")
    assert not q.leq("c", "a")


def test_unknown_label_rejected():
    with pytest.raises(UnknownElement):
        QuasiOrder("ab", [("a", "z")])


def test_empty_carrier_rejected():
    with pytest.raises(EmptyCarrier):
        QuasiOrder((), ())


def test_poset_rejects_two_way_pair():
    with pytest.raises(AntisymmetryViolation) as err:
        FinitePoset("ab", [("a", "b"), ("b", "a")])
    assert set(err.value.details["pair"]) == {"a", "b"}


def test_downsets_and_upsets():
    v = FinitePoset("abc", [("a", "c"), ("b", "c")])
    assert v.downset("c") == ("a", "b", "c")
    assert v.downset("a") == ("a",)
    assert v.upset("a") == ("a", "c")
    assert v.leq("a", "c") and not v.leq("c", "a")
    assert not v.leq("a", "b")
    assert v.downset_of(("a", "b")) == ("a", "b")


def test_constructors():
    assert chain("abc").leq("a", "c")
    assert not FinitePoset("abc").leq("a", "c")
    full = complete_quasi_order("ab")
    assert full.leq("a", "b") and full.leq("b", "a")
    assert not full.is_antisymmetric
    assert full.equiv_blocks() == (("a", "b"),)


def test_order_equality_ignores_listing_order():
    forward = FinitePoset("abc", [("a", "b")])
    backward = QuasiOrder("cba", [("a", "b")])
    assert forward == backward and hash(forward) == hash(backward)
    assert forward != FinitePoset("abc", [("b", "a")])
    assert forward != FinitePoset("abd", [("a", "b")])


def test_is_monotone_and_require():
    c = chain("ab")
    up = RationalFn("ab", {"a": 0, "b": 1})
    down = RationalFn("ab", {"a": 1, "b": 0})
    assert is_monotone(up, c)
    assert not is_monotone(down, c)
    with pytest.raises(NotMonotone) as err:
        require_monotone(down, c)
    assert err.value.details["pair"] == ["a", "b"]
    permuted = RationalFn("ba", {"a": 1, "b": 0})
    assert not is_monotone(permuted, c)
    assert monotone_envelope(permuted, c).carrier == c.elements


def test_every_monotone_check_names_the_same_failing_pair():
    """One raise site: the first failing pair in index order, from all three callers."""
    order = QuasiOrder(("d", "a", "b", "c"), [("a", "b"), ("b", "a"), ("b", "c"), ("d", "c")])
    f = RationalFn(order.elements, {"d": 0, "a": 1, "b": 0, "c": 2})
    first = next([x, y] for x in order.elements for y in order.elements
                 if order.leq(x, y) and f(x) > f(y))
    assert first == ["a", "b"]
    skeleton = SbalSkeleton(order)
    calls = [lambda: require_monotone(f, order),
             lambda: skeleton.require_member(f),
             lambda: sw_approximate(f, skeleton, Fraction(1, 4))]
    for call in calls:
        with pytest.raises(NotInSkeleton) as err:
            call()
        assert isinstance(err.value, NotMonotone)
        assert err.value.details["pair"] == first


@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_envelope_against_brute_force(direction):
    """The envelope is the least monotone map above (greatest below)."""
    orders = [chain("abc"), FinitePoset("abc"),
              FinitePoset("abc", [("a", "c"), ("b", "c")]),
              QuasiOrder("abc", [("a", "b"), ("b", "a")])]
    rng = rng_for(11, "envelope-oracle", direction)
    for order in orders:
        for _ in range(20):
            f = RationalFn(order.elements, sample_values(rng, order.elements))
            env = monotone_envelope(f, order, direction)
            assert is_monotone(env, order)
            pool = sorted(set(f.values.values()))
            candidates = []
            for combo in itertools.product(pool, repeat=len(order.elements)):
                g = RationalFn(order.elements, dict(zip(order.elements, combo)))
                if not is_monotone(g, order):
                    continue
                if direction == "upper" and f.le(g):
                    candidates.append(g)
                if direction == "lower" and g.le(f):
                    candidates.append(g)
            assert candidates, "f itself bounds the search space"
            if direction == "upper":
                best = {x: min(g.values[x] for g in candidates) for x in order.elements}
            else:
                best = {x: max(g.values[x] for g in candidates) for x in order.elements}
            assert env == RationalFn(order.elements, best)


def test_envelope_galois_connection():
    """f <= m iff upper_env(f) <= m, for monotone m; dually for lower."""
    order = FinitePoset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    rng = rng_for(12, "galois")
    for _ in range(50):
        f = RationalFn(order.elements, sample_values(rng, order.elements))
        m = monotone_envelope(
            RationalFn(order.elements, sample_values(rng, order.elements)), order)
        assert f.le(m) == monotone_envelope(f, order, "upper").le(m)
        assert m.le(f) == m.le(monotone_envelope(f, order, "lower"))


def test_envelope_idempotent_and_monotone_fixed():
    c = chain("abc")
    f = RationalFn("abc", {"a": 2, "b": 0, "c": 1})
    env = monotone_envelope(f, c)
    assert env.values == {"a": Fraction(2), "b": Fraction(2), "c": Fraction(2)}
    assert monotone_envelope(env, c) == env
    g = RationalFn("abc", {"a": 0, "b": 1, "c": 2})
    assert monotone_envelope(g, c) == g


def test_enumerate_monotone_maps_against_brute_force():
    dom = FinitePoset("abc", [("a", "c"), ("b", "c")])
    cod = chain("xy")
    fast = {tuple(sorted(h.items())) for h in enumerate_monotone_maps(dom, cod)}
    slow = set()
    for combo in itertools.product(cod.elements, repeat=3):
        h = dict(zip(dom.elements, combo))
        if all(cod.leq(h[x], h[y]) for x, y in dom.sorted_pairs()):
            slow.add(tuple(sorted(h.items())))
    assert fast == slow
    assert len(fast) == 5


@st.composite
def quasi_orders(draw, max_size=6):
    """A random quasi-order: random pairs, and some pairs made two-way."""
    n = draw(st.integers(1, max_size))
    labels = tuple(f"x{i}" for i in range(n))
    label_pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    pairs = draw(st.lists(label_pairs, max_size=2 * n))
    two_way = draw(st.lists(label_pairs, max_size=2))
    pairs += two_way + [(y, x) for x, y in two_way]
    return QuasiOrder(draw(st.permutations(labels)), pairs)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(order=quasi_orders(), codomain=quasi_orders(max_size=2),
       values=st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_cover_pairs_generate_the_relation(order, codomain, values):
    covers = order.cover_pairs
    assert QuasiOrder(order.elements, covers) == order
    # No cover pair is implied by the others: the tuple is a reduction.
    for i in range(len(covers)):
        assert QuasiOrder(order.elements, covers[:i] + covers[i + 1:]) != order
    f = RationalFn(order.elements, dict(zip(order.elements, values)))
    for g in (f, monotone_envelope(f, order)):
        assert is_monotone(g, order) == all(g(x) <= g(y) for x, y in order.pairs)
    every = [dict(zip(order.elements, images))
             for images in itertools.product(codomain.elements, repeat=len(order.elements))]
    assert enumerate_monotone_maps(order, codomain) == [
        h for h in every if all(codomain.leq(h[x], h[y]) for x, y in order.pairs)]
    # The stored classes and the facts read off them, against all pairs.
    index = {x: i for i, x in enumerate(order.elements)}
    by_index = sorted(order.pairs, key=lambda p: (index[p[0]], index[p[1]]))
    assert order.sorted_pairs() == by_index
    two_way = [(x, y) for x, y in by_index if x != y and (y, x) in order.pairs]
    assert order.two_way_pair() == (two_way[0] if two_way else None)
    assert order.is_antisymmetric == (not two_way)
    blocks = []
    for x in order.elements:
        if all(x not in b for b in blocks):
            blocks.append(tuple(y for y in order.elements
                                if (x, y) in order.pairs and (y, x) in order.pairs))
    assert order.equiv_blocks() == tuple(blocks)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_posets_against_brute_force(n):
    labels = tuple("abcd"[:n])
    labeled = brute_force_posets(labels)
    assert len(labeled) == LABELED_COUNTS[n]
    classes = {canon(rel, labels) for rel in labeled}
    assert len(classes) == ISO_COUNTS[n]
    enumerated = enumerate_posets(n)
    assert len(enumerated) == ISO_COUNTS[n]
    keys = {canon(p.sorted_pairs(), p.elements) for p in enumerated}
    assert keys == classes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_posets_matches_the_factorial_scan(n):
    """Invariant-class canonical forms pick the classes the n! scan picks."""
    labels = tuple("abcde"[:n])
    keys = sorted({reference_key(down) for down in _downset_systems(n)})
    enumerated = enumerate_posets(n, labels)
    forms = [reference_key(downsets(p)) for p in enumerated]
    assert len(forms) == len(set(forms)) == len(keys) == ISO_COUNTS[n]
    assert set(forms) == set(keys)
    if n <= 4:
        # Below five points the two keys agree, so the list is unchanged.
        reference = [FinitePoset(labels, [(labels[i], labels[j]) for i in range(n)
                                          for j in range(n) if key[i * n + j]]).to_dict()
                     for key in keys]
        assert [p.to_dict() for p in enumerated] == reference


def test_enumerate_posets_cap():
    assert [len(enumerate_posets(n)) for n in (5, 6)] == [ISO_COUNTS[5], ISO_COUNTS[6]]
    with pytest.raises(TooLargeToEnumerate):
        enumerate_posets(7)


def test_posets_up_to():
    assert [len(enumerate_posets(n)) for n in (1, 2, 3)] == [1, 2, 5]
    assert len(posets_up_to(3)) == 1 + 2 + 5


def test_random_poset_deterministic_and_valid():
    a = random_poset(rng_for(3, "rp"), 4)
    b = random_poset(rng_for(3, "rp"), 4)
    assert a == b
    assert a.is_antisymmetric
    pairs = set(a.sorted_pairs())
    for x, y in pairs:
        for y2, z in pairs:
            if y == y2:
                assert (x, z) in pairs


def test_serialization_roundtrip():
    v = FinitePoset("abc", [("a", "c"), ("b", "c")])
    doc = json.loads(json.dumps(v.to_dict()))
    again = FinitePoset(doc["elements"], [tuple(p) for p in doc["leq"]])
    assert again == v
    assert again.to_dict() == v.to_dict()
