"""Monotone cones, the difference envelope, and the S-axiom suite."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordalg import (EnvelopePair, NotAMorphism, NotInSkeleton, NotMonotone,
                    QuasiOrder, RationalFn, SbalSkeleton, chain,
                    check_skeleton_axioms, complete_quasi_order,
                    concrete_envelope, envelope_umt, monotone_envelope,
                    posets_up_to)
from ordalg.order import FinitePoset
from ordalg.rng import rng_for, sample_nonneg_scalar

VEE = FinitePoset("abc", [("a", "c"), ("b", "c")])


def sk(order=None):
    return SbalSkeleton(order if order is not None else VEE)


def rand_pair(skeleton, rng):
    return EnvelopePair(skeleton, skeleton.sample_member(rng),
                        skeleton.sample_member(rng))


def test_membership():
    s = sk(chain("ab"))
    up = RationalFn("ab", {"a": 0, "b": 1})
    down = RationalFn("ab", {"a": 1, "b": 0})
    assert s.contains(up)
    assert not s.contains(down)
    assert s.contains_nonneg(up)
    assert not s.contains_nonneg(up - 1)
    with pytest.raises(NotInSkeleton):
        s.require_member(down)


def test_envelope_is_least_member_above():
    s = sk()
    f = RationalFn("abc", {"a": 2, "b": 0, "c": 1})
    env = s.envelope(f)
    assert env == monotone_envelope(f, VEE, "upper")
    assert s.contains(env) and f.le(env)


def test_scale_by_shift_matches_pointwise():
    """r * a = r(a + s) - rs, for a shift s >= 0 making a + s nonnegative."""
    rng = rng_for(31, "shift-scale")
    s = sk()
    for _ in range(40):
        a = s.sample_member(rng)
        r = sample_nonneg_scalar(rng)
        shift = max(Fraction(0), -a.min_value())
        assert (a + shift).ge(0) and s.contains(a + shift)
        assert (a + shift).scale(r) - r * shift == a.scale(r)


def test_pair_equivalence_and_hash():
    s = sk(chain("ab"))
    two = RationalFn.constant("ab", 2)
    five = RationalFn.constant("ab", 5)
    three = RationalFn.constant("ab", 3)
    z = s.zero()
    assert EnvelopePair(s, five, three) == EnvelopePair(s, two, z)
    assert hash(EnvelopePair(s, five, three)) == hash(EnvelopePair(s, two, z))
    assert EnvelopePair(s, five, two) != EnvelopePair(s, two, z)


def test_equal_pairs_in_different_label_orders_hash_equally():
    s = sk(chain("ab"))
    up = RationalFn("ab", {"a": 0, "b": 2})
    up_ba = RationalFn("ba", {"a": 1, "b": 3})
    one_ba = RationalFn.constant("ba", 1)
    p, q = EnvelopePair(s, up, s.zero()), EnvelopePair(s, up_ba, one_ba)
    assert p == q and q == p
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_pair_requires_cone_members():
    """The public constructor checks both representatives."""
    s = sk(chain("ab"))
    down = RationalFn("ab", {"a": 1, "b": 0})
    for pos, neg in ((down, s.zero()), (s.zero(), down)):
        with pytest.raises(NotMonotone):
            EnvelopePair(s, pos, neg)


@st.composite
def posets(draw, max_size=4):
    """A random poset: some forward edges along a shuffled listing of its labels."""
    n = draw(st.integers(1, max_size))
    labels = tuple(f"x{i}" for i in range(n))
    line = draw(st.permutations(labels))
    spans = list(itertools.combinations(line, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(spans), max_size=len(spans)))
    return FinitePoset(labels, [p for p, k in zip(spans, keep) if k])


@settings(max_examples=120, derandomize=True, deadline=None)
@given(order=posets(), values=st.lists(st.integers(-4, 4), min_size=16, max_size=16),
       r=st.integers(-8, 8).map(lambda k: Fraction(k, 4)))
def test_derived_pairs_have_members_as_representatives(order, values, r):
    """The cone is closed under every pair operation, so no derived pair needs a check."""
    s = SbalSkeleton(order)
    elements = order.elements
    f, g, h, k = (s.envelope(RationalFn(elements, dict(zip(elements, values[4 * i:]))))
                  for i in range(4))
    p, q = EnvelopePair(s, f, g), EnvelopePair(s, h, k)
    derived = [p.shift(r), p.nonneg_representative(), p + q, p - q, -p, p * q,
               p.scale(r), p.scale(-r), p.join(q), p.meet(q),
               p + r, r - p, p * r, p.join(r), p.meet(r)]
    for d in derived:
        assert s.contains(d.pos) and s.contains(d.neg), d


def test_pinned_join_and_mul():
    """[3,1] v [2,4] = [7,5] ~ 2 and [3,1] * [2,4] ~ -4 on a point."""
    s = sk(FinitePoset(("x",), ()))

    def pair(u, v):
        return EnvelopePair(s, RationalFn.constant(("x",), u),
                            RationalFn.constant(("x",), v))

    j = pair(3, 1).join(pair(2, 4))
    assert (j.pos.values["x"], j.neg.values["x"]) == (7, 5)
    assert j.diff() == RationalFn.constant(("x",), 2)
    m = pair(3, 1) * pair(2, 4)
    assert m.diff() == RationalFn.constant(("x",), -4)


def test_pair_ops_match_difference_evaluation():
    """Every pair operation commutes with [a, b] |-> a - b."""
    rng = rng_for(32, "pair-oracle")
    for order in (VEE, chain("abc"), QuasiOrder("abc", [("a", "b"), ("b", "a")])):
        s = SbalSkeleton(order)
        for _ in range(60):
            p = rand_pair(s, rng)
            q = rand_pair(s, rng)
            r = sample_nonneg_scalar(rng)
            assert (p + q).diff() == p.diff() + q.diff()
            assert (p - q).diff() == p.diff() - q.diff()
            assert (-p).diff() == -(p.diff())
            assert (p * q).diff() == p.diff() * q.diff()
            assert p.join(q).diff() == p.diff().join(q.diff())
            assert p.meet(q).diff() == p.diff().meet(q.diff())
            assert p.scale(r).diff() == p.diff().scale(r)
            assert p.scale(-r).diff() == p.diff().scale(-r)
            assert p.shift(r) == p
            assert p.le(q) == p.diff().le(q.diff())
            assert (p == q) == (p.diff() == q.diff())


def test_pair_scalar_coercion():
    s = sk(chain("ab"))
    p = EnvelopePair(s, s.one(), s.zero())
    assert (p + 1).diff() == RationalFn.constant("ab", 2)
    assert (3 - p).diff() == RationalFn.constant("ab", 2)
    assert (p * Fraction(-1, 2)).diff() == RationalFn.constant("ab", Fraction(-1, 2))
    assert p.join(2).diff() == RationalFn.constant("ab", 2)
    assert p.meet(0).diff() == RationalFn.constant("ab", 0)
    assert EnvelopePair.zero(s).le(EnvelopePair.one(s))


def test_epsilon_embed_is_injective_hom():
    """The embedding a |-> [a, 0] is additive, join-preserving and injective."""
    rng = rng_for(33, "embed")
    s = sk()

    def embed(a):
        return EnvelopePair(s, a, s.zero())

    for _ in range(30):
        a, b = s.sample_member(rng), s.sample_member(rng)
        assert embed(a) + embed(b) == embed(a + b)
        assert embed(a.join(b)) == embed(a).join(embed(b))
        if a != b:
            assert embed(a) != embed(b)


def test_envelope_umt_extends_identity():
    """The forced extension of the cone inclusion is difference evaluation."""
    rng = rng_for(34, "umt")
    s = sk()
    for _ in range(20):
        p = rand_pair(s, rng)
        value = envelope_umt(lambda a: a, p, seed=5)
        assert value == p.diff()


def test_envelope_umt_rejects_non_morphism():
    s = sk(chain("ab"))
    p = EnvelopePair.one(s)
    with pytest.raises(NotAMorphism):
        envelope_umt(lambda a: a + 1, p, seed=5)
    with pytest.raises(NotAMorphism):
        envelope_umt(lambda a: a.scale(2), p, seed=5)


def rank_difference(order, h):
    """The rank construction: h = f - g with g = M * rank and f = h + g.

    rank(x) is the size of x's downset and M = (max h - min h) + 1.  Along a
    strict pair x < y the downset of x lies inside that of y and misses y,
    so rank rises by at least 1 and f by at least M - (max h - min h) = 1.
    Two-way equivalent points share a downset, so f and g are monotone
    whenever h is constant on each two-way class.
    """
    rank = RationalFn(order.elements, {x: len(order.downset(x)) for x in order.elements})
    g = rank.scale(h.max_value() - h.min_value() + 1)
    return h + g, g


def test_difference_decompose_exhaustively_on_small_orders():
    """Every poset up to 3 points and three 3-point quasi-orders, values k/2 in [-1, 1].

    ``concrete_envelope`` claims the formal differences of cone members are
    exactly the block-constant functions.  Each block-constant h is f - g
    for the cone members the rank construction gives; every other h splits
    a two-way pair, on which every difference of members is constant.  The
    count of block-constant h that are not themselves members pins the
    construction, on two-way classes too.
    """
    orders = posets_up_to(3) + [QuasiOrder("abc", [("a", "b"), ("b", "a")]),
                                QuasiOrder("abc", [("a", "b"), ("b", "a"), ("b", "c")]),
                                QuasiOrder("abc", [("a", "b"), ("b", "a"), ("c", "a")])]
    grid = [Fraction(k, 2) for k in range(-2, 3)]
    decomposed = general = 0
    for order in orders:
        s = sk(order)
        envelope = concrete_envelope(s)
        for values in itertools.product(grid, repeat=len(order.elements)):
            h = RationalFn(order.elements, dict(zip(order.elements, values)))
            split = any(order.leq(x, y) and order.leq(y, x) and h(x) != h(y)
                        for x in order.elements for y in order.elements)
            assert envelope.contains(h) is not split
            if split:
                continue
            f, g = rank_difference(order, h)
            assert s.contains(f) and s.contains(g) and f - g == h
            decomposed += 1
            general += not s.contains(h)
    assert (decomposed, general) == (755, 310)


def test_concrete_envelope_blocks():
    loop = QuasiOrder("abc", [("a", "b"), ("b", "a")])
    assert concrete_envelope(sk(loop)).blocks == (("a", "b"), ("c",))
    assert concrete_envelope(sk(chain("ab"))).blocks == (("a",), ("b",))
    assert concrete_envelope(
        SbalSkeleton(complete_quasi_order("ab"))).blocks == (("a", "b"),)


@pytest.mark.parametrize("order", [chain("abc"), VEE, complete_quasi_order("ab"),
                                   FinitePoset("ab", [])])
def test_skeleton_axioms_pass(order):
    report = check_skeleton_axioms(SbalSkeleton(order), samples=400, seed=9)
    assert report.all_passed(), [r.to_dict() for r in report.results if not r.passed]
    assert [r.name for r in report.results] == [f"S{i}" for i in range(1, 10)]
    s9 = report.result("S9")
    assert s9.premise_hits > 0


def archimedean_premise_by_scan(a, b, c, d, max_n=64):
    """Direct scan of n(a) + b <= n(c) + d for n = 1..max_n.

    When a point has a(x) > c(x) the premise provably fails at some finite
    n, so the scan is extended far enough to see it.
    """
    bound = max_n
    for x in a.carrier:
        if a.values[x] > c.values[x]:
            need = (d.values[x] - b.values[x]) / (a.values[x] - c.values[x])
            bound = max(bound, int(need) + 2)
    return all((a.scale(n) + b).le(c.scale(n) + d) for n in range(1, bound + 1)), bound


def test_s9_premise_closed_form_matches_scan():
    """The exact archimedean premise equals an explicit scan over n."""
    from ordalg import archimedean_premise

    rng = rng_for(35, "s9")
    s = sk()
    hits = 0
    for _ in range(200):
        a, b = s.sample_member(rng), s.sample_member(rng)
        c, d = s.sample_member(rng), s.sample_member(rng)
        closed = archimedean_premise(a, b, c, d)
        scanned, bound = archimedean_premise_by_scan(a, b, c, d)
        if closed:
            # Sufficient check only up to the scan bound; failure there
            # would still falsify the closed form.
            assert scanned, (a.values, b.values, c.values, d.values)
            hits += 1
        else:
            assert not scanned
    assert hits > 0
