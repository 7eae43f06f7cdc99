"""Sampled values: the value table against the arithmetic definition, and pinned child seeds."""

from fractions import Fraction

from ordalg.rng import (child_seed, rng_for, sample_nonneg_scalar, sample_nonneg_values,
                        sample_scalar, sample_values)

CARRIER = ("p", "q", "r")


def test_table_draws_equal_fractions_of_the_same_randint_calls():
    """Over 10,000 draws each sampler returns Fraction(randint(...), 8) for the same seed."""
    drawn, reference = rng_for(23, "table"), rng_for(23, "table")
    for i in range(10_000):
        kind = i % 4
        if kind == 0:
            got = {"": sample_scalar(drawn)}
            want = {"": Fraction(reference.randint(-16, 16), 8)}
        elif kind == 1:
            got = {"": sample_nonneg_scalar(drawn)}
            want = {"": Fraction(reference.randint(0, 16), 8)}
        elif kind == 2:
            got = sample_values(drawn, CARRIER)
            want = {x: Fraction(reference.randint(-16, 16), 8) for x in CARRIER}
        else:
            got = sample_nonneg_values(drawn, CARRIER)
            want = {x: Fraction(reference.randint(0, 16), 8) for x in CARRIER}
        assert list(got.items()) == list(want.items())
        assert all(type(v) is Fraction for v in got.values())
    # Both generators consumed the same stream.
    assert drawn.random() == reference.random()


def test_child_seeds_are_pinned():
    """The SHA-256 derivation is part of every replayable report; these values never change."""
    assert child_seed(0) == 6912158355717386040
    assert child_seed(7, "prox-axioms") == 5325071960519508237
    assert child_seed(2 ** 64 + 3, "phi-respects", "\u00e9") == 11711546198992262354
