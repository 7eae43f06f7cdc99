"""Finite case generators for exhaustive tests.

A check that uses only comparisons of values (``<=``, max and min)
commutes with every strictly increasing map applied to all values at
once, so one representative per weak ordering of the values covers every
rational instance.  :func:`weak_orderings` lists those representatives and
:func:`quasi_orders_up_to_iso` the carriers they are checked on.
"""

import itertools

from ordalg import QuasiOrder


def weak_orderings(m: int) -> list:
    """Every weak ordering of m values, as rank tuples with ranks 0..k-1 all used.

    Their number is the Fubini number of m (OEIS A000670): 3, 75 and
    4,683 for m = 2, 4 and 6.
    """
    return [ranks for ranks in itertools.product(range(m), repeat=m)
            if set(ranks) == set(range(max(ranks, default=-1) + 1))]


def quasi_orders_up_to_iso(n: int, labels: str = "abcdefgh") -> list:
    """One quasi-order per isomorphism class on the first n labels.

    Every relation on the carrier is closed and keyed by the least sorted
    pair list over all relabelings; the first order met for each key is
    kept.  For n = 1, 2, 3 there are 1, 3 and 9 classes.
    """
    carrier = tuple(labels[:n])
    off_diagonal = [(x, y) for x in carrier for y in carrier if x != y]
    seen = {}
    for mask in range(1 << len(off_diagonal)):
        order = QuasiOrder(carrier, [p for i, p in enumerate(off_diagonal) if mask >> i & 1])
        key = min(sorted((perm[carrier.index(x)], perm[carrier.index(y)]) for x, y in order.pairs)
                  for perm in itertools.permutations(carrier))
        seen.setdefault(tuple(key), order)
    return list(seen.values())
