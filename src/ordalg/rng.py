"""Deterministic sampling helpers.

All randomness in the package flows from a single 64-bit seed.  Independent
sampling tasks derive child seeds with :func:`child_seed`, which hashes the
root seed together with a tuple of string tags (SHA-256, truncated to 64
bits).  The scheme is splittable: distinct tag tuples give independent
generators, and reports produced from the same (inputs, seed) pair are
byte-identical across runs and platforms.

Sampled function coordinates are rationals k/8 with k drawn uniformly from
[-16, 16], so raw samples live in [-2, 2] on a grid fine enough to exercise
strict and non-strict comparisons alike.  The 33 grid values are built once
as Fractions and every coordinate indexes into them with one ``randint``,
so a draw builds no new Fraction.  Callers wrap sampled values on an
already checked carrier with ``RationalFn._make``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

DEFAULT_SEED = 0

# Raw coordinates are k/8 with k uniform in [-16, 16]; _GRID[k + _SPAN] is k/8.
_STEP = 8
_SPAN = 16
_GRID = tuple(Fraction(k, _STEP) for k in range(-_SPAN, _SPAN + 1))


def child_seed(seed: int, *tags: str) -> int:
    """Derive an independent 64-bit child seed from ``seed`` and ``tags``."""
    # Imported here: hashlib loads OpenSSL, and only seeded commands need it,
    # so the CLI's other commands start without paying for that import.
    import hashlib
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("ascii"))
    for tag in tags:
        h.update(b"/")
        h.update(tag.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(seed: int, *tags: str) -> random.Random:
    """A ``random.Random`` seeded from the derived child seed."""
    return random.Random(child_seed(seed, *tags))


def sample_scalar(rng: random.Random) -> Fraction:
    return _GRID[rng.randint(-_SPAN, _SPAN) + _SPAN]


def sample_nonneg_scalar(rng: random.Random) -> Fraction:
    return _GRID[rng.randint(0, _SPAN) + _SPAN]


def sample_values(rng: random.Random, carrier: Sequence[str]) -> dict:
    return {x: _GRID[rng.randint(-_SPAN, _SPAN) + _SPAN] for x in carrier}


def sample_nonneg_values(rng: random.Random, carrier: Sequence[str]) -> dict:
    return {x: _GRID[rng.randint(0, _SPAN) + _SPAN] for x in carrier}
