"""Deterministic sampling helpers.

All randomness in the package flows from a single 64-bit seed.  Independent
sampling tasks derive child seeds with :func:`child_seed`, which hashes the
root seed together with a tuple of string tags (SHA-256, truncated to 64
bits).  The scheme is splittable: distinct tag tuples give independent
generators, and reports produced from the same (inputs, seed) pair are
byte-identical across runs and platforms.

Sampled function coordinates are rationals k/8 with k drawn uniformly from
[-16, 16], so raw samples live in [-2, 2] on a grid fine enough to exercise
strict and non-strict comparisons alike.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Sequence

DEFAULT_SEED = 0

# Raw coordinates are k/8 with k uniform in [-16, 16].
_STEP = 8
_SPAN = 16


def child_seed(seed: int, *tags: str) -> int:
    """Derive an independent 64-bit child seed from ``seed`` and ``tags``."""
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
    return Fraction(rng.randint(-_SPAN, _SPAN), _STEP)


def sample_nonneg_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, _SPAN), _STEP)


def sample_values(rng: random.Random, carrier: Sequence[str]) -> dict:
    return {x: sample_scalar(rng) for x in carrier}


def sample_nonneg_values(rng: random.Random, carrier: Sequence[str]) -> dict:
    return {x: sample_nonneg_scalar(rng) for x in carrier}
