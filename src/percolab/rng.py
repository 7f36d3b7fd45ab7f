"""Deterministic, splittable randomness.

Every experiment is reproducible from a single 64-bit master seed.  Trial i
gets its own independent stream, computable directly from (master, i) without
generating streams 0..i-1, so trials can run in any order and in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One splitmix64 mixing step (a bijection on 64-bit integers)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Seed:
    """A (master, stream) pair identifying one random stream.

    Identical pairs yield bit-identical sequences; distinct streams derived
    from the same master are statistically independent.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.master <= _MASK64 and 0 <= self.stream <= _MASK64):
            raise ValueError("seed components must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator for this stream."""
        return np.random.default_rng(np.random.SeedSequence((self.master, self.stream)))


def derive(seed: Seed, index: int) -> Seed:
    """Derive the `index`-th child stream of `seed`.

    Pure function: derive(s, i) always returns the same Seed, and distinct
    indices map to distinct streams (splitmix64 is a bijection, so the xor
    of the parent stream with a mixed index never collides for i != j).
    """
    if index < 0:
        raise ValueError("stream index must be non-negative")
    mixed = _splitmix64((index * _GOLDEN) & _MASK64)
    return Seed(seed.master, _splitmix64(seed.stream ^ mixed))


def entropy_seed() -> Seed:
    """Seed drawn from OS entropy (used when no --seed flag is given)."""
    return Seed(int(np.random.SeedSequence().entropy) & _MASK64)
