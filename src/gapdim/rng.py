"""Deterministic pseudorandom numbers for simulations and generators.

The package uses SplitMix64 everywhere randomness is needed.  SplitMix64 is
counter based: the n-th output is ``mix(seed + n * GOLDEN_GAMMA)`` with a
fixed 64-bit mixing function, so the integer stream is reproducible from the
seed alone and easy to re-implement bit for bit in any language.  Uniform
draws on [0, 1) are the top 53 bits of an output divided by 2**53, returned
as an exact dyadic ``Fraction`` or as its integer numerator.
"""

from __future__ import annotations

from fractions import Fraction

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
TWO53 = 1 << 53


class SplitMix64:
    """SplitMix64 stream seeded with a (possibly negative) integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def unit_fraction(self) -> Fraction:
        """Exact dyadic rational in [0, 1) with 53 random bits."""
        return Fraction(self.unit_tick(), TWO53)

    def unit_tick(self) -> int:
        """Numerator over 2**53 of the next ``unit_fraction()`` draw."""
        return self.next_u64() >> 11

    def randint(self, n: int) -> int:
        """Integer in [0, n) via modulo reduction (bias < 2**-50 for small n)."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return self.next_u64() % n
