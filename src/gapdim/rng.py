"""Deterministic pseudorandom numbers for simulations and generators.

The package uses SplitMix64 everywhere randomness is needed.  SplitMix64 is
counter based: the n-th output (n = 1, 2, ...) is
``mix(seed + n * GOLDEN_GAMMA)`` with a fixed 64-bit mixing function, so the
integer stream is reproducible from the seed alone and easy to re-implement
bit for bit in any language.  Uniform draws on [0, 1) are the top 53 bits of
an output divided by 2**53, returned as an exact dyadic ``Fraction`` or as
its integer numerator (a "tick").

Draws come one at a time (``next_u64``, ``unit_tick``, ``unit_fraction``)
or in bulk, in two forms (``u64s``, and ``word_blocks``, which keeps each
tick k as the 64-bit word k * 2**11, the output with its low 11 bits
cleared: over 2**64 it is the same point k / 2**53), and both give one
identical stream: n bulk draws return what n per-call draws would and leave
the generator in the same state.  Bulk draws mix up to ``BLOCK`` states at
once, and only when their block is reached, so a long stream is held one
block at a time.  The states of a block are packed into one
Python int as 128-bit lanes, state k in bits 128k .. 128k + 63.  Each
xor-shift and multiply of the mixer then runs on the whole int, and every
lane is masked back to 64 bits after each step.  The upper half of a lane
is headroom: it holds the bits a right shift brings down from the next lane
until the mask clears them, and the high half of each 64 x 64-bit product,
so no lane ever carries into the next.  The last mask also clears the low
11 bits of every lane for ``word_blocks``.  One generator,
``_lane_blocks``, builds the first block's lanes once, and moves them on to
each later block with one add of BLOCK * GOLDEN_GAMMA to every lane and
one mask.  It hands each block out as its lane bytes
(``SplitMix64.lane_blocks``), little-endian on every host: word k in bytes
16k .. 16k + 7, so byte 16k + 7 is its top byte.  ``lane_words`` unpacks
them with ``array('Q')``, taking every second 64-bit word; on a big-endian
host the words are byteswapped first.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Iterator, Tuple

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
TWO53 = 1 << 53
BLOCK = 4096  # lanes mixed at once by the bulk draws


@cache
def _lanes() -> Tuple[int, int, int, int, int]:
    """(ones, lane mask, word mask, lane steps, stride) for a full block: 1,
    2**64 - 1, 2**64 - 2**11, (k + 1) * GOLDEN_GAMMA mod 2**64 and
    BLOCK * GOLDEN_GAMMA mod 2**64 in lane k.  Built on the first bulk
    draw, not at import."""
    steps = array("Q", [0]) * (2 * BLOCK)
    steps[::2] = array("Q", ((k * GOLDEN_GAMMA) & MASK64 for k in range(1, BLOCK + 1)))
    if sys.byteorder == "big":
        steps.byteswap()
    ones = int.from_bytes((b"\x01" + bytes(15)) * BLOCK, "little")
    return (
        ones,
        int.from_bytes((b"\xff" * 8 + bytes(8)) * BLOCK, "little"),
        int.from_bytes((b"\x00\xf8" + b"\xff" * 6 + bytes(8)) * BLOCK, "little"),
        int.from_bytes(steps.tobytes(), "little"),
        ((BLOCK * GOLDEN_GAMMA) & MASK64) * ones,
    )


def _lane_blocks(state: int, n: int, words: bool = False) -> Iterator[bytes]:
    """The outputs of n next_u64 calls from `state`, with the low 11 bits of
    each cleared for `words`, in blocks of up to BLOCK as lane bytes: output
    k of a block in its little-endian bytes 16k .. 16k + 7, then 8 zero
    bytes.  The lanes of the first block are built once; each later block's
    are the last block's plus BLOCK * GOLDEN_GAMMA, and only a partial last
    block is cut to its n mod BLOCK lanes."""
    ones, mask, word_mask, steps, stride = _lanes()
    out = word_mask if words else mask
    for k in range(0, n, BLOCK):
        size = min(BLOCK, n - k)
        if size < BLOCK:
            cut = (1 << (128 * size)) - 1
            ones, steps, mask, out = ones & cut, steps & cut, mask & cut, out & cut
        if k:
            lanes = (lanes + stride) & mask
        else:
            lanes = (state * ones + steps) & mask
        z = (((lanes ^ (lanes >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
        z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
        yield ((z ^ (z >> 31)) & out).to_bytes(16 * size, "little")


def lane_words(lanes: bytes) -> array:
    """The 64-bit words of a block of lane bytes."""
    words = array("Q", lanes)
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


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

    def u64s(self, n: int) -> Iterator[int]:
        """The next n ``next_u64()`` outputs, mixed a block at a time."""
        return chain.from_iterable(map(lane_words, self.lane_blocks(n)))

    def word_blocks(self, n: int) -> Iterator[array]:
        """The next n ``unit_tick()`` draws k as the words k << 11, which is
        ``next_u64() & ~0x7FF``, in ``array('Q')`` blocks of up to BLOCK
        words: 8 bytes a draw instead of one Python int each, and
        k / 2**53 = (k << 11) / 2**64.  The state moves past all n at once,
        and each block is mixed when the iterator reaches it."""
        return map(lane_words, self.lane_blocks(n, words=True))

    def lane_blocks(self, n: int, words: bool = False) -> Iterator[bytes]:
        """The next n ``next_u64()`` outputs, with the low 11 bits of each
        cleared for `words`, as lane bytes in blocks of up to BLOCK: output k
        of a block in its little-endian bytes 16k .. 16k + 7.  The state
        moves past all n at once; each block is mixed when the iterator
        first reaches it, so draws left unread cost nothing."""
        if n < 0:
            raise ValueError("a bulk draw needs n >= 0")
        start = self._state
        self._state = (start + n * GOLDEN_GAMMA) & MASK64
        return _lane_blocks(start, n, words)
