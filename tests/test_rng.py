"""Bulk SplitMix64 draws against the per-call stream they replace."""

import os
import subprocess
import sys
from pathlib import Path

from array import array
from itertools import chain

import pytest

import gapdim
from gapdim.rng import BLOCK, SplitMix64, lane_words
from oracles import oracle_u64s, oracle_unit_ticks

SEEDS = [0, 1, -3, 2**63, 12345, 2**64 - 1]
# the last: three blocks whose lanes are carried on, then a partial tail
LENGTHS = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 5]


def oracle_unit_words(rng, n):
    """The per-call ticks k as the words k << 11 over 2**64."""
    return [k << 11 for k in oracle_unit_ticks(rng, n)]


def words(rng, n):
    """The words of ``word_blocks(n)``, one after another."""
    return chain.from_iterable(rng.word_blocks(n))


BULK = {"u64s": oracle_u64s, "word_blocks": oracle_unit_words}
DRAW = {"u64s": SplitMix64.u64s, "word_blocks": words}


@pytest.mark.parametrize("kind", sorted(BULK))
@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_draws_are_the_per_call_stream(kind, n, seed):
    bulk, calls = SplitMix64(seed), SplitMix64(seed)
    assert list(DRAW[kind](bulk, n)) == BULK[kind](calls, n)
    # the state left behind: per-call draws, then another bulk draw
    assert oracle_u64s(bulk, 3) == oracle_u64s(calls, 3)
    assert list(words(bulk, 5)) == oracle_unit_words(calls, 5)
    assert bulk.next_u64() == calls.next_u64()


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lane_bytes_are_the_word_blocks(n, seed):
    # word k of a block in bytes 16k .. 16k + 7, little-endian on every host
    lanes = list(SplitMix64(seed).lane_blocks(n, words=True))
    blocks = list(SplitMix64(seed).word_blocks(n))
    assert [lane_words(b) for b in lanes] == blocks
    little = [b"".join(w.to_bytes(8, "little") + bytes(8) for w in block) for block in blocks]
    assert lanes == little
    assert [b[7::16] for b in lanes] == [bytes(w >> 56 for w in block) for block in blocks]


@pytest.mark.parametrize("seed", SEEDS)
def test_per_call_then_bulk_then_per_call(seed):
    bulk, calls = SplitMix64(seed), SplitMix64(seed)
    assert bulk.unit_tick() == calls.unit_tick()
    assert list(bulk.u64s(BLOCK + 3)) == oracle_u64s(calls, BLOCK + 3)
    assert bulk.unit_fraction() == calls.unit_fraction()


def test_state_moves_past_draws_left_unread():
    bulk, calls = SplitMix64(8), SplitMix64(8)
    first = bulk.u64s(2 * BLOCK + 1)
    second = words(bulk, 3)
    head = oracle_u64s(calls, 2 * BLOCK + 1)
    assert list(second) == oracle_unit_words(calls, 3)
    assert next(first) == head[0]
    assert bulk.next_u64() == calls.next_u64()


def test_empty_and_negative_counts():
    rng = SplitMix64(4)
    assert list(rng.u64s(0)) == []
    assert list(rng.word_blocks(0)) == []
    assert rng.next_u64() == SplitMix64(4).next_u64()
    with pytest.raises(ValueError, match="n >= 0"):
        rng.u64s(-1)
    with pytest.raises(ValueError, match="n >= 0"):
        rng.word_blocks(-1)


@pytest.mark.parametrize("n", LENGTHS)
def test_word_blocks_are_full_blocks_then_the_rest(n):
    blocks = list(SplitMix64(6).word_blocks(n))
    assert all(isinstance(block, array) and block.typecode == "Q" for block in blocks)
    assert [len(block) for block in blocks] == [BLOCK] * (n // BLOCK) + [n % BLOCK] * (n % BLOCK > 0)


def test_lane_constants_are_built_on_first_bulk_draw():
    code = (
        "import gapdim, gapdim.rng as r\n"
        "before = r._lanes.cache_info().currsize\n"
        "list(r.SplitMix64(1).u64s(2))\n"
        "print(before, r._lanes.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(gapdim.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split() == ["0", "1"]
