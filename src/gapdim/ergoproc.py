"""Stationary process simulation and exact discrepancy measurement.

Three process variants generate points in [0, 1): an i.i.d. uniform source,
a circle rotation x -> x + theta (mod 1) started uniformly, and a finite
irreducible Markov chain started from its stationary distribution with an
``Emission`` [lo, hi) per state: a uniform draw on it, or the point lo when
lo == hi.  Each is one spec class that holds what only it knows: ``path``
draws its path from 53-bit SplitMix64 draws k, as exact integer ticks over
one scale N (x = tick / N), ``cell_masses`` weighs cells by its marginal
law, and ``max_length`` caps its path length (None for no cap).

Each process holds its path in its own form, and each form counts itself:
``counts(thresholds, lengths)`` gives, for each prefix length m, how many
of the first m ticks lie in each cell between increasing integer
thresholds, and no count builds a tick.  The ticks are built, in order,
only when a path is iterated (``SamplePath.values``).

- An IID path is its ``Draws``: the seed and the length.  Its 64-bit word
  ticks come a block of ``rng.BLOCK`` at a time as the lane bytes of
  ``SplitMix64.lane_blocks``, each block mixed only when it is read, so
  counting a path of any length holds one block.  The ticks fill all 64
  bits, so their top byte alone bins most of them: one 256-entry table,
  built from the thresholds, maps each top byte to its cell, or to the
  marker 255 when a threshold splits that byte's range (or the cell is 255
  or more).  A block's top bytes are one slice of its lane bytes (every
  16th byte), and one ``bytes.translate`` of them gives each tick's cell,
  in C; only the marked ticks are binned with a bisect (``_binned_counts``),
  so the words themselves are unpacked only when the table marks a byte.
- A Markov path is its ``Walk``: the state of each step and, per state,
  the words its uniform emissions drew.  It is counted state by state: a
  point state's steps all fall in one cell, and a uniform state's words go
  through the same kernel against the thresholds moved into word space.
- A rotation path is its ``Orbit``: the first tick, the step theta * N, N
  and the length.  It is counted by floor sums (below).

Every downstream decision (discrepancy, bound verdicts) is exact; floats
appear only in human-readable report columns.

The discrepancy of a class on a path is the maximum over the class of
|sample mean - expectation|, and both sides read the class's integer value
table (``funclass.refinement``: cuts c over C, cell values over V).  A tick
x lies at or right of the cut c / C exactly when x >= ceil(c * N / C), so
points are counted on integers and each mean is one sum s over V * m.  The
process marginal gives each cell an exact integer mass over one B (the
spec's ``cell_masses``), so each expectation p / q is one sum over V * B, and
each discrepancy is the one ``Fraction`` |s * q - p * V * m| / (V * m * q).
A path is a prefix of the longer path drawn from the same seed, so one path
and running cell counts give the discrepancy at every length of an m grid.

An orbit's i-th tick is (b + i * d) mod N, and an integer x lies below K
(0 <= K <= N) modulo N exactly when
floor(x / N) - floor((x - K + N) / N) = 1, else that difference is 0.  So

    #{0 <= i < m : (b + i * d) mod N < K} = S(b) - S(b + N - K) + m,
    S(c) = sum over i < m of floor((c + i * d) / N),

and each S is one ``floor_sum``, Euclid's algorithm on (d, N).  The counts at
one length cost one floor sum per interior cut plus the K-free S(b), however
long the path: a rotation path of 10**9 points is counted as fast as one of
10**3.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exactset import ONE, ZERO, RationalLike, as_fraction
from .funclass import (
    STEP,
    Function,
    FunctionClass,
    refinement,
    trajectory_indicators,
    value_rows,
    values_at,
)
from .rng import TWO53, SplitMix64, lane_words
from .shatter import DimResult, gap_dim

# The ``max_length`` of an i.i.d. or Markov spec: such a path draws each of
# its points, so its time grows with its length, and a walk also holds a
# state byte and up to one 8-byte word per step.  A rotation's is None, as
# its counts come from floor sums at any length.
MAX_DRAWN_POINTS = 10**8
# The most points ``demo-rotation`` takes: its data-dependent family holds
# an m-point orbit window per base point as a tabular class, so its time
# and memory grow with m (on a 2-CPU VM, about 2 s at 10**4 points, and
# 20 s and 470 MiB at 10**5).
MAX_DEMO_POINTS = 10**4


def golden_rotation_angle() -> Fraction:
    """First continued-fraction convergent of (sqrt(5) - 1) / 2 whose
    denominator reaches 2**40.

    The convergents are ratios of consecutive Fibonacci numbers, so the
    angle is exact, and its orbit closes after q = 1548008755920 points,
    its denominator.  Floor sums count a rotation path at any length, q and
    past it too, where the discrepancy of a class need not tend to 0; an
    irrational angle would never close (ROADMAP item 16).
    """
    a, b = 1, 1
    while b < 1 << 40:
        a, b = b, a + b
    return Fraction(a, b)


class Emission(NamedTuple):
    """Per-state output: a uniform draw on [lo, hi), or the point lo when
    lo == hi."""

    lo: Fraction
    hi: Fraction

    @classmethod
    def point(cls, at: RationalLike) -> "Emission":
        at = as_fraction(at)
        if not ZERO <= at < ONE:
            raise ValueError(f"emission point {at} outside [0, 1)")
        return cls(at, at)

    @classmethod
    def uniform(cls, lo: RationalLike, hi: RationalLike) -> "Emission":
        lo, hi = as_fraction(lo), as_fraction(hi)
        if not ZERO <= lo < hi <= ONE:
            raise ValueError(f"emission interval [{lo}, {hi}) invalid")
        return cls(lo, hi)


def _uniform_masses(C: int, cuts: Sequence[int]) -> Tuple[int, List[int]]:
    """The masses of the cells [c_j, c_j+1) / C under a process marginal, as
    integers over one B summing to B, ``(B, masses)``; here the uniform one
    (IID, rotation): the cell widths over C."""
    return C, list(map(operator.sub, cuts[1:], cuts))


class IIDUniformSpec:
    """Independent uniform points on [0, 1)."""

    __slots__ = ()
    max_length = MAX_DRAWN_POINTS

    def __eq__(self, other):
        return type(other) is IIDUniformSpec or NotImplemented

    def __hash__(self) -> int:
        return hash(IIDUniformSpec)

    def __repr__(self) -> str:
        return "IIDUniformSpec()"

    def path(self, m: int, seed: int) -> Tuple[int, "Draws"]:
        """One uniform per point.  N = 2**64 and the tick is k << 11, the
        same point, so that the top byte of a tick picks its cell; the path
        is held as its ``Draws`` (seed and length), its words drawn a block
        at a time whenever the path is read."""
        return 1 << 64, Draws(seed, m)

    cell_masses = staticmethod(_uniform_masses)


class RotationSpec(NamedTuple("RotationSpec", [("theta", Fraction)])):
    """The rotation x -> x + theta (mod 1), theta in (0, 1), started uniformly."""

    __slots__ = ()
    max_length = None

    def __new__(cls, theta: RationalLike):
        theta = as_fraction(theta)
        if not ZERO < theta < ONE:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        return super().__new__(cls, theta)

    def path(self, m: int, seed: int) -> Tuple[int, "Orbit"]:
        """One uniform for the start x0 (one ``unit_fraction()`` call), then
        frac(x0 + i*theta) for i = 1..m.  N = 2**53 * den(theta); each step
        adds theta * N to the start tick x0 * N, modulo N, and the path is
        held as that ``Orbit`` (its ticks are built only when read; counts
        come from floor sums)."""
        x0 = SplitMix64(seed).unit_fraction()
        scale = TWO53 * self.theta.denominator
        step = TWO53 * self.theta.numerator
        start = x0.numerator * (scale // x0.denominator)
        return scale, Orbit((start + step) % scale, step, scale, m)

    cell_masses = staticmethod(_uniform_masses)


class MarkovSpec:
    """A finite chain started from its stationary law, one emission per state;
    the one solve for that law (`_stationary`) also decides irreducibility.
    Specs compare, hash and print by ``transition`` and ``emissions`` only."""

    __slots__ = ("transition", "emissions", "stationary")
    max_length = MAX_DRAWN_POINTS

    def __init__(self, transition: Sequence[Sequence[RationalLike]], emissions: Sequence[Emission]):
        transition = tuple(tuple(map(as_fraction, row)) for row in transition)
        n = len(transition)
        if n == 0 or any(len(row) != n for row in transition):
            raise ValueError("transition matrix must be square and non-empty")
        if len(emissions) != n:
            raise ValueError("need one emission per state")
        for row in transition:
            if any(p < 0 for p in row):
                raise ValueError("transition probabilities must be >= 0")
            if sum(row, ZERO) != ONE:
                raise ValueError("transition rows must sum to 1 exactly")
        # solved once per spec: every expectation and path start reads it
        pi = _stationary(transition)
        if pi is None or not all(pi):
            raise ValueError("transition matrix is not irreducible")
        self.transition, self.emissions, self.stationary = transition, tuple(emissions), pi

    def __eq__(self, other):
        if type(other) is not MarkovSpec:
            return NotImplemented
        return (self.transition, self.emissions) == (other.transition, other.emissions)

    def __hash__(self) -> int:
        return hash((self.transition, self.emissions))

    def __repr__(self) -> str:
        return f"MarkovSpec(transition={self.transition!r}, emissions={self.emissions!r})"

    def path(self, m: int, seed: int) -> Tuple[int, "Walk"]:
        """One uniform for the stationary initial state, then per step one
        for the transition (from step 2 on) and one for the emission when it
        is not a point (lo < hi), read from a stream of 2m words, each block
        mixed only when the walk reaches it.  N = 2**64 * L, L the lcm of the
        emission denominators: a state is picked by comparing the word
        w = k << 11 with integer cumulative thresholds over 2**64, and an
        emission on [lo, hi) is the tick lo * N + (hi - lo) * L * w (width
        0, and no draw, for a point), held as the path's ``Walk``."""
        L = math.lcm(*(q.denominator for e in self.emissions for q in (e.lo, e.hi)))
        scale = L << 64
        # per state: tick = offset + width * k, with width 0 for a point
        # (exact products: L is a multiple of every emission denominator)
        emit = [(_ceil_scaled(e.lo, scale), _ceil_scaled(e.hi - e.lo, L)) for e in self.emissions]
        start = _pick_thresholds(self.stationary)
        rows = [_pick_thresholds(row) for row in self.transition]
        # at most 2m draws (the start, m - 1 transitions and m emissions)
        words = chain.from_iterable(SplitMix64(seed).word_blocks(2 * m))
        return scale, _walk(words, start, rows, emit, m)

    def cell_masses(self, C: int, cuts: Sequence[int]) -> Tuple[int, List[int]]:
        """The cells' masses (as ``_uniform_masses``) under the stationary
        mixture of the emissions: a point emission weighs the cell holding
        its point (the cell right of a cut it lies on), a uniform one on
        [lo, hi) each cell's overlap with it over hi - lo."""
        terms = []  # per state: its mass on each cell, over its own denominator
        for p, e in zip(self.stationary, self.emissions):
            if e.lo == e.hi:
                law = [0] * (len(cuts) - 1)
                law[bisect_right(cuts, e.lo.numerator * C // e.lo.denominator) - 1] = 1
            else:  # overlaps over q * C, q the lcm of the interval's denominators
                q = math.lcm(e.lo.denominator, e.hi.denominator)
                lo, hi = (x.numerator * (q // x.denominator) * C for x in (e.lo, e.hi))
                law = [max(0, min(b * q, hi) - max(a * q, lo)) for a, b in zip(cuts, cuts[1:])]
            terms.append(([p.numerator * x for x in law], p.denominator * sum(law)))
        B = math.lcm(*(d for _, d in terms))
        return B, list(map(sum, zip(*([x * (B // d) for x in law] for law, d in terms))))


ProcessSpec = Union[IIDUniformSpec, RotationSpec, MarkovSpec]


def _stationary(P: Sequence[Sequence[Fraction]]) -> Optional[Tuple[Fraction, ...]]:
    """The solution of pi P = pi, sum(pi) = 1, by exact elimination, or None
    when the system is singular (some column has no pivot).

    The system is nonsingular iff the chain has exactly one closed class.
    The solution is positive everywhere iff that class contains every state.
    """
    n = len(P)
    # rows of (P^T - I), last equation replaced by sum(pi) = 1
    A = [[P[j][i] - (ONE if i == j else ZERO) for j in range(n)] for i in range(n)]
    A[n - 1] = [ONE] * n
    b = [ZERO] * (n - 1) + [ONE]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / A[col][col]
        A[col] = [a * inv for a in A[col]]
        b[col] *= inv
        for r in range(n):
            if r != col and A[r][col] != 0:
                factor = A[r][col]
                A[r] = [a - factor * c for a, c in zip(A[r], A[col])]
                b[r] -= factor * b[col]
    return tuple(b)


def floor_sum(n: int, M: int, a: int, b: int) -> int:
    """sum(floor((a * i + b) / M) for i in range(n)), for n >= 0, M >= 1 and
    a, b >= 0, in O(log M) rounds of Euclid's algorithm on (a, M)."""
    total = 0
    while True:
        if a >= M:
            total += n * (n - 1) // 2 * (a // M)
            a %= M
        if b >= M:
            total += n * (b // M)
            b %= M
        top = a * n + b
        if top < M:
            return total
        n, b = divmod(top, M)
        M, a = a, M


class Orbit:
    """The ticks (first + i * step) mod scale, i = 0 .. length - 1, of a
    rotation path, counted by floor sums and built only when iterated."""

    __slots__ = ("first", "step", "scale", "length")

    def __init__(self, first: int, step: int, scale: int, length: int):
        self.first, self.step, self.scale, self.length = first, step, scale, length

    def __iter__(self) -> Iterator[int]:
        stop = self.first + self.length * self.step
        return map(operator.mod, range(self.first, stop, self.step), repeat(self.scale))

    def counts(self, thresholds: List[int], lengths: Sequence[int]) -> Iterator[List[int]]:
        """For each m in ``lengths``, how many of the first m ticks lie
        below thresholds[0], in each [thresholds[k - 1], thresholds[k]) and
        at or above thresholds[-1], for increasing thresholds in
        (0, scale], by floor sums (module docstring)."""
        N, d, b = self.scale, self.step, self.first
        for m in lengths:
            top = floor_sum(m, N, d, b)
            below = [top - floor_sum(m, N, d, b + N - K) + m for K in thresholds]
            yield list(map(operator.sub, [*below, m], [0, *below]))


class Walk:
    """The ticks of a Markov path, held as the walk that emitted them: the
    state of each step and, per state, the words its uniform emissions drew,
    in order.  The tick of a step in state s is offset_s + width_s * w, w
    the state's next word (width 0, and no word, for a point).  It is
    counted state by state, and its ticks are built only when iterated."""

    __slots__ = ("states", "words", "emit")

    def __init__(self, states: Sequence[int], words: List[array], emit: List[Tuple[int, int]]):
        self.states = states  # a bytearray, or an array('I') past 256 states
        self.words = words
        self.emit = emit

    @property
    def length(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[int]:
        draws = [iter(words) for words in self.words]
        for s in self.states:
            offset, width = self.emit[s]
            yield offset + width * next(draws[s]) if width else offset

    def counts(self, thresholds: List[int], lengths: Sequence[int]) -> List[List[int]]:
        """Per cell between the thresholds (as ``Orbit.counts``), the count
        of the first m ticks for each m in the non-decreasing ``lengths``,
        state by state.  Every step of a point state lands in the one cell
        of its tick.  A uniform state's tick offset + width * w lies at or
        right of t exactly when its word w >= ceil((t - offset) / width), so
        its words are binned by ``_binned_counts`` against those thresholds,
        clamped to [0, 2**64], their top bytes read from the words' memory.
        The visits of each state are counted per length segment: by
        ``bytearray.count`` in C for 256 states or fewer, else by one pass
        over the segment, as ``array.count`` compares in Python."""
        totals = [[0] * (len(thresholds) + 1) for _ in lengths]
        segments = list(zip([0, *lengths], lengths))
        states = range(len(self.emit))
        if len(states) > 256:
            tallies = [Counter(self.states[a:b]) for a, b in segments]
            per_state = ([tally[s] for tally in tallies] for s in states)
        else:
            per_state = ([self.states.count(s, a, b) for a, b in segments] for s in states)
        for (offset, width), words, visits in zip(self.emit, self.words, per_state):
            visits = list(accumulate(visits))
            if not visits[-1]:
                continue
            if width:
                moved = [min(max(-((offset - t) // width), 0), 1 << 64) for t in thresholds]
                block = iter([(memoryview(words).cast("B")[_TOP_BYTE::8].tobytes(), words)])
                binned = _binned_counts(block, _top_byte_table(moved), moved, visits)
                for total, counts in zip(totals, binned):
                    total[:] = map(operator.add, total, counts)
            else:
                cell = bisect_right(thresholds, offset)
                for total, n in zip(totals, visits):
                    total[cell] += n
        return totals


class Draws:
    """The ticks of an IID path, held as the draws that make them: tick i
    is the word k << 11 of the (i + 1)-th ``unit_tick()`` of
    ``SplitMix64(seed)``.  ``lanes()`` yields the words as the lane bytes
    of ``SplitMix64.lane_blocks``, blocks of up to ``rng.BLOCK`` each mixed
    only when it is reached, so a pass over the path holds one block at a
    time; ``blocks()`` unpacks them into ``array('Q')`` words."""

    __slots__ = ("seed", "length")

    def __init__(self, seed: int, length: int):
        self.seed = seed
        self.length = length

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.blocks())

    def lanes(self) -> Iterator[bytes]:
        return SplitMix64(self.seed).lane_blocks(self.length, words=True)

    def blocks(self) -> Iterator[array]:
        return map(lane_words, self.lanes())

    def counts(self, thresholds: List[int], lengths: Sequence[int]) -> Iterator[List[int]]:
        """Per cell between the thresholds (as ``Orbit.counts``), the count
        of the first m ticks for each m in the non-decreasing ``lengths``,
        binned a block at a time by ``_binned_counts``.  A block's top bytes
        are byte 7 of each 16-byte lane, and its lane bytes are unpacked
        into words only when the table marks a byte."""
        table = _top_byte_table(thresholds)
        marks = MARKED in table
        blocks = ((lanes[7::16], lane_words(lanes) if marks else None) for lanes in self.lanes())
        return _binned_counts(blocks, table, thresholds, lengths)


class SamplePath:
    """Sample points x_i = tick_i / scale, held as integers over one scale.

    ``ticks`` is the path in its process's own form: ``Draws`` for an IID
    path, an ``Orbit`` for a rotation path and a ``Walk`` for a Markov
    path.  Each form has a ``length``, counts itself (``counts``) and builds
    its ticks, in order, only when iterated.  Paths compare by identity.
    """

    __slots__ = ("ticks", "scale", "seed", "spec")

    def __init__(self, ticks: Union[Draws, Orbit, Walk], scale: int, seed: int, spec: ProcessSpec):
        self.ticks, self.scale, self.seed, self.spec = ticks, scale, seed, spec

    @property
    def values(self) -> Tuple[Fraction, ...]:
        """The points as exact rationals."""
        return tuple(Fraction(t, self.scale) for t in self.ticks)

    @property
    def length(self) -> int:
        """The number of points, an int of any size: ``len()`` raises past
        ``sys.maxsize``, which a rotation orbit may exceed."""
        return self.ticks.length

    def __len__(self) -> int:
        return self.length


def _ceil_scaled(q: Fraction, scale: int) -> int:
    """ceil(q * scale); an integer x satisfies x >= q * scale iff x >= this."""
    return -(-q.numerator * scale // q.denominator)


def _pick_thresholds(weights: Sequence[Fraction]) -> List[int]:
    """Cumulative weights as ceilings over 2**64: a draw word w picks the
    first i with w / 2**64 < w_0 + ... + w_i, which is bisect_right(..., w)."""
    return [_ceil_scaled(acc, 1 << 64) for acc in accumulate(weights)]


def _walk(
    words: Iterable[int], start: List[int], rows: List[List[int]],
    emit: List[Tuple[int, int]], m: int,
) -> Walk:
    """The first m steps of a chain, reading its uniform words in the draw
    order of ``MarkovSpec.path``.  The start law acts as one more row, and a
    state is picked from the current row's ``_top_byte_table`` by the top
    byte of its word, with a bisect only when that byte is MARKED."""
    rows = [*rows, start]
    tables = [_top_byte_table(row) for row in rows]
    states = bytearray(m) if len(emit) <= 256 else array("I", [0]) * m
    drawn = [array("Q") for _ in emit]
    push = [d.append if width else None for d, (_, width) in zip(drawn, emit)]
    draw = iter(words)
    state = len(emit)
    for i, w in zip(range(m), draw):
        s = tables[state][w >> 56]
        state = bisect_right(rows[state], w) if s == MARKED else s
        states[i] = state
        p = push[state]
        if p:
            p(next(draw))
    return Walk(states, drawn, emit)


def sample_path(spec: ProcessSpec, m: int, seed: int) -> SamplePath:
    """m exact sample points, fully determined by (spec, m, seed), at most
    the spec's ``max_length`` (None: no cap).

    The spec's ``path`` draws them, in the order its docstring gives, as
    integer ticks over one scale N, each uniform a 53-bit integer k standing
    for k / 2**53 from one ``SplitMix64(seed)`` stream.  IID and Markov
    paths draw it in bulk as 64-bit words (``word_blocks``), the same
    uniforms as one ``unit_tick()`` call per draw.  The order does not
    depend on m, so the path of length m is a prefix of every longer path
    from the same (spec, seed).
    """
    if m < 1:
        raise ValueError("path length must be >= 1")
    if spec.max_length is not None and m > spec.max_length:
        raise ValueError(f"path length must be <= {spec.max_length} for {spec!r}, got {m}")
    scale, ticks = spec.path(m, seed)
    return SamplePath(ticks=ticks, scale=scale, seed=seed, spec=spec)


def expectation(F: FunctionClass, spec: ProcessSpec) -> List[Fraction]:
    """Exact E f(X) under the process marginal for each f in F, in order:
    f's row of the class table (values over V per cell) dotted with the cell
    masses over B, one integer sum and one ``Fraction`` per function."""
    if F.kind != STEP:
        raise ValueError("expectations need a STEP class")
    C, cuts, V, rows = refinement(F)
    B, masses = spec.cell_masses(C, cuts)
    return [Fraction(sum(map(operator.mul, row, masses)), V * B) for row in rows]


def _class_sums(
    F: FunctionClass, path: SamplePath, lengths: Sequence[int]
) -> Tuple[int, List[List[int]]]:
    """V and, for each m in the increasing ``lengths``, each function's sum
    of V * f(x) over the path's first m points, an integer: the sample mean
    is that sum over V * m.  The interior cuts of the class table become the
    tick thresholds ceil(c * N / C), and the path counts its ticks between
    them at each length."""
    C, cuts, V, rows = refinement(F)
    N = path.scale
    inner = [-(-c * N // C) for c in cuts[1:-1]]
    tallies = path.ticks.counts(inner, lengths)
    return V, [[sum(map(operator.mul, tally, row)) for row in rows] for tally in tallies]


MARKED = 255  # the table entry of a top byte whose ticks need a bisect
_IS_MARKED = bytes(MARKED) + b"\x01"  # translates MARKED to 1, any other cell to 0
_LOW56 = (1 << 56) - 1
_TOP_BYTE = 0 if sys.byteorder == "big" else 7  # of each word, in memory order


def _top_byte_table(thresholds: List[int]) -> bytes:
    """The cell of each top byte b of a 64-bit tick, for increasing
    thresholds in [0, 2**64]: byte b covers the ticks in
    [b * 2**56, (b + 1) * 2**56), and its entry is their one cell when no
    threshold falls strictly inside that range and the cell is below MARKED,
    else the marker MARKED.  The range starts right of the thresholds t with
    ceil(t / 2**56) <= b, so a histogram of those first bytes, accumulated,
    gives every byte's first cell."""
    firsts = [0] * 257
    for t in thresholds[:MARKED]:  # the rest only count into cells past MARKED
        firsts[-(-t >> 56)] += 1
    table = bytearray(accumulate(firsts[:256]))
    for t in thresholds:
        if t & _LOW56:  # a cell boundary inside the range of byte t >> 56
            table[t >> 56] = MARKED
    return bytes(table)


def _binned_counts(
    blocks: Iterator[Tuple[bytes, Optional[Sequence[int]]]], table: bytes,
    thresholds: List[int], lengths: Sequence[int],
) -> Iterator[List[int]]:
    """Per cell between the thresholds, the count of the first m 64-bit
    word ticks for each m in the non-decreasing ``lengths``, the ticks read
    from ``blocks`` of (top bytes, words) in path order.

    ``table`` is the thresholds' ``_top_byte_table``: one
    ``bytes.translate`` through it maps a block's top bytes to their cells,
    in C, and ``bytes.count`` counts each cell in each part of the block
    before the next prefix length, which may end inside it.  Only the ticks
    it marks MARKED are binned with ``bisect_right``, picked out of the
    words by ``itertools.compress``; the words are read for nothing else,
    and may be None when the table has no MARKED byte.  A block is read
    only when a length reaches into it, and only one block is held at a
    time."""
    counts = Counter()
    present = set(table) - {MARKED}
    marks = MARKED in table
    block = cells = marked = b""
    start = done = 0  # the path index of the block's first tick, its ticks counted
    for m in lengths:
        while True:
            stop = min(m - start, len(cells))
            for j in present:
                counts[j] += cells.count(j, done, stop)
            if marks:
                ticked = compress(block[done:stop], marked[done:stop])
                counts.update(map(bisect_right, repeat(thresholds), ticked))
            done = stop
            if m - start <= len(cells):
                break
            start += len(cells)
            tops, block = next(blocks)
            cells = tops.translate(table)
            if marks:
                marked = cells.translate(_IS_MARKED)
                block = memoryview(block)  # slices without copies
            done = 0
        yield [counts[j] for j in range(len(thresholds) + 1)]


def pointwise_discrepancy(f: Function, path: SamplePath) -> Fraction:
    """|sample mean - expectation| of a single function on a path."""
    F = FunctionClass([f])
    ef = expectation(F, path.spec)[0]  # rejects a TABULAR function
    V, columns = values_at(F, path.values)
    return abs(Fraction(sum(column[0] for column in columns), V * path.length) - ef)


def _discrepancies(
    F: FunctionClass, path: SamplePath, lengths: Sequence[int]
) -> List[List[Fraction]]:
    """Per function, |sample mean - expectation| over the path's first m
    points, for each m in the increasing ``lengths``."""
    expected = expectation(F, path.spec)  # rejects a TABULAR class
    V, sums = _class_sums(F, path, lengths)
    # |s / (V * m) - p / q| is one Fraction, |s * q - p * V * m| / (V * m * q)
    return [
        [Fraction(abs(s * e.denominator - e.numerator * V * m), V * m * e.denominator)
         for s, e in zip(row, expected)]
        for m, row in zip(lengths, sums)
    ]


def discrepancy(F: FunctionClass, path: SamplePath, lengths: Sequence[int]) -> List[Fraction]:
    """The trajectory [G_m for m in lengths]: G_m is the maximum over the
    class of |sample mean - expectation| on the path's first m points, exact,
    for increasing prefix ``lengths``.  One pass of running cell counts and
    one ``expectation`` call serve every length.
    """
    lengths = list(lengths)
    increasing = lengths == sorted(set(lengths))
    if not (lengths and increasing and 1 <= lengths[0] and lengths[-1] <= path.length):
        raise ValueError(f"prefix lengths must increase within [1, {path.length}]")
    return [max(row) for row in _discrepancies(F, path, lengths)]


def per_function_discrepancies(F: FunctionClass, path: SamplePath) -> List[Fraction]:
    return _discrepancies(F, path, [path.length])[0]


class GammaReport(NamedTuple):
    """Discrepancies over an (m, replicate) grid plus per-m summaries."""

    rows: Tuple[Tuple[int, int, Fraction], ...]  # (m, replicate, gamma_m)
    summary: Dict[int, Dict[str, Fraction]]
    estimate: Fraction  # mean at the largest m


def estimate_gamma(
    F: FunctionClass,
    spec: ProcessSpec,
    m_grid: Sequence[int],
    replicates: int,
    seed: int,
) -> GammaReport:
    """Monte Carlo estimate of the asymptotic discrepancy.

    Replicate r uses seed + r.  Its path is drawn once, at the largest m:
    the path at a smaller m is its prefix, so every grid point is read from
    running cell counts along it.  The point estimate is the replicate mean at
    the largest m; min and max across replicates are reported instead of a
    confidence interval because no convergence rate is available.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    grid = tuple(sorted(m_grid))
    if not grid or grid[0] < 1:
        raise ValueError("path lengths must be >= 1")
    lengths = sorted(set(grid))
    gamma_m = {}
    for r in range(replicates):
        path = sample_path(spec, lengths[-1], seed + r)
        for m, g in zip(lengths, discrepancy(F, path, lengths)):
            gamma_m[m, r] = g
    rows = [(m, r, gamma_m[m, r]) for m in grid for r in range(replicates)]
    summary = {}
    for m in lengths:
        vals = [gamma_m[m, r] for r in range(replicates)]
        summary[m] = {
            "mean": sum(vals, ZERO) / len(vals),
            "min": min(vals),
            "max": max(vals),
        }
    return GammaReport(rows=tuple(rows), summary=summary, estimate=summary[grid[-1]]["mean"])


BASE_POINTS = tuple(Fraction(j, 7) for j in range(1, 6))


class RotationDemoReport(NamedTuple):
    m: int
    theta: Fraction
    x0: Fraction
    data_dependent_gamma: Fraction  # exactly 1
    fixed_family_gamma: Fraction  # exactly 0
    combined_dim: DimResult
    gamma_resolution: Fraction
    base_points: Tuple[Fraction, ...]


def rotation_counterexample(
    m: int, seed: int, theta: Optional[RationalLike] = None
) -> RotationDemoReport:
    """The uncountable-family cautionary demo at finite scale.

    A rotation path x_1, ..., x_m is sampled, and its start x0 is read back
    from it as frac(x_1 - theta).  Family (i) is the single indicator of the
    start's own truncated orbit; every sample point lies in it while its
    expectation is 0 (a finite set has measure zero), so its discrepancy is
    exactly 1.  Family (ii) holds indicators of the orbits of the five fixed
    base points j/7, j = 1..5, truncated likewise and disjoint from the path,
    so its discrepancy is exactly 0.  The combined truncated family still has
    gap dimension 1 at any resolution below 1/2 because the supports are
    pairwise disjoint.  The family is finite and data dependent by
    construction, a truncation of an uncountable ideal; that caveat is part
    of this report's meaning.
    """
    theta = as_fraction(theta) if theta is not None else golden_rotation_angle()
    path = sample_path(RotationSpec(theta=theta), m, seed)
    N = path.scale
    x0 = (Fraction(path.ticks.first, N) - theta) % 1

    combined = trajectory_indicators(theta, (x0, *BASE_POINTS), window=m)
    # Every expectation is 0, so each family's discrepancy is its path mean;
    # the path lies in the start's orbit, hence in the combined domain.  The
    # domain points and the path's ticks are read as integers over one scale
    # S, the ticks are counted per domain index, and each function's row of
    # the class table is dotted with those counts.
    domain = combined.domain_points
    S = math.lcm(N, *{p.denominator for p in domain})
    index = {p.numerator * (S // p.denominator): i for i, p in enumerate(domain)}
    up = S // N
    counts = Counter(index[t * up] for t in path.ticks)
    V, rows = value_rows(combined)
    means = [Fraction(sum(row[i] * c for i, c in counts.items()), m * V) for row in rows]
    resolution = Fraction(1, 4)
    dim = gap_dim(combined, resolution)
    return RotationDemoReport(
        m=m,
        theta=theta,
        x0=x0,
        data_dependent_gamma=means[0],
        fixed_family_gamma=max(means[1:]),
        combined_dim=dim,
        gamma_resolution=resolution,
        base_points=BASE_POINTS,
    )


class BoundCheckReport(NamedTuple):
    dim: DimResult
    estimate: Fraction
    bound: Fraction  # 10 * gamma
    passed: bool
    margin: Fraction  # bound - estimate


def bound_check(
    F: FunctionClass,
    spec: ProcessSpec,
    gamma: RationalLike,
    m: int,
    replicates: int,
    seed: int,
) -> BoundCheckReport:
    """Check the finite-dimension consequence: discrepancy estimate <= 10*gamma.

    For a finite class the ergodic theorem forces the asymptotic discrepancy
    to 0, so a pass with a wide margin is the expected outcome; the value of
    the check is exercising the whole pipeline and catching regressions.
    """
    gamma = as_fraction(gamma)
    dim = gap_dim(F, gamma)
    estimate = estimate_gamma(F, spec, [m], replicates, seed).estimate
    bound = 10 * gamma
    return BoundCheckReport(
        dim=dim, estimate=estimate, bound=bound, passed=estimate <= bound, margin=bound - estimate
    )
