"""Function classes on the unit interval, value-band segments, and generators.

Two exact representations are supported, both with values in [0, 1].  A
STEP function is piecewise constant on a :class:`Partition`, pairwise-
disjoint pieces covering [0, 1): the right end hi of each sorted interval
as the integer hi * D, D the lcm of their denominators, and the piece that
owns it.  A TABULAR function is a table of values on a finite point set,
the :class:`Domain` that the functions of one class share.  Partitions and
domains from outside are converted and checked once, when built.

Every quantity of a class is read from its integer value table
(:func:`value_rows`): ``(V, rows)``, one row per function and one value per
cell, as integers over one V.  The cells of a STEP class are those of its
common refinement (:func:`refinement` gives ``(C, cuts, V, rows)``, the
cuts as integers over C); the cells of a TABULAR class are its domain
points.  A function is built one way, from its values, by
:meth:`Function.step` or :meth:`Function.tabular`, which check them once
and keep, beside them, its integer row over W, the lcm of its own value
denominators (STEP: ``(D, ends, W, vals)``, one value per interval;
TABULAR: ``(W, vals)``); equality and hashing read that row.  Every class
is born with its table.  Every generator builds only the table, from
integers: the four STEP generators over n equal cells [i/n, (i+1)/n),
which tile [0, 1) by construction, so C = n, the cuts are 0..n and nothing
is checked; the TABULAR ones over their one shared Domain.  A class file
is read into its functions' integer rows, checked as a Function checks
them, and a class assembled from functions takes theirs; :func:`_merge`
makes the table of either: STEP rows rescaled to one C and V and merged
over the common refinement, TABULAR rows rescaled to V.  A class born
from its table builds its functions only when they are read, each value
v / V a Fraction; every class is saved from its table, a STEP function as
one piece per refinement cell.

For a resolution ``gamma`` the value range splits into K bands
``[(k-1)*gamma, k*gamma)`` for k < K and ``[(K-1)*gamma, 1]`` for k = K,
where ``K = floor(1/gamma) + 1`` unless ``1/gamma`` is an integer, in which
case ``K = 1/gamma``.  The preimage of band k is the k-th segment of a
function; two segments are non-adjacent when their band indices differ by
at least 2.  One rule puts values in bands: :func:`_value_bands` bands
each distinct value of the class table, gamma = a/b putting v/V in band
min(v b // (V a) + 1, K), on integers.  Two tables read it, per function
and cell (a STEP refinement cell or a TABULAR domain point):
:func:`cell_bands`, the band of each cell, and :func:`band_masks`, the
cell mask of each non-empty band, bit j for cell j, built without a
per-cell loop when V < 256.  A segment of F[i] is the mask of one band of
row i, made into a set by :func:`segment_of_mask` (one IntervalUnion with
an interval per run of cells for STEP, the domain points for TABULAR);
segments, the segment join and the intersection-tree builder and verifier
all read the mask table.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, islice, repeat
from operator import lt, mod, mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .exactset import (
    ONE,
    ZERO,
    IntervalUnion,
    RationalLike,
    as_fraction,
    format_rational,
    json_list,
    json_object,
    parse_integer,
    parse_rational,
    read_json_object,
    write_json,
)
from .rng import SplitMix64

STEP = "step"
TABULAR = "tabular"


class InvalidResolution(ValueError):
    """A resolution gamma out of range: value bands (:func:`k_of_gamma`) need
    0 < gamma <= 1, while shattering (``shatter``) accepts any gamma > 0."""


class SegmentIndexOutOfRange(ValueError):
    """Band index outside [1, K]."""


class Domain(tuple):
    """The sorted, distinct points of [0, 1) that the functions of a TABULAR
    class share, converted and checked once; a point's cell is found by
    bisecting them (:func:`values_at`)."""

    __slots__ = ()

    def __new__(cls, points: Sequence[RationalLike]) -> "Domain":
        pts = (p if isinstance(p, Fraction) else as_fraction(p) for p in points)
        self = super().__new__(cls, pts)
        nums, dens = [p.numerator for p in self], [p.denominator for p in self]
        if any(not 0 <= a < b for a, b in zip(nums, dens)):
            raise ValueError("tabular points must lie in [0, 1)")
        # a/b < c/d iff a d < c b: each point below the next, on integers
        if not all(map(lt, map(mul, nums, dens[1:]), map(mul, nums[1:], dens))):
            raise ValueError("tabular points must be sorted and distinct")
        return self


class Partition(Sequence[IntervalUnion]):
    """Pairwise-disjoint pieces covering [0, 1), the pieces of a STEP
    function, held as integer cells and shared by every function built on
    them.

    ``ends`` holds the right end hi of every interval of every piece, in
    increasing order, as the integer hi * D, with ``D`` the lcm of the
    pieces' denominators; ``owners`` holds, per interval, the index of the
    piece it belongs to, and ``count`` the number of pieces (an empty piece
    owns no interval).  The pieces, as IntervalUnions, are built from those
    integers only when read.  ``Partition(pieces)`` checks outside pieces;
    :meth:`cells` takes integers already known to tile [0, 1).
    """

    __slots__ = ("D", "ends", "owners", "count")

    def __init__(self, pieces: Sequence[IntervalUnion]):
        if IntervalUnion.union_all(pieces) != IntervalUnion.full():
            raise ValueError("step pieces must cover [0, 1)")
        D = math.lcm(*(piece.denominator for piece in pieces))
        scaled = [piece.scaled(D) for piece in pieces]
        # pieces that cover [0, 1) are disjoint iff their lengths sum to D
        if sum(hi - lo for pairs in scaled for lo, hi in pairs) != D:
            raise ValueError("step pieces must be pairwise disjoint")
        ends, owners = zip(*sorted(  # disjoint pieces: the ends differ
            (hi, i) for i, pairs in enumerate(scaled) for _, hi in pairs
        ))
        self.D, self.ends, self.owners, self.count = D, ends, owners, len(scaled)

    @classmethod
    def cells(
        cls, D: int, ends: Tuple[int, ...], owners: Tuple[int, ...], count: int
    ) -> "Partition":
        """The partition with these integer cells, taken as already checked."""
        self = object.__new__(cls)
        self.D, self.ends, self.owners, self.count = D, ends, owners, count
        return self

    def _pairs(self) -> List[List[Tuple[int, int]]]:
        """Each piece's intervals, as integer pairs over D."""
        pairs = [[] for _ in range(self.count)]
        for lo, hi, i in zip((0, *self.ends), self.ends, self.owners):
            pairs[i].append((lo, hi))
        return pairs

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> IntervalUnion:
        return IntervalUnion(self.D, self._pairs()[i])

    def __iter__(self) -> Iterator[IntervalUnion]:
        return (IntervalUnion(self.D, pairs) for pairs in self._pairs())


class Function:
    """A [0, 1]-valued function, either STEP or TABULAR (see module docs).

    A function is built from its values by :meth:`step` or :meth:`tabular`,
    which check them once.  It keeps them as Fractions beside its integer
    row, ``(D, ends, W, vals)`` for STEP or ``(W, vals)`` over its domain
    for TABULAR, W the lcm of its value denominators; equality and hashing
    read the row.  Its value at a point is read by :func:`values_at` on a
    class holding it.
    """

    __slots__ = ("kind", "pieces", "points", "_row", "values")

    def __init__(self, kind, pieces, points, row, values):
        self.kind, self.pieces, self.points, self._row = kind, pieces, points, row
        self.values = values  # of each piece (STEP) or domain point (TABULAR)

    @classmethod
    def step(
        cls,
        pieces: Sequence[IntervalUnion],
        values: Sequence[RationalLike],
    ) -> "Function":
        """The STEP function with value ``values[i]`` on ``pieces[i]``.

        A :class:`Partition` is taken as already checked; any other sequence
        of pieces is checked by building one.
        """
        vals = tuple(v if isinstance(v, Fraction) else as_fraction(v) for v in values)
        pieces, row = _step_row(pieces, vals)
        return cls(STEP, pieces, None, row, vals)

    @classmethod
    def tabular(
        cls,
        points: Sequence[RationalLike],
        values: Sequence[RationalLike],
    ) -> "Function":
        pts = points if isinstance(points, Domain) else Domain(points)
        vals = tuple(v if isinstance(v, Fraction) else as_fraction(v) for v in values)
        return cls(TABULAR, None, pts, _tabular_row(pts, vals), vals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Function) and (
            (self.kind, self.points, self._row) == (other.kind, other.points, other._row)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self._row))

    def __repr__(self) -> str:
        n = len(self.pieces if self.kind == STEP else self.points)
        return f"Function({self.kind}, {n} {'pieces' if self.kind == STEP else 'points'})"


def _scaled(vals: Sequence[Fraction], message: str) -> Tuple[int, Tuple[int, ...]]:
    """W, the lcm of the values' denominators, and each value * W; the first
    value outside [0, 1] is named by ``message``."""
    ratios = [v.as_integer_ratio() for v in vals]
    for v, (p, q) in zip(vals, ratios):
        if not 0 <= p <= q:
            raise ValueError(message.format(v))
    W = math.lcm(*{q for _, q in ratios})
    return W, tuple(p * (W // q) for p, q in ratios)


def _step_row(
    pieces: Sequence[IntervalUnion], vals: Sequence[Fraction]
) -> Tuple[Partition, tuple]:
    """The pieces as a :class:`Partition` and the integer row ``(D, ends, W,
    vals)`` of the STEP function with value ``vals[i]`` on ``pieces[i]``,
    one value per interval.  The values are checked before the pieces, and
    a Partition is taken as already checked."""
    if len(pieces) != len(vals) or not pieces:
        raise ValueError("step function needs one value per piece")
    W, scaled = _scaled(vals, "value {} outside [0, 1]")
    if not isinstance(pieces, Partition):
        pieces = Partition(pieces)
    return pieces, (pieces.D, pieces.ends, W, tuple(scaled[i] for i in pieces.owners))


def _tabular_row(points: Domain, vals: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """The integer row ``(W, vals)`` of the TABULAR function with value
    ``vals[i]`` at ``points[i]``."""
    if len(points) != len(vals) or not points:
        raise ValueError("tabular function needs one value per point")
    return _scaled(vals, "tabular values must lie in [0, 1]")


class FunctionClass:
    """An ordered, finite, non-empty list of functions of one kind.

    Classes are immutable, and each is born with its integer value table:
    for STEP the ``(C, cuts, V, rows)`` of :func:`refinement`, for TABULAR
    the ``(V, rows)`` of :func:`value_rows`.  A class built from functions
    merges their rows into it at construction (:func:`_merge`); a generated
    or loaded class is built from its table (:meth:`of_table`), and its
    functions from the rows when first read.  The band table of
    :func:`cell_bands` and the mask table of :func:`band_masks` are each
    kept for the last gamma asked.
    """

    __slots__ = ("name", "kind", "_domain", "_functions", "_table", "_bands", "_masks")

    def __init__(self, functions: Sequence[Function], name: str = ""):
        fns = tuple(functions)
        if not fns:
            raise ValueError("function class must be non-empty")
        kind = fns[0].kind
        if any(f.kind != kind for f in fns):
            raise ValueError("all functions in a class must share a kind")
        if kind == TABULAR:
            pts = fns[0].points
            if any(f.points != pts for f in fns):
                raise ValueError("tabular functions must share domain points")
        self.name, self.kind, self._domain = name, kind, fns[0].points
        self._functions, self._table = fns, _merge(kind, [f._row for f in fns])
        self._bands = self._masks = None  # (gamma, table) of the last call of each

    @classmethod
    def of_table(
        cls, name: str, table: tuple, domain: Optional[Domain] = None
    ) -> "FunctionClass":
        """The class of a value table taken as already checked: a STEP
        ``(C, cuts, V, rows)`` with no domain, or a TABULAR ``(V, rows)``
        over ``domain``."""
        self = object.__new__(cls)
        self.name, self.kind, self._domain = name, STEP if domain is None else TABULAR, domain
        self._functions, self._table, self._bands, self._masks = None, table, None, None
        return self

    @property
    def functions(self) -> Tuple[Function, ...]:
        """The functions; a class built from its table builds them on first
        read, over its refinement cells or its domain, each value v / V."""
        if self._functions is None:
            V, rows = self._table[-2:]
            if self.kind == STEP:
                C, cuts = self._table[:2]
                n = len(cuts) - 1
                over, build = Partition.cells(C, cuts[1:], tuple(range(n)), n), Function.step
            else:
                over, build = self._domain, Function.tabular
            self._functions = tuple(build(over, [Fraction(v, V) for v in row]) for row in rows)
        return self._functions

    @property
    def domain_points(self) -> Domain:
        if self.kind != TABULAR:
            raise ValueError("domain_points are defined for TABULAR classes")
        return self._domain

    def __len__(self) -> int:
        return len(self._table[-1])

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, i: int) -> Function:
        return self.functions[i]

    def subclass(self, indices: Sequence[int]) -> "FunctionClass":
        """The class of these rows of the table, in this order, built from
        them alone: it keeps this class's cells (its refinement cuts or its
        domain) and its V, and builds no function."""
        *head, rows = self._table
        rows = tuple(rows[i] for i in indices)
        if not rows:
            raise ValueError("function class must be non-empty")
        return FunctionClass.of_table(self.name, (*head, rows), self._domain)

    def __repr__(self) -> str:
        return f"FunctionClass({self.name!r}, {len(self)} {self.kind})"


Table = Tuple[int, Tuple[int, ...], int, Tuple[Tuple[int, ...], ...]]


def _merge(kind: str, own: Sequence[tuple]) -> tuple:
    """The value table of a class of functions with these integer rows, the
    rows rescaled to one V (TABULAR ``(W, vals)``), or to one C and V and
    merged on integers (STEP ``(D, ends, W, vals)``): cell [c_j, c_j+1) lies
    in the interval of the first right end past c_j."""
    V = math.lcm(*(row[-2] for row in own))
    if kind == TABULAR:
        return V, tuple(tuple(v * (V // W) for v in vals) for W, vals in own)
    C = math.lcm(*(row[0] for row in own))
    scaled = [
        ([e * (C // D) for e in ends], [v * (V // W) for v in vals]) for D, ends, W, vals in own
    ]
    cuts = tuple(sorted({0, *(c for ends, _ in scaled for c in ends)}))
    rows = tuple(
        tuple(vals[bisect_right(ends, c)] for c in cuts[:-1]) for ends, vals in scaled
    )
    return C, cuts, V, rows


def refinement(F: FunctionClass) -> Table:
    """The integer value table of a STEP class, which it holds from birth.

    Returns ``(C, cuts, V, rows)``: the cuts 0 = c_0 < ... < c_n = C of the
    common refinement (every piece endpoint of every function) as integers
    over C, and per function its value on each cell [c_j, c_j+1) / C as an
    integer over V.  Every function is constant on every cell.
    """
    if F.kind != STEP:
        raise ValueError("refinement is defined for STEP classes")
    return F._table


def value_rows(F: FunctionClass) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """The value table of a class, ``(V, rows)``: ``rows[fi][j]`` is V
    times the value of F[fi] on cell j, a refinement cell of a STEP class
    (``refinement(F)[2:]``) or a domain point of a TABULAR one."""
    return F._table[-2:]


def values_at(
    F: FunctionClass, points: Sequence[RationalLike]
) -> Tuple[int, List[Tuple[int, ...]]]:
    """Every function's value at each point, as integers over one denominator.

    Returns ``(V, columns)`` with ``columns[i][fi] == V * F[fi](points[i])``,
    read across the rows of :func:`value_rows` at each point's cell, found
    by one bisect.  A STEP point x lies in the refinement cell j with
    c_j <= floor(x C) < c_j+1; a TABULAR point must be a domain point, and
    its cell is the first domain point not below it, which must equal it.
    `shatter` validates and reads every point it is given here.
    """
    points = [x if isinstance(x, Fraction) else as_fraction(x) for x in points]
    if F.kind == STEP:
        C, cuts, _, _ = refinement(F)
        cells = [bisect_right(cuts, x.numerator * C // x.denominator) - 1 for x in points]
        for x, j in zip(points, cells):
            if not 0 <= j < len(cuts) - 1:
                raise ValueError(f"point {x} outside [0, 1)")
    else:
        domain = F.domain_points
        cells = [bisect_left(domain, x) for x in points]
        for x, j in zip(points, cells):
            if j == len(domain) or domain[j] != x:
                raise ValueError(f"{x} is not a tabular domain point")
    V, rows = value_rows(F)
    return V, [tuple(row[j] for row in rows) for j in cells]


def k_of_gamma(gamma: RationalLike) -> int:
    """Number of gamma-wide value bands covering [0, 1]: ceil(1 / gamma)."""
    gamma = as_fraction(gamma)
    if not (ZERO < gamma <= ONE):
        raise InvalidResolution(f"gamma must be in (0, 1], got {gamma}")
    return -(-gamma.denominator // gamma.numerator)


def non_adjacent(k: int, k2: int) -> bool:
    return abs(k - k2) >= 2


def _value_bands(F: FunctionClass, gamma: Fraction) -> Dict[int, int]:
    """The band of each distinct value v of the class table (:func:`value_rows`):
    with gamma = a / b, v / V lies in band min(v b // (V a) + 1, K), on
    integers, so the value 1 lies in band K.  The one code that puts a value
    in a band."""
    K = k_of_gamma(gamma)
    V, rows = value_rows(F)
    b, Va = gamma.denominator, V * gamma.numerator
    return {v: min(v * b // Va + 1, K) for v in set().union(*rows)}


def cell_bands(F: FunctionClass, gamma: RationalLike) -> Tuple[Tuple[int, ...], ...]:
    """The band table of a class: each function's band on each cell of its
    value table (:func:`value_rows`), a refinement cell of a STEP class or a
    domain point of a TABULAR one.

    ``cell_bands(F, gamma)[fi][j]`` is the band of F[fi] on cell j, by
    :func:`_value_bands`.  The class keeps the table of the last gamma asked.
    """
    gamma = as_fraction(gamma)
    if F._bands is None or F._bands[0] != gamma:
        band = _value_bands(F, gamma)
        F._bands = gamma, tuple(tuple(map(band.__getitem__, row)) for row in value_rows(F)[1])
    return F._bands[1]


def band_masks(F: FunctionClass, gamma: RationalLike) -> Tuple[Dict[int, int], ...]:
    """The mask table of a class: per function, ``{band: mask}`` over its
    non-empty bands in band order, where bit j of a mask is cell j of the
    value table (see :func:`cell_bands`).

    Below V = 256 every table value fits a byte: a row is one byte string,
    cell 0 last, and a band's mask is that string read in base 2 once each
    value in the band is mapped to "1" and every other byte to "0".  From
    256 up the masks are read from the band table cell by cell.  The class
    keeps the table of the last gamma asked.
    """
    gamma = as_fraction(gamma)
    if F._masks is None or F._masks[0] != gamma:
        V, rows = value_rows(F)
        masks = []
        if V < 256:
            band = _value_bands(F, gamma)
            tables = {k: bytearray(b"0" * 256) for k in sorted(set(band.values()))}
            for v, k in band.items():
                tables[k][v] = ord("1")
            for row in rows:
                text = bytes(reversed(row))  # base 2 has no digit limit
                masks.append({
                    k: mask for k, table in tables.items()
                    if (mask := int(text.translate(table), 2))
                })
        else:
            for row in cell_bands(F, gamma):
                seg = {}
                for j, k in enumerate(row):
                    seg[k] = seg.get(k, 0) | 1 << j
                masks.append(dict(sorted(seg.items())))
        F._masks = gamma, tuple(masks)
    return F._masks[1]


def segment_of_mask(F: FunctionClass, mask: int) -> Union[IntervalUnion, Tuple[Fraction, ...]]:
    """The set made of the cells of a mask (see :func:`band_masks`): for
    STEP one IntervalUnion with one interval per run of set bits, for
    TABULAR the tuple of the domain points of the set bits."""
    if F.kind == STEP:
        C, cuts, _, _ = refinement(F)
        # the first and the last cell of each run of set bits
        starts, ends = mask & ~(mask << 1), mask & ~(mask >> 1)
        runs = []
        while starts:
            a, b = starts & -starts, ends & -ends
            runs.append((cuts[a.bit_length() - 1], cuts[b.bit_length()]))
            starts, ends = starts ^ a, ends ^ b
        return IntervalUnion(C, runs)
    points, found = F.domain_points, []
    while mask:
        a = mask & -mask
        found.append(points[a.bit_length() - 1])
        mask ^= a
    return tuple(found)


def _mask_row(F: FunctionClass, i: int, gamma: RationalLike) -> Dict[int, int]:
    if not 0 <= i < len(F):
        raise ValueError(f"function index {i} outside [0, {len(F)})")
    return band_masks(F, gamma)[i]


def segment(
    F: FunctionClass, i: int, gamma: RationalLike, k: int
) -> Union[IntervalUnion, Tuple[Fraction, ...]]:
    """Preimage of value band k under F[i], read from row i of the mask table.

    For STEP functions this is an IntervalUnion; for TABULAR functions it is
    the tuple of domain points whose value lies in the band.
    """
    masks = _mask_row(F, i, gamma)
    K = k_of_gamma(gamma)
    if not 1 <= k <= K:
        raise SegmentIndexOutOfRange(f"band {k} outside [1, {K}]")
    return segment_of_mask(F, masks.get(k, 0))


def segment_partition(F: FunctionClass, i: int, gamma: RationalLike) -> List:
    """All K segments of F[i], in band order; together they partition the domain."""
    masks = _mask_row(F, i, gamma)
    return [segment_of_mask(F, masks.get(k, 0)) for k in range(1, k_of_gamma(gamma) + 1)]


# ---------------------------------------------------------------------------
# Generators


def _equal_cells(n: int, q: int, rows: Iterable[Tuple[int, ...]], name: str) -> FunctionClass:
    """The STEP class whose functions take the value row[i] / q, 0 <= row[i]
    <= q, on the cell [i/n, (i+1)/n), built as its table.

    The cells tile [0, 1), so the table ``(n, (0, ..., n), V, rows)`` is
    taken as checked.  V = q / g, g the gcd of every row's own gcd with q,
    is the lcm of the functions' value denominators, as :func:`refinement`
    would merge it, and every row is divided by g.
    """
    rows = tuple(rows)
    g = math.gcd(*(math.gcd(q, *row) for row in rows))
    if g > 1:
        rows = tuple(tuple(v // g for v in row) for row in rows)
    return FunctionClass.of_table(name, (n, tuple(range(n + 1)), q // g, rows))


def thresholds(n: int) -> FunctionClass:
    """Indicators of [j/n, 1) for j = 1..n (the last one is identically 0)."""
    if n < 1:
        raise ValueError("thresholds needs n >= 1")
    rows = ((0,) * j + (1,) * (n - j) for j in range(1, n + 1))
    return _equal_cells(n, 1, rows, f"thresholds({n})")


def interval_indicators(n: int) -> FunctionClass:
    """Indicators of all intervals [i/n, j/n), 0 <= i < j <= n."""
    if n < 1:
        raise ValueError("interval_indicators needs n >= 1")
    rows = (
        (0,) * i + (1,) * (j - i) + (0,) * (n - j)
        for i in range(n)
        for j in range(i + 1, n + 1)
    )
    return _equal_cells(n, 1, rows, f"interval_indicators({n})")


def all_patterns(p: int) -> FunctionClass:
    """All 2**p binary tabular functions on the p points (2t+1)/(2p).

    Function index b realizes the big-endian bit pattern of b: bit (p-1-t)
    of b is the value at point t.
    """
    if p < 1:
        raise ValueError("all_patterns needs p >= 1")
    points = Domain([Fraction(2 * t + 1, 2 * p) for t in range(p)])
    rows = tuple(tuple((b >> (p - 1 - t)) & 1 for t in range(p)) for b in range(1 << p))
    return FunctionClass.of_table(f"all_patterns({p})", (1, rows), points)


def random_step(seed: int, pieces: int, grid: int, count: int = 1) -> FunctionClass:
    """count random step functions on `pieces` equal cells with values v/grid."""
    if pieces < 1 or grid < 1 or count < 1:
        raise ValueError("random_step needs pieces, grid, count >= 1")
    # each value is one next_u64() draw mod grid + 1, row by row, mixed in bulk
    values = map(mod, SplitMix64(seed).u64s(pieces * count), repeat(grid + 1))
    rows = (tuple(islice(values, pieces)) for _ in range(count))
    return _equal_cells(pieces, grid, rows, f"random_step({seed},{pieces},{grid},{count})")


def trajectory_indicators(
    theta: RationalLike,
    base_points: Sequence[RationalLike],
    window: int,
) -> FunctionClass:
    """Indicators of truncated rotation orbits.

    For each base point b the support is {frac(b + i*theta) : |i| <= window}.
    The orbits must be pairwise disjoint at this truncation (the generator
    checks and refuses otherwise), so the resulting tabular functions have
    pairwise disjoint supports on the shared domain.  The orbits are built,
    checked and sorted as integers over D, the lcm of the denominators of
    theta and the base points; each domain point becomes a Fraction once.
    """
    theta = as_fraction(theta)
    if window < 0:
        raise ValueError("window must be >= 0")
    base_points = [as_fraction(b) for b in base_points]
    D = math.lcm(theta.denominator, *(b.denominator for b in base_points))
    step = theta.numerator * (D // theta.denominator)
    orbits = []
    for b in base_points:
        start = b.numerator * (D // b.denominator)
        orbit = {(start + i * step) % D for i in range(-window, window + 1)}
        if len(orbit) != 2 * window + 1:
            raise ValueError(f"orbit of {b} self-intersects within the window; theta too coarse")
        orbits.append(orbit)
    for i, j in combinations(range(len(orbits)), 2):
        if orbits[i] & orbits[j]:
            raise ValueError(f"orbits of base points {i} and {j} intersect within the window")
    if not orbits:
        raise ValueError("need at least one base point")
    ticks = sorted(set().union(*orbits))
    domain = Domain([Fraction(t, D) for t in ticks])
    rows = tuple(tuple(int(t in orbit) for t in ticks) for orbit in orbits)
    return FunctionClass.of_table(f"trajectory_indicators(window={window})", (1, rows), domain)


def full_join_family(L: int, k: int, k2: int, gamma: RationalLike) -> FunctionClass:
    """2**L two-valued step functions whose band-(k, k2) join is full.

    The domain splits into M = 2**(2**L) equal cells.  Cell c carries a
    signature sigma(c), a bitmask over the function indices; function b takes
    the midband value of band k on cells whose signature has bit b set and
    the midband value of band k2 elsewhere.  Since sigma is a bijection onto
    all M bitmasks, every one of the M join cells is exactly one domain cell.

    The first L cells are given the signatures {b : bit c of b} so that their
    midpoints already form a set shattered at resolution gamma/2, which keeps
    brute-force dimension searches on these families cheap.
    """
    gamma = as_fraction(gamma)
    K = k_of_gamma(gamma)
    if not (1 <= k <= K and 1 <= k2 <= K):
        raise ValueError(f"bands ({k}, {k2}) outside [1, {K}]")
    if not non_adjacent(k, k2):
        raise ValueError(f"bands ({k}, {k2}) must be non-adjacent")
    if L < 1 or L > 4:
        raise ValueError("full_join_family supports 1 <= L <= 4")
    n_fns = 1 << L
    n_cells = 1 << n_fns

    special = [sum(1 << b for b in range(n_fns) if (b >> c) & 1) for c in range(L)]
    rest = [s for s in range(n_cells) if s not in special]
    sigma = special + rest

    # the midband values (k - 1/2) gamma and (k2 - 1/2) gamma, over q = 2 den(gamma)
    q = 2 * gamma.denominator
    v_in, v_out = (2 * k - 1) * gamma.numerator, (2 * k2 - 1) * gamma.numerator
    if max(v_in, v_out) > q:  # the midband value of a top band K may pass 1
        raise ValueError(f"value {Fraction(max(v_in, v_out), q)} outside [0, 1]")
    rows = (tuple(v_in if (s >> b) & 1 else v_out for s in sigma) for b in range(n_fns))
    name = f"full_join_family({L},{k},{k2},{gamma.numerator}/{gamma.denominator})"
    return _equal_cells(n_cells, q, rows, name)


_GEN_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")
# every generator: its constructor, and in spec order the keyword and the
# parser of each argument; random_step's count alone may be left out
_GENERATORS = {
    "thresholds": (thresholds, {"n": parse_integer}),
    "interval_indicators": (interval_indicators, {"n": parse_integer}),
    "all_patterns": (all_patterns, {"p": parse_integer}),
    "random_step": (
        random_step, dict.fromkeys(("seed", "pieces", "grid", "count"), parse_integer),
    ),
    "full_join_family": (full_join_family, {
        "L": parse_integer, "k": parse_integer, "k2": parse_integer, "gamma": parse_rational,
    }),
    "trajectory_indicators": (trajectory_indicators, {
        "theta": parse_rational, "window": parse_integer,
        "base_points": lambda text: [parse_rational(b) for b in text.split("+")],
    }),
}


def generate(spec: str) -> FunctionClass:
    """Build a class from a textual generator spec, e.g. "thresholds(8)".

    Supported: thresholds(n), interval_indicators(n), all_patterns(p),
    random_step(seed,pieces,grid[,count]), full_join_family(L,k,k2,gamma),
    trajectory_indicators(theta,window,b1+b2+...), each declared once, in
    ``_GENERATORS``.  Scalars are integers or rationals written num/den.
    random_step alone also takes its arguments as keywords, as in
    random_step(3,4,8,count=2).  A missing, repeated, unknown or extra
    argument is a ValueError; arguments are parsed in order, and the first
    bad one is named.
    """
    m = _GEN_RE.match(spec)
    if not m:
        raise ValueError(f"cannot parse generator spec {spec!r}")
    name, argstr = m.group(1), m.group(2)
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    make, parsers = _GENERATORS[name]
    raw = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    positional = [a for a in raw if "=" not in a]
    args = dict(zip(parsers, positional))
    wrong = ValueError(f"wrong arguments in {spec!r}")
    if len(positional) > len(parsers):
        raise wrong
    for key, _, val in (a.partition("=") for a in raw if "=" in a):
        key = key.strip()
        if name != "random_step" or key not in parsers or key in args:
            raise wrong
        args[key] = val.strip()
    kwargs = {}
    for key, parse in parsers.items():
        if key in args:
            kwargs[key] = parse(args[key])
        elif key != "count":  # random_step's count defaults to 1
            raise wrong
    return make(**kwargs)


# ---------------------------------------------------------------------------
# JSON serialization


def class_to_json(F: FunctionClass) -> dict:
    """The class document of a class, written from its table: a STEP
    function as one piece per refinement cell, a TABULAR one as its value
    at each domain point, each value v / V."""
    V, rows = value_rows(F)
    text = {v: format_rational(Fraction(v, V)) for v in set().union(*rows)}
    if F.kind == STEP:
        C, cuts, _, _ = refinement(F)
        cells = [IntervalUnion(C, [(lo, hi)]).to_text() for lo, hi in zip(cuts, cuts[1:])]
        return {
            "name": F.name,
            "kind": STEP,
            "functions": [
                {"pieces": [{"set": cell, "value": text[v]} for cell, v in zip(cells, row)]}
                for row in rows
            ],
        }
    return {
        "name": F.name,
        "kind": TABULAR,
        "points": [format_rational(p) for p in F.domain_points],
        "functions": [{"values": [text[v] for v in row]} for row in rows],
    }


def class_from_json(doc: dict) -> FunctionClass:
    """The class of a class document, built as its table: each function's
    integer row is read and checked, and the rows are merged once."""
    kind, domain = doc.get("kind"), None
    if kind == STEP:
        # each distinct list of piece texts is parsed once, and checked once
        # as the Partition whose ends and owners every function listing it reads
        partitions, rows = {}, []
        for entry in json_list(doc["functions"], "functions"):
            listed = json_list(json_object(entry, "function")["pieces"], "pieces")
            listed = [json_object(p, "piece") for p in listed]
            texts = tuple(p["set"] for p in listed)
            # only strings key the cache; from_text names any other set
            if not all(isinstance(t, str) for t in texts) or texts not in partitions:
                partitions[texts] = [IntervalUnion.from_text(t) for t in texts]
            values = [parse_rational(p["value"]) for p in listed]
            partitions[texts], row = _step_row(partitions[texts], values)
            rows.append(row)
    elif kind == TABULAR:
        domain = Domain([parse_rational(p) for p in json_list(doc["points"], "points")])
        rows = []
        for entry in json_list(doc["functions"], "functions"):
            values = json_list(json_object(entry, "function")["values"], "values")
            rows.append(_tabular_row(domain, [parse_rational(v) for v in values]))
    else:
        raise ValueError(f"unknown class kind {kind!r}")
    name = doc.get("name", "")
    if type(name) is not str:
        raise ValueError(f"name must be a string, got {json.dumps(name)}")
    if not rows:
        raise ValueError("function class must be non-empty")
    return FunctionClass.of_table(name, _merge(kind, rows), domain)


def save_class(F: FunctionClass, path) -> None:
    write_json(class_to_json(F), path)


def load_class(path) -> FunctionClass:
    return class_from_json(read_json_object(path))
