"""Function classes on the unit interval, value-band segments, and generators.

Two exact representations are supported.  A STEP function is piecewise
constant: a list of pairwise-disjoint :class:`IntervalUnion` pieces covering
[0, 1) with one rational value per piece.  A TABULAR function is a table of
values on a finite shared point set.  Both keep values in [0, 1].

For a resolution ``gamma`` the value range splits into K bands
``[(k-1)*gamma, k*gamma)`` for k < K and ``[(K-1)*gamma, 1]`` for k = K,
where ``K = floor(1/gamma) + 1`` unless ``1/gamma`` is an integer, in which
case ``K = 1/gamma``.  The preimage of band k is the k-th segment of a
function; two segments are non-adjacent when their band indices differ by
at least 2.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .exactset import (
    ONE,
    ZERO,
    IntervalUnion,
    RationalLike,
    format_rational,
    parse_rational,
    read_json_object,
)
from .rng import SplitMix64

STEP = "step"
TABULAR = "tabular"


class InvalidResolution(ValueError):
    """gamma must satisfy 0 < gamma <= 1."""


class SegmentIndexOutOfRange(ValueError):
    """Band index outside [1, K]."""


class RegularityUndefined(ValueError):
    """Band preimages as interval unions exist only for STEP functions."""


class InvalidMesh(ValueError):
    """Quantization mesh must be positive."""


class InvalidGeneratorSpec(ValueError):
    """Malformed generator description."""


class Function:
    """A [0, 1]-valued function, either STEP or TABULAR (see module docs)."""

    __slots__ = ("kind", "pieces", "points", "values", "_flat_lows", "_flat", "_index")

    def __init__(self, kind, pieces, points, values):
        self.kind = kind
        self.pieces = pieces
        self.points = points
        self.values = values
        if kind == STEP:
            flat = []
            for piece, value in zip(pieces, values):
                for lo, hi in piece.intervals:
                    flat.append((lo, hi, value))
            flat.sort()
            self._flat = tuple(flat)
            self._flat_lows = tuple(f[0] for f in flat)
            self._index = None
        else:
            self._flat = None
            self._flat_lows = None
            self._index = {p: i for i, p in enumerate(points)}

    @classmethod
    def step(
        cls,
        pieces: Sequence[IntervalUnion],
        values: Sequence[RationalLike],
    ) -> "Function":
        if len(pieces) != len(values) or not pieces:
            raise ValueError("step function needs one value per piece")
        vals = tuple(Fraction(v) for v in values)
        for v in vals:
            if not (ZERO <= v <= ONE):
                raise ValueError(f"value {v} outside [0, 1]")
        total = sum((p.measure for p in pieces), ZERO)
        if total != ONE:
            raise ValueError("step pieces must cover [0, 1)")
        cover = IntervalUnion.union_all(pieces)
        if cover.measure != ONE:
            raise ValueError("step pieces must be pairwise disjoint")
        return cls(STEP, tuple(pieces), None, vals)

    @classmethod
    def tabular(
        cls,
        points: Sequence[RationalLike],
        values: Sequence[RationalLike],
    ) -> "Function":
        pts = tuple(Fraction(p) for p in points)
        vals = tuple(Fraction(v) for v in values)
        if len(pts) != len(vals) or not pts:
            raise ValueError("tabular function needs one value per point")
        if any(not (ZERO <= p < ONE) for p in pts):
            raise ValueError("tabular points must lie in [0, 1)")
        if sorted(set(pts)) != list(pts):
            raise ValueError("tabular points must be sorted and distinct")
        if any(not (ZERO <= v <= ONE) for v in vals):
            raise ValueError("tabular values must lie in [0, 1]")
        return cls(TABULAR, None, pts, vals)

    @classmethod
    def constant(cls, value: RationalLike) -> "Function":
        return cls.step((IntervalUnion.full(),), (value,))

    @classmethod
    def indicator(cls, support: IntervalUnion) -> "Function":
        if support.is_empty:
            return cls.constant(0)
        if support.measure == ONE:
            return cls.constant(1)
        return cls.step((support.complement(), support), (Fraction(0), Fraction(1)))

    def value_at(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        if self.kind == STEP:
            i = bisect_right(self._flat_lows, x) - 1
            if i < 0 or x >= self._flat[i][1]:
                raise ValueError(f"point {x} outside [0, 1)")
            return self._flat[i][2]
        try:
            return self.values[self._index[x]]
        except KeyError:
            raise ValueError(f"{x} is not a tabular domain point") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Function) or self.kind != other.kind:
            return False
        if self.kind == STEP:
            return self._flat == other._flat
        return self.points == other.points and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.kind, self._flat, self.points, self.values))

    def __repr__(self) -> str:
        n = len(self.values)
        return f"Function({self.kind}, {n} {'pieces' if self.kind == STEP else 'points'})"


class FunctionClass:
    """An ordered, finite, non-empty list of functions of one kind."""

    __slots__ = ("functions", "name")

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
        self.functions = fns
        self.name = name

    @property
    def kind(self) -> str:
        return self.functions[0].kind

    @property
    def domain_points(self) -> Tuple[Fraction, ...]:
        if self.kind != TABULAR:
            raise ValueError("domain_points are defined for TABULAR classes")
        return self.functions[0].points

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, i: int) -> Function:
        return self.functions[i]

    def subclass(self, indices: Sequence[int], name: str = "") -> "FunctionClass":
        return FunctionClass([self.functions[i] for i in indices], name or self.name)

    def __repr__(self) -> str:
        return f"FunctionClass({self.name!r}, {len(self.functions)} {self.kind})"


def refinement(F: FunctionClass) -> Tuple[List[Fraction], List[Tuple[Fraction, ...]]]:
    """Common refinement of a STEP class.

    Returns the sorted cuts 0 = c_0 < ... < c_n = 1 (every piece endpoint of
    every function) and, per function, its value on each cell [c_j, c_j+1).
    Every function is constant on every cell.
    """
    if F.kind != STEP:
        raise ValueError("refinement is defined for STEP classes")
    cuts = sorted({x for f in F.functions for lo, hi, _ in f._flat for x in (lo, hi)})
    return cuts, [tuple(f.value_at(lo) for lo in cuts[:-1]) for f in F.functions]


def k_of_gamma(gamma: RationalLike) -> int:
    """Number of gamma-wide value bands covering [0, 1]."""
    gamma = Fraction(gamma)
    if not (ZERO < gamma <= ONE):
        raise InvalidResolution(f"gamma must be in (0, 1], got {gamma}")
    inv = 1 / gamma
    if inv.denominator == 1:
        return int(inv)
    return int(inv) + 1


def band_of_value(v: RationalLike, gamma: RationalLike) -> int:
    """Index k of the band containing value v (value 1 belongs to band K)."""
    gamma, v = Fraction(gamma), Fraction(v)
    K = k_of_gamma(gamma)
    if v == ONE:
        return K
    return min(int(v / gamma) + 1, K)


def non_adjacent(k: int, k2: int) -> bool:
    return abs(k - k2) >= 2


def _band(gamma: Fraction, k: int) -> Tuple[Fraction, Fraction, bool]:
    """Band k as (lo, hi, hi_inclusive)."""
    K = k_of_gamma(gamma)
    if not 1 <= k <= K:
        raise SegmentIndexOutOfRange(f"band {k} outside [1, {K}]")
    if k == K:
        return (K - 1) * gamma, ONE, True
    return (k - 1) * gamma, k * gamma, False


def _value_in_band(v: Fraction, lo: Fraction, hi: Fraction, inclusive: bool) -> bool:
    return lo <= v and (v <= hi if inclusive else v < hi)


def segment(
    f: Function, gamma: RationalLike, k: int
) -> Union[IntervalUnion, Tuple[Fraction, ...]]:
    """Preimage of value band k.

    For STEP functions this is an IntervalUnion; for TABULAR functions it is
    the tuple of domain points whose value lies in the band.
    """
    gamma = Fraction(gamma)
    lo, hi, inclusive = _band(gamma, k)
    if f.kind == STEP:
        members = [
            piece
            for piece, v in zip(f.pieces, f.values)
            if _value_in_band(v, lo, hi, inclusive)
        ]
        return IntervalUnion.union_all(members)
    return tuple(
        p for p, v in zip(f.points, f.values) if _value_in_band(v, lo, hi, inclusive)
    )


def segment_partition(f: Function, gamma: RationalLike) -> List:
    """All K segments of f, in band order; together they partition the domain."""
    gamma = Fraction(gamma)
    K = k_of_gamma(gamma)
    return [segment(f, gamma, k) for k in range(1, K + 1)]


def regular_sets(
    F: FunctionClass, level_pairs: Sequence[Tuple[RationalLike, RationalLike]]
) -> List[IntervalUnion]:
    """Preimages f^-1[a, b) for every f in F and every pair (a, b).

    Pairs with b > 1 capture the inclusive top, f^-1[a, 1].  Each result is a
    finite union of intervals, which certifies the structural regularity of a
    STEP class.
    """
    if F.kind != STEP:
        raise RegularityUndefined("regularity preimages need a STEP class")
    out = []
    for f in F.functions:
        for a, b in level_pairs:
            a, b = Fraction(a), Fraction(b)
            if not (ZERO <= a < b < 2):
                raise ValueError(f"level pair ({a}, {b}) must satisfy 0 <= a < b < 2")
            members = [
                piece for piece, v in zip(f.pieces, f.values) if a <= v < b
            ]
            out.append(IntervalUnion.union_all(members))
    return out


def value_grid(gamma: RationalLike, mesh: RationalLike) -> List[Fraction]:
    """Grid 0 = a_0 < ... < a_N = 1 containing every band boundary k*gamma,
    with all gaps strictly below mesh."""
    gamma, mesh = Fraction(gamma), Fraction(mesh)
    if mesh <= 0:
        raise InvalidMesh(f"mesh must be positive, got {mesh}")
    K = k_of_gamma(gamma)
    base = sorted({ZERO, ONE} | {k * gamma for k in range(1, K)})
    grid = []
    for lo, hi in zip(base, base[1:]):
        parts = int((hi - lo) / mesh) + 1
        width = (hi - lo) / parts
        grid.extend(lo + i * width for i in range(parts))
    grid.append(ONE)
    return grid


def quantize(f: Function, gamma: RationalLike, mesh: RationalLike) -> Function:
    """Snap every value of f down to the grid cell containing it.

    The grid includes all band boundaries, so the quantized function sits in
    the same gamma-band as f wherever f does not land exactly on a boundary,
    and the pointwise error is strictly below mesh.
    """
    grid = value_grid(gamma, mesh)
    tops = grid[1:]

    def snap(v: Fraction) -> Fraction:
        if v == ONE:
            return grid[-2]
        return grid[bisect_right(tops, v)]

    if f.kind == STEP:
        return Function.step(f.pieces, tuple(snap(v) for v in f.values))
    return Function.tabular(f.points, tuple(snap(v) for v in f.values))


# ---------------------------------------------------------------------------
# Generators


def thresholds(n: int) -> FunctionClass:
    """Indicators of [j/n, 1) for j = 1..n (the last one is identically 0)."""
    if n < 1:
        raise InvalidGeneratorSpec("thresholds needs n >= 1")
    fns = [
        Function.indicator(
            IntervalUnion.interval(Fraction(j, n), ONE) if j < n else IntervalUnion.empty()
        )
        for j in range(1, n + 1)
    ]
    return FunctionClass(fns, f"thresholds({n})")


def interval_indicators(n: int) -> FunctionClass:
    """Indicators of all intervals [i/n, j/n), 0 <= i < j <= n."""
    if n < 1:
        raise InvalidGeneratorSpec("interval_indicators needs n >= 1")
    fns = [
        Function.indicator(IntervalUnion.interval(Fraction(i, n), Fraction(j, n)))
        for i in range(n)
        for j in range(i + 1, n + 1)
    ]
    return FunctionClass(fns, f"interval_indicators({n})")


def all_patterns(p: int) -> FunctionClass:
    """All 2**p binary tabular functions on the p points (2t+1)/(2p).

    Function index b realizes the big-endian bit pattern of b: bit (p-1-t)
    of b is the value at point t.
    """
    if p < 1:
        raise InvalidGeneratorSpec("all_patterns needs p >= 1")
    points = [Fraction(2 * t + 1, 2 * p) for t in range(p)]
    fns = [
        Function.tabular(points, [(b >> (p - 1 - t)) & 1 for t in range(p)])
        for b in range(1 << p)
    ]
    return FunctionClass(fns, f"all_patterns({p})")


def random_step(seed: int, pieces: int, grid: int, count: int = 1) -> FunctionClass:
    """count random step functions on `pieces` equal cells with values v/grid."""
    if pieces < 1 or grid < 1 or count < 1:
        raise InvalidGeneratorSpec("random_step needs pieces, grid, count >= 1")
    rng = SplitMix64(seed)
    cells = [
        IntervalUnion.interval(Fraction(i, pieces), Fraction(i + 1, pieces))
        for i in range(pieces)
    ]
    fns = [
        Function.step(cells, [Fraction(rng.randint(grid + 1), grid) for _ in cells])
        for _ in range(count)
    ]
    return FunctionClass(fns, f"random_step({seed},{pieces},{grid},{count})")


def frac_mod1(x: Fraction) -> Fraction:
    return x - math.floor(x)


def trajectory_indicators(
    theta: RationalLike,
    base_points: Sequence[RationalLike],
    window: int,
) -> FunctionClass:
    """Indicators of truncated rotation orbits.

    For each base point b the support is {frac(b + i*theta) : |i| <= window}.
    The orbits must be pairwise disjoint at this truncation (the generator
    checks and refuses otherwise), so the resulting tabular functions have
    pairwise disjoint supports on the shared domain.
    """
    theta = Fraction(theta)
    if window < 0:
        raise InvalidGeneratorSpec("window must be >= 0")
    orbits = []
    for b in base_points:
        b = Fraction(b)
        orbit = {frac_mod1(b + i * theta) for i in range(-window, window + 1)}
        if len(orbit) != 2 * window + 1:
            raise InvalidGeneratorSpec(
                f"orbit of {b} self-intersects within the window; theta too coarse"
            )
        orbits.append(orbit)
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            if orbits[i] & orbits[j]:
                raise InvalidGeneratorSpec(
                    f"orbits of base points {i} and {j} intersect within the window"
                )
    domain = sorted(set().union(*orbits)) if orbits else []
    if not domain:
        raise InvalidGeneratorSpec("need at least one base point")
    fns = [
        Function.tabular(domain, [1 if x in orbit else 0 for x in domain])
        for orbit in orbits
    ]
    return FunctionClass(fns, f"trajectory_indicators(window={window})")


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
    gamma = Fraction(gamma)
    K = k_of_gamma(gamma)
    if not (1 <= k <= K and 1 <= k2 <= K):
        raise InvalidGeneratorSpec(f"bands ({k}, {k2}) outside [1, {K}]")
    if not non_adjacent(k, k2):
        raise InvalidGeneratorSpec(f"bands ({k}, {k2}) must be non-adjacent")
    if L < 1 or L > 4:
        raise InvalidGeneratorSpec("full_join_family supports 1 <= L <= 4")
    n_fns = 1 << L
    n_cells = 1 << n_fns

    special = [sum(1 << b for b in range(n_fns) if (b >> c) & 1) for c in range(L)]
    rest = [s for s in range(n_cells) if s not in set(special)]
    sigma = special + rest

    v_in = (Fraction(k) - Fraction(1, 2)) * gamma  # midband value of band k
    v_out = (Fraction(k2) - Fraction(1, 2)) * gamma
    cell = lambda c: (Fraction(c, n_cells), Fraction(c + 1, n_cells))

    fns = []
    for b in range(n_fns):
        cells_in = [cell(c) for c in range(n_cells) if (sigma[c] >> b) & 1]
        cells_out = [cell(c) for c in range(n_cells) if not (sigma[c] >> b) & 1]
        fns.append(
            Function.step(
                (IntervalUnion(cells_in), IntervalUnion(cells_out)), (v_in, v_out)
            )
        )
    return FunctionClass(
        fns, f"full_join_family({L},{k},{k2},{format_rational(gamma)})"
    )


_GEN_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")


def generate(spec: str) -> FunctionClass:
    """Build a class from a textual generator spec, e.g. "thresholds(8)".

    Supported: thresholds(n), interval_indicators(n), all_patterns(p),
    random_step(seed,pieces,grid[,count]), full_join_family(L,k,k2,gamma),
    trajectory_indicators(theta,window,b1+b2+...).  Scalars are integers or
    rationals written num/den.
    """
    m = _GEN_RE.match(spec)
    if not m:
        raise InvalidGeneratorSpec(f"cannot parse generator spec {spec!r}")
    name, argstr = m.group(1), m.group(2)
    raw = [a.strip() for a in argstr.split(",")] if argstr.strip() else []

    kwargs = {}
    args = []
    for item in raw:
        if "=" in item:
            key, _, val = item.partition("=")
            kwargs[key.strip()] = val.strip()
        else:
            args.append(item)

    def as_int(s: str) -> int:
        try:
            return int(s)
        except ValueError:
            raise InvalidGeneratorSpec(f"expected integer, got {s!r}") from None

    try:
        if name == "thresholds":
            return thresholds(as_int(args[0]))
        if name == "interval_indicators":
            return interval_indicators(as_int(args[0]))
        if name == "all_patterns":
            return all_patterns(as_int(args[0]))
        if name == "random_step":
            merged = dict(zip(("seed", "pieces", "grid", "count"), args))
            merged.update(kwargs)
            return random_step(
                as_int(merged["seed"]),
                as_int(merged["pieces"]),
                as_int(merged["grid"]),
                as_int(merged.get("count", "1")),
            )
        if name == "full_join_family":
            return full_join_family(
                as_int(args[0]), as_int(args[1]), as_int(args[2]),
                parse_rational(args[3]),
            )
        if name == "trajectory_indicators":
            base = [parse_rational(b) for b in args[2].split("+")]
            return trajectory_indicators(parse_rational(args[0]), base, as_int(args[1]))
    except (IndexError, KeyError):
        raise InvalidGeneratorSpec(f"wrong arguments in {spec!r}") from None
    raise InvalidGeneratorSpec(f"unknown generator {name!r}")


# ---------------------------------------------------------------------------
# JSON serialization


def class_to_json(F: FunctionClass) -> dict:
    if F.kind == STEP:
        return {
            "name": F.name,
            "kind": STEP,
            "functions": [
                {
                    "pieces": [
                        {"set": piece.to_text(), "value": format_rational(v)}
                        for piece, v in zip(f.pieces, f.values)
                    ]
                }
                for f in F.functions
            ],
        }
    return {
        "name": F.name,
        "kind": TABULAR,
        "points": [format_rational(p) for p in F.domain_points],
        "functions": [
            {"values": [format_rational(v) for v in f.values]} for f in F.functions
        ],
    }


def class_from_json(doc: dict) -> FunctionClass:
    kind = doc.get("kind")
    if kind == STEP:
        fns = [
            Function.step(
                [IntervalUnion.from_text(p["set"]) for p in entry["pieces"]],
                [parse_rational(p["value"]) for p in entry["pieces"]],
            )
            for entry in doc["functions"]
        ]
    elif kind == TABULAR:
        points = [parse_rational(p) for p in doc["points"]]
        fns = [
            Function.tabular(points, [parse_rational(v) for v in entry["values"]])
            for entry in doc["functions"]
        ]
    else:
        raise ValueError(f"unknown class kind {kind!r}")
    return FunctionClass(fns, doc.get("name", ""))


def save_class(F: FunctionClass, path) -> None:
    with open(path, "w") as fh:
        json.dump(class_to_json(F), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_class(path) -> FunctionClass:
    return class_from_json(read_json_object(path))
