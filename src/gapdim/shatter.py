"""Shattering certificates, the exact gap-dimension solver, and set joins.

A class F shatters a point set D at resolution gamma when a single level
alpha exists such that every subset D0 of D is realized by some f in F with
f strictly above alpha + gamma on D0 and strictly below alpha - gamma off
D0.  The gap dimension at gamma is the largest cardinality of a shattered
set.  Everything here is decided in exact rational arithmetic, and every
positive answer is backed by a certificate that can be re-checked
independently of the search that produced it: `verify_certificate` reads
the certificate's points off the class table (`funclass.values_at`,
which also rejects a foreign point) and compares each value with
alpha -+ gamma on integers.  `tests/oracles.py` keeps the Fraction
check, `oracle_verify_certificate`, as its reference.

One kernel decides shattering.  `_window_sides` reads the values of a
point set as integers over one denominator V from `funclass.values_at`
(for a STEP class, the class's integer value table), scales them and
gamma by lcm(V, den gamma), cuts the alpha axis at the critical levels
f(x) -+ gamma and records, per point and window, which functions lie
above and below it.  One step, `_grow`, adds a point: it splits the
function groups of every live window by the point's sides and keeps the
windows where every group has functions on both sides.  `shatters` folds
`_grow` over the points of D from all windows.  The one solver, `gap_dim`,
grows only currently-shattered sets of candidate points depth first with
the same step, stops at the counting bound floor(log2 |F|) (2**d distinct
functions are needed to shatter d points), and carries down the search
the live windows of the current set.  A set shattered at alpha has every
subset shattered at the same alpha, so windows only drop out deeper down.
The winning set's certificate comes from one call of `shatters`.
`join` reads the same STEP value table, as bands per refinement cell
(`funclass.cell_bands`), and makes each cell with
`funclass.segment_of_cells`; `join_shatter` turns a full join into a
certificate at resolution gamma/2.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .exactset import (
    IntervalUnion, RationalLike, as_fraction, format_rational, json_int, json_key, json_list,
    json_object, parse_rational, read_json_object, write_json,
)
from .funclass import (
    STEP, TABULAR, FunctionClass, InvalidResolution, SegmentIndexOutOfRange, cell_bands,
    k_of_gamma, non_adjacent, refinement, segment_of_cells, value_rows, values_at,
)

INFINITE_CAP = "INFINITE_CAP"


class MalformedCertificate(ValueError):
    """Certificate refers to unknown functions, foreign points, or misses masks."""


@dataclass(frozen=True)
class ShatterCertificate:
    """Witness that `points` are shattered: mask bit i refers to points[i].

    selector maps every subset mask m in [0, 2**d) to the index of a
    function that is strictly above alpha + gamma on the mask's points and
    strictly below alpha - gamma on the rest.
    """

    points: Tuple[Fraction, ...]
    alpha: Fraction
    selector: Dict[int, int]

    def to_json(self) -> dict:
        return {
            "points": [format_rational(p) for p in self.points],
            "alpha": format_rational(self.alpha),
            "selector": {str(m): i for m, i in sorted(self.selector.items())},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ShatterCertificate":
        return cls(
            points=tuple(parse_rational(p) for p in json_list(doc["points"], "points")),
            alpha=parse_rational(doc["alpha"]),
            selector={
                json_key(m, "selector key"): json_int(i, "selector value")
                for m, i in json_object(doc["selector"], "selector").items()
            },
        )

    def save(self, path) -> None:
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path) -> "ShatterCertificate":
        return cls.from_json(read_json_object(path))


@dataclass(frozen=True)
class DimResult:
    """Outcome of a gap-dimension search.

    When `exact` is False the search found a shattered set of size `cap`
    and stopped there; the true dimension may be larger and the result is
    reported as INFINITE_CAP.
    """

    dimension: int
    exact: bool
    certificate: Optional[ShatterCertificate]

    @property
    def label(self) -> str:
        return str(self.dimension) if self.exact else INFINITE_CAP


def _resolution(gamma: RationalLike) -> Fraction:
    """gamma as a Fraction; a shattering margin must be positive."""
    gamma = as_fraction(gamma)
    if gamma <= 0:
        raise InvalidResolution(f"gamma must be positive, got {gamma}")
    return gamma


def verify_certificate(F: FunctionClass, gamma: RationalLike, cert: ShatterCertificate) -> bool:
    """Re-check a certificate on the class table; boundary ties never pass.

    One `values_at` call reads the values at the points as integers v over
    one denominator V and rejects a foreign point.  v / V lies above
    alpha + gamma = n / e iff v e > n V, and likewise below alpha - gamma.
    Its reference is the Fraction check `oracle_verify_certificate`.
    """
    gamma = _resolution(gamma)
    d = len(cert.points)
    if d == 0 or len(set(cert.points)) != d:
        raise MalformedCertificate("certificate points must be distinct and non-empty")
    try:
        V, columns = values_at(F, cert.points)
    except ValueError as exc:  # a point outside [0, 1), or off the domain
        raise MalformedCertificate(str(exc)) from None
    # compare sizes first: with many points, 2**d masks are never listed
    if len(cert.selector) != 1 << d or sorted(cert.selector) != list(range(1 << d)):
        raise MalformedCertificate("selector must cover every subset mask exactly once")
    if any(not 0 <= i < len(F) for i in cert.selector.values()):
        raise MalformedCertificate("selector references a function outside the class")

    hi, lo = cert.alpha + gamma, cert.alpha - gamma
    for mask, fi in cert.selector.items():
        for i, col in enumerate(columns):
            if (mask >> i) & 1:
                if not col[fi] * hi.denominator > hi.numerator * V:
                    return False
            elif not col[fi] * lo.denominator < lo.numerator * V:
                return False
    return True


def candidate_points(F: FunctionClass) -> List[Fraction]:
    """Canonical candidate points for dimension searches.

    One point per cell of the class's value table (`funclass.value_rows`).
    TABULAR: the shared domain points.  STEP: one interior point (the
    midpoint) per cell of the common refinement of all piece partitions;
    step functions are constant on those cells, so a shattered set can
    always be moved onto distinct cells.  Points whose cells hold identical
    value vectors (columns of the table) are collapsed to the leftmost
    representative, because no (f, alpha) pair can split such a pair and a
    shattered set never contains two of them.
    """
    if F.kind == TABULAR:
        pts = F.domain_points
    else:
        C, cuts, _, _ = refinement(F)
        pts = [Fraction(lo + hi, 2 * C) for lo, hi in zip(cuts, cuts[1:])]
    out, seen = [], set()
    for p, vec in zip(pts, zip(*value_rows(F)[1])):
        if vec not in seen:
            seen.add(vec)
            out.append(p)
    return out


Sides = Tuple[List[int], List[Tuple[int, int]]]  # one point's (keys, pairs)
Windows = List[Tuple[int, List[int]]]  # live windows in ascending order, with their groups


def _window_sides(
    F: FunctionClass, pts: Sequence[Fraction], gamma: Fraction
) -> Tuple[List[int], int, List[Sides]]:
    """Alpha windows over `pts`, and per point who is above and below.

    `funclass.values_at` gives the values at `pts` as integers over one
    denominator V; they and gamma are scaled to integers over
    lcm(V, den gamma).  Any common multiple gives the same windows, so the
    certificate's alpha, the midpoint (l_w + l_w+1) / (2 scale), does not
    depend on V.  The sorted critical levels of all (function, point)
    values cut the alpha axis, and window w is the open gap between levels
    w and w + 1.  The above/below/blocked pattern of every pair is constant
    inside a window, so the windows are exhaustive over all real alpha:
    below the lowest level every function is above every point and above
    the highest level below it, and neither shatters a point.  Function f
    is above x throughout window w iff w < idx(v - g) and below x iff
    w >= idx(v + g).  Returns the levels, the scale and, per point, the
    sorted windows where its sides change (`keys`) and the (above, below)
    bitmasks over F in force from each key on: window w reads
    `pairs[bisect_right(keys, w)]`.  So the table holds at most two keys
    per (function, point), however many windows there are.
    """
    V, columns = values_at(F, pts)
    scale = lcm(V, gamma.denominator)
    g = gamma.numerator * scale // gamma.denominator
    columns = [[v * (scale // V) for v in col] for col in columns]
    levels = sorted({v + s for col in columns for v in col for s in (-g, g)})
    index = {c: k for k, c in enumerate(levels)}
    sides = []
    for col in columns:
        stops: Dict[int, int] = {}  # window -> functions no longer above from it on
        starts: Dict[int, int] = {}  # window -> functions below from it on
        for fi, v in enumerate(col):
            k = index[v - g]
            stops[k] = stops.get(k, 0) | 1 << fi
            k = index[v + g]
            starts[k] = starts.get(k, 0) | 1 << fi
        keys = sorted({*stops, *starts})
        above, below = (1 << len(F)) - 1, 0
        pairs = [(above, below)]
        for k in keys:
            above &= ~stops.get(k, 0)
            below |= starts.get(k, 0)
            pairs.append((above, below))
        sides.append((keys, pairs))
    return levels, scale, sides


def _grow(state: Windows, side: Sides) -> Windows:
    """Add one point: split every window's groups by the point's sides.

    After points 0..i-1, group m of a window holds the functions realizing
    mask m (bit i set: above point i).  The parts below the new point come
    first, then the parts above it; functions within its margin drop out.
    Only the windows where every group has functions on both sides are
    kept, in the order given.
    """
    keys, pairs = side
    grown = []
    for w, groups in state:
        above, below = pairs[bisect_right(keys, w)]
        lows, highs = [], []
        for group in groups:
            lo, hi = group & below, group & above
            if not (lo and hi):
                break
            lows.append(lo)
            highs.append(hi)
        else:
            grown.append((w, lows + highs))
    return grown


def shatters(
    F: FunctionClass, D: Sequence[RationalLike], gamma: RationalLike
) -> Optional[ShatterCertificate]:
    """Search for a level alpha shattering D; return a certificate or None.

    Starts from every window of `_window_sides` over D's own points and
    folds `_grow` over them.  The lowest window left gives the certificate:
    alpha is its midpoint and, per mask, the lowest function index.  A
    point outside the class's domain raises `values_at`'s ValueError.
    """
    gamma = _resolution(gamma)
    pts = sorted({x if isinstance(x, Fraction) else as_fraction(x) for x in D})
    if not pts:
        raise ValueError("cannot shatter the empty set")
    levels, scale, sides = _window_sides(F, pts, gamma)
    state = [(w, [(1 << len(F)) - 1]) for w in range(len(levels) - 1)]
    for side in sides:
        state = _grow(state, side)
        if not state:
            return None
    w, groups = state[0]
    selector = {m: (g & -g).bit_length() - 1 for m, g in enumerate(groups)}
    alpha = Fraction(levels[w] + levels[w + 1], 2 * scale)
    return ShatterCertificate(tuple(pts), alpha, selector)


def gap_dim(F: FunctionClass, gamma: RationalLike, cap: int = 20) -> DimResult:
    """Exact gap dimension of F at resolution gamma, with a certificate.

    `cap` bounds the size of shattered sets the search will try; reaching it
    without exhausting the candidates reports INFINITE_CAP instead of a
    number.  The search extends sets depth first in ascending point order
    and keeps the first set reaching a new size, so the result is the
    lexicographically least shattered set of the largest size.  Each node
    holds the live windows of its set, and `_grow` gives a child's.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    gamma = _resolution(gamma)
    pts = candidate_points(F)
    n = len(pts)
    log_bound = len(F).bit_length() - 1  # floor(log2 |F|)
    limit = min(cap, n, log_bound)
    levels, _, sides = _window_sides(F, pts, gamma)
    best_set: List[int] = []

    def extend(prefix: List[int], state: Windows) -> None:
        nonlocal best_set
        for nxt in range(prefix[-1] + 1 if prefix else 0, n):
            if len(best_set) >= limit:
                return
            grown = _grow(state, sides[nxt])
            if not grown:
                continue
            cand = prefix + [nxt]
            if len(cand) > len(best_set):
                best_set = cand
            if len(cand) < limit:
                extend(cand, grown)

    extend([], [(w, [(1 << len(F)) - 1]) for w in range(len(levels) - 1)])
    cert = None
    if best_set:
        cert = shatters(F, [pts[i] for i in best_set], gamma)
        if cert is None:
            raise RuntimeError("window search kept a set that shatters rejects")
        if not verify_certificate(F, gamma, cert):
            raise RuntimeError("search produced a certificate that does not verify")
    best = len(best_set)
    exact = not (best == cap and cap < min(n, log_bound))
    return DimResult(dimension=best, exact=exact, certificate=cert)


@dataclass(frozen=True)
class JoinCell:
    cell: IntervalUnion
    signature: Tuple[int, ...]


def join(F: FunctionClass, gamma: RationalLike, k: int, k2: int) -> List[JoinCell]:
    """The join of the segment pairs {segment k, segment k2} over a STEP class.

    Its cells, in signature order, are the non-empty intersections picking
    per function f the segment {f in band k} (signature entry 0) or
    {f in band k2} (entry 1): the refinement cells where every function
    lies in band k or k2, grouped by signature.
    """
    K = k_of_gamma(gamma)
    for band in (k, k2):
        if not 1 <= band <= K:
            raise SegmentIndexOutOfRange(f"band {band} outside [1, {K}]")
    if k == k2:
        raise ValueError(f"a join needs two different bands, got {k} twice")
    if F.kind != STEP:
        raise ValueError("join is defined for STEP classes")
    side = {k: 0, k2: 1}
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for j, bands in enumerate(zip(*cell_bands(F, gamma))):
        if all(b in side for b in bands):
            groups.setdefault(tuple(side[b] for b in bands), []).append(j)
    return [JoinCell(segment_of_cells(F, groups[sig]), sig) for sig in sorted(groups)]


def join_shatter(
    F0: FunctionClass, k: int, k2: int, gamma: RationalLike
) -> ShatterCertificate:
    """Constructive shattering witness from a full join of segment pairs.

    F0 must have 2**L functions, indexed by subsets of [L] (function b
    corresponds to the subset with bitmask b), and the join of the pairs
    {segment k, segment k2} over all of F0 must have all 2**(2**L) cells
    non-empty.  The certificate places one point per prescribed cell and
    uses the single level alpha = gamma*(k + k2 - 1)/2; it proves the gap
    dimension at resolution gamma/2 is at least L.
    """
    gamma = as_fraction(gamma)
    n_fns = len(F0)
    L = n_fns.bit_length() - 1
    if 1 << L != n_fns:
        raise ValueError("join_shatter needs a class of size 2**L")
    if not non_adjacent(k, k2):
        raise ValueError(f"bands ({k}, {k2}) must be non-adjacent")

    cells = {jc.signature: jc.cell for jc in join(F0, gamma, k, k2)}
    if len(cells) < 1 << n_fns:
        for sig_bits in range(1 << n_fns):
            sig = tuple((sig_bits >> b) & 1 for b in range(n_fns))
            if sig not in cells:
                raise ValueError(f"join is missing the cell with signature {sig}")

    points = []
    for i in range(L):
        # choose segment k for functions whose subset contains i, else k2
        sig = tuple(0 if (b >> i) & 1 else 1 for b in range(n_fns))
        D = cells[sig].denominator
        lo, hi = cells[sig].scaled(D)[0]  # the cell's first interval: its midpoint is interior
        points.append(Fraction(lo + hi, 2 * D))

    alpha = gamma * (k + k2 - 1) / 2
    # The function for mask m must be high exactly on the mask's points;
    # band k is the high band iff k > k2.
    if k > k2:
        selector = {m: m for m in range(1 << L)}
    else:
        selector = {m: (n_fns - 1) ^ m for m in range(1 << L)}
    cert = ShatterCertificate(tuple(points), alpha, selector)
    if not verify_certificate(F0, gamma / 2, cert):
        raise ValueError(
            "full join produced a non-verifying certificate; some function "
            "value sits exactly on a segment boundary"
        )
    return cert
