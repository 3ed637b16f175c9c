"""Independent reference implementations used only to cross-check results.

Each oracle deliberately uses a different algorithm from the library code it
checks, so agreement is evidence rather than tautology.
"""

import json
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations, repeat

from gapdim import CompleteTree, Function, FunctionClass, IntervalUnion, k_of_gamma
from gapdim.ergoproc import IIDUniformSpec, MarkovSpec, RotationSpec, SamplePath
from gapdim.exactset import format_rational, parse_rational
from gapdim.funclass import STEP, TABULAR, SegmentIndexOutOfRange, non_adjacent
from gapdim.rng import SplitMix64
from gapdim.shatter import DimResult, ShatterCertificate
from gapdim.treelab import IntersectionTree, Label, MissingPayload


def frac_mod1(x: Fraction) -> Fraction:
    """The fractional part x - floor(x), in [0, 1)."""
    return x - math.floor(x)


class OracleIntervalUnion:
    """A union of half-open intervals in [0, 1) held as merged ``Fraction``
    pairs, the reference for the integer-pair ``IntervalUnion``.  The
    oracles do their set algebra here, on library unions converted by
    :func:`oracle_union`, never with the library's own."""

    def __init__(self, intervals=()):
        pairs = []
        for lo, hi in intervals:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo == hi:
                continue
            if not (0 <= lo < hi <= 1):
                raise ValueError(f"invalid interval [{lo}, {hi}) in [0,1)")
            pairs.append((lo, hi))
        pairs.sort()
        merged = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self.ivs = tuple(merged)

    @classmethod
    def _canonical(cls, pairs):
        """The union of ``pairs`` that are already canonical: non-empty,
        sorted and apart, as ``__init__`` would leave them."""
        union = cls.__new__(cls)
        union.ivs = tuple(pairs)
        return union

    @classmethod
    def union_all(cls, unions):
        return cls([pair for u in unions for pair in u.ivs])

    @classmethod
    def full(cls):
        return cls([(0, 1)])

    def __iter__(self):
        return iter(self.ivs)

    def __bool__(self):
        return bool(self.ivs)

    @property
    def measure(self):
        return sum((hi - lo for lo, hi in self.ivs), Fraction(0))

    def __contains__(self, x):
        x = Fraction(x)
        return any(lo <= x < hi for lo, hi in self.ivs)

    def intersect(self, other):
        """Per interval [a, b) of self, the intervals of other that meet it:
        from the first one ending past a (one bisect of their right ends) to
        the last one starting before b.  Each piece is non-empty, and the
        pieces come sorted and apart, as both unions' intervals are."""
        ends = [d for _, d in other.ivs]
        pieces = []
        for a, b in self.ivs:
            for c, d in other.ivs[bisect_right(ends, a):]:
                if not c < b:
                    break
                pieces.append((max(a, c), min(b, d)))
        return OracleIntervalUnion._canonical(pieces)

    def complement(self):
        ends = [Fraction(0)] + [x for pair in self.ivs for x in pair] + [Fraction(1)]
        return OracleIntervalUnion(zip(ends[::2], ends[1::2]))

    def to_text(self):
        if not self.ivs:
            return "empty"
        return ",".join(
            f"[{lo.numerator}/{lo.denominator},{hi.numerator}/{hi.denominator})"
            for lo, hi in self.ivs
        )


def oracle_shatters(F: FunctionClass, points, gamma) -> bool:
    """Interval-stabbing decision for shatterability of a point set.

    For each subset mask and function, the levels alpha realizing the mask
    through that function form an open interval; the set is shattered iff
    the per-mask unions of those intervals have a common point.  The sweep
    checks every midpoint between consecutive interval endpoints as well as
    sentinels outside the range, which is exhaustive because stabbing
    patterns only change at endpoints.
    """
    gamma = Fraction(gamma)
    pts = sorted(points)
    d = len(pts)
    windows = {mask: [] for mask in range(1 << d)}
    endpoints = set()
    for f in F.functions:
        vals = [oracle_value_at(f, x) for x in pts]
        for mask in range(1 << d):
            inside = [v for i, v in enumerate(vals) if (mask >> i) & 1]
            outside = [v for i, v in enumerate(vals) if not (mask >> i) & 1]
            lo = max(outside) + gamma if outside else None  # alpha > lo
            hi = min(inside) - gamma if inside else None  # alpha < hi
            if lo is not None and hi is not None and not lo < hi:
                continue
            windows[mask].append((lo, hi))
            if lo is not None:
                endpoints.add(lo)
            if hi is not None:
                endpoints.add(hi)
    if not endpoints:
        return False
    cuts = sorted(endpoints)
    probes = [cuts[0] - 1, cuts[-1] + 1]
    probes += [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    probes += cuts  # boundary alphas can only lose, but probe them anyway

    def stabbed(mask, alpha):
        return any(
            (lo is None or alpha > lo) and (hi is None or alpha < hi)
            for lo, hi in windows[mask]
        )

    return any(
        all(stabbed(mask, alpha) for mask in range(1 << d)) for alpha in probes
    )


def _value_table(F: FunctionClass, points):
    """Per point, every function's value there, by ``oracle_value_at``."""
    return {x: [oracle_value_at(f, x) for f in F.functions] for x in points}


def _scan(table, points, gamma):
    """The candidate-level scan over a ``_value_table`` holding the points."""
    pts = sorted({Fraction(x) for x in points})
    d = len(pts)
    values = list(zip(*(table[x] for x in pts)))  # per function
    critical = sorted({v + s * gamma for row in values for v in row for s in (-1, 1)})
    candidates = [critical[0] - 1]
    candidates += [(a + b) / 2 for a, b in zip(critical, critical[1:])]
    candidates.append(critical[-1] + 1)
    for alpha in candidates:
        hi, lo = alpha + gamma, alpha - gamma
        selector = {}
        for fi, row in enumerate(values):
            if all(v > hi or v < lo for v in row):
                sig = sum(1 << i for i, v in enumerate(row) if v > hi)
                selector.setdefault(sig, fi)
        if len(selector) == 1 << d:
            return tuple(pts), alpha, selector
    return None


def oracle_shatters_certificate(F: FunctionClass, points, gamma):
    """The candidate-level scan in Fraction arithmetic, with sentinels.

    Candidate levels are a sentinel below the critical set
    {f(x) - gamma, f(x) + gamma}, the midpoints between its consecutive
    values, and a sentinel above it; the first level at which every subset
    mask is realized gives (points, alpha, selector), the selector holding
    the lowest function index per mask.  Returns None when no level works.
    """
    pts = sorted({Fraction(x) for x in points})
    return _scan(_value_table(F, pts), pts, Fraction(gamma))


def oracle_join(families):
    """Join as a product: intersect the running cells with every member.

    Rejects a family with two overlapping members up front; returns
    (cell text, signature) pairs in the product's (lexicographic) order.
    """
    families = [[oracle_union(member) for member in fam] for fam in families]
    for fam in families:
        for a, b in combinations(fam, 2):
            if a.intersect(b):
                raise ValueError("overlapping family")
    cells = [(OracleIntervalUnion.full(), ())]
    for fam in families:
        cells = [
            (cell.intersect(member), sig + (i,))
            for cell, sig in cells
            for i, member in enumerate(fam)
            if cell.intersect(member)
        ]
    return [(cell.to_text(), sig) for cell, sig in cells]


def oracle_gap_dim(F: FunctionClass, candidate_pts, gamma, max_d=None) -> int:
    """Largest shattered subset size by raw enumeration over candidates."""
    best = 0
    top = max_d if max_d is not None else len(candidate_pts)
    for d in range(1, top + 1):
        if not any(
            oracle_shatters(F, sub, gamma)
            for sub in combinations(candidate_pts, d)
        ):
            break
        best = d
    return best


def _scan_certificate(table, points, gamma):
    """``_scan`` as a ShatterCertificate, or None."""
    found = _scan(table, points, gamma)
    return found and ShatterCertificate(*found)


def _dim_result(F: FunctionClass, gamma, cap, n, log_bound, best, cert) -> DimResult:
    if cert is not None and not oracle_verify_certificate(F, gamma, cert):
        raise RuntimeError("oracle certificate does not verify")
    exact = not (best == cap and cap < min(n, log_bound))
    return DimResult(dimension=best, exact=exact, certificate=cert)


def oracle_candidate_points(F: FunctionClass):
    """Candidate points found without the library's table: for STEP the
    midpoints of ``oracle_refinement``'s cells, for TABULAR the domain
    points, keeping of the points whose Fraction value columns
    (``oracle_value_at`` of every function) agree only the leftmost."""
    if F.kind == STEP:
        cuts, _ = oracle_refinement(F)
        pts = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    else:
        pts = sorted(F[0].points)
    firsts = {}
    for x in pts:
        firsts.setdefault(tuple(oracle_value_at(f, x) for f in F.functions), x)
    return list(firsts.values())


def oracle_naive_gap_dim(F: FunctionClass, gamma, cap: int = 20) -> DimResult:
    """The subset-by-subset search: by increasing size, the first shattered
    subset of the candidates in ``combinations`` order, each decided by the
    Fraction scan over one ``oracle_value_at`` table, under the same cap and
    counting bound as ``gap_dim``.

    Stops at the first size with no shattered subset, since supersets of
    unshattered sets are unshattered.
    """
    gamma = Fraction(gamma)
    pts = oracle_candidate_points(F)
    n = len(pts)
    log_bound = len(F).bit_length() - 1
    table = _value_table(F, pts)
    best, best_cert = 0, None
    for d in range(1, min(cap, n, log_bound) + 1):
        certs = (_scan_certificate(table, sub, gamma) for sub in combinations(pts, d))
        found = next((c for c in certs if c is not None), None)
        if found is None:
            break
        best, best_cert = d, found
    return _dim_result(F, gamma, cap, n, log_bound, best, best_cert)


def oracle_pruned_gap_dim(F: FunctionClass, gamma, cap: int = 20) -> DimResult:
    """The depth-first search deciding every extension by the Fraction scan
    over one ``oracle_value_at`` table.

    Grows shattered sets in ascending candidate order and keeps the first
    certificate reaching a new size, under the same cap and counting bound
    as ``gap_dim``; the window search must visit the same sets and return
    the same result.
    """
    gamma = Fraction(gamma)
    pts = oracle_candidate_points(F)
    n = len(pts)
    log_bound = len(F).bit_length() - 1
    limit = min(cap, n, log_bound)
    table = _value_table(F, pts)
    best, best_cert = 0, None

    def extend(prefix):
        nonlocal best, best_cert
        for nxt in range(prefix[-1] + 1 if prefix else 0, n):
            if best >= limit:
                return
            cand = prefix + [nxt]
            cert = _scan_certificate(table, [pts[i] for i in cand], gamma)
            if cert is None:
                continue
            if len(cand) > best:
                best, best_cert = len(cand), cert
            if len(cand) < limit:
                extend(cand)

    extend([])
    return _dim_result(F, gamma, cap, n, log_bound, best, best_cert)


def oracle_level_counts(tree: CompleteTree, S):
    """The ancestor counts (m_l, n_l) of a leaf set S, per level l above the
    leaves, from explicit descendant sets: m_l counts the level-l nodes with
    a member of S below them, n_l those with one below each child."""
    S = set(S)
    L = tree.depth

    def leaves_below(t):
        level = tree.level_of(t)
        span = L - level
        return range(t << span, (t + 1) << span)

    m, n = {}, {}
    for l in range(L):
        m[l] = 0
        n[l] = 0
        for t in tree.nodes_at_level(l):
            left, right = tree.children(t)
            l_hit = any(x in S for x in leaves_below(left))
            r_hit = any(x in S for x in leaves_below(right))
            if l_hit or r_hit:
                m[l] += 1
            if l_hit and r_hit:
                n[l] += 1
    return m, n


def oracle_uniform_depth(tree: CompleteTree, label: Label) -> int:
    """Max depth of an embedded complete subtree with all internal labels
    equal to `label`, by bottom-up dynamic programming over host nodes."""
    size = tree.size
    best = [0] * (size + 2)
    rooted = [0] * (size + 2)
    for t in range(size, 0, -1):
        if not tree.is_leaf(t):
            left, right = tree.children(t)
            if tree.labels.get(t) == label:
                rooted[t] = 1 + min(best[left], best[right])
            best[t] = max(rooted[t], best[left], best[right])
    return best[1]


def oracle_max_uniform_depth(tree: CompleteTree) -> int:
    labels = set(tree.labels.values())
    return max(oracle_uniform_depth(tree, lbl) for lbl in labels)


def is_host_ancestor(u: int, v: int) -> bool:
    """Heap-index ancestor test: u is a strict ancestor of v."""
    du, dv = u.bit_length() - 1, v.bit_length() - 1
    return dv > du and (v >> (dv - du)) == u


def oracle_intersection_tree_build(F: FunctionClass, gamma, L: int, visit_cap: int):
    """The intersection-tree search in ``OracleIntervalUnion`` algebra.

    Same search order and visit budget as ``intersection_tree_build``, but
    every path intersection is an explicit union tested for emptiness, and
    labels and payloads (the segments of ``oracle_segment_partition``) are
    assigned and undone as the search backtracks.
    """
    gamma = Fraction(gamma)
    K = k_of_gamma(gamma)
    pairs = [(k, k2) for k in range(1, K + 1) for k2 in range(k + 2, K + 1)]
    segs = [oracle_segment_partition(f, gamma) for f in F.functions]
    osegs = [[oracle_union(seg) for seg in row] for row in segs]
    labels, sets, chosen = {}, {}, []
    visits = 0

    class BudgetExceeded(Exception):
        pass

    def attempt(level, frontier):
        nonlocal visits
        if level == L:
            return True
        for fi in range(len(F)):
            assignment = []
            for node, W in frontier:
                visits += 1
                if visits > visit_cap:
                    raise BudgetExceeded
                pick = None
                for k, k2 in pairs:
                    if not W.intersect(osegs[fi][k - 1]):
                        continue
                    if not W.intersect(osegs[fi][k2 - 1]):
                        continue
                    pick = (k, k2)
                    break
                if pick is None:
                    assignment = None
                    break
                assignment.append((node, W, pick))
            if assignment is None:
                continue
            child_frontier = []
            for node, W, (k, k2) in assignment:
                labels[node] = (k, k2)
                left, right = 2 * node, 2 * node + 1
                sets[left] = segs[fi][k - 1]
                sets[right] = segs[fi][k2 - 1]
                child_frontier.append((left, W.intersect(osegs[fi][k - 1])))
                child_frontier.append((right, W.intersect(osegs[fi][k2 - 1])))
            chosen.append(fi)
            if attempt(level + 1, child_frontier):
                return True
            chosen.pop()
            for node, _, _ in assignment:
                del labels[node]
                del sets[2 * node], sets[2 * node + 1]
        return False

    try:
        ok = attempt(0, [(1, OracleIntervalUnion.full())])
    except BudgetExceeded:
        return None
    if not ok:
        return None
    return IntersectionTree(CompleteTree(L, labels, sets), tuple(chosen))


def oracle_irreducible(P) -> bool:
    """Irreducibility by reachability: every state is reached from state 0
    along positive transitions, and reaches it back."""
    n = len(P)

    def reaches(edges) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in seen and edges(i, j):
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    return reaches(lambda i, j: P[i][j] > 0) and reaches(lambda i, j: P[j][i] > 0)


def oracle_stationary(P):
    """The solution of pi P = pi, sum(pi) = 1 of an irreducible chain, by exact
    elimination that assumes every column has a pivot."""
    n = len(P)
    # rows of (P^T - I), last equation replaced by sum(pi) = 1
    A = [[P[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    A[n - 1] = [Fraction(1)] * n
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
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


def _pick_cumulative(weights, u):
    acc = Fraction(0)
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def oracle_u64s(rng: SplitMix64, n: int) -> list:
    """n outputs of ``rng``, one ``next_u64()`` call each: the stream the
    bulk draws must reproduce."""
    return [rng.next_u64() for _ in range(n)]


def oracle_unit_ticks(rng: SplitMix64, n: int) -> list:
    """n 53-bit ticks of ``rng``, one ``unit_tick()`` call each."""
    return [rng.unit_tick() for _ in range(n)]


def randbelow(rng: SplitMix64, n: int) -> int:
    """An integer in [0, n) from one ``next_u64()`` draw, by modulo
    reduction (bias below 2**-50 for small n)."""
    return rng.next_u64() % n


def fraction_pairs(u: IntervalUnion) -> list:
    """The sorted, merged ``(lo, hi)`` intervals of a union as Fractions."""
    D = u.denominator
    return [(Fraction(lo, D), Fraction(hi, D)) for lo, hi in u.scaled(D)]


def oracle_union(u: IntervalUnion) -> OracleIntervalUnion:
    """A library union as an ``OracleIntervalUnion``, through
    :func:`fraction_pairs`."""
    return OracleIntervalUnion(fraction_pairs(u))


def union_of(pairs) -> IntervalUnion:
    """The union of the intervals ``[lo, hi)`` for Fraction or int pairs,
    built from integer pairs over the lcm of their denominators: the
    inverse of :func:`fraction_pairs`."""
    ends = [x.as_integer_ratio() for pair in pairs for x in pair]
    D = math.lcm(*(q for _, q in ends))
    scaled = iter([p * (D // q) for p, q in ends])
    return IntervalUnion(D, zip(scaled, scaled))


class OracleTicks(tuple):
    """A path of explicit ticks: a path kind that counts itself by
    ``oracle_binned_counts``, one bisect per tick."""

    @property
    def length(self) -> int:
        return len(self)

    def counts(self, thresholds, lengths):
        return oracle_binned_counts(self, thresholds, lengths)


def sample_path_of(values, seed: int, spec) -> SamplePath:
    """A path through given points of [0, 1), over the lcm of their denominators."""
    values = [Fraction(v) for v in values]
    if not values:
        raise ValueError("a sample path needs at least one point")
    if not all(Fraction(0) <= v < Fraction(1) for v in values):
        raise ValueError("sample points must lie in [0, 1)")
    scale = math.lcm(*(v.denominator for v in values))
    ticks = OracleTicks(v.numerator * (scale // v.denominator) for v in values)
    return SamplePath(ticks, scale, seed, spec)


class InvalidSplit(ValueError):
    """A subadditivity split must leave both parts non-empty."""


def split_path(path: SamplePath, split: int):
    """The head of ``split`` points and the tail after it, as paths of
    explicit ticks."""
    if not 1 <= split < len(path):
        raise InvalidSplit(f"split must be in [1, {len(path) - 1}], got {split}")
    ticks = tuple(path.ticks)
    return (
        SamplePath(OracleTicks(ticks[:split]), path.scale, path.seed, path.spec),
        SamplePath(OracleTicks(ticks[split:]), path.scale, path.seed, path.spec),
    )


def oracle_sample_path(spec, m: int, seed: int):
    """Path points in the documented draw order, every draw a Fraction.

    Each uniform is ``unit_fraction()``, a rotation steps by ``frac_mod1``
    and a Markov state is the first whose running Fraction sum of weights
    exceeds the draw, the start law solved by ``oracle_stationary`` rather
    than read from the spec: the generator the integer ticks replaced.
    """
    rng = SplitMix64(seed)
    if isinstance(spec, IIDUniformSpec):
        return tuple(rng.unit_fraction() for _ in range(m))
    if isinstance(spec, RotationSpec):
        x0 = rng.unit_fraction()
        return tuple(frac_mod1(x0 + i * spec.theta) for i in range(1, m + 1))
    assert isinstance(spec, MarkovSpec)
    out = []
    state = _pick_cumulative(oracle_stationary(spec.transition), rng.unit_fraction())
    for i in range(m):
        if i > 0:
            state = _pick_cumulative(spec.transition[state], rng.unit_fraction())
        e = spec.emissions[state]
        if e.lo == e.hi:  # a point emission draws nothing
            out.append(e.lo)
        else:
            out.append(e.lo + (e.hi - e.lo) * rng.unit_fraction())
    return tuple(out)


def oracle_refinement(F: FunctionClass):
    """Common refinement of a STEP class in Fractions: the sorted cuts
    (every piece endpoint of every function) and, per function, its
    ``oracle_value_at`` the left end of each cell."""
    cuts = sorted({
        x for f in F.functions for piece in f.pieces for iv in fraction_pairs(piece) for x in iv
    })
    return cuts, [tuple(oracle_value_at(f, lo) for lo in cuts[:-1]) for f in F.functions]


def oracle_class_means(F: FunctionClass, values):
    """Per-function sample means by bisecting Fraction points against the
    Fraction cuts of the common refinement and summing Fraction products."""
    cuts, columns = oracle_refinement(F)
    counts = [0] * (len(cuts) - 1)
    for x in values:
        counts[bisect_right(cuts, x) - 1] += 1
    m = len(values)
    return [
        sum((c * v for c, v in zip(counts, column) if c), Fraction(0)) / m
        for column in columns
    ]


def oracle_binned_counts(ticks, thresholds, lengths):
    """The ``counts`` of a path kind as one ``bisect_right`` per tick: a
    ``Counter`` of cells over running prefixes of the ticks."""
    counts = Counter()
    done = 0
    for m in lengths:
        counts.update(map(bisect_right, repeat(thresholds), ticks[done:m]))
        done = m
        yield [counts[j] for j in range(len(thresholds) + 1)]


def oracle_top_byte_table(thresholds) -> bytes:
    """``ergoproc._top_byte_table`` by one ``bisect_right`` per byte: the
    cell of the byte's first tick, capped at the marker 255, and the marker
    for every byte whose range a threshold splits."""
    starts = map(bisect_right, repeat(thresholds), range(0, 1 << 64, 1 << 56))
    table = bytearray(map(min, starts, repeat(255)))
    for t in thresholds:
        if t % (1 << 56):  # a cell boundary inside the range of byte t >> 56
            table[t >> 56] = 255
    return bytes(table)


_PIECE_UNIONS = {}  # id(f) -> (f, its piece intervals beside their values, values found)


def oracle_pieces(f):
    """The intervals of f's STEP pieces, each merged as an
    ``OracleIntervalUnion``, beside their values, and a dict of f's values
    found so far by point, built once per function: the entry holds f, so
    its id is not reused while the entry lasts."""
    entry = _PIECE_UNIONS.get(id(f))
    if entry is None:
        if len(_PIECE_UNIONS) >= 256:
            _PIECE_UNIONS.clear()
        intervals = [
            (lo, hi, v)
            for piece, v in zip(f.pieces, f.values)
            for lo, hi in oracle_union(piece)
        ]
        entry = _PIECE_UNIONS[id(f)] = f, intervals, {}
    return entry[1:]


def oracle_value_at(f, x):
    """The value of the STEP piece that contains x, by a scan of the pieces'
    ``OracleIntervalUnion`` intervals, or of the TABULAR domain point equal
    to x, by a scan; None when there is none (x outside [0, 1), or off the
    domain).  A STEP function's value at a point is looked up once, then
    kept: the solver oracles ask for the same points at every gamma."""
    if f.kind == TABULAR:
        return next((v for p, v in zip(f.points, f.values) if p == x), None)
    intervals, found = oracle_pieces(f)
    if x not in found:
        found[x] = next((v for lo, hi, v in intervals if lo <= x < hi), None)
    return found[x]


def oracle_values_at(F: FunctionClass, points):
    """``(V, columns)`` of ``values_at`` from ``oracle_value_at``: V the lcm
    of the denominators of every value of the class, ``columns[i][fi]`` the
    value of F[fi] at points[i] times V."""
    V = math.lcm(*(v.denominator for f in F for v in f.values))
    return V, [tuple(int(oracle_value_at(f, x) * V) for f in F) for x in points]


def oracle_verify_certificate(F: FunctionClass, gamma, cert: ShatterCertificate) -> bool:
    """The Fraction check of a well-formed certificate: per subset mask, the
    selected function's ``oracle_value_at`` lies strictly above alpha + gamma
    at the mask's points and strictly below alpha - gamma at the others."""
    hi, lo = cert.alpha + gamma, cert.alpha - gamma
    for mask, fi in cert.selector.items():
        for i, x in enumerate(cert.points):
            v = oracle_value_at(F[fi], x)
            if (mask >> i) & 1:
                if not v > hi:
                    return False
            elif not v < lo:
                return False
    return True


def oracle_integral(f, a, b):
    """The integral of a STEP function over [a, b) from piece measures: each
    piece, intersected as an ``OracleIntervalUnion`` with [a, b), weighs its
    value."""
    window = OracleIntervalUnion([(a, b)])
    return sum(
        (v * oracle_union(piece).intersect(window).measure
         for piece, v in zip(f.pieces, f.values)),
        Fraction(0),
    )


def oracle_expectation(f, spec):
    """E f(X) from piece measures (see ``oracle_integral``) and, at a point
    emission, the value of the piece holding the point (``oracle_value_at``),
    a chain's emissions weighed by its ``oracle_stationary`` law."""
    if isinstance(spec, (IIDUniformSpec, RotationSpec)):
        return sum(
            (v * oracle_union(piece).measure for piece, v in zip(f.pieces, f.values)),
            Fraction(0),
        )
    total = Fraction(0)
    for p, e in zip(oracle_stationary(spec.transition), spec.emissions):
        if e.lo == e.hi:  # a point emission
            total += p * oracle_value_at(f, e.lo)
        else:
            total += p * oracle_integral(f, e.lo, e.hi) / (e.hi - e.lo)
    return total


def oracle_step(pieces, values) -> Function:
    """A STEP function checked and built on its own, with no shared partition.

    The pieces' cover is checked by the ``OracleIntervalUnion`` of their
    intervals and their disjointness by the sum of their measures.  The
    integer row comes from one sort of the function's (right end, value)
    pairs, the ends over the lcm of the end denominators and the values over
    that of the values.
    """
    pieces = tuple(pieces)
    vals = tuple(Fraction(v) for v in values)
    if len(pieces) != len(vals) or not pieces:
        raise ValueError("step function needs one value per piece")
    for v in vals:
        if not Fraction(0) <= v <= Fraction(1):
            raise ValueError(f"value {v} outside [0, 1]")
    unions = [oracle_union(p) for p in pieces]
    if OracleIntervalUnion.union_all(unions).ivs != OracleIntervalUnion.full().ivs:
        raise ValueError("step pieces must cover [0, 1)")
    if sum((u.measure for u in unions), Fraction(0)) != Fraction(1):
        raise ValueError("step pieces must be pairwise disjoint")
    D = math.lcm(*(hi.denominator for piece in pieces for _, hi in fraction_pairs(piece)))
    W = math.lcm(*(v.denominator for v in vals))
    ends, row_vals = zip(*sorted(
        (hi.numerator * (D // hi.denominator), v.numerator * (W // v.denominator))
        for piece, v in zip(pieces, vals) for _, hi in fraction_pairs(piece)
    ))
    return Function(STEP, pieces, None, (D, ends, W, row_vals), vals)


def oracle_constant(value) -> Function:
    """The STEP function with one value on the one piece [0, 1)."""
    return Function.step([union_of([(0, 1)])], [value])


def oracle_indicator(support: IntervalUnion) -> Function:
    """The 0/1 STEP function of a support, on the two pieces complement and
    support (the complement from ``OracleIntervalUnion``), or constant when
    the support is empty or all of [0, 1)."""
    ivs = oracle_union(support)
    if not ivs:
        return oracle_constant(0)
    if ivs.measure == 1:
        return oracle_constant(1)
    rest = union_of(ivs.complement())
    return Function.step([rest, support], [0, 1])


def oracle_on_cells(F: FunctionClass, n: int) -> FunctionClass:
    """A STEP class whose functions are constant on the n cells
    [i/n, (i+1)/n), rewritten on those cells: each cell its own IntervalUnion,
    valued by ``oracle_value_at`` at its left end."""
    cells = [union_of([(Fraction(i, n), Fraction(i + 1, n))]) for i in range(n)]
    fns = [
        Function.step(cells, [oracle_value_at(f, Fraction(i, n)) for i in range(n)]) for f in F
    ]
    return FunctionClass(fns, F.name)


def oracle_step_class(F: FunctionClass) -> FunctionClass:
    """A STEP class rebuilt function by function with ``oracle_step``, each
    piece a fresh IntervalUnion."""
    return FunctionClass(
        [
            oracle_step([union_of(fraction_pairs(piece)) for piece in f.pieces], f.values)
            for f in F
        ],
        F.name,
    )


def oracle_step_class_from_json(doc) -> FunctionClass:
    """A STEP class document read with ``oracle_step``, every piece text
    parsed anew for every function."""
    return FunctionClass(
        [
            oracle_step(
                [IntervalUnion.from_text(p["set"]) for p in entry["pieces"]],
                [parse_rational(p["value"]) for p in entry["pieces"]],
            )
            for entry in doc["functions"]
        ],
        doc.get("name", ""),
    )


# ---------------------------------------------------------------------------
# Step classes built function by function, each on its own pieces


def oracle_random_step(seed: int, pieces: int, grid: int, count: int = 1) -> FunctionClass:
    """``random_step`` drawing each value by its own ``randbelow(rng, grid + 1)``
    call, row by row, every function checking its own pieces."""
    rng = SplitMix64(seed)
    cells = [union_of([(Fraction(i, pieces), Fraction(i + 1, pieces))])
             for i in range(pieces)]
    fns = [
        oracle_step(cells, [Fraction(randbelow(rng, grid + 1), grid) for _ in range(pieces)])
        for _ in range(count)
    ]
    return FunctionClass(fns, f"random_step({seed},{pieces},{grid},{count})")



def oracle_thresholds(n: int) -> FunctionClass:
    """``thresholds(n)`` as indicators, each function checking its own two
    pieces (one when it is constant)."""
    fns = [
        oracle_indicator(
            union_of([(Fraction(j, n), 1)]) if j < n else IntervalUnion(1)
        )
        for j in range(1, n + 1)
    ]
    return FunctionClass(fns, f"thresholds({n})")


def oracle_interval_indicators(n: int) -> FunctionClass:
    """``interval_indicators(n)`` as indicators of their own intervals."""
    fns = [
        oracle_indicator(union_of([(Fraction(i, n), Fraction(j, n))]))
        for i in range(n)
        for j in range(i + 1, n + 1)
    ]
    return FunctionClass(fns, f"interval_indicators({n})")


def oracle_full_join_family(L: int, k: int, k2: int, gamma) -> FunctionClass:
    """``full_join_family`` with each function on two pieces of its own: the
    union of the cells whose signature has its bit set, and the rest."""
    gamma = Fraction(gamma)
    n_fns = 1 << L
    n_cells = 1 << n_fns
    special = [sum(1 << b for b in range(n_fns) if (b >> c) & 1) for c in range(L)]
    sigma = special + [s for s in range(n_cells) if s not in set(special)]
    v_in = (k - Fraction(1, 2)) * gamma
    v_out = (k2 - Fraction(1, 2)) * gamma
    fns = []
    for b in range(n_fns):
        cells_in = [(c, c + 1) for c in range(n_cells) if (sigma[c] >> b) & 1]
        cells_out = [(c, c + 1) for c in range(n_cells) if not (sigma[c] >> b) & 1]
        pieces = (IntervalUnion(n_cells, cells_in), IntervalUnion(n_cells, cells_out))
        fns.append(Function.step(pieces, (v_in, v_out)))
    return FunctionClass(fns, f"full_join_family({L},{k},{k2},{format_rational(gamma)})")


def oracle_trajectory_indicators(theta, base_points, window: int) -> FunctionClass:
    """``trajectory_indicators`` on Fractions: each orbit point is
    ``frac_mod1(b + i * theta)``, the orbits are checked as sets of
    Fractions, and the domain is sorted by Fraction comparison."""
    theta = Fraction(theta)
    if window < 0:
        raise ValueError("window must be >= 0")
    orbits = []
    for b in base_points:
        b = Fraction(b)
        orbit = {frac_mod1(b + i * theta) for i in range(-window, window + 1)}
        if len(orbit) != 2 * window + 1:
            raise ValueError(f"orbit of {b} self-intersects within the window; theta too coarse")
        orbits.append(orbit)
    for i, j in combinations(range(len(orbits)), 2):
        if orbits[i] & orbits[j]:
            raise ValueError(f"orbits of base points {i} and {j} intersect within the window")
    if not orbits:
        raise ValueError("need at least one base point")
    domain = sorted(set().union(*orbits))
    fns = [Function.tabular(domain, [int(x in orbit) for x in domain]) for orbit in orbits]
    return FunctionClass(fns, f"trajectory_indicators(window={window})")


def oracle_band_of_value(v, gamma) -> int:
    """The band of value v by ``Fraction`` division: int(v / gamma) + 1,
    capped at K."""
    gamma, v = Fraction(gamma), Fraction(v)
    return min(int(v / gamma) + 1, k_of_gamma(gamma))


def oracle_segment_partition(f: Function, gamma):
    """The K segments of a function: for STEP the union of the intervals of
    its pieces (``oracle_pieces``) whose value lies in each band, merged as
    an ``OracleIntervalUnion`` and returned as an IntervalUnion; for TABULAR
    the tuple of its domain points whose value does."""
    groups = [[] for _ in range(k_of_gamma(gamma))]
    if f.kind == TABULAR:
        for p, v in zip(f.points, f.values):
            groups[oracle_band_of_value(v, gamma) - 1].append(p)
        return [tuple(group) for group in groups]
    bands = {v: oracle_band_of_value(v, gamma) for v in set(f.values)}
    for lo, hi, v in oracle_pieces(f)[0]:
        groups[bands[v] - 1].append((lo, hi))
    return [union_of(OracleIntervalUnion(group)) for group in groups]


def oracle_intersection_tree_verify(tree: CompleteTree, F: FunctionClass, gamma, functions):
    """The two-branch tree check with a recursive walk.

    A labeled node compares its children's sets with the segments its label
    names; an unlabeled node looks them up among the level function's
    segments (from ``oracle_segment_partition``, once per level).  A band
    outside [1, K] raises only when a labeled node reaches it.  Then a walk
    down every root path intersects the sets, as ``OracleIntervalUnion``s,
    and needs positive measure at every node.
    """
    gamma = Fraction(gamma)
    K = k_of_gamma(gamma)
    for t in range(2, 1 << (tree.depth + 1)):
        if t not in tree.sets:
            raise MissingPayload(f"node {t} has no set payload")
    by_level = {}
    for t in range(1, 1 << tree.depth):
        level = tree.level_of(t)
        if level not in by_level:
            by_level[level] = oracle_segment_partition(F[functions[level]], gamma)
        segs = by_level[level]
        left, right = tree.sets[2 * t], tree.sets[2 * t + 1]
        label = tree.labels.get(t)
        if label is not None:
            k, k2 = label
            if not non_adjacent(k, k2):
                return False
            for band in label:
                if not 1 <= band <= K:
                    raise SegmentIndexOutOfRange(f"band {band} outside [1, {K}]")
            if (left, right) != (segs[k - 1], segs[k2 - 1]):
                return False
        else:
            k = next((kk for kk, s in enumerate(segs, 1) if s == left), None)
            k2 = next((kk for kk, s in enumerate(segs, 1) if s == right), None)
            if k is None or k2 is None or not non_adjacent(k, k2):
                return False

    def walk(t, W):
        if t != 1:
            W = W.intersect(oracle_union(tree.sets[t]))
        if W.measure <= 0:
            return False
        return tree.is_leaf(t) or (walk(2 * t, W) and walk(2 * t + 1, W))

    return walk(1, OracleIntervalUnion.full())


def oracle_tree_to_json(tree: CompleteTree) -> dict:
    """A tree's JSON document with every payload written at its own node."""
    nodes = {}
    for t in range(1, tree.size + 1):
        label = tree.labels.get(t)
        payload = tree.sets.get(t)
        nodes[str(t)] = {
            "label": list(label) if label else None,
            "set": payload.to_text() if payload is not None else None,
        }
    return {"depth": tree.depth, "nodes": nodes}


def oracle_tree_from_json(doc: dict) -> CompleteTree:
    """The tree of a well-formed JSON document, every payload parsed at its
    own node."""
    labels, sets = {}, {}
    for key, entry in doc["nodes"].items():
        if entry.get("label") is not None:
            labels[int(key)] = tuple(entry["label"])
        if entry.get("set") is not None:
            sets[int(key)] = IntervalUnion.from_text(entry["set"])
    return CompleteTree(doc["depth"], labels, sets)


def oracle_dumps(doc) -> str:
    """The text of ``exactset.dumps``: json's own indented, key-sorted
    writer, which with an indent runs its pure-Python encoder."""
    return json.dumps(doc, indent=2, sort_keys=True)
