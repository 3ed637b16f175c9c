"""Shattering certificates, exact gap-dimension solvers, and set joins.

A class F shatters a point set D at resolution gamma when a single level
alpha exists such that every subset D0 of D is realized by some f in F with
f strictly above alpha + gamma on D0 and strictly below alpha - gamma off
D0.  The gap dimension at gamma is the largest cardinality of a shattered
set.  Everything here is decided in exact rational arithmetic, and every
positive answer is backed by a certificate that can be re-checked
independently of the search that produced it.

Two solvers are provided.  NAIVE enumerates point subsets by increasing
size and is the reference oracle.  PRUNED grows only currently-shattered
sets depth first (sound because subsets of shattered sets are shattered
under the same alpha) and stops at the counting bound floor(log2 |F|),
since 2**d distinct functions are needed to shatter d points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .exactset import (
    IntervalUnion, RationalLike, format_rational, parse_rational, read_json_object
)
from .funclass import (
    TABULAR, FunctionClass, InvalidResolution, non_adjacent, refinement, segment
)

NAIVE = "naive"
PRUNED = "pruned"

INFINITE_CAP = "INFINITE_CAP"


class MalformedCertificate(ValueError):
    """Certificate refers to unknown functions, foreign points, or misses masks."""


class EmptyPointSet(ValueError):
    """Shattering queries need at least one point."""


class InvalidCap(ValueError):
    """Search cap must be at least 1."""


class JoinNotFull(ValueError):
    """A join expected to be full is missing a cell."""

    def __init__(self, signature: Tuple[int, ...]):
        self.signature = signature
        super().__init__(f"join is missing the cell with signature {signature}")


class NotDisjointFamily(ValueError):
    """A join constituent family contains overlapping sets."""


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
            points=tuple(parse_rational(p) for p in doc["points"]),
            alpha=parse_rational(doc["alpha"]),
            selector={int(m): int(i) for m, i in doc["selector"].items()},
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

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
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise InvalidResolution(f"gamma must be positive, got {gamma}")
    return gamma


def _check_point(F: FunctionClass, x: Fraction) -> None:
    if F.kind == TABULAR:
        if x not in F.domain_points:
            raise MalformedCertificate(f"{x} is not a domain point of the class")
    elif not (0 <= x < 1):
        raise MalformedCertificate(f"{x} lies outside [0, 1)")


def verify_certificate(F: FunctionClass, gamma: RationalLike, cert: ShatterCertificate) -> bool:
    """Re-check a certificate in exact arithmetic; boundary ties never pass."""
    gamma = _resolution(gamma)
    d = len(cert.points)
    if d == 0 or len(set(cert.points)) != d:
        raise MalformedCertificate("certificate points must be distinct and non-empty")
    for x in cert.points:
        _check_point(F, x)
    if sorted(cert.selector) != list(range(1 << d)):
        raise MalformedCertificate("selector must cover every subset mask exactly once")
    if any(not 0 <= i < len(F) for i in cert.selector.values()):
        raise MalformedCertificate("selector references a function outside the class")

    hi = cert.alpha + gamma
    lo = cert.alpha - gamma
    for mask, fi in cert.selector.items():
        f = F[fi]
        for i, x in enumerate(cert.points):
            v = f.value_at(x)
            if (mask >> i) & 1:
                if not v > hi:
                    return False
            elif not v < lo:
                return False
    return True


def candidate_points(F: FunctionClass) -> List[Fraction]:
    """Canonical candidate points for dimension searches.

    TABULAR: the shared domain points.  STEP: one interior point (the
    midpoint) per cell of the common refinement of all piece partitions;
    step functions are constant on those cells, so a shattered set can
    always be moved onto distinct cells.  Points with identical value
    vectors are collapsed to the leftmost representative, because no
    (f, alpha) pair can split such a pair and a shattered set never
    contains two of them.
    """
    if F.kind == TABULAR:
        pts, columns = F.domain_points, [f.values for f in F.functions]
    else:
        cuts, columns = refinement(F)
        pts = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
    out, seen = [], set()
    for p, vec in zip(pts, zip(*columns)):
        if vec not in seen:
            seen.add(vec)
            out.append(p)
    return out


def shatters(
    F: FunctionClass, D: Sequence[RationalLike], gamma: RationalLike
) -> Optional[ShatterCertificate]:
    """Search for a level alpha shattering D; return a certificate or None.

    Candidate levels are the midpoints between consecutive values of the
    critical set {f(x) - gamma, f(x) + gamma}.  The above/below/blocked
    pattern of every (f, x) pair is constant between consecutive critical
    values, so this finite sweep is exhaustive over all real alpha: below
    the lowest critical value every function realizes the full mask and
    above the highest the empty mask, so neither shatters a non-empty set.
    Values and gamma are scaled to integers by twice the lcm of their
    denominators, so every critical value is even and every midpoint exact.
    """
    gamma = _resolution(gamma)
    pts = sorted({Fraction(x) for x in D})
    if not pts:
        raise EmptyPointSet("cannot shatter the empty set")
    for x in pts:
        _check_point(F, x)
    d = len(pts)
    if len(F) < (1 << d):
        return None  # 2**d distinct realizations are needed

    values = [[f.value_at(x) for x in pts] for f in F.functions]
    scale = 2 * lcm(gamma.denominator, *(v.denominator for row in values for v in row))
    g = gamma.numerator * scale // gamma.denominator
    rows = [[v.numerator * scale // v.denominator for v in row] for row in values]
    critical = sorted({v + s for row in rows for v in row for s in (-g, g)})

    for a, b in zip(critical, critical[1:]):
        alpha = (a + b) // 2
        hi, lo = alpha + g, alpha - g
        selector: Dict[int, int] = {}
        for fi, row in enumerate(rows):
            sig = 0
            for i, v in enumerate(row):
                if v > hi:
                    sig |= 1 << i
                elif v >= lo:
                    break
            else:
                selector.setdefault(sig, fi)
        if len(selector) == 1 << d:
            return ShatterCertificate(tuple(pts), Fraction(alpha, scale), selector)
    return None


def gap_dim(
    F: FunctionClass,
    gamma: RationalLike,
    cap: int = 20,
    mode: str = PRUNED,
) -> DimResult:
    """Exact gap dimension of F at resolution gamma, with a certificate.

    `cap` bounds the size of shattered sets the search will try; reaching it
    without exhausting the candidates reports INFINITE_CAP instead of a
    number.  NAIVE and PRUNED always agree on the dimension.
    """
    if cap < 1:
        raise InvalidCap(f"cap must be >= 1, got {cap}")
    if mode not in (NAIVE, PRUNED):
        raise ValueError(f"unknown mode {mode!r}")
    gamma = _resolution(gamma)
    pts = candidate_points(F)
    n = len(pts)
    log_bound = len(F).bit_length() - 1  # floor(log2 |F|)
    limit = min(cap, n, log_bound)

    best = 0
    best_cert: Optional[ShatterCertificate] = None

    if mode == NAIVE:
        for d in range(1, limit + 1):
            found = None
            for idxs in combinations(range(n), d):
                cert = shatters(F, [pts[i] for i in idxs], gamma)
                if cert is not None:
                    found = cert
                    break
            if found is None:
                break  # supersets of unshattered sets are unshattered
            best, best_cert = d, found
    else:
        # Depth-first extension in ascending point order; the first
        # certificate reaching a new size is kept, which makes the result
        # the lexicographically least maximal one.
        def extend(prefix: List[int]) -> None:
            nonlocal best, best_cert
            for nxt in range(prefix[-1] + 1 if prefix else 0, n):
                if best >= limit:
                    return
                cand = prefix + [nxt]
                cert = shatters(F, [pts[i] for i in cand], gamma)
                if cert is None:
                    continue
                if len(cand) > best:
                    best, best_cert = len(cand), cert
                if len(cand) < limit:
                    extend(cand)

        extend([])

    if best_cert is not None and not verify_certificate(F, gamma, best_cert):
        raise RuntimeError("search produced a certificate that does not verify")
    exact = not (best == cap and cap < min(n, log_bound))
    return DimResult(dimension=best, exact=exact, certificate=best_cert)


@dataclass(frozen=True)
class JoinCell:
    cell: IntervalUnion
    signature: Tuple[int, ...]


def join(families: Sequence[Sequence[IntervalUnion]]) -> List[JoinCell]:
    """All non-empty intersections picking one set from each family.

    The endpoints of all sets cut [0, 1) into pieces [lo, hi), and a set
    contains a piece iff it contains lo.  The pieces every family covers,
    grouped by the member covering them in each family, are the cells, in
    signature order.  Within each family the sets must be pairwise
    disjoint, so the cells are pairwise disjoint and each is contained in
    every constituent it picked.
    """
    cuts = sorted({0, 1, *(x for fam in families for s in fam for iv in s for x in iv)})
    groups: Dict[Tuple[int, ...], list] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        hits = [[i for i, s in enumerate(fam) if lo in s] for fam in families]
        if any(len(h) > 1 for h in hits):
            raise NotDisjointFamily(f"two sets of a family overlap on [{lo}, {hi})")
        if all(hits):
            groups.setdefault(tuple(h[0] for h in hits), []).append((lo, hi))
    return [JoinCell(IntervalUnion(groups[sig]), sig) for sig in sorted(groups)]


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
    gamma = Fraction(gamma)
    n_fns = len(F0)
    L = n_fns.bit_length() - 1
    if 1 << L != n_fns:
        raise ValueError("join_shatter needs a class of size 2**L")
    if not non_adjacent(k, k2):
        raise ValueError(f"bands ({k}, {k2}) must be non-adjacent")

    families = [(segment(f, gamma, k), segment(f, gamma, k2)) for f in F0.functions]
    cells = {jc.signature: jc.cell for jc in join(families)}
    if len(cells) < 1 << n_fns:
        for sig_bits in range(1 << n_fns):
            sig = tuple((sig_bits >> b) & 1 for b in range(n_fns))
            if sig not in cells:
                raise JoinNotFull(sig)

    points = []
    for i in range(L):
        # choose segment k for functions whose subset contains i, else k2
        sig = tuple(0 if (b >> i) & 1 else 1 for b in range(n_fns))
        points.append(cells[sig].interior_point())

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
