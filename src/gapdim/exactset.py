"""Exact subsets of the unit interval.

All geometry in this package lives on [0, 1) and every coordinate is a
``fractions.Fraction``.  An :class:`IntervalUnion` is a normalized finite
union of half-open intervals ``[lo, hi)``: normalization sorts the
constituents, merges touching or overlapping ones, and makes equality
structural.  Measure, Boolean operations and point queries are exact; no
floating point enters any decision.

Under the half-open representation a union is non-empty iff it has positive
measure iff it has non-empty interior, which is what lets "non-empty
interior" checks reduce to an exact measure comparison.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Fraction | int


def parse_rational(text: str) -> Fraction:
    """Parse a rational written as ``"num/den"`` or a plain integer string."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q: RationalLike) -> str:
    """Render a rational as ``"num/den"`` (denominator kept even when 1)."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def read_json_object(path) -> dict:
    """The JSON object stored in a file; any other top level is a ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("must hold a JSON object")
    return doc


def decimal12(q: RationalLike) -> str:
    """Render a rational as a decimal with 12 significant digits."""
    return f"{float(Fraction(q)):.12g}"


class IntervalUnion:
    """A normalized finite union of half-open rational intervals in [0, 1).

    Instances are immutable and hashable.  The constructor accepts any
    iterable of ``(lo, hi)`` pairs, drops empty pairs (``lo == hi``), and
    merges overlapping or touching intervals, so two unions describing the
    same point set always compare equal.
    """

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[Tuple[RationalLike, RationalLike]] = ()):
        pairs = []
        for lo, hi in intervals:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo == hi:
                continue
            if not (ZERO <= lo < hi <= ONE):
                raise ValueError(f"invalid interval [{lo}, {hi}) in [0,1)")
            pairs.append((lo, hi))
        pairs.sort()
        merged: list[Tuple[Fraction, Fraction]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self._ivs: Tuple[Tuple[Fraction, Fraction], ...] = tuple(merged)

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls(((ZERO, ONE),))

    @classmethod
    def interval(cls, lo: RationalLike, hi: RationalLike) -> "IntervalUnion":
        return cls(((lo, hi),))

    @classmethod
    def union_all(cls, unions: Iterable["IntervalUnion"]) -> "IntervalUnion":
        pairs: list[Tuple[Fraction, Fraction]] = []
        for u in unions:
            pairs.extend(u._ivs)
        return cls(pairs)

    @property
    def is_empty(self) -> bool:
        return not self._ivs

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __iter__(self) -> Iterator[Tuple[Fraction, Fraction]]:
        return iter(self._ivs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalUnion) and self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:
        return f"IntervalUnion({self.to_text()!r})"

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self._ivs), ZERO)

    def __contains__(self, x: RationalLike) -> bool:
        x = Fraction(x)
        i = bisect_right(self._ivs, x, key=itemgetter(0)) - 1
        return i >= 0 and x < self._ivs[i][1]

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        a, b = self._ivs, other._ivs
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalUnion(out)

    __and__ = intersect

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self._ivs + other._ivs)

    __or__ = union

    def complement(self) -> "IntervalUnion":
        """The complement within [0, 1)."""
        out = []
        cursor = ZERO
        for lo, hi in self._ivs:
            if cursor < lo:
                out.append((cursor, lo))
            cursor = hi
        if cursor < ONE:
            out.append((cursor, ONE))
        return IntervalUnion(out)

    def interior_point(self) -> Optional[Fraction]:
        """Midpoint of the longest constituent interval, leftmost on ties.

        Returns None iff the union is empty; any returned point lies in the
        union's interior.
        """
        if not self._ivs:
            return None
        best_lo, best_hi = self._ivs[0]
        for lo, hi in self._ivs[1:]:
            if hi - lo > best_hi - best_lo:
                best_lo, best_hi = lo, hi
        return (best_lo + best_hi) / 2

    def to_text(self) -> str:
        """Textual form ``"[a/b,c/d),..."``; the empty union reads "empty"."""
        if not self._ivs:
            return "empty"
        return ",".join(
            f"[{format_rational(lo)},{format_rational(hi)})" for lo, hi in self._ivs
        )

    @classmethod
    def from_text(cls, text: str) -> "IntervalUnion":
        s = text.strip()
        if s in ("", "empty"):
            return cls.empty()
        pairs = []
        for chunk in s.split("),"):
            chunk = chunk.strip()
            if not chunk.startswith("["):
                raise ValueError(f"malformed interval union: {text!r}")
            body = chunk[1:].rstrip(")")
            lo_s, _, hi_s = body.partition(",")
            pairs.append((parse_rational(lo_s), parse_rational(hi_s)))
        return cls(pairs)
