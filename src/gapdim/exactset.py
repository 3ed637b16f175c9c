"""Exact subsets of the unit interval.

All geometry in this package lives on [0, 1).  An :class:`IntervalUnion` is
a normalized finite union of half-open intervals ``[lo, hi)``, held as the
least common denominator D of its endpoints and the integer pairs
``(lo * D, hi * D)``.  The constructor takes integer pairs over D and is the
one place that form is made: it sorts the constituents, merges touching or
overlapping ones and reduces D, which makes equality structural.  Every
operation runs on those integers.  ``fractions.Fraction`` appears only at
the edges: the rationals :meth:`IntervalUnion.from_text` parses, and the
endpoints and measure handed back.  No floating point enters any decision.

Under the half-open representation a union is non-empty iff it has positive
measure iff it has non-empty interior, which is what lets "non-empty
interior" checks reduce to an exact measure comparison.

The module also holds the package's JSON edges.  :func:`dumps` is the one
writer of every report and file: it reproduces ``json.dumps(doc, indent=2,
sort_keys=True)`` byte for byte, with json's C encoder doing the work that
an indent alone would leave to json's pure-Python encoder.
"""

from __future__ import annotations

import json
import json.encoder
import math
import re
import sys
from decimal import Context
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Fraction | int


def as_fraction(x: RationalLike) -> Fraction:
    """A Fraction unchanged and an int as a Fraction; anything else, a float
    or a string among them, is a TypeError naming its type, so no value
    rests on a binary approximation or on text the caller did not parse."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse a rational written ``"num/den"`` or as an integer, in ASCII
    digits with at most a leading "-": ``-?[0-9]+(/[0-9]+)?`` and nothing
    else, so never "+1", " 1 / 2", "1_0" or other digits.  Any other text or
    a value that is not a string is a ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"must be a rational string, got {json.dumps(text, default=repr)}")
    return _rational(text)


@lru_cache(maxsize=1024)
def _rational(text: str) -> Fraction:
    """``parse_rational`` of a string, cached: input files repeat a few
    rationals many times over."""
    if _RATIONAL_TEXT.fullmatch(text) is None:
        raise ValueError(f"cannot parse rational {text!r}")
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den or 1))


_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_RATIONAL_TEXT = re.compile(_RATIONAL)
_INTEGER_TEXT = re.compile(r"-?[0-9]+")


def parse_integer(text: str) -> int:
    """Parse an integer as :func:`parse_rational` reads a numerator: ``-?[0-9]+``
    and nothing else, so never "+4", " 4", "1_0" or other digits."""
    if _INTEGER_TEXT.fullmatch(text) is None:
        raise ValueError(f"expected integer, got {text!r}")
    return int(text)


def format_rational(q: RationalLike) -> str:
    """Render a rational as ``"num/den"`` (denominator kept even when 1)."""
    q = as_fraction(q)
    return f"{q.numerator}/{q.denominator}"


def read_json_object(path) -> dict:
    """The JSON object stored in a file; any other top level, or arrays and
    objects nested past the parser's recursion limit, is a ValueError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("must hold a JSON object")
    return doc


def write_json(doc: dict, path) -> None:
    """Write a JSON object to a file as :func:`dumps` does, newline-terminated."""
    text = dumps(doc) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    With an indent, ``json`` encodes the whole document in pure Python.
    Here a flat container, one whose members (and keys) are all exactly
    str, int, float, bool or None, is encoded by one call to json's C
    encoder, whose item separator carries the newline and indent; only the
    other containers are joined in Python.  Circular documents are not
    detected.
    """
    return _dumps(doc, 0)


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _dumps(value, depth: int) -> str:
    inner, outer, encode = _layout(depth)
    if isinstance(value, (list, tuple)):
        if _SCALARS.issuperset(map(type, value)):
            return _spread(encode(value), inner, outer)
        items = [_dumps(v, depth + 1) for v in value]
        return f"[{inner}{f',{inner}'.join(items)}{outer}]"
    if isinstance(value, dict):
        # keys too: json's C encoder words its error on some bad keys unlike json
        flat = _SCALARS.issuperset(map(type, value.values()))
        if flat and _SCALARS.issuperset(map(type, value)):
            return _spread(encode(value), inner, outer)
        items = [
            f"{_key(k)}: {_dumps(v, depth + 1)}"
            for k, v in sorted(value.items(), key=itemgetter(0))
        ]
        return f"{{{inner}{f',{inner}'.join(items)}{outer}}}"
    return encode(value)  # a scalar, or the TypeError json raises


def _spread(text: str, inner: str, outer: str) -> str:
    """A flat container's text with its first member and its closing
    bracket moved onto lines of their own; "[]" and "{}" stay."""
    if len(text) == 2:
        return text
    return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"


def _key(key) -> str:
    """An object key as json writes it: a string, or the quoted JSON text of
    a number, a boolean or None."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = json.dumps(key)
    return json.encoder.encode_basestring_ascii(key)


@lru_cache(maxsize=None)
def _layout(depth: int):
    """For a container at `depth`: the newline and indent before each member,
    the one before the closing bracket, and an encoder of flat containers
    whose item separator is "," and the first."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    make = json.encoder.c_make_encoder
    if make is None:
        encode = json.JSONEncoder(separators=("," + inner, ": "), sort_keys=True).encode
    else:
        # markers (none: a flat container cannot be circular), default, string
        # encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan
        encoder = make(
            None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
            ": ", "," + inner, True, False, True,
        )

        def encode(value) -> str:
            return "".join(encoder(value, 0))
    return inner, outer, encode


def json_int(value, what: str) -> int:
    """A JSON integer read from a document; a float, a boolean or any other
    value is a ValueError naming `what`."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def json_list(value, what: str) -> list:
    """A JSON array read from a document; any other value, a string too, is a
    ValueError naming `what`."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {json.dumps(value)}")
    return value


def json_object(value, what: str) -> dict:
    """A JSON object read from a document; any other value is a ValueError
    naming `what`."""
    if type(value) is not dict:
        raise ValueError(f"{what} must be an object, got {json.dumps(value)}")
    return value


def json_key(key: str, what: str) -> int:
    """An integer written as a JSON object key.  Only its canonical decimal
    string is accepted: "5" and "-5", never "05", "+5", " 5" or "0_5"."""
    try:
        value = int(key)
    except (TypeError, ValueError):
        pass
    else:
        if str(value) == key:
            return value
    raise ValueError(f"{what} must be a decimal integer, got {json.dumps(key)}")


def decimal12(q: RationalLike) -> str:
    """Render a rational as a decimal with 12 significant digits: the
    ``.12g`` text of its float, or of its exact value past the float range
    or, when it is not 0, below the normal floats (where a float loses
    digits or underflows to 0)."""
    try:
        x = float(q)
    except OverflowError:
        x = None
    if x is None or (q and abs(x) < sys.float_info.min):
        return f"{Context(prec=12).divide(q.numerator, q.denominator).normalize():.12g}"
    return f"{x:.12g}"


class IntervalUnion:
    """A normalized finite union of half-open rational intervals in [0, 1).

    Instances are immutable and hashable.  ``IntervalUnion(D, pairs)`` is
    the union of the intervals ``[lo / D, hi / D)`` for integer pairs over a
    positive integer D: it drops empty pairs (``lo == hi``), checks the rest
    in the order given and merges overlapping or touching ones.  A union is
    stored as its :attr:`denominator`, the least common denominator of its
    endpoints, and the sorted, merged integer pairs over it; that form is
    canonical, so two unions describing the same point set always compare
    equal.  ``union_all`` and ``intersect`` return the constructor's union of their pairs.
    """

    __slots__ = ("_den", "_pairs")

    def __init__(self, D: int, pairs: Iterable[Tuple[int, int]] = ()):
        if D < 1:
            raise ValueError(f"denominator {D} must be positive")
        kept = []
        for lo, hi in pairs:
            if lo != hi:
                if not 0 <= lo < hi <= D:
                    raise ValueError(
                        f"invalid interval [{Fraction(lo, D)}, {Fraction(hi, D)}) in [0,1)"
                    )
                kept.append((lo, hi))
        kept.sort()
        merged, end = [], -1  # the merged pairs, and the end of the last
        for lo, hi in kept:
            if lo > end:
                merged.append((lo, hi))
                end = hi
            elif hi > end:
                merged[-1], end = (merged[-1][0], hi), hi
        g = math.gcd(D, *(x for pair in merged for x in pair))
        if g > 1:
            D, merged = D // g, [(lo // g, hi // g) for lo, hi in merged]
        self._den, self._pairs = D, tuple(merged)

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls(1, ((0, 1),))

    @classmethod
    def union_all(cls, unions: Iterable["IntervalUnion"]) -> "IntervalUnion":
        unions = list(unions)
        D = math.lcm(*(u._den for u in unions))
        return cls(D, [
            (lo * m, hi * m) for u in unions for m in (D // u._den,) for lo, hi in u._pairs
        ])

    @property
    def denominator(self) -> int:
        """The least common denominator D of the endpoints (1 when empty)."""
        return self._den

    def scaled(self, D: int) -> Tuple[Tuple[int, int], ...]:
        """The sorted pairs ``(lo * D, hi * D)``; D a multiple of :attr:`denominator`."""
        m, r = divmod(D, self._den)
        if r or m < 1:
            raise ValueError(f"{D} is not a multiple of the denominator {self._den}")
        if m == 1:
            return self._pairs
        return tuple((lo * m, hi * m) for lo, hi in self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntervalUnion)
            and self._den == other._den
            and self._pairs == other._pairs
        )

    def __hash__(self) -> int:
        return hash((self._den, self._pairs))

    def __repr__(self) -> str:
        return f"IntervalUnion({self.to_text()!r})"

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(hi - lo for lo, hi in self._pairs), self._den)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        D = math.lcm(self._den, other._den)
        a, b = self.scaled(D), other.scaled(D)
        out = []
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
        return IntervalUnion(D, out)

    def to_text(self) -> str:
        """Textual form ``"[a/b,c/d),..."``; the empty union reads "empty"."""
        if not self._pairs:
            return "empty"
        D = self._den

        def text(x: int) -> str:
            g = math.gcd(x, D)
            return f"{x // g}/{D // g}"

        return ",".join(f"[{text(lo)},{text(hi)})" for lo, hi in self._pairs)

    @classmethod
    def from_text(cls, text: str) -> "IntervalUnion":
        """The union written by :meth:`to_text`; "" also reads as empty,
        whitespace may pad an endpoint and may follow the comma between two
        intervals.  Any other text or a value that is not a string is a
        ValueError, and so is an endpoint that ``parse_rational`` would not
        read."""
        if not isinstance(text, str):
            raise ValueError(
                f"must be an interval union string, got {json.dumps(text, default=repr)}"
            )
        s = text.strip()
        if s in ("", "empty"):
            return cls(1)
        if not _UNION_TEXT.fullmatch(s):
            raise ValueError(f"malformed interval union: {text!r}")
        ends = [_rational(x).as_integer_ratio() for pair in _INTERVAL_TEXT.findall(s) for x in pair]
        D = math.lcm(*{q for _, q in ends})
        scaled = iter([p * (D // q) for p, q in ends])
        return cls(D, zip(scaled, scaled))


_INTERVAL_TEXT = re.compile(rf"\[\s*({_RATIONAL})\s*,\s*({_RATIONAL})\s*\)")
_UNION_TEXT = re.compile(rf"{_INTERVAL_TEXT.pattern}(?:,\s*{_INTERVAL_TEXT.pattern})*")
