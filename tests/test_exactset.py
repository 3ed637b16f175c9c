from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gapdim.exactset import (
    IntervalUnion,
    decimal12,
    format_rational,
    parse_rational,
)

F = Fraction


def iu(*pairs):
    return IntervalUnion([(F(a, b), F(c, d)) for a, b, c, d in pairs])


# Small rational endpoints keep hypothesis cases exact and readable.
endpoints = st.fractions(min_value=0, max_value=1, max_denominator=32)


@st.composite
def interval_unions(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    pairs = []
    for _ in range(n):
        a = draw(endpoints)
        b = draw(endpoints)
        if a != b:
            pairs.append((min(a, b), max(a, b)))
    return IntervalUnion(pairs)


class TestMeasure:
    def test_single_interval(self):
        assert iu((0, 1, 1, 2)).measure == F(1, 2)

    def test_empty(self):
        assert IntervalUnion.empty().measure == 0

    def test_disjoint_sum(self):
        assert iu((0, 1, 1, 4), (1, 2, 3, 4)).measure == F(1, 2)


class TestIntersect:
    def test_overlap(self):
        assert iu((0, 1, 1, 2)) & iu((1, 4, 3, 4)) == iu((1, 4, 1, 2))

    def test_with_empty(self):
        assert (iu((0, 1, 1, 2)) & IntervalUnion.empty()).is_empty

    def test_endpoint_arithmetic(self):
        a = iu((0, 1, 1, 8), (1, 2, 5, 8))
        b = iu((1, 16, 9, 16))
        assert a & b == iu((1, 16, 1, 8), (1, 2, 9, 16))


class TestInteriorPoint:
    def test_midpoint(self):
        assert iu((1, 4, 1, 2)).interior_point() == F(3, 8)

    def test_empty_is_none(self):
        assert IntervalUnion.empty().interior_point() is None

    def test_longest_interval_wins(self):
        assert iu((0, 1, 1, 8), (1, 2, 1, 1)).interior_point() == F(3, 4)

    def test_leftmost_on_ties(self):
        assert iu((0, 1, 1, 4), (1, 2, 3, 4)).interior_point() == F(1, 8)


class TestNormalization:
    def test_merges_touching(self):
        assert iu((0, 1, 1, 4), (1, 4, 1, 2)) == iu((0, 1, 1, 2))

    def test_merges_overlap(self):
        assert iu((0, 1, 3, 8), (1, 4, 1, 2)) == iu((0, 1, 1, 2))

    def test_drops_empty_pairs(self):
        assert IntervalUnion([(F(1, 2), F(1, 2))]).is_empty

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IntervalUnion([(F(1, 2), F(3, 2))])
        with pytest.raises(ValueError):
            IntervalUnion([(F(3, 4), F(1, 4))])

    @given(interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, u):
        assert IntervalUnion(tuple(u)) == u


class TestAlgebra:
    @given(interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_complement_measure(self, u):
        assert u.measure + u.complement().measure == 1

    @given(interval_unions(), interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_intersect_commutative(self, a, b):
        assert a & b == b & a

    @given(interval_unions(), interval_unions(), interval_unions())
    @settings(max_examples=60, deadline=None)
    def test_intersect_associative(self, a, b, c):
        assert (a & b) & c == a & (b & c)

    @given(interval_unions(), interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_intersect_monotone_in_measure(self, a, b):
        assert (a & b).measure <= min(a.measure, b.measure)

    @given(interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_interior_point_membership(self, u):
        p = u.interior_point()
        if p is None:
            assert u.is_empty
        else:
            assert p in u

    def test_membership_at_ends_and_between_intervals(self):
        u = iu((1, 8, 1, 4), (1, 2, 3, 4))
        inside = [F(1, 8), F(3, 16), F(1, 2), F(5, 8), F(3, 4) - F(1, 10**12)]
        outside = [F(-1, 8), 0, F(1, 4), F(3, 8), F(3, 4), F(7, 8), 1, F(5, 4)]
        assert all(x in u for x in inside)
        assert not any(x in u for x in outside)
        assert F(1, 2) not in IntervalUnion.empty() and 0 in IntervalUnion.full()

    @given(interval_unions(), interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_union_measure(self, a, b):
        assert (a | b).measure == a.measure + b.measure - (a & b).measure


class TestText:
    def test_round_trip(self):
        u = iu((0, 1, 1, 8), (1, 2, 5, 8))
        assert IntervalUnion.from_text(u.to_text()) == u

    @given(interval_unions())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random(self, u):
        assert IntervalUnion.from_text(u.to_text()) == u

    def test_empty_text(self):
        assert IntervalUnion.empty().to_text() == "empty"
        assert IntervalUnion.from_text("empty").is_empty

    def test_format(self):
        assert iu((1, 4, 1, 2)).to_text() == "[1/4,1/2)"


class TestRationalText:
    def test_parse(self):
        assert parse_rational("3/10") == F(3, 10)
        assert parse_rational("2") == 2

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_format(self):
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(2) == "2/1"

    def test_decimal12(self):
        assert decimal12(F(1, 3)) == "0.333333333333"
