import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gapdim import (
    Function,
    FunctionClass,
    IntervalUnion,
    all_patterns,
    full_join_family,
    generate,
    interval_indicators,
    k_of_gamma,
    non_adjacent,
    random_step,
    segment,
    segment_partition,
    thresholds,
)
from gapdim import ergoproc, funclass
from gapdim.funclass import (
    InvalidResolution,
    Partition,
    SegmentIndexOutOfRange,
    cell_bands,
    class_from_json,
    class_to_json,
    load_class,
    refinement,
    save_class,
    trajectory_indicators,
    value_rows,
    values_at,
)
from gapdim.exactset import write_json
from gapdim.rng import SplitMix64
from gapdim.shatter import candidate_points, join
from oracles import (
    OracleIntervalUnion,
    fraction_pairs,
    oracle_band_of_value,
    oracle_class_doc,
    oracle_constant,
    oracle_full_join_family,
    oracle_indicator,
    oracle_interval_indicators,
    oracle_on_cells,
    oracle_random_step,
    oracle_refinement,
    oracle_segment_partition,
    oracle_step,
    oracle_step_class,
    oracle_step_class_from_json,
    oracle_thresholds,
    oracle_trajectory_indicators,
    oracle_value_at,
    oracle_values_at,
    randbelow,
    union_of,
)

F = Fraction


class TestKOfGamma:
    def test_integer_inverse(self):
        assert k_of_gamma(F(1, 4)) == 4

    def test_fractional_inverse(self):
        assert k_of_gamma(F(3, 10)) == 4  # floor(10/3) + 1

    def test_gamma_one(self):
        assert k_of_gamma(1) == 1

    @pytest.mark.parametrize("bad", [0, F(-1, 2), F(3, 2)])
    def test_invalid(self, bad):
        with pytest.raises(InvalidResolution):
            k_of_gamma(bad)


def one(f: Function) -> FunctionClass:
    """The class of f alone, whose segments are f's."""
    return FunctionClass([f])


class TestSegments:
    def test_ramp_band2(self, ramp8):
        # enumerate pieces with value in [1/4, 1/2)
        assert segment(one(ramp8), 0, F(1, 4), 2) == union_of([(F(1, 4), F(1, 2))])

    def test_constant_zero_band1(self):
        f = oracle_constant(0)
        assert segment(one(f), 0, F(1, 4), 1) == IntervalUnion.full()

    def test_constant_one_top_band_inclusive(self):
        f = oracle_constant(1)
        assert segment(one(f), 0, F(1, 4), 4) == IntervalUnion.full()

    def test_out_of_range(self, ramp8):
        with pytest.raises(SegmentIndexOutOfRange):
            segment(one(ramp8), 0, F(1, 4), 5)

    def test_tabular_returns_points(self):
        f = Function.tabular([F(1, 4), F(3, 4)], [F(1, 8), F(7, 8)])
        assert segment(one(f), 0, F(1, 2), 1) == (F(1, 4),)
        assert segment(one(f), 0, F(1, 2), 2) == (F(3, 4),)

    @pytest.mark.parametrize("FC", [thresholds(3), all_patterns(2)], ids=repr)
    @pytest.mark.parametrize("i", [-1, -4, 4, 100])
    def test_function_index_outside_the_class(self, FC, i):
        n = len(FC)
        with pytest.raises(ValueError, match=rf"function index {i} outside \[0, {n}\)"):
            segment(FC, i, F(1, 4), 1)
        with pytest.raises(ValueError, match=rf"function index {i} outside \[0, {n}\)"):
            segment_partition(FC, i, F(1, 4))


class TestSegmentPartition:
    def test_gamma_one_single_segment(self, ramp8):
        parts = segment_partition(one(ramp8), 0, 1)
        assert parts == [IntervalUnion.full()]

    def test_constant_half(self):
        parts = segment_partition(one(oracle_constant(F(1, 2))), 0, F(1, 4))
        assert [p.measure for p in parts] == [0, 0, 1, 0]

    def test_ramp_quarters(self, ramp8):
        parts = segment_partition(one(ramp8), 0, F(1, 4))
        assert parts == [
            union_of([(F(j, 4), F(j + 1, 4))]) for j in range(4)
        ]

    @given(st.integers(0, 2**32), st.sampled_from([F(1, 5), F(1, 4), F(1, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_exact_partition(self, seed, gamma):
        parts = segment_partition(random_step(seed, pieces=6, grid=7), 0, gamma)
        assert sum((p.measure for p in parts), F(0)) == 1
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert not parts[i].intersect(parts[j])

    def test_band_membership_matches_pointwise(self, ramp8):
        gamma = F(1, 4)
        parts = segment_partition(one(ramp8), 0, gamma)
        rng = SplitMix64(5)
        for _ in range(200):
            x = rng.unit_fraction()
            k = oracle_band_of_value(oracle_value_at(ramp8, x), gamma)
            hits = [
                i + 1 for i, p in enumerate(parts) if x in OracleIntervalUnion(fraction_pairs(p))
            ]
            assert hits == [k]


class TestNonAdjacent:
    def test_pairs(self):
        assert non_adjacent(1, 3)
        assert not non_adjacent(2, 3)
        assert not non_adjacent(2, 2)


class TestGenerators:
    def test_thresholds_size_and_shape(self):
        FC = thresholds(4)
        assert len(FC) == 4
        assert oracle_value_at(FC[0], F(1, 2)) == 1
        assert oracle_value_at(FC[0], F(1, 8)) == 0
        assert all(oracle_value_at(FC[3], F(i, 8)) == 0 for i in range(8))

    def test_interval_indicators_count(self):
        assert len(interval_indicators(3)) == 6

    def test_all_patterns(self):
        FC = all_patterns(2)
        rows = [tuple(f.values) for f in FC.functions]
        assert rows == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_reproducible(self):
        a = random_step(9, pieces=5, grid=8, count=3)
        b = random_step(9, pieces=5, grid=8, count=3)
        assert all(fa == fb for fa, fb in zip(a.functions, b.functions))

    @pytest.mark.parametrize(
        "seed,pieces,grid,count",
        [(7, 64, 1, 100), (2, 3, 5, 2000), (1, 4097, 2, 1), (9, 5, 8, 3)],
    )
    def test_draws_match_per_call_randint(self, seed, pieces, grid, count):
        FC = random_step(seed, pieces, grid, count)
        oracle = oracle_random_step(seed, pieces, grid, count)
        assert list(FC) == list(oracle) and FC.name == oracle.name

    def test_generate_string_forms(self):
        assert len(generate("thresholds(8)")) == 8
        assert len(generate("all_patterns(2)")) == 4
        assert len(generate("random_step(3,4,8,count=2)")) == 2
        assert len(generate("full_join_family(1,1,3,1/5)")) == 2

    def test_generate_rejects_junk(self):
        with pytest.raises(ValueError, match="unknown generator 'nonsense'"):
            generate("nonsense(3)")
        with pytest.raises(ValueError, match="cannot parse generator spec 'thresholds'"):
            generate("thresholds")
        with pytest.raises(ValueError, match="expected integer, got 'x'"):
            generate("thresholds(x)")

    @pytest.mark.parametrize(
        "spec",
        [
            "thresholds(4,5)",
            "all_patterns(3,x=1)",
            "interval_indicators(3,,)",
            "full_join_family(1,1,3,1/5,9)",
            "random_step(1,4,8,3,bogus=2)",
            "random_step(1,4,8,3,5)",
            "random_step(1,4,8,seed=2)",
            "random_step(1,4,count=2,count=3)",
            "thresholds(n=4)",
            "trajectory_indicators(1/1000,2,1/7,9)",
            "trajectory_indicators(1/1000,2)",
        ],
    )
    def test_generate_rejects_wrong_arguments(self, spec):
        with pytest.raises(ValueError, match="wrong arguments"):
            generate(spec)

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("trajectory_indicators(x,2)", "cannot parse rational 'x'"),
            ("trajectory_indicators(1/7,x,y)", "expected integer, got 'x'"),
            ("trajectory_indicators(1/7,2,1/3+y)", "cannot parse rational 'y'"),
            ("random_step(x)", "expected integer, got 'x'"),
            ("random_step(1,2)", "wrong arguments in 'random_step(1,2)'"),
            ("full_join_family(1,1,3,x)", "cannot parse rational 'x'"),
            # integers are canonical, as rationals are: int() would take all three
            ("thresholds(1_0)", "expected integer, got '1_0'"),
            ("thresholds(+4)", "expected integer, got '+4'"),
            ("thresholds(\u0664)", "expected integer, got '\u0664'"),
        ],
    )
    def test_arguments_parse_in_spec_order(self, spec, message):
        """The first missing or unreadable argument, in spec order, is named."""
        with pytest.raises(ValueError, match=re.escape(message)):
            generate(spec)

    def test_random_step_keywords(self):
        by_keyword = generate("random_step(grid=8,seed=3,pieces=4,count=2)")
        assert list(by_keyword) == list(generate("random_step(3,4,8,count=2)"))
        assert list(by_keyword) == list(random_step(3, 4, 8, 2))
        assert list(generate("random_step(3,4,8)")) == list(random_step(3, 4, 8))


class TestFullJoinFamily:
    def test_l2_cells_and_full_join(self):
        FC = full_join_family(2, 1, 3, F(1, 5))
        assert len(FC) == 4
        # 16 domain cells, and the join of the band-(1,3) segment pairs
        # has all 16 cells, each of measure 1/16
        cells = join(FC, F(1, 5), 1, 3)
        assert len(cells) == 16
        assert all(c.cell.measure == F(1, 16) for c in cells)

    def test_rejects_adjacent_bands(self):
        with pytest.raises(ValueError, match=r"bands \(2, 3\) must be non-adjacent"):
            full_join_family(2, 2, 3, F(1, 5))

    def test_values_sit_midband(self):
        FC = full_join_family(1, 1, 3, F(1, 5))
        values = {v for f in FC for v in f.values}
        assert values == {F(1, 10), F(1, 2)}


class TestJsonRoundTrip:
    def test_step_class(self, ramp8):
        FC = FunctionClass([ramp8, oracle_constant(F(1, 3))], "mix")
        doc = class_to_json(FC)
        back = class_from_json(doc)
        assert back.name == "mix"
        assert refinement(back) == refinement(FC)
        assert class_to_json(back) == doc

    def test_tabular_class(self):
        FC = all_patterns(3)
        back = class_from_json(class_to_json(FC))
        assert back.domain_points == FC.domain_points
        assert all(a == b for a, b in zip(back.functions, FC.functions))


class TestValidation:
    """Faulty pieces are named by a Partition, by Function.step, which builds
    one, and by the per-function oracle alike."""

    @staticmethod
    def all_raise(pieces, message):
        with pytest.raises(ValueError, match=message):
            Partition(pieces)
        for build in (Function.step, oracle_step):
            with pytest.raises(ValueError, match=message):
                build(pieces, [0] * len(pieces))

    def test_step_keeps_fraction_values(self):
        half = F(1, 2)
        assert Function.step([IntervalUnion.full()], [half]).values[0] is half
        assert Function.step([IntervalUnion.full()], [1]).values == (F(1),)

    def test_step_must_cover(self):
        self.all_raise([union_of([(0, F(1, 2))])], r"must cover \[0, 1\)")

    def test_step_must_be_disjoint(self):
        # the pieces cover [0, 1) and overlap on [1/2, 3/4)
        self.all_raise(
            [union_of([(0, F(3, 4))]), union_of([(F(1, 2), 1)])],
            "pairwise disjoint",
        )

    @pytest.mark.parametrize(
        "pieces",
        [
            # a gap whose measure the overlap makes up: the measures sum to 1
            [union_of([(0, F(1, 2))]), union_of([(F(1, 4), F(3, 4))])],
            # a gap and an overlap that do not balance
            [union_of([(0, F(1, 2))]), union_of([(F(1, 4), F(1, 2))])],
            [union_of([(F(1, 4), 1)]), union_of([(F(1, 2), 1)])],
        ],
    )
    def test_step_gap_and_overlap_reports_the_gap(self, pieces):
        self.all_raise(pieces, r"must cover \[0, 1\)")

    def test_no_pieces(self):
        with pytest.raises(ValueError, match=r"must cover \[0, 1\)"):
            Partition([])
        with pytest.raises(ValueError, match="one value per piece"):
            Function.step([], [])

    def test_values_in_unit_range(self):
        with pytest.raises(ValueError):
            oracle_constant(F(3, 2))

    def test_class_kinds_must_match(self, ramp8):
        tab = Function.tabular([F(1, 2)], [F(1, 2)])
        with pytest.raises(ValueError):
            FunctionClass([ramp8, tab])

    @pytest.mark.parametrize(
        "points", [[F(1, 2), F(1, 4)], [F(1, 4), F(1, 4)], [0, F(1, 2), F(1, 2), F(3, 4)]]
    )
    def test_tabular_points_sorted_and_distinct(self, points):
        with pytest.raises(ValueError, match="sorted and distinct"):
            Function.tabular(points, [0] * len(points))

    @pytest.mark.parametrize("values", [[], ["0"], ["0", "1/2", "1"]], ids=len)
    def test_tabular_rows_need_one_value_per_point(self, values):
        doc = {"kind": "tabular", "points": ["1/4", "1/2"], "functions": [
            {"values": ["1/3", "2/3"]}, {"values": values},
        ]}
        with pytest.raises(ValueError, match="tabular function needs one value per point"):
            class_from_json(doc)
        with pytest.raises(ValueError, match="tabular function needs one value per point"):
            Function.tabular([F(1, 4), F(1, 2)], [F(0)] * len(values))

    def test_tabular_domains_must_match(self):
        a = Function.tabular([F(1, 4)], [0])
        b = Function.tabular([F(1, 2)], [0])
        with pytest.raises(ValueError):
            FunctionClass([a, b])


class TestTabularSegments:
    def test_pointwise_recomputation_over_domain(self):
        FC = all_patterns(3)
        for gamma in (F(1, 4), F(2, 5)):
            for i, f in enumerate(FC.functions):
                parts = segment_partition(FC, i, gamma)
                for x in FC.domain_points:
                    k = oracle_band_of_value(oracle_value_at(f, x), gamma)
                    assert x in parts[k - 1]
                    assert all(
                        x not in p for i, p in enumerate(parts) if i != k - 1
                    )


def table_classes():
    return [
        thresholds(5),
        interval_indicators(4),
        full_join_family(2, 1, 3, F(1, 5)),
        random_step(3, 7, 5, 4),
        FunctionClass(
            [
                Function.step(
                    [union_of([(0, F(1, 3)), (F(2, 3), 1)]),
                     union_of([(F(1, 3), F(2, 3))])],
                    [F(1, 4), F(3, 4)],
                ),
                oracle_indicator(union_of([(F(1, 5), F(1, 2))])),
            ]
        ),
    ]


class TestRefinement:
    @pytest.mark.parametrize("FC", table_classes())
    def test_functions_constant_on_cells(self, FC):
        C, cuts, V, rows = refinement(FC)
        assert cuts[0] == 0 and cuts[-1] == C
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert len(rows) == len(FC)
        for f, row in zip(FC.functions, rows):
            assert len(row) == len(cuts) - 1
            for piece, value in zip(f.pieces, f.values):
                for lo, hi in fraction_pairs(piece):
                    assert lo * C in cuts and hi * C in cuts
                    # every cell inside [lo, hi) carries this piece's value
                    inner = range(cuts.index(lo * C), cuts.index(hi * C))
                    assert all(F(row[j], V) == value for j in inner)

    def test_tabular_rejected(self):
        with pytest.raises(ValueError):
            refinement(all_patterns(2))


TABLE_CLASSES = (
    [thresholds(n) for n in (1, 2, 7)]
    + [interval_indicators(n) for n in (1, 3, 6)]
    + [full_join_family(L, 1, 3, F(1, 5)) for L in (1, 2, 3)]
    + [full_join_family(2, 4, 1, F(2, 9))]
    + [random_step(s, p, g, c) for s, (p, g, c) in enumerate(
        [(1, 1, 1), (1, 7, 3), (2, 3, 5), (5, 12, 4), (9, 6, 2), (13, 100, 3), (16, 8, 9)]
    )]
    + table_classes()[-1:]
)

TABULAR_CLASSES = [
    all_patterns(1),
    all_patterns(3),
    trajectory_indicators(F(1, 7), [0, F(1, 14)], 2),
    FunctionClass([
        Function.tabular([F(i, 9) for i in range(9)], [F((i * j) % 11, 10) for i in range(9)])
        for j in range(6)
    ], "tab"),
]


class TestTableMatchesFractionRefinement:
    """The integer table is the Fraction refinement scaled by C and V."""

    @pytest.mark.parametrize("FC", TABLE_CLASSES, ids=repr)
    def test_cuts_and_values(self, FC):
        C, cuts, V, rows = refinement(FC)
        ocuts, ocolumns = oracle_refinement(FC)
        assert list(cuts) == [c * C for c in ocuts]
        assert [tuple(F(v, V) for v in row) for row in rows] == ocolumns
        assert all(type(x) is int for x in (C, V, *cuts, *(v for r in rows for v in r)))

    @pytest.mark.parametrize("FC", TABLE_CLASSES, ids=repr)
    def test_values_at_points(self, FC):
        # 0, cuts, points just left of cuts and points between cells
        C = refinement(FC)[0]
        rng = SplitMix64(len(FC))
        pts = [F(0), F(1, 2), F(1, 3), F(1, 3) - F(1, 10**9), F(999, 1000)]
        pts += [F(randbelow(rng, 7 * C), 7 * C) for _ in range(6)]
        V, columns = values_at(FC, pts)
        for x, column in zip(pts, columns):
            assert [F(v, V) for v in column] == [oracle_value_at(f, x) for f in FC.functions]

    @pytest.mark.parametrize("x", [F(-1, 8), F(1), F(9, 8)])
    def test_step_point_outside_unit_interval(self, x):
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            values_at(thresholds(3), [F(1, 2), x])

    def test_tabular_points(self):
        FC = FunctionClass([
            Function.tabular([0, F(1, 3), F(1, 2)], [F(1, 6), 1, F(1, 4)]),
            Function.tabular([0, F(1, 3), F(1, 2)], [0, F(2, 3), F(3, 10)]),
        ])
        assert values_at(FC, [F(1, 2), 0]) == (60, [(15, 18), (10, 0)])
        with pytest.raises(ValueError, match="not a tabular domain point"):
            values_at(FC, [F(1, 4)])

    def test_fraction_points_build_no_fraction(self, fractions_built):
        step, tabular = thresholds(4), all_patterns(3)
        value_rows(step), value_rows(tabular)  # both tables exist beforehand
        queries = [(step, [F(1, 8), F(5, 8)]), (tabular, list(tabular.domain_points))]
        fractions_built.clear()
        for FC, pts in queries:
            values_at(FC, pts)
        assert fractions_built == []


class TestStepRow:
    """A STEP function is its integer row; ``values_at`` on its class of one
    reads its value at a point."""

    @pytest.mark.parametrize("FC", TABLE_CLASSES, ids=repr)
    def test_value_at_is_the_value_of_the_piece_holding_x(self, FC):
        C, cuts = refinement(FC)[:2]
        rng = SplitMix64(len(FC) + 7)
        pts = [F(0), F(1, 3), F(999, 1000)]
        pts += [F(c, C) for c in cuts[1:-1]]  # on cuts
        pts += [F(c, C) - F(1, 10**12) for c in cuts[1:]]  # just left of cuts
        pts += [F(randbelow(rng, 10**6), 10**6) for _ in range(8)]
        for f in FC.functions:
            V, columns = values_at(one(f), pts)
            for x, (v,) in zip(pts, columns):
                assert F(v, V) == oracle_value_at(f, x), (f, x)
            for x in (F(-1, 8), F(-1, 10**12), F(1), F(9, 8)):
                assert oracle_value_at(f, x) is None
                with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
                    values_at(one(f), [x])

    def test_pieces_in_another_order_are_equal(self):
        a = union_of([(0, F(1, 3)), (F(2, 3), 1)])
        b = union_of([(F(1, 3), F(2, 3))])
        f, g = Function.step([a, b], [F(1, 4), F(3, 4)]), Function.step([b, a], [F(3, 4), F(1, 4)])
        assert f == g and hash(f) == hash(g)
        # the intervals of one piece given as pieces of their own: same row
        split = Function.step(
            [union_of([(0, F(1, 3))]), b, union_of([(F(2, 3), 1)])],
            [F(1, 4), F(3, 4), F(1, 4)],
        )
        assert split == f and hash(split) == hash(f)

    def test_a_piece_split_in_two_is_not_the_unsplit_piece(self):
        halves = Function.step(
            [union_of([(0, F(1, 2))]), union_of([(F(1, 2), 1)])], [0, 0]
        )
        assert halves != oracle_constant(0)
        assert values_at(one(halves), [F(1, 3)]) == values_at(one(oracle_constant(0)), [F(1, 3)])
        assert oracle_constant(F(1, 2)) != oracle_constant(F(1, 3))


class TestSharedDomain:
    """A TABULAR class checks and indexes its one domain once."""

    @pytest.fixture
    def domain_checks(self, monkeypatch):
        sizes = []

        class CountingDomain(funclass.Domain):
            def __new__(cls, points):
                points = list(points)
                sizes.append(len(points))
                return super().__new__(cls, points)

        monkeypatch.setattr(funclass, "Domain", CountingDomain)
        return sizes

    def test_trajectory_indicators_check_the_domain_once(self, domain_checks):
        FC = trajectory_indicators(F(2, 7) + F(1, 10**6), [F(j, 11) for j in range(1, 4)], 9)
        assert domain_checks == [3 * 19]
        assert all(f.points is FC.domain_points for f in FC.functions)
        assert [sum(f.values) for f in FC.functions] == [19] * 3

    def test_generated_and_loaded_classes_check_the_domain_once(self, domain_checks, tmp_path):
        FC = all_patterns(4)
        save_class(FC, tmp_path / "class.json")
        loaded = load_class(tmp_path / "class.json")
        assert domain_checks == [4, 4]
        for G in (FC, loaded):
            assert all(f.points is G.domain_points for f in G.functions)
        assert list(loaded) == list(FC)

    @pytest.mark.parametrize(
        "points", [[F(-1, 4)], [F(1)], [F(1, 2), F(3, 2)], [0, F(1, 2), F(9, 8)]]
    )
    def test_tabular_points_in_unit_interval(self, points):
        with pytest.raises(ValueError, match=r"tabular points must lie in \[0, 1\)"):
            Function.tabular(points, [0] * len(points))
        doc = {"kind": "tabular", "points": [str(p) for p in points],
               "functions": [{"values": ["0"] * len(points)}]}
        with pytest.raises(ValueError, match=r"tabular points must lie in \[0, 1\)"):
            class_from_json(doc)


ORACLE_CLASSES = (
    [random_step(s, p, g, c) for s, (p, g, c) in enumerate([
        (1, 1, 1), (1, 2, 4), (2, 3, 5), (3, 7, 6), (5, 12, 4), (8, 16, 32),
        (9, 6, 2), (13, 100, 3), (16, 8, 9), (24, 16, 12), (64, 1, 24), (31, 7, 40),
    ])]
    + [thresholds(n) for n in (1, 4, 9)]
    + [interval_indicators(n) for n in (1, 5)]
    + [full_join_family(L, 1, 3, F(1, 5)) for L in (1, 3)]
    + [full_join_family(2, 4, 1, F(2, 9))]
    + [FunctionClass([
        oracle_constant(0), oracle_constant(F(2, 7)), oracle_constant(1),
        oracle_indicator(union_of([(0, F(1, 3)), (F(2, 3), 1)])),
        oracle_indicator(IntervalUnion(1)), oracle_indicator(IntervalUnion.full()),
    ], "constants and indicators")]
    + table_classes()[-1:]
)


def as_built(FC):
    """What a class is built into: its rows, its table and its JSON."""
    return [f._row for f in FC], refinement(FC), class_to_json(FC)


@pytest.fixture
def union_alls(monkeypatch):
    """The number of pieces of every ``union_all`` call."""
    calls = []
    union_all = IntervalUnion.union_all.__func__

    def counting(cls, unions):
        unions = list(unions)
        calls.append(len(unions))
        return union_all(cls, unions)

    monkeypatch.setattr(IntervalUnion, "union_all", classmethod(counting))
    return calls


class TestSharedPartition:
    """STEP pieces are a Partition, checked once and shared by a class's functions."""

    @pytest.mark.parametrize("FC", ORACLE_CLASSES, ids=repr)
    def test_built_as_each_function_built_itself(self, FC):
        assert as_built(FC) == as_built(oracle_step_class(FC))

    @pytest.mark.parametrize("FC", ORACLE_CLASSES, ids=repr)
    def test_saved_class_loads_as_the_oracle_reads_it(self, FC, tmp_path):
        save_class(FC, tmp_path / "class.json")
        doc = json.loads((tmp_path / "class.json").read_text())
        loaded = load_class(tmp_path / "class.json")
        assert refinement(loaded) == refinement(oracle_step_class_from_json(doc))
        assert class_to_json(loaded) == doc and refinement(loaded) == refinement(FC)

    @pytest.mark.parametrize("FC", ORACLE_CLASSES, ids=repr)
    def test_a_file_of_own_pieces_loads_as_the_oracle_reads_it(self, FC, tmp_path):
        doc = oracle_class_doc(FC)
        write_json(doc, tmp_path / "class.json")
        loaded = load_class(tmp_path / "class.json")
        assert refinement(loaded) == refinement(oracle_step_class_from_json(doc))
        assert refinement(loaded) == refinement(FC) and loaded.name == FC.name

    @pytest.mark.parametrize("seed", range(5))
    def test_random_step_checks_no_cells(self, union_alls, seed):
        FC = random_step(seed, 16, 8, 32)
        assert union_alls == []
        assert isinstance(FC[0].pieces, Partition)
        assert all(f.pieces is FC[0].pieces for f in FC.functions)

    def test_a_file_repeating_piece_lists_checks_each_once(self, union_alls, tmp_path):
        a, b = random_step(3, 12, 8, 5), random_step(4, 5, 3, 4)
        mixed = FunctionClass([f for pair in zip(a, b) for f in pair] + [a[4]], "mixed")
        write_json(oracle_class_doc(mixed), tmp_path / "class.json")
        union_alls.clear()
        loaded = load_class(tmp_path / "class.json")
        assert sorted(union_alls) == [5, 12]
        assert refinement(loaded) == refinement(mixed)
        assert class_to_json(loaded) == class_to_json(mixed)

    def test_ends_and_owners(self):
        outer = union_of([(0, F(1, 3)), (F(2, 3), 1)])
        pieces = Partition([outer, union_of([(F(1, 3), F(2, 3))])])
        assert list(pieces) == [outer, union_of([(F(1, 3), F(2, 3))])]
        assert (pieces.D, pieces.ends, pieces.owners) == (3, (1, 2, 3), (0, 1, 0))
        f = Function.step(pieces, [F(1, 4), F(3, 4)])
        assert f.pieces is pieces
        assert f._row == oracle_step(list(pieces), f.values)._row == (3, (1, 2, 3), 4, (1, 3, 1))

    @pytest.mark.parametrize("value", [F(-1, 4), F(5, 4), F(-1), F(2), F(10**12 + 1, 10**12)])
    def test_a_value_outside_the_unit_range_is_reported_first(self, value):
        gap = [union_of([(0, F(1, 2))])]  # the pieces are at fault too
        for build in (Function.step, oracle_step):
            with pytest.raises(ValueError, match=rf"value {value} outside \[0, 1\]"):
                build(gap, [value])
        doc = {"kind": "step", "functions": [
            {"pieces": [{"set": "[0/1,1/2)", "value": str(value)}]},
        ]}
        with pytest.raises(ValueError, match=rf"value {value} outside \[0, 1\]"):
            class_from_json(doc)

    @pytest.mark.parametrize("value", [0, 1, F(1, 3), F(10**12 - 1, 10**12)])
    def test_values_at_the_ends_of_the_range_are_accepted(self, value):
        assert Function.step(Partition([IntervalUnion.full()]), [value]).values == (value,)
        assert Function.tabular([F(1, 2)], [value]).values == (value,)

    @pytest.mark.parametrize("value", [F(-1, 4), F(5, 4), F(10**12 + 1, 10**12)])
    def test_tabular_values_in_unit_range(self, value):
        with pytest.raises(ValueError, match=r"tabular values must lie in \[0, 1\]"):
            Function.tabular([0, F(1, 2)], [0, value])


class TestOneBandRule:
    """Segments, partitions and cell bands all put a value where the Fraction rule does."""

    FUNCTIONS = [
        random_step(4, 6, 4).functions[0],  # values on quarters, 1 included
        oracle_constant(1),
        oracle_indicator(union_of([(F(1, 3), F(2, 3))])),
        Function.tabular([0, F(1, 4), F(1, 2), F(3, 4)], [1, F(3, 4), 0, F(1, 4)]),
        Function.tabular([F(1, 3)], [1]),
    ]

    @pytest.mark.parametrize("f", FUNCTIONS, ids=repr)
    @pytest.mark.parametrize("gamma", [F(1, 4), F(1, 2), F(1), F(2, 7)])
    def test_partition_is_the_segments(self, f, gamma):
        K = k_of_gamma(gamma)
        assert segment_partition(one(f), 0, gamma) == [
            segment(one(f), 0, gamma, k) for k in range(1, K + 1)
        ]

    def test_value_one_lies_in_the_top_band(self):
        gamma = F(1, 4)  # 1/gamma is an integer, so K = 4 and 1 = K gamma
        assert segment_partition(one(oracle_constant(1)), 0, gamma)[3] == IntervalUnion.full()
        tab = one(Function.tabular([F(1, 3)], [1]))
        assert segment_partition(tab, 0, gamma)[3] == (F(1, 3),)

    @pytest.mark.parametrize("FC", TABLE_CLASSES, ids=repr)
    @pytest.mark.parametrize("gamma", [F(1, 4), F(1, 5), F(2, 7)])
    def test_cell_bands_match_the_fraction_rule(self, FC, gamma):
        C, cuts, _, _ = refinement(FC)
        bands = cell_bands(FC, gamma)
        for f, row in zip(FC.functions, bands):
            assert len(row) == len(cuts) - 1
            for j, k in enumerate(row):
                assert k == oracle_band_of_value(oracle_value_at(f, F(cuts[j], C)), gamma)

    @pytest.mark.parametrize("FC", TABULAR_CLASSES, ids=repr)
    @pytest.mark.parametrize("gamma", [F(1, 4), F(1, 5), F(2, 7), F(1, 2), F(1)])
    def test_tabular_cell_bands_are_the_bands_of_the_domain_points(self, FC, gamma):
        bands = cell_bands(FC, gamma)
        assert len(bands) == len(FC)
        for f, row in zip(FC.functions, bands):
            assert row == tuple(
                oracle_band_of_value(oracle_value_at(f, x), gamma) for x in FC.domain_points
            )

    GAMMAS = [F(1), F(1, 2), F(1, 4), F(1, 5), F(3, 10), F(2, 7), F(2, 9), F(5, 7)]

    @staticmethod
    def edge_values(gamma):
        """The band edges j * gamma in [0, 1], the value 1, and each edge's
        nearest neighbours over a finer denominator."""
        edges = [j * gamma for j in range(k_of_gamma(gamma) + 1) if j * gamma <= 1]
        eps = F(1, 7 * gamma.denominator)
        return sorted({v + d for v in edges + [F(1)] for d in (-eps, 0, eps) if 0 <= v + d <= 1})

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_tabular_bands_match_the_fraction_rule_on_edges(self, gamma):
        values = self.edge_values(gamma) + [F(v, 12) for v in range(13)]
        assert {0, gamma, 1} <= set(values)
        n = len(values)
        (row,) = cell_bands(one(Function.tabular([F(i, n) for i in range(n)], values)), gamma)
        assert row == tuple(oracle_band_of_value(v, gamma) for v in values)
        assert row[values.index(1)] == k_of_gamma(gamma)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_integer_bands_match_the_fraction_rule_on_edges(self, gamma):
        """Step and tabular functions whose values sit on every band edge:
        cell bands and segments both agree with the Fraction rule."""
        values = self.edge_values(gamma)
        W = math.lcm(*(v.denominator for v in values))
        n = len(values)
        f = Function.step(Partition([union_of([(F(i, n), F(i + 1, n))]) for i in range(n)]),
                          values)
        FC = FunctionClass([f, oracle_constant(1)])
        assert refinement(FC)[2] == W
        assert cell_bands(FC, gamma) == (
            tuple(oracle_band_of_value(v, gamma) for v in values), (k_of_gamma(gamma),) * n,
        )
        assert segment_partition(FC, 0, gamma) == oracle_segment_partition(f, gamma)
        g = Function.tabular([F(i, n) for i in range(n)], values)
        for k, points in enumerate(segment_partition(one(g), 0, gamma), 1):
            assert points == tuple(
                F(i, n) for i, v in enumerate(values) if oracle_band_of_value(v, gamma) == k
            )


def coarse_pieces_class() -> FunctionClass:
    """A class file's functions on pieces of several intervals each, coarser
    than the class's refinement cells, with values on band edges (1/4, 1/2)."""
    a, b = union_of([(0, F(1, 3)), (F(2, 3), 1)]), union_of([(F(1, 3), F(2, 3))])
    p = union_of([(0, F(1, 5)), (F(2, 5), F(3, 5))])
    q = union_of([(F(1, 5), F(2, 5)), (F(3, 5), 1)])
    sevenths = [union_of([(F(i, 7), F(i + 1, 7))]) for i in range(7)]
    return FunctionClass([
        Function.step([a, b], [F(1, 10), F(9, 10)]),
        Function.step([p, q], [F(7, 8), F(1, 4)]),
        Function.step(sevenths, [F(i, 6) for i in range(7)]),
        Function.step([a, b], [1, 0]),
        Function.step([p, q], [F(1, 2), F(3, 10)]),
        Function.step([IntervalUnion.full()], [F(1, 4)]),
    ], "coarse")


# the classes of the trees benchmark: full join families and 0/1 step classes
TREES_CORPUS = [
    full_join_family(3, 1, 3, F(1, 5)),
    full_join_family(2, 1, 3, F(1, 5)),
    full_join_family(3, 2, 4, F(1, 6)),
    full_join_family(2, 1, 5, F(1, 7)),
    random_step(11, 64, 1, 24),
    random_step(402, 64, 1, 24),
]


class TestClassSegments:
    """segment and segment_partition read row i of the class's band table;
    each segment is the one the Fraction oracle builds from F[i] alone."""

    GAMMAS = [F(1, 4), F(1, 5), F(1, 8), F(2, 7), F(1)]

    @pytest.mark.parametrize("FC", TREES_CORPUS, ids=repr)
    def test_trees_corpus(self, FC):
        for gamma in self.GAMMAS:
            for i, f in enumerate(FC):
                assert segment_partition(FC, i, gamma) == oracle_segment_partition(f, gamma)

    def test_a_class_file_with_pieces_coarser_than_its_cells(self, tmp_path):
        coarse = coarse_pieces_class()
        write_json(oracle_class_doc(coarse), tmp_path / "class.json")
        FC = load_class(tmp_path / "class.json")
        assert len(refinement(FC)[1]) - 1 > max(len(f.pieces) for f in coarse)
        for gamma in self.GAMMAS + [F(1, 2), F(1, 10)]:
            for i, f in enumerate(coarse):
                assert segment_partition(FC, i, gamma) == oracle_segment_partition(f, gamma)

    @pytest.mark.parametrize("FC", TABULAR_CLASSES, ids=repr)
    def test_tabular_classes(self, FC):
        for gamma in self.GAMMAS:
            K = k_of_gamma(gamma)
            for i, f in enumerate(FC):
                parts = segment_partition(FC, i, gamma)
                assert parts == oracle_segment_partition(f, gamma)
                assert parts == [segment(FC, i, gamma, k) for k in range(1, K + 1)]

    @pytest.mark.parametrize(
        "FC", [TREES_CORPUS[0], coarse_pieces_class(), TABULAR_CLASSES[-1]], ids=repr
    )
    def test_alternating_gammas_each_read_their_own_table(self, FC):
        """The class keeps the band table of the last gamma only: a call at
        another gamma must not read the kept one."""
        for gamma in [F(1, 4), F(1, 5), F(1, 4), F(2, 7), F(2, 7), F(1, 8), F(1, 4)] * 2:
            for i, f in enumerate(FC):
                want = oracle_segment_partition(f, gamma)
                assert segment_partition(FC, i, gamma) == want
                k = 1 + i % len(want)
                assert segment(FC, i, gamma, k) == want[k - 1]
            assert cell_bands(FC, gamma) is cell_bands(FC, gamma)


# every generated step class beside the same class built function by function
EQUAL_CELL_PAIRS = (
    [(thresholds(n), oracle_thresholds(n)) for n in range(1, 9)]
    + [(interval_indicators(n), oracle_interval_indicators(n)) for n in range(1, 9)]
    + [
        (full_join_family(L, k, k2, g), oracle_full_join_family(L, k, k2, g))
        for L in (1, 2, 3)
        for k, k2, g in ((1, 3, F(1, 5)), (4, 1, F(2, 9)), (2, 5, F(1, 6)))
    ]
    # grid 1, grid 9, one piece, one function, rows whose own W is below the
    # class's V (seed 0) and a class whose V is below its grid (seed 9)
    + [
        (random_step(*args), oracle_random_step(*args))
        for args in ((1, 64, 1, 24), (3, 16, 1, 8), (2, 8, 9, 6), (5, 1, 4, 7),
                     (6, 12, 5, 1), (0, 2, 4, 4), (9, 2, 6, 2))
    ]
)
EQUAL_CELL_GAMMAS = [F(1, 5), F(1, 4), F(2, 7), F(1, 2), F(1)]


class TestEqualCellGenerators:
    """thresholds, interval_indicators, random_step and full_join_family put
    every function on one Partition of equal cells; each class still reads as
    the class whose functions each checked their own pieces."""

    @pytest.mark.parametrize("FC,oracle", EQUAL_CELL_PAIRS, ids=lambda c: c.name)
    def test_same_table(self, FC, oracle):
        assert refinement(FC) == refinement(oracle)
        assert FC.name == oracle.name

    @pytest.mark.parametrize("FC,oracle", EQUAL_CELL_PAIRS, ids=lambda c: c.name)
    def test_same_segments_and_joins(self, FC, oracle):
        for gamma in EQUAL_CELL_GAMMAS:
            for i, g in enumerate(oracle):
                assert segment_partition(FC, i, gamma) == oracle_segment_partition(g, gamma)
            K = k_of_gamma(gamma)
            for k in range(1, K + 1):
                for k2 in range(1, K + 1):
                    if k != k2:
                        assert join(FC, gamma, k, k2) == join(oracle, gamma, k, k2)

    @pytest.mark.parametrize("FC,oracle", EQUAL_CELL_PAIRS, ids=lambda c: c.name)
    def test_same_values(self, FC, oracle):
        C, cuts, _, _ = refinement(FC)
        points = [F(c, C) for c in cuts[:-1]] + [F(a + b, 2 * C) for a, b in zip(cuts, cuts[1:])]
        for f, g in zip(FC, oracle):
            V, columns = values_at(one(f), points)
            assert [F(v, V) for (v,) in columns] == [oracle_value_at(g, x) for x in points]

    @pytest.mark.parametrize(
        "spec,cells",
        [("thresholds(16)", 16), ("interval_indicators(10)", 10),
         ("full_join_family(3,1,3,1/5)", 256), ("random_step(1,64,1,24)", 64)],
    )
    def test_one_partition_per_class(self, union_alls, tmp_path, spec, cells):
        FC = generate(spec)
        assert union_alls == []
        save_class(FC, tmp_path / "class.json")
        loaded = load_class(tmp_path / "class.json")
        assert union_alls == [cells]
        for G in (FC, loaded):
            assert all(f.pieces is G[0].pieces for f in G.functions)
        assert list(loaded) == list(FC) and refinement(loaded) == refinement(FC)

    @pytest.mark.parametrize("FC,oracle", EQUAL_CELL_PAIRS[::4], ids=lambda c: c.name)
    def test_segments_run_no_union_algebra(self, monkeypatch, FC, oracle):
        """A STEP segment is one IntervalUnion over the class's integer cells."""

        def refuse(*args):
            raise AssertionError("segments must not union pieces")

        built, init = [], IntervalUnion.__init__
        monkeypatch.setattr(IntervalUnion, "union_all", classmethod(refuse))
        monkeypatch.setattr(
            IntervalUnion, "__init__", lambda u, D, pairs=(): built.append(D) or init(u, D, pairs)
        )
        for gamma in EQUAL_CELL_GAMMAS:
            for i in range(len(FC)):
                K = k_of_gamma(gamma)
                built.clear()
                segments = [segment(FC, i, gamma, k) for k in range(1, K + 1)]
                assert segment_partition(FC, i, gamma) == segments
                # one union per segment, over the cells' own denominator
                assert built == [refinement(FC)[0]] * (2 * K)


# each generated step class beside the same class built by an oracle on its
# own IntervalUnions, and its number of equal cells
GENERATED_ORACLES = [
    ("thresholds(9)", oracle_thresholds(9), 9),
    ("interval_indicators(6)", oracle_interval_indicators(6), 6),
    ("full_join_family(2,4,1,2/9)", oracle_full_join_family(2, 4, 1, F(2, 9)), 16),
    ("full_join_family(3,1,3,1/5)", oracle_full_join_family(3, 1, 3, F(1, 5)), 256),
    ("random_step(5,12,4,6)", oracle_random_step(5, 12, 4, 6), 12),
    ("random_step(1,64,1,24)", oracle_random_step(1, 64, 1, 24), 64),
]


class TestIntegerPartition:
    """A Partition is its integer cells; its pieces are built only when read."""

    @pytest.mark.parametrize(
        "spec,oracle,cells", GENERATED_ORACLES, ids=[spec for spec, _, _ in GENERATED_ORACLES]
    )
    def test_generators_build_no_interval_union(self, monkeypatch, spec, oracle, cells):
        def refuse(*args):
            raise AssertionError("a generated class builds no IntervalUnion")

        with monkeypatch.context() as m:
            m.setattr(IntervalUnion, "__init__", refuse)
            m.setattr(IntervalUnion, "union_all", classmethod(refuse))
            FC = generate(spec)
        assert len(FC[0].pieces) == cells
        assert class_to_json(FC) == class_to_json(oracle_on_cells(oracle, cells))

    def test_empty_and_multi_interval_pieces_save_as_their_cells(self, tmp_path):
        def piece(text, value):
            return {"set": text, "value": value}

        doc = {"name": "gaps", "kind": "step", "functions": [
            {"pieces": [piece("[0/1,1/3),[2/3,1/1)", "1/4"), piece("empty", "1/2"),
                        piece("[1/3,2/3)", "3/4"), piece("empty", "0/1")]},
            {"pieces": [piece("empty", "1/1"), piece("[0/1,1/1)", "2/5")]},
        ]}
        write_json(doc, tmp_path / "in.json")
        loaded = load_class(tmp_path / "in.json")
        assert refinement(loaded) == refinement(oracle_step_class_from_json(doc))
        assert refinement(loaded) == (3, (0, 1, 2, 3), 20, ((5, 15, 5), (8, 8, 8)))
        # the saved file lists the three refinement cells, each value v / V
        save_class(loaded, tmp_path / "out.json")
        cells = ["[0/1,1/3)", "[1/3,2/3)", "[2/3,1/1)"]
        assert json.loads((tmp_path / "out.json").read_text()) == {
            "name": "gaps", "kind": "step", "functions": [
                {"pieces": [piece(c, v) for c, v in zip(cells, ["1/4", "3/4", "1/4"])]},
                {"pieces": [piece(c, "2/5") for c in cells]},
            ]}
        # and a saved file saves back byte for byte
        save_class(load_class(tmp_path / "out.json"), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "out.json").read_bytes()


def on_cells_oracle(FC):
    """The oracle of a generated STEP class, rewritten on its equal cells
    (``oracle_on_cells``), or rebuilt function by function from its own
    pieces (``oracle_step_class``) when no generator named it."""
    name, _, args = FC.name.partition("(")
    oracles = {
        "thresholds": oracle_thresholds,
        "interval_indicators": oracle_interval_indicators,
        "random_step": oracle_random_step,
        "full_join_family": oracle_full_join_family,
    }
    if name not in oracles:
        return oracle_step_class(FC)
    oracle = oracles[name](*(F(a) if "/" in a else int(a) for a in args[:-1].split(",")))
    return oracle_on_cells(oracle, len(FC[0].pieces))


STEP_GENERATORS = [
    ("thresholds(7)", lambda: thresholds(7)),
    ("interval_indicators(5)", lambda: interval_indicators(5)),
    ("random_step(3,12,4,6)", lambda: random_step(3, 12, 4, 6)),
    ("random_step(9,2,6,2)", lambda: random_step(9, 2, 6, 2)),
    ("random_step(1,64,1,24)", lambda: random_step(1, 64, 1, 24)),
    # gamma is built beforehand, as parsing the spec would build it
    ("full_join_family(3,1,3,1/5)", lambda g=F(1, 5): full_join_family(3, 1, 3, g)),
    ("full_join_family(2,4,1,2/9)", lambda g=F(2, 9): full_join_family(2, 4, 1, g)),
]


@pytest.fixture
def fractions_built(monkeypatch):
    """Every Fraction construction, as its arguments."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return built


@pytest.fixture
def functions_built(monkeypatch):
    """The kind of every Function construction."""
    built = []
    init = Function.__init__

    def counting(self, kind, *args):
        built.append(kind)
        init(self, kind, *args)

    monkeypatch.setattr(Function, "__init__", counting)
    return built


# TABULAR generators, their arguments built beforehand, and the rationals
# among those arguments
TABULAR_GENERATORS = [
    ("all_patterns(1)", lambda: all_patterns(1), ()),
    ("all_patterns(6)", lambda: all_patterns(6), ()),
    ("trajectory_indicators(1/1000,2,1/7)",
     lambda: trajectory_indicators(F(1, 1000), [F(1, 7)], 2), (F(1, 1000), F(1, 7))),
    ("trajectory_indicators(2/7+1/10**6,9,1/11+2/11+3/11)",
     lambda t=F(2, 7) + F(1, 10**6), b=[F(j, 11) for j in range(1, 4)]:
     trajectory_indicators(t, b, 9),
     (F(2, 7) + F(1, 10**6), *(F(j, 11) for j in range(1, 4)))),
]


class TestBornWithItsTable:
    """A generated class is built as its integer table (and a TABULAR one
    its domain); its functions, and their Fraction values, are built from
    the rows only when read."""

    @pytest.mark.parametrize("spec", [spec for spec, _ in STEP_GENERATORS])
    def test_refinement_is_the_generated_table(self, monkeypatch, spec):
        def refuse(F):
            raise AssertionError("a generated class merges no rows")

        monkeypatch.setattr(funclass, "_merge", refuse)
        FC = generate(spec)
        C, cuts, V, rows = refinement(FC)
        assert (C, cuts) == (len(FC[0].pieces), tuple(range(C + 1)))
        ocuts, ocolumns = oracle_refinement(FC)
        assert list(cuts) == [c * C for c in ocuts]
        assert [tuple(F(v, V) for v in row) for row in rows] == ocolumns
        # V is the lcm of the functions' own W, as the merge would take it
        assert V == math.lcm(*(f._row[2] for f in FC))
        assert V == math.lcm(*(v.denominator for f in FC for v in f.values))
        monkeypatch.undo()
        assert refinement(FunctionClass(list(FC))) == refinement(FC)

    @pytest.mark.parametrize("spec,make", STEP_GENERATORS, ids=[s for s, _ in STEP_GENERATORS])
    def test_no_fraction_until_values_are_read(
        self, fractions_built, functions_built, spec, make
    ):
        FC = make()
        C, _, _, rows = refinement(FC)
        assert (FC.kind, len(FC), repr(FC)) == (
            "step", len(rows), f"FunctionClass({spec!r}, {len(rows)} step)"
        )
        assert fractions_built == [] and functions_built == []
        assert len(FC[0].pieces) == C
        assert functions_built == ["step"] * len(FC) and len(fractions_built) >= len(FC)
        assert [f.values for f in FC] == [g.values for g in on_cells_oracle(FC)]

    @pytest.mark.parametrize(
        "spec,make,rationals", TABULAR_GENERATORS, ids=[s for s, _, _ in TABULAR_GENERATORS]
    )
    def test_a_tabular_class_builds_its_domain_and_no_function(
        self, fractions_built, functions_built, spec, make, rationals
    ):
        FC = make()
        # each Fraction built is a domain point or a copy of an argument
        # (no value 1 is either)
        made = {Fraction(*args) for args in list(fractions_built)}
        assert made <= {*FC.domain_points, *rationals} and F(1) not in made
        fractions_built.clear()
        V, rows = value_rows(FC)
        cell_bands(FC, F(1, 3))
        candidate_points(FC)
        assert (FC.kind, len(FC), V) == ("tabular", len(rows), 1)
        assert len(fractions_built) == 1 and functions_built == []  # gamma alone
        functions = list(FC)
        assert functions_built == ["tabular"] * len(FC)
        assert all(f.points is FC.domain_points for f in functions)
        assert [f.values for f in functions] == [tuple(F(v, V) for v in row) for row in rows]
        assert class_from_json(class_to_json(FC)).functions == FC.functions

    @pytest.mark.parametrize("indices", [[0, 2, 5], [7, 1], [3]], ids=str)
    def test_subclass_slices_the_table(self, functions_built, indices):
        FC = full_join_family(3, 1, 3, F(1, 5))
        sub = FC.subclass(indices)
        C, cuts, V, rows = refinement(FC)
        assert refinement(sub) == (C, cuts, V, tuple(rows[i] for i in indices))
        assert (sub.name, len(sub)) == (FC.name, len(indices)) and functions_built == []
        whole = FunctionClass([FC[i] for i in indices])
        for k, k2 in ((1, 3), (3, 1), (1, 2)):
            assert join(sub, F(1, 5), k, k2) == join(whole, F(1, 5), k, k2)

    def test_tabular_subclass_keeps_the_domain(self, functions_built):
        FC = all_patterns(3)
        sub = FC.subclass([6, 1])
        V, rows = value_rows(FC)
        assert value_rows(sub) == (V, (rows[6], rows[1])) and functions_built == []
        assert sub.domain_points is FC.domain_points
        assert list(sub) == [FC[6], FC[1]]
        with pytest.raises(ValueError, match="non-empty"):
            FC.subclass([])

    def test_full_join_family_rejects_a_value_above_one(self):
        # gamma = 9/20: K = 3, and the midband value of band 3 is 9/8
        for k, k2 in ((1, 3), (3, 1)):
            with pytest.raises(ValueError, match=r"value 9/8 outside \[0, 1\]"):
                full_join_family(1, k, k2, F(9, 20))


IDENTITY_CLASSES = ORACLE_CLASSES + [full_join_family(3, 1, 3, F(1, 5))]


class TestFunctionIdentity:
    """A generated function equals, and hashes as, the same function built
    by its oracle; a class read back from its class file has its table."""

    @pytest.mark.parametrize("FC", IDENTITY_CLASSES, ids=repr)
    def test_round_trip_and_oracle(self, FC, tmp_path):
        save_class(FC, tmp_path / "class.json")
        loaded = load_class(tmp_path / "class.json")
        assert (loaded.name, refinement(loaded)) == (FC.name, refinement(FC))
        other = on_cells_oracle(FC)
        assert len(other) == len(FC)
        for f, g in zip(FC, other):
            assert f == g and hash(f) == hash(g)
            assert f.values == g.values

    def test_full_join_family_value_denominator(self):
        FC = full_join_family(3, 1, 3, F(1, 5))
        assert refinement(FC)[2] == 10 and {f._row[2] for f in FC} == {10}


def random_tabular(seed, points, count):
    """A TABULAR class with values k/den for random k and den."""
    rng = SplitMix64(seed)
    pts = [F(2 * t + 1, 2 * points) for t in range(points)]
    fns = []
    for _ in range(count):
        den = 1 + randbelow(rng, 12)
        fns.append(Function.tabular(pts, [F(randbelow(rng, den + 1), den) for _ in pts]))
    return FunctionClass(fns, f"random_tabular({seed})")


class TestTabularValuesAt:
    """values_at, value_rows, cell_bands and candidate_points read a TABULAR
    class's integer rows."""

    @staticmethod
    def check(FC):
        pts = list(FC.domain_points)
        queries = [pts, pts[::-1], pts[len(pts) // 2:] + pts[:1]]
        gamma = F(1, 3)
        got = [values_at(FC, q) for q in queries]
        V, rows = value_rows(FC)
        bands = cell_bands(FC, gamma)
        candidates = candidate_points(FC)
        expected = [oracle_values_at(FC, q) for q in queries]
        assert got == expected
        assert (V, list(zip(*rows))) == got[0]
        assert bands == tuple(
            tuple(oracle_band_of_value(F(v, V), gamma) for v in row) for row in rows
        )
        leftmost = {}  # each distinct column's first domain point
        for p, column in zip(pts, expected[0][1]):
            leftmost.setdefault(column, p)
        assert candidates == list(leftmost.values())

    @pytest.mark.parametrize("p", range(1, 9))
    def test_all_patterns(self, p):
        self.check(all_patterns(p))

    def test_trajectory_indicators(self):
        FC = trajectory_indicators(F(2, 7) + F(1, 10**6), [F(j, 11) for j in range(1, 4)], 9)
        self.check(FC)

    @pytest.mark.parametrize("seed", range(3))
    def test_saved_and_loaded_random_class(self, tmp_path, seed):
        save_class(random_tabular(seed, 7, 20), tmp_path / "class.json")
        self.check(load_class(tmp_path / "class.json"))


class TestValueRows:
    """value_rows is the one (V, rows) table of both kinds: the refinement
    rows of a STEP class, each TABULAR function's values rescaled to V."""

    @pytest.mark.parametrize("FC", TABLE_CLASSES, ids=repr)
    def test_step_rows_are_the_refinement_rows(self, FC):
        assert value_rows(FC) == refinement(FC)[2:]

    @staticmethod
    def check(FC):
        V, rows = value_rows(FC)
        assert [tuple(F(v, V) for v in row) for row in rows] == [f.values for f in FC]
        assert all(type(v) is int for row in rows for v in row)
        assert value_rows(FC) is value_rows(FC)  # kept on the class

    @pytest.mark.parametrize("p", range(1, 9))
    def test_all_patterns(self, p):
        self.check(all_patterns(p))

    def test_trajectory_indicators(self):
        self.check(trajectory_indicators(F(2, 7) + F(1, 10**6), [F(j, 11) for j in range(1, 4)], 9))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_tabular(self, seed):
        self.check(random_tabular(seed, 7, 20))

    def test_functions_over_different_denominators(self):
        pts = [0, F(1, 3), F(1, 2)]
        FC = FunctionClass([
            Function.tabular(pts, [F(1, 6), 1, F(1, 4)]),
            Function.tabular(pts, [0, F(2, 3), F(3, 10)]),
            Function.tabular(pts, [F(1, 60), 0, 1]),
        ])
        self.check(FC)
        V, rows = value_rows(FC)
        assert V == 60 and rows == ((10, 60, 15), (0, 40, 18), (1, 0, 60))


def built(make, *args):
    """The class ``make(*args)`` builds, as its name, domain and functions,
    or the message of the ValueError it raises."""
    try:
        FC = make(*args)
    except ValueError as exc:
        return str(exc)
    return FC.name, tuple(FC.domain_points), tuple(FC.functions), [f.values for f in FC]


class TestTrajectoryIndicators:
    """Orbits built, checked and sorted on integers give the class, or the
    error, of the construction on Fractions."""

    @pytest.mark.parametrize(
        "theta,base,window",
        [
            (F(1, 1000), [F(1, 7)], 2),  # the CLI tests' TABULAR class
            (F(2, 7) + F(1, 10**6), [F(j, 11) for j in range(1, 4)], 9),
            (F(1, 3), [F(1, 2)], 0),
            (F(-3, 10**4), [F(5, 2), F(-1, 3), 0], 4),  # theta < 0, points off [0, 1)
            (F(12, 5), [F(1, 9), F(1, 8)], 1),  # theta > 1
            (F(1, 2), [F(1, 5)], 2),  # an orbit closes
            (0, [F(1, 3)], 1),
            (F(1, 10), [0, F(3, 10)], 2),  # orbits 0 and 1 meet
            (F(1, 10), [0, F(1, 20), F(3, 10)], 2),  # orbits 0 and 2 meet
            (F(1, 10), [], 1),
            (F(1, 10), [0], -1),
        ],
    )
    def test_matches_the_fraction_construction(self, theta, base, window):
        got = built(trajectory_indicators, theta, base, window)
        assert got == built(oracle_trajectory_indicators, theta, base, window)

    @pytest.mark.parametrize(
        "spec,args",
        [("trajectory_indicators(1/1000,2,1/7)", (F(1, 1000), [F(1, 7)], 2)),
         ("trajectory_indicators(1/3,5,0+1/7+5/7)", (F(1, 3), [0, F(1, 7), F(5, 7)], 5))],
    )
    def test_generated(self, spec, args):
        assert built(generate, spec) == built(oracle_trajectory_indicators, *args)

    @pytest.mark.parametrize(
        "m,seed,theta",
        [(100, 7, None), (1000, 7, None), (50, 7, None), (10, 1, None), (100, 5, None),
         (10, 3, F(2, 1000003)), (1000, 3, F(3, 7)), (5, 0, F(1, 1000003))],
    )
    def test_rotation_demo_classes(self, monkeypatch, m, seed, theta):
        """The classes ``rotation_counterexample`` builds for the acceptance,
        CLI and benchmark runs, including one whose orbit closes."""
        calls = []

        def spy(*args, **kwargs):
            call = (*args, kwargs["window"])
            calls.append(built(oracle_trajectory_indicators, *call))
            FC = trajectory_indicators(*args, **kwargs)
            assert built(lambda: FC) == calls[-1]
            return FC

        monkeypatch.setattr(ergoproc, "trajectory_indicators", spy)
        try:
            ergoproc.rotation_counterexample(m, seed, theta)
        except ValueError as exc:
            assert str(exc) == calls[-1]
        assert len(calls) == 1
