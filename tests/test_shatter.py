import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gapdim import (
    Function,
    FunctionClass,
    all_patterns,
    full_join_family,
    gap_dim,
    join,
    join_shatter,
    random_step,
    shatters,
    thresholds,
    verify_certificate,
)
from gapdim import shatter
from gapdim.funclass import STEP, InvalidResolution, SegmentIndexOutOfRange, generate, k_of_gamma
from gapdim.shatter import (
    MalformedCertificate,
    ShatterCertificate,
    candidate_points,
)
from oracles import (
    fraction_pairs,
    oracle_candidate_points,
    oracle_constant,
    oracle_gap_dim,
    oracle_indicator,
    oracle_join,
    oracle_naive_gap_dim,
    oracle_on_cells,
    oracle_pruned_gap_dim,
    oracle_refinement,
    oracle_segment_partition,
    oracle_shatters,
    oracle_shatters_certificate,
    oracle_value_at,
    oracle_values_at,
    oracle_verify_certificate,
    union_of,
)

F = Fraction


def assert_matches_oracles(
    FC, gamma, cap=20, oracles=(oracle_naive_gap_dim, oracle_pruned_gap_dim)
):
    """gap_dim returns each oracle's dimension, exactness and certificate."""
    got = gap_dim(FC, gamma, cap=cap)
    cert = got.certificate and got.certificate.to_json()
    for oracle in oracles:
        want = oracle(FC, gamma, cap=cap)
        assert (got.dimension, got.exact) == (want.dimension, want.exact)
        assert cert == (want.certificate and want.certificate.to_json())
    return got


# a point outside [0, 1) or off the domain, and the message values_at gives
FOREIGN_POINTS = [
    ("thresholds(8)", F(1), r"^point 1 outside \[0, 1\)$"),
    ("thresholds(8)", F(-1, 8), r"^point -1/8 outside \[0, 1\)$"),
    ("all_patterns(2)", F(1, 2), r"^1/2 is not a tabular domain point$"),
]


class TestVerifyCertificate:
    def test_constants_straddle(self, zero_one_class):
        cert = ShatterCertificate((F(1, 2),), F(1, 2), {0: 0, 1: 1})
        assert verify_certificate(zero_one_class, F(3, 10), cert)

    def test_boundary_strictness(self, zero_one_class):
        cert = ShatterCertificate((F(1, 2),), F(1, 2), {0: 0, 1: 1})
        assert not verify_certificate(zero_one_class, F(1, 2), cert)

    def test_all_patterns_two_points(self):
        FC = all_patterns(2)
        pts = FC.domain_points
        # mask bit i is points[i]; function b carries the big-endian pattern
        # of b, so the function for mask m has m's bits reversed
        cert = ShatterCertificate(pts, F(1, 2), {0: 0, 1: 2, 2: 1, 3: 3})
        assert verify_certificate(FC, F(2, 5), cert)

    def test_malformed_selector(self, zero_one_class):
        cert = ShatterCertificate((F(1, 2),), F(1, 2), {0: 0})
        with pytest.raises(MalformedCertificate):
            verify_certificate(zero_one_class, F(1, 4), cert)

    def test_bad_function_index(self, zero_one_class):
        cert = ShatterCertificate((F(1, 2),), F(1, 2), {0: 0, 1: 7})
        with pytest.raises(MalformedCertificate):
            verify_certificate(zero_one_class, F(1, 4), cert)

    def test_foreign_tabular_point(self):
        FC = all_patterns(2)
        cert = ShatterCertificate((F(1, 3),), F(1, 2), {0: 0, 1: 3})
        with pytest.raises(MalformedCertificate):
            verify_certificate(FC, F(1, 4), cert)

    def test_tabular_points_are_looked_up_in_the_domain(self):
        FC = all_patterns(2)
        a, b = FC.domain_points
        good = shatters(FC, [a, b], F(1, 4))
        assert verify_certificate(FC, F(1, 4), good)
        foreign = ShatterCertificate((a, (a + b) / 2), F(1, 2), good.selector)
        with pytest.raises(MalformedCertificate, match="is not a tabular domain point"):
            verify_certificate(FC, F(1, 4), foreign)

    @pytest.mark.parametrize("spec,point,message", FOREIGN_POINTS)
    def test_foreign_points_keep_the_values_at_wording(self, spec, point, message):
        FC = generate(spec)
        # the point check fires before the selector check
        for selector in ({0: 0, 1: 1, 2: 0, 3: 1}, {0: 0}):
            cert = ShatterCertificate((F(1, 4), point), F(1, 2), selector)
            with pytest.raises(MalformedCertificate, match=message):
                verify_certificate(FC, F(1, 8), cert)

    def test_json_round_trip(self, zero_one_class):
        cert = ShatterCertificate((F(1, 2),), F(1, 2), {0: 0, 1: 1})
        back = ShatterCertificate.from_json(cert.to_json())
        assert back == cert


class TestShatters:
    def test_singleton_class_cannot_shatter(self):
        FC = FunctionClass([oracle_constant(F(1, 2))])
        assert shatters(FC, [F(1, 2)], F(1, 10)) is None

    def test_constants_shatter_one_point(self, zero_one_class):
        cert = shatters(zero_one_class, [F(1, 2)], F(3, 10))
        assert cert is not None
        assert F(3, 10) < cert.alpha < F(7, 10)
        assert verify_certificate(zero_one_class, F(3, 10), cert)

    def test_thresholds_monotone_pair_unshatterable(self):
        FC = thresholds(8)
        assert shatters(FC, [F(1, 8), F(5, 8)], F(1, 4)) is None
        assert not oracle_shatters(FC, [F(1, 8), F(5, 8)], F(1, 4))

    @pytest.mark.parametrize("spec,D,message", [
        *((spec, [point], message) for spec, point, message in FOREIGN_POINTS),
        # fewer than 2**d functions: the class cannot shatter D either way
        ("thresholds(2)", [F(1, 8), F(1), F(5, 8)], r"^point 1 outside \[0, 1\)$"),
        ("all_patterns(1)", [F(1, 2), F(1, 3)], r"^1/3 is not a tabular domain point$"),
    ])
    def test_foreign_point_raises_whatever_the_class_size(self, spec, D, message):
        with pytest.raises(ValueError, match=message):
            shatters(generate(spec), D, F(1, 8))

    def test_empty_point_set(self, zero_one_class):
        with pytest.raises(ValueError, match="cannot shatter the empty set"):
            shatters(zero_one_class, [], F(1, 4))

    @given(st.integers(0, 2**32), st.sampled_from([F(1, 8), F(1, 4), F(3, 8)]))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_interval_stabbing_oracle(self, seed, gamma):
        FC = random_step(seed, pieces=4, grid=8, count=4)
        pts = candidate_points(FC)[:3]
        got = shatters(FC, pts, gamma)
        assert (got is not None) == oracle_shatters(FC, pts, gamma)
        if got is not None:
            assert verify_certificate(FC, gamma, got)

    def test_monotone_in_point_sets(self):
        FC = all_patterns(3)
        pts = list(FC.domain_points)
        full = shatters(FC, pts, F(2, 5))
        assert full is not None
        for drop in range(3):
            sub = [p for i, p in enumerate(pts) if i != drop]
            again = shatters(FC, sub, F(2, 5))
            assert again is not None
            # the same alpha keeps working on the subset
            masks = range(1 << 2)
            assert all(
                verify_certificate(
                    FC,
                    F(2, 5),
                    ShatterCertificate(tuple(sub), full.alpha, dict(again.selector)),
                )
                for _ in masks
            )


class TestGapDim:
    def test_thresholds_dim_one(self):
        res = assert_matches_oracles(thresholds(8), F(1, 4))
        assert res.dimension == 1 and res.exact
        assert verify_certificate(thresholds(8), F(1, 4), res.certificate)

    def test_all_patterns_three(self):
        res = assert_matches_oracles(all_patterns(3), F(2, 5))
        assert res.dimension == 3 and res.exact

    def test_narrow_range_dim_zero(self):
        FC = FunctionClass(
            [oracle_constant(F(2, 5)), oracle_constant(F(3, 5))]
        )
        res = gap_dim(FC, F(1, 5))
        assert res.dimension == 0
        assert res.certificate is None

    def test_invalid_cap(self):
        with pytest.raises(ValueError, match="cap must be >= 1, got 0"):
            gap_dim(thresholds(2), F(1, 4), cap=0)

    def test_cap_hit_reports_infinite(self):
        res = assert_matches_oracles(all_patterns(3), F(2, 5), cap=2)
        assert res.dimension == 2
        assert not res.exact
        assert res.label == "INFINITE_CAP"

    @pytest.mark.parametrize(
        "spec,gamma,cap",
        [("all_patterns(4)", F(2, 5), 2), ("random_step(1,16,8,64)", F(1, 8), 3)],
    )
    def test_pruned_cap_hit_reports_infinite(self, spec, gamma, cap):
        FC = generate(spec)
        res = assert_matches_oracles(FC, gamma, cap=cap, oracles=(oracle_pruned_gap_dim,))
        assert res.dimension == cap and res.label == "INFINITE_CAP"

    def test_cap_equal_to_bound_stays_exact(self):
        # cap == floor(log2 |F|) == 3: nothing above the cap is feasible
        res = assert_matches_oracles(all_patterns(3), F(2, 5), cap=3)
        assert res.dimension == 3 and res.exact

    @given(st.integers(0, 2**32), st.sampled_from([F(1, 8), F(1, 4), F(3, 8)]))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_and_pruned_oracles(self, seed, gamma):
        FC = random_step(seed, pieces=5, grid=8, count=5)
        res = assert_matches_oracles(FC, gamma)
        pts = candidate_points(FC)
        assert res.dimension == oracle_gap_dim(FC, pts, gamma, max_d=3)

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_antitone_in_gamma(self, seed):
        FC = random_step(seed, pieces=5, grid=8, count=6)
        dims = [
            gap_dim(FC, g).dimension for g in (F(1, 8), F(1, 4), F(3, 8))
        ]
        assert dims[0] >= dims[1] >= dims[2]

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_log_cardinality_bound(self, seed):
        FC = random_step(seed, pieces=6, grid=8, count=5)
        res = gap_dim(FC, F(1, 8))
        assert res.dimension <= len(FC).bit_length() - 1


def segment_pairs(FC, gamma, k, k2):
    """Per function its (segment k, segment k2), from the Fraction oracle:
    the families oracle_join takes."""
    parts = [oracle_segment_partition(f, gamma) for f in FC.functions]
    return [(segs[k - 1], segs[k2 - 1]) for segs in parts]


class TestJoin:
    def test_two_functions(self):
        f = oracle_indicator(union_of([(F(1, 2), 1)]))
        g = oracle_indicator(union_of([(F(1, 4), 1)]))
        cells = join(FunctionClass([f, g]), F(1, 2), 1, 2)
        assert [(c.cell, c.signature) for c in cells] == [
            (union_of([(0, F(1, 4))]), (0, 0)),
            (union_of([(F(1, 4), F(1, 2))]), (0, 1)),
            (union_of([(F(1, 2), 1)]), (1, 1)),
        ]

    def test_single_function_gives_its_two_segments(self, ramp8):
        # bands 1 and 3 of the ramp at 1/4; the cells between drop out
        cells = join(FunctionClass([ramp8]), F(1, 4), 3, 1)
        assert [(c.cell, c.signature) for c in cells] == [
            (union_of([(F(1, 2), F(3, 4))]), (0,)),
            (union_of([(0, F(1, 4))]), (1,)),
        ]

    def test_cells_disjoint_and_contained(self):
        FC = full_join_family(2, 1, 3, F(1, 5))
        fams = segment_pairs(FC, F(1, 5), 1, 3)
        cells = join(FC, F(1, 5), 1, 3)
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                assert not cells[i].cell.intersect(cells[j].cell)
        for c in cells:
            for fam_idx, choice in enumerate(c.signature):
                assert c.cell.intersect(fams[fam_idx][choice]) == c.cell

    def test_rejects_tabular_class(self):
        with pytest.raises(ValueError, match="STEP"):
            join(all_patterns(2), F(1, 4), 1, 3)

    def test_rejects_equal_bands(self):
        with pytest.raises(ValueError, match="two different bands"):
            join(full_join_family(1, 1, 3, F(1, 5)), F(1, 5), 3, 3)

    @pytest.mark.parametrize("k,k2,bad", [(0, 3, 0), (1, 6, 6), (6, 1, 6), (-1, 2, -1)])
    def test_band_out_of_range(self, k, k2, bad):
        with pytest.raises(SegmentIndexOutOfRange, match=rf"band {bad} outside \[1, 5\]"):
            join(full_join_family(1, 1, 3, F(1, 5)), F(1, 5), k, k2)


class TestJoinShatter:
    def test_l1_alpha(self):
        FC = full_join_family(1, 1, 3, F(1, 5))
        cert = join_shatter(FC, 1, 3, F(1, 5))
        assert cert.alpha == F(3, 10)
        assert verify_certificate(FC, F(1, 10), cert)

    def test_l2_certificate_and_oracle(self):
        FC = full_join_family(2, 1, 3, F(1, 5))
        cert = join_shatter(FC, 1, 3, F(1, 5))
        assert len(cert.points) == 2
        assert verify_certificate(FC, F(1, 10), cert)
        assert assert_matches_oracles(FC, F(1, 10)).dimension >= 2

    def test_missing_cell_reported(self):
        FC = full_join_family(1, 1, 3, F(1, 5))
        # collapse one function to a constant: its band-3 segment vanishes
        broken = FunctionClass(
            [FC.functions[0], oracle_constant(F(1, 10))], "broken"
        )
        # the first missing signature, in bit order, has function 1 in band 3
        with pytest.raises(ValueError, match=r"missing the cell with signature \(0, 1\)$"):
            join_shatter(broken, 1, 3, F(1, 5))

    @pytest.mark.parametrize("L,k,k2", [(1, 1, 3), (2, 1, 3), (3, 1, 3), (2, 3, 1)])
    def test_each_point_lies_inside_its_join_cell(self, L, k, k2):
        FC = full_join_family(L, k, k2, F(1, 5))
        cert = join_shatter(FC, k, k2, F(1, 5))
        cells = {jc.signature: jc.cell for jc in join(FC, F(1, 5), k, k2)}
        for i, x in enumerate(cert.points):
            # the functions whose subset holds i sit in band k (signature 0)
            sig = tuple(0 if (b >> i) & 1 else 1 for b in range(len(FC)))
            assert any(lo < x < hi for lo, hi in fraction_pairs(cells[sig]))

    def test_swapped_bands(self):
        FC = full_join_family(1, 3, 1, F(1, 5))
        cert = join_shatter(FC, 3, 1, F(1, 5))
        assert cert.alpha == F(3, 10)
        assert verify_certificate(FC, F(1, 10), cert)

    def test_requires_power_of_two(self):
        FC = thresholds(3)
        with pytest.raises(ValueError):
            join_shatter(FC, 1, 3, F(1, 5))


class TestResolution:
    @pytest.mark.parametrize("gamma", [F(0), F(-1, 4)])
    def test_non_positive_gamma_rejected(self, zero_one_class, gamma):
        cert = ShatterCertificate((F(1, 2),), F(1, 2), {0: 0, 1: 1})
        with pytest.raises(InvalidResolution):
            verify_certificate(zero_one_class, gamma, cert)
        with pytest.raises(InvalidResolution):
            shatters(zero_one_class, [F(1, 2)], gamma)
        with pytest.raises(InvalidResolution):
            gap_dim(zero_one_class, gamma)

    def test_gamma_above_one_still_answers(self, zero_one_class):
        cert = ShatterCertificate((F(1, 2),), F(1, 2), {0: 0, 1: 1})
        assert not verify_certificate(zero_one_class, F(3, 2), cert)
        assert shatters(zero_one_class, [F(1, 2)], F(3, 2)) is None
        assert gap_dim(zero_one_class, F(3, 2)).dimension == 0


class TestGapDimPostcondition:
    def test_unverifiable_certificate_raises(self, zero_one_class, monkeypatch):
        from gapdim import shatter

        monkeypatch.setattr(shatter, "verify_certificate", lambda *a: False)
        with pytest.raises(RuntimeError):
            gap_dim(zero_one_class, F(1, 4))

    def test_window_search_checked_against_shatters(self, zero_one_class, monkeypatch):
        # the window search finds {1/2}; a shatters that disagrees must be loud
        from gapdim import shatter

        monkeypatch.setattr(shatter, "shatters", lambda *a: None)
        with pytest.raises(RuntimeError, match="shatters rejects"):
            gap_dim(zero_one_class, F(1, 4))


class TestValueTable:
    """The solver reads each STEP class's integer value table, built once."""

    def test_gap_dim_builds_the_table_once(self, monkeypatch):
        from gapdim import funclass

        builds = []
        build = funclass._merge
        monkeypatch.setattr(
            funclass, "_merge", lambda kind, rows: builds.append(rows) or build(kind, rows)
        )
        generated = random_step(3, 12, 8, 32)
        FC = FunctionClass(list(generated))  # assembled from functions: merged at birth
        rows = [f._row for f in FC]
        assert builds == [rows]
        res = gap_dim(FC, F(1, 8))
        assert res.dimension >= 1 and builds == [rows]
        gap_dim(FC, F(1, 5))
        assert builds == [rows]
        # a generated class is born with its table
        assert gap_dim(generated, F(1, 8)) == res and builds == [rows]

    @pytest.mark.parametrize(
        "spec",
        ["thresholds(4)", "interval_indicators(4)", "random_step(7,4,8,16)",
         "random_step(2,8,4,24)", "full_join_family(2,1,3,1/5)"],
    )
    def test_shatters_off_cell_midpoints(self, spec):
        # 0, points exactly on a cut and points just left of one
        FC = generate(spec)
        eps = F(1, 10**9)
        pts = [F(0), F(1, 4), F(1, 4) - eps, F(1, 2), F(3, 4) - eps, F(5, 7)]
        for gamma in (F(1, 8), F(1, 5), F(1, 4)):
            for d in (1, 2, 3):
                for sub in combinations(pts, d):
                    cert = shatters(FC, sub, gamma)
                    got = (cert.points, cert.alpha, cert.selector) if cert else None
                    assert got == oracle_shatters_certificate(FC, sub, gamma)


class TestCandidatePoints:
    def test_step_refinement_midpoints(self, ramp8):
        FC = FunctionClass([ramp8])
        pts = candidate_points(FC)
        assert pts == [F(2 * j + 1, 16) for j in range(8)]

    def test_duplicate_vectors_collapse(self):
        FC = FunctionClass([oracle_constant(F(1, 2))])
        assert len(candidate_points(FC)) == 1

    def test_tabular_uses_domain(self):
        FC = all_patterns(3)
        assert candidate_points(FC) == list(FC.domain_points)

    @pytest.mark.parametrize(
        "FC",
        [
            all_patterns(4),
            generate("trajectory_indicators(1/1000,3,1/7+2/7)"),
            # columns (0, 1), (0, 1), (1, 1), (1, 0): the point 1/4 collapses
            FunctionClass([Function.tabular([0, F(1, 4), F(1, 2), F(3, 4)], values)
                           for values in ([0, 0, 1, 1], [1, 1, 1, 0])]),
        ],
        ids=repr,
    )
    def test_tabular_reads_the_columns_in_domain_order(self, monkeypatch, FC):
        """No domain point is looked up again by its Fraction."""
        pts = FC.domain_points
        want, seen = [], set()
        for p, column in zip(pts, oracle_values_at(FC, pts)[1]):
            if column not in seen:
                seen.add(column)
                want.append(p)
        monkeypatch.setattr(shatter, "values_at", None)  # never called
        assert candidate_points(FC) == want

    @pytest.mark.parametrize(
        "FC",
        [generate("thresholds(6)"), generate("full_join_family(2,1,3,1/5)"),
         # 16 cells, 12 distinct columns; 10 cells, all distinct
         generate("random_step(5,16,2,3)"), generate("random_step(9,10,2,8)"),
         # equal cells that no function tells apart
         oracle_on_cells(generate("interval_indicators(4)"), 12),
         oracle_on_cells(generate("thresholds(3)"), 9),
         generate("all_patterns(3)"), generate("trajectory_indicators(1/1000,3,1/7+2/7)")],
        ids=repr,
    )
    def test_the_collapse_never_lowers_the_oracle_dimension(self, FC):
        """The raw enumeration finds the same dimension over the library's
        collapsed candidates as over every cell midpoint (every domain
        point for TABULAR), and the oracle's own candidates are as many."""
        if FC.kind == STEP:
            cuts, _ = oracle_refinement(FC)
            every = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        else:
            every = list(FC.domain_points)
        pts = candidate_points(FC)
        assert len(pts) == len(oracle_candidate_points(FC)) <= len(every)
        for gamma in (F(1, 8), F(1, 4), F(3, 8)):
            assert oracle_gap_dim(FC, pts, gamma) == oracle_gap_dim(FC, every, gamma)


class TestIndicatorClassesMatchVcDimension:
    # For 0/1-valued classes at any resolution below 1/2, the gap dimension
    # coincides with the VC dimension: thresholds shatter 1 point, interval
    # indicators shatter 2 but never 3 (the pattern high-low-high needs an
    # interval containing the outer points but not the middle one).
    def test_interval_indicators_dim_two(self):
        from gapdim import interval_indicators

        FC = interval_indicators(6)
        for gamma in (F(1, 8), F(1, 4)):
            res = assert_matches_oracles(FC, gamma)
            assert res.dimension == 2
            assert verify_certificate(FC, gamma, res.certificate)

    def test_thresholds_all_small_gammas(self):
        FC = thresholds(6)
        assert all(
            gap_dim(FC, g).dimension == 1 for g in (F(1, 8), F(1, 4), F(2, 5))
        )


def random_tabular(seed, n_points=4, n_fns=8, grid=8):
    """Values on a 1/grid lattice, so many sit exactly on a gamma margin."""
    rng = random.Random(seed)
    points = [F(p, 16) for p in sorted(rng.sample(range(16), n_points))]
    return FunctionClass([
        Function.tabular(points, [F(rng.randint(0, grid), grid) for _ in points])
        for _ in range(n_fns)
    ])


SHATTER_CORPUS = (
    [f"random_step({s},{3 + s % 4},8,{4 + s % 7})" for s in range(12)]
    + [f"all_patterns({p})" for p in (1, 2, 3)]
    + [f"full_join_family({L},1,3,1/5)" for L in (1, 2, 3)]
    + ["thresholds(6)", "interval_indicators(5)"]
)
GAMMAS = [F(1, 8), F(1, 5), F(1, 4), F(2, 5), F(1, 2), F(3, 2)]


def assert_matches_scan(FC, gammas=GAMMAS):
    pts = candidate_points(FC)[:5]
    for gamma in gammas:
        for d in (1, 2, 3):
            for sub in combinations(pts, d):
                cert = shatters(FC, sub, gamma)
                got = (cert.points, cert.alpha, cert.selector) if cert else None
                assert got == oracle_shatters_certificate(FC, sub, gamma)


class TestShattersMatchesFractionScan:
    """The integer sweep returns the same certificates as the Fraction scan."""

    @pytest.mark.parametrize("spec", SHATTER_CORPUS)
    def test_generated_classes(self, spec):
        assert_matches_scan(generate(spec))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_tabular(self, seed):
        assert_matches_scan(random_tabular(seed))

    def test_values_on_the_margin(self):
        # 1/4 and 3/4 sit exactly 2 gamma apart at gamma 1/4: no level works
        FC = FunctionClass([oracle_constant(F(1, 4)), oracle_constant(F(3, 4))])
        assert shatters(FC, [F(1, 2)], F(1, 4)) is None
        assert oracle_shatters_certificate(FC, [F(1, 2)], F(1, 4)) is None
        assert_matches_scan(FC, [F(1, 4), F(1, 5)])


WINDOW_SHAPES = [
    (4, 4, 5), (5, 16, 64), (6, 16, 8), (7, 8, 40), (8, 8, 16), (9, 4, 64),
    (10, 4, 24), (11, 16, 12), (12, 16, 32), (13, 8, 6), (14, 8, 12), (16, 16, 10),
]
WINDOW_CORPUS = (
    [f"random_step({s},{p},{g},{c})" for s, (p, g, c) in enumerate(WINDOW_SHAPES)]
    + [f"all_patterns({p})" for p in (1, 2, 3, 4)]
    + [f"interval_indicators({n})" for n in range(6, 11)]
    + [f"thresholds({n})" for n in range(4, 17)]
    + [f"full_join_family({L},{k},{k2},1/5)" for L in (1, 2, 3) for k, k2 in ((1, 3), (3, 1))]
)
WINDOW_GAMMAS = [F(1, 16), F(1, 8), F(1, 5), F(1, 4), F(3, 8)]


def assert_same_search(FC, gammas=WINDOW_GAMMAS):
    for gamma in gammas:
        assert_matches_oracles(FC, gamma, oracles=(oracle_pruned_gap_dim,))


class TestWindowDfsMatchesShattersDfs:
    """The window search returns what a Fraction scan per extension did."""

    @pytest.mark.parametrize("spec", WINDOW_CORPUS)
    def test_generated_classes(self, spec):
        assert_same_search(generate(spec))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tabular_on_the_margins(self, seed):
        # lattice values at 1/8 and 1/4 steps sit exactly on alpha +- gamma
        FC = random_tabular(seed, n_points=6, n_fns=16 << seed % 3, grid=4 << seed % 2)
        assert_same_search(FC, [F(1, 16), F(1, 8), F(1, 4), F(3, 8)])


def margin_alphas(FC, gamma, cert):
    """The ends of the open interval of levels where the certificate's
    selector works: there one value meets alpha + gamma or alpha - gamma
    exactly, and every other comparison still passes."""
    highs, lows = [], []
    for mask, fi in cert.selector.items():
        for i, x in enumerate(cert.points):
            (highs if (mask >> i) & 1 else lows).append(oracle_value_at(FC[fi], x))
    return max(lows) + gamma, min(highs) - gamma


@st.composite
def certificates(draw):
    """A STEP or TABULAR class on a 1/8 lattice, a gamma, and a certificate
    over its points.  Three draws in four try for an honest one: the
    Fraction scan's certificate, if the points are shattered, with
    its alpha or with alpha moved onto a margin; any other has alpha + gamma
    or alpha - gamma on a value of the class, or alpha on a 1/16 lattice,
    and a random selector."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        FC = random_step(seed, pieces=n, grid=8, count=draw(st.integers(2, 24)))
        # cell midpoints, cuts and points just left of a cut
        eps = F(1, 10**9)
        pool = sorted({*candidate_points(FC), *(F(k, n) for k in range(n)),
                       *(F(k, n) - eps for k in range(1, n + 1))})
    else:
        FC = random_tabular(seed, n_fns=draw(st.integers(2, 32)))
        pool = list(FC.domain_points)
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    gamma = draw(st.sampled_from([F(1, 8), F(1, 5), F(1, 4), F(3, 8), F(3, 2)]))
    found = draw(st.integers(0, 3)) and oracle_shatters_certificate(FC, points, gamma)
    if found:
        cert = ShatterCertificate(*found)
        alpha = draw(st.sampled_from([cert.alpha, *margin_alphas(FC, gamma, cert)]))
        return FC, gamma, ShatterCertificate(cert.points, alpha, cert.selector)
    levels = sorted({v + s for f in FC for v in f.values for s in (-gamma, gamma)})
    alpha = draw(st.sampled_from(levels) | st.builds(F, st.integers(-16, 32), st.just(16)))
    selector = {m: draw(st.integers(0, len(FC) - 1)) for m in range(1 << len(points))}
    return FC, gamma, ShatterCertificate(tuple(points), alpha, selector)


class TestVerifyMatchesFractionCheck:
    """The integer check on the class table returns what the Fraction
    check per value returns."""

    @given(certificates())
    @settings(max_examples=200, deadline=None)
    def test_random_certificates(self, drawn):
        FC, gamma, cert = drawn
        assert verify_certificate(FC, gamma, cert) == oracle_verify_certificate(FC, gamma, cert)

    @pytest.mark.parametrize("spec", WINDOW_CORPUS)
    def test_gap_dim_certificates_and_their_margins(self, spec):
        FC = generate(spec)
        for gamma in WINDOW_GAMMAS:
            cert = gap_dim(FC, gamma).certificate
            if cert is None:
                continue
            assert verify_certificate(FC, gamma, cert)
            assert oracle_verify_certificate(FC, gamma, cert)
            # alpha moved onto either margin: a boundary tie, which never passes
            for alpha in margin_alphas(FC, gamma, cert):
                tied = ShatterCertificate(cert.points, alpha, cert.selector)
                assert not verify_certificate(FC, gamma, tied)
                assert not oracle_verify_certificate(FC, gamma, tied)


def assert_join_matches_product(FC, gammas=(F(1, 8), F(1, 5), F(1, 4), F(2, 7))):
    """Every ordered pair of different bands: adjacent and non-adjacent,
    k < k2 and k > k2.  At 1/4 and 1/8 a value 1 lies in the top band."""
    for gamma in gammas:
        K = k_of_gamma(gamma)
        for k in range(1, K + 1):
            for k2 in range(1, K + 1):
                if k != k2:
                    got = [(c.cell.to_text(), c.signature) for c in join(FC, gamma, k, k2)]
                    assert got == oracle_join(segment_pairs(FC, gamma, k, k2)), (gamma, k, k2)


class TestJoinMatchesProduct:
    """The class-side join equals the product of the segment families."""

    @pytest.mark.parametrize(
        "L,k,k2", [(L, k, k2) for L in (1, 2, 3) for k, k2 in ((1, 3), (3, 1))]
    )
    def test_full_join_family(self, L, k, k2):
        FC = full_join_family(L, k, k2, F(1, 5))
        assert len(join(FC, F(1, 5), k, k2)) == 1 << len(FC)
        assert_join_matches_product(FC, [F(1, 5)])

    @pytest.mark.parametrize("seed", range(8))
    def test_segment_pairs_of_random_classes(self, seed):
        assert_join_matches_product(random_step(seed, pieces=5, grid=8, count=5))

    @pytest.mark.parametrize(
        "spec",
        [f"random_step({s},6,4,4)" for s in range(8, 12)]
        + ["thresholds(5)", "interval_indicators(4)", "full_join_family(2,4,1,2/9)"],
    )
    def test_other_classes(self, spec):
        assert_join_matches_product(generate(spec))


class TestPinnedCertificates:
    """gap_dim certificates, as written by the Fraction implementation."""

    @pytest.mark.parametrize(
        "spec,gamma,expected",
        [
            ("thresholds(8)", F(1, 4),
             {"alpha": "1/2", "points": ["3/16"], "selector": {"0": 1, "1": 0}}),
            ("all_patterns(3)", F(2, 5),
             {"alpha": "1/2", "points": ["1/6", "1/2", "5/6"],
              "selector": {"0": 0, "1": 4, "2": 2, "3": 6, "4": 1, "5": 5, "6": 3, "7": 7}}),
            ("random_step(1,12,8,32)", F(1, 8),
             {"alpha": "7/16", "points": ["1/24", "1/8", "3/8"],
              "selector": {"0": 1, "1": 14, "2": 8, "3": 4, "4": 5, "5": 11, "6": 6, "7": 10}}),
            ("random_step(1,16,8,64)", F(1, 8),
             {"alpha": "7/16", "points": ["1/32", "9/32", "17/32", "21/32"],
              "selector": {"0": 24, "1": 58, "2": 46, "3": 15, "4": 30, "5": 12, "6": 8,
                           "7": 26, "8": 6, "9": 3, "10": 32, "11": 11, "12": 2, "13": 23,
                           "14": 16, "15": 53}}),
        ],
    )
    def test_certificate_json(self, spec, gamma, expected):
        res = gap_dim(generate(spec), gamma)
        assert res.exact and res.dimension == len(expected["points"])
        assert res.certificate.to_json() == expected

    def test_all_patterns_8(self):
        # mask m is realized by the function whose index is m's 8 bits reversed
        res = gap_dim(generate("all_patterns(8)"), F(1, 4))
        assert res.exact and res.certificate.to_json() == {
            "alpha": "1/2",
            "points": [f"{2 * t + 1}/16" for t in range(8)],
            "selector": {str(m): int(f"{m:08b}"[::-1], 2) for m in range(256)},
        }
