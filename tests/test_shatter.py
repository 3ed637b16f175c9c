import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gapdim import (
    Function,
    FunctionClass,
    IntervalUnion,
    all_patterns,
    full_join_family,
    gap_dim,
    join,
    join_shatter,
    random_step,
    segment,
    shatters,
    thresholds,
    verify_certificate,
)
from gapdim.funclass import InvalidResolution, generate, k_of_gamma
from gapdim.shatter import (
    NAIVE,
    PRUNED,
    EmptyPointSet,
    InvalidCap,
    JoinNotFull,
    MalformedCertificate,
    NotDisjointFamily,
    ShatterCertificate,
    candidate_points,
)
from oracles import (
    oracle_gap_dim, oracle_join, oracle_shatters, oracle_shatters_certificate
)

F = Fraction


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

    def test_json_round_trip(self, zero_one_class):
        cert = ShatterCertificate((F(1, 2),), F(1, 2), {0: 0, 1: 1})
        back = ShatterCertificate.from_json(cert.to_json())
        assert back == cert


class TestShatters:
    def test_singleton_class_cannot_shatter(self):
        FC = FunctionClass([Function.constant(F(1, 2))])
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

    def test_empty_point_set(self, zero_one_class):
        with pytest.raises(EmptyPointSet):
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
        res = gap_dim(thresholds(8), F(1, 4), mode=NAIVE)
        assert res.dimension == 1 and res.exact
        assert verify_certificate(thresholds(8), F(1, 4), res.certificate)

    def test_all_patterns_three(self):
        res = gap_dim(all_patterns(3), F(2, 5), mode=NAIVE)
        assert res.dimension == 3 and res.exact

    def test_narrow_range_dim_zero(self):
        FC = FunctionClass(
            [Function.constant(F(2, 5)), Function.constant(F(3, 5))]
        )
        res = gap_dim(FC, F(1, 5))
        assert res.dimension == 0
        assert res.certificate is None

    def test_invalid_cap(self):
        with pytest.raises(InvalidCap):
            gap_dim(thresholds(2), F(1, 4), cap=0)

    def test_cap_hit_reports_infinite(self):
        res = gap_dim(all_patterns(3), F(2, 5), cap=2, mode=NAIVE)
        assert res.dimension == 2
        assert not res.exact
        assert res.label == "INFINITE_CAP"

    def test_cap_equal_to_bound_stays_exact(self):
        # cap == floor(log2 |F|) == 3: nothing above the cap is feasible
        res = gap_dim(all_patterns(3), F(2, 5), cap=3, mode=NAIVE)
        assert res.dimension == 3 and res.exact

    @given(st.integers(0, 2**32), st.sampled_from([F(1, 8), F(1, 4), F(3, 8)]))
    @settings(max_examples=30, deadline=None)
    def test_modes_agree_and_match_oracle(self, seed, gamma):
        FC = random_step(seed, pieces=5, grid=8, count=5)
        a = gap_dim(FC, gamma, mode=NAIVE)
        b = gap_dim(FC, gamma, mode=PRUNED)
        assert a.dimension == b.dimension
        pts = candidate_points(FC)
        assert a.dimension == oracle_gap_dim(FC, pts, gamma, max_d=3)

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


class TestJoin:
    def test_two_families(self):
        a = [IntervalUnion.interval(0, F(1, 2)), IntervalUnion.interval(F(1, 2), 1)]
        b = [IntervalUnion.interval(0, F(1, 4)), IntervalUnion.interval(F(1, 4), 1)]
        cells = join([a, b])
        assert len(cells) == 3
        assert {c.cell for c in cells} == {
            IntervalUnion.interval(0, F(1, 4)),
            IntervalUnion.interval(F(1, 4), F(1, 2)),
            IntervalUnion.interval(F(1, 2), 1),
        }

    def test_single_family_is_identity(self):
        a = [IntervalUnion.interval(0, F(1, 3)), IntervalUnion.interval(F(2, 3), 1)]
        cells = join([a])
        assert [c.cell for c in cells] == a
        assert [c.signature for c in cells] == [(0,), (1,)]

    def test_rejects_overlapping_family(self):
        a = [IntervalUnion.interval(0, F(2, 3)), IntervalUnion.interval(F(1, 3), 1)]
        with pytest.raises(NotDisjointFamily):
            join([a])

    def test_cells_disjoint_and_contained(self):
        FC = full_join_family(2, 1, 3, F(1, 5))
        fams = [
            (segment(f, F(1, 5), 1), segment(f, F(1, 5), 3)) for f in FC.functions
        ]
        cells = join(fams)
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                assert (cells[i].cell & cells[j].cell).is_empty
        for c in cells:
            for fam_idx, choice in enumerate(c.signature):
                assert (c.cell & fams[fam_idx][choice]) == c.cell


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
        assert gap_dim(FC, F(1, 10), mode=NAIVE).dimension >= 2

    def test_missing_cell_reported(self):
        FC = full_join_family(1, 1, 3, F(1, 5))
        # collapse one function to a constant: its band-3 segment vanishes
        broken = FunctionClass(
            [FC.functions[0], Function.constant(F(1, 10))], "broken"
        )
        with pytest.raises(JoinNotFull) as err:
            join_shatter(broken, 1, 3, F(1, 5))
        assert len(err.value.signature) == 2

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


class TestCandidatePoints:
    def test_step_refinement_midpoints(self, ramp8):
        FC = FunctionClass([ramp8])
        pts = candidate_points(FC)
        assert pts == [F(2 * j + 1, 16) for j in range(8)]

    def test_duplicate_vectors_collapse(self):
        FC = FunctionClass([Function.constant(F(1, 2))])
        assert len(candidate_points(FC)) == 1

    def test_tabular_uses_domain(self):
        FC = all_patterns(3)
        assert candidate_points(FC) == list(FC.domain_points)


class TestIndicatorClassesMatchVcDimension:
    # For 0/1-valued classes at any resolution below 1/2, the gap dimension
    # coincides with the VC dimension: thresholds shatter 1 point, interval
    # indicators shatter 2 but never 3 (the pattern high-low-high needs an
    # interval containing the outer points but not the middle one).
    def test_interval_indicators_dim_two(self):
        from gapdim import interval_indicators

        FC = interval_indicators(6)
        for gamma in (F(1, 8), F(1, 4)):
            res = gap_dim(FC, gamma, mode=NAIVE)
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


def random_families(seed):
    """Families of pairwise disjoint sets on a 1/12 grid; some pieces unowned."""
    rng = random.Random(seed)
    families = []
    for _ in range(rng.randint(0, 4)):
        cuts = sorted({0, 12, *rng.sample(range(1, 12), rng.randint(0, 6))})
        members = [[] for _ in range(rng.randint(0, 3))]
        for lo, hi in zip(cuts, cuts[1:]):
            owner = rng.randrange(len(members) + 1)
            if owner < len(members):
                members[owner].append((F(lo, 12), F(hi, 12)))
        families.append([IntervalUnion(m) for m in members])
    return families


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
        FC = FunctionClass([Function.constant(F(1, 4)), Function.constant(F(3, 4))])
        assert shatters(FC, [F(1, 2)], F(1, 4)) is None
        assert oracle_shatters_certificate(FC, [F(1, 2)], F(1, 4)) is None
        assert_matches_scan(FC, [F(1, 4), F(1, 5)])


class TestJoinMatchesProduct:
    @staticmethod
    def cells(families):
        return [(c.cell.to_text(), c.signature) for c in join(families)]

    @pytest.mark.parametrize(
        "L,k,k2", [(L, k, k2) for L in (1, 2, 3) for k, k2 in ((1, 3), (3, 1))]
    )
    def test_full_join_family(self, L, k, k2):
        FC = full_join_family(L, k, k2, F(1, 5))
        fams = [(segment(f, F(1, 5), k), segment(f, F(1, 5), k2)) for f in FC.functions]
        got = self.cells(fams)
        assert got == oracle_join(fams) and len(got) == 1 << len(FC)

    @pytest.mark.parametrize("seed", range(8))
    def test_segment_pairs_of_random_classes(self, seed):
        FC = random_step(seed, pieces=5, grid=8, count=5)
        for gamma in (F(1, 8), F(1, 5), F(1, 4)):
            K = k_of_gamma(gamma)
            for k, k2 in [(k, k2) for k in range(1, K + 1) for k2 in range(k + 2, K + 1)]:
                fams = [(segment(f, gamma, k), segment(f, gamma, k2)) for f in FC.functions]
                assert self.cells(fams) == oracle_join(fams)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_disjoint_families(self, seed):
        fams = random_families(seed)
        assert self.cells(fams) == oracle_join(fams)

    def test_overlap_where_an_earlier_family_is_empty(self):
        # the second family overlaps only on [3/4, 1), which the first
        # family leaves uncovered: no cell lies there, yet it is an error
        first = [IntervalUnion.interval(0, F(1, 2))]
        second = [IntervalUnion.interval(F(1, 2), 1), IntervalUnion.interval(F(3, 4), 1)]
        with pytest.raises(NotDisjointFamily):
            join([first, second])


class TestPinnedCertificates:
    """PRUNED certificates, as written by the Fraction implementation."""

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
        ],
    )
    def test_certificate_json(self, spec, gamma, expected):
        res = gap_dim(generate(spec), gamma)
        assert res.exact and res.dimension == len(expected["points"])
        assert res.certificate.to_json() == expected
