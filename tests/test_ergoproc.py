import json
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from gapdim import (
    Function,
    FunctionClass,
    discrepancy,
    estimate_gamma,
    expectation,
    golden_rotation_angle,
    interval_indicators,
    rotation_counterexample,
    sample_path,
    thresholds,
)
from gapdim import ergoproc
from gapdim.ergoproc import (
    Draws,
    Emission,
    IIDUniformSpec,
    MarkovSpec,
    Orbit,
    RotationSpec,
    SamplePath,
    Walk,
    _class_sums,
    bound_check,
    floor_sum,
    per_function_discrepancies,
    pointwise_discrepancy,
)
from gapdim.cli import main
from gapdim.funclass import full_join_family, load_class, random_step, refinement, save_class
from gapdim.rng import BLOCK, SplitMix64
from oracles import (
    InvalidSplit,
    OracleTicks,
    frac_mod1,
    fraction_pairs,
    oracle_binned_counts,
    oracle_class_means,
    oracle_constant,
    oracle_expectation,
    oracle_indicator,
    oracle_integral,
    oracle_irreducible,
    oracle_sample_path,
    oracle_stationary,
    oracle_top_byte_table,
    oracle_unit_ticks,
    oracle_value_at,
    randbelow,
    sample_path_of,
    split_path,
    union_of,
)

F = Fraction


def class_means(FC: FunctionClass, path: SamplePath, lengths):
    """The sample means of ``_class_sums``: each sum over V * m."""
    V, sums = _class_sums(FC, path, lengths)
    return [[F(s, V * m) for s in row] for m, row in zip(lengths, sums)]


def staircase(n: int) -> Function:
    pieces = [union_of([(F(j, n), F(j + 1, n))]) for j in range(n)]
    return Function.step(pieces, [F(j, n) for j in range(n)])


def markov2() -> MarkovSpec:
    return MarkovSpec(
        ((F(1, 2), F(1, 2)), (F(1), F(0))),
        (Emission.point(F(1, 10)), Emission.point(F(9, 10))),
    )


def markov3() -> MarkovSpec:
    return MarkovSpec(
        (
            (F(1, 2), F(1, 4), F(1, 4)),
            (F(1, 3), F(1, 3), F(1, 3)),
            (F(1, 4), F(1, 4), F(1, 2)),
        ),
        (
            Emission.uniform(F(0), F(1, 3)),
            Emission.uniform(F(1, 3), F(2, 3)),
            Emission.point(F(5, 6)),
        ),
    )


class TestSpecs:
    def test_golden_angle_denominator(self):
        theta = golden_rotation_angle()
        assert theta.denominator >= 1 << 40
        assert F(0) < theta < F(1)

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MarkovSpec(
                ((F(1, 2), F(1, 3)), (F(1), F(0))),
                (Emission.point(F(1, 4)), Emission.point(F(3, 4))),
            )

    def test_reducible_chain_rejected(self):
        with pytest.raises(ValueError, match="transition matrix is not irreducible"):
            MarkovSpec(
                ((F(1), F(0)), (F(1, 2), F(1, 2))),
                (Emission.point(F(1, 4)), Emission.point(F(3, 4))),
            )

    def test_stationary_distribution(self):
        assert markov2().stationary == (F(2, 3), F(1, 3))

    def test_stationary_is_fixed_point(self):
        spec = markov3()
        pi = spec.stationary
        assert sum(pi, F(0)) == 1
        for j in range(3):
            assert sum(pi[i] * spec.transition[i][j] for i in range(3)) == pi[j]


    def test_markov_discrepancy_solves_the_stationary_law_once(self, monkeypatch):
        solves = []
        solve = ergoproc._stationary
        monkeypatch.setattr(ergoproc, "_stationary", lambda P: solves.append(P) or solve(P))
        spec = MarkovSpec(
            ((F(1, 3), F(2, 3)), (F(3, 4), F(1, 4))),
            (Emission.point(F(1, 2)), Emission.uniform(F(1, 3), F(5, 7))),
        )
        FC = random_step(5, 16, 8, 32)
        path = sample_path(spec, 300, 4)
        expected = [oracle_expectation(f, spec) for f in FC]
        assert discrepancy(FC, path, [10, 300])[-1] == max(per_function_discrepancies(FC, path))
        assert per_function_discrepancies(FC, path) == [
            abs(mean - e) for mean, e in zip(oracle_class_means(FC, path.values), expected)
        ]
        assert len(solves) == 1
        assert spec.stationary == (F(9, 17), F(8, 17))

    def test_stationary_law_is_not_part_of_equality(self):
        assert markov2() == markov2() and hash(markov2()) == hash(markov2())
        assert "stationary" not in repr(markov2()) and "_pi" not in repr(markov2())

    def test_rotation_theta_lies_strictly_between_0_and_1(self):
        assert RotationSpec(F(1, 3)).theta == RotationSpec(theta=F(1, 3)).theta == F(1, 3)
        for theta in (F(0), F(1), F(-1, 3), F(4, 3), 0, 1):
            with pytest.raises(ValueError, match=r"^theta must be in \(0, 1\), got "):
                RotationSpec(theta=theta)

    def test_markov_spec_holds_tuples_of_fractions(self):
        spec = MarkovSpec([[F(1, 2), F(1, 2)], [1, 0]], list(markov2().emissions))
        assert spec.transition == ((F(1, 2), F(1, 2)), (F(1), F(0)))
        assert type(spec.emissions) is tuple and spec.emissions == markov2().emissions
        assert {type(p) for row in spec.transition for p in row} == {Fraction}
        assert spec == markov2() and hash(spec) == hash(markov2())

    def test_every_spec_is_true(self):
        assert all(map(bool, (IIDUniformSpec(), RotationSpec(F(1, 3)), markov2())))

    def test_specs_compare_hash_and_print_by_value(self):
        def specs():
            return [IIDUniformSpec(), RotationSpec(F(1, 3)), RotationSpec(F(2, 3)), markov2(),
                    markov3()]

        specs, again = specs(), specs()
        assert specs == again and list(map(hash, specs)) == list(map(hash, again))
        assert list(map(repr, specs)) == list(map(repr, again))
        assert len(set(specs)) == 5 and all(a != b for a, b in zip(specs, specs[1:]))
        assert repr(specs[0]) == "IIDUniformSpec()"
        assert repr(specs[1]) == "RotationSpec(theta=Fraction(1, 3))"
        assert repr(specs[3]).startswith("MarkovSpec(transition=((Fraction(1, 2), ")

    def test_records_compare_and_hash_by_their_fields(self):
        point = Emission.point(F(1, 4))
        assert point == Emission(F(1, 4), F(1, 4)) == Emission(lo=F(1, 4), hi=F(1, 4))
        assert hash(point) == hash(Emission(F(1, 4), F(1, 4)))
        assert point != Emission.uniform(F(1, 4), F(1, 2))
        assert repr(point) == "Emission(lo=Fraction(1, 4), hi=Fraction(1, 4))"
        FC = thresholds(4)
        assert bound_check(FC, IIDUniformSpec(), F(1, 4), 50, 2, 3) == bound_check(
            FC, IIDUniformSpec(), F(1, 4), 50, 2, 3
        )
        assert estimate_gamma(FC, IIDUniformSpec(), [10, 20], 2, 1) == estimate_gamma(
            FC, IIDUniformSpec(), [10, 20], 2, 1
        )


class TestSamplePath:
    def test_rotation_orbit_arithmetic(self):
        x0, theta = F(1, 10), F(3, 10)
        orbit = [frac_mod1(x0 + i * theta) for i in range(1, 4)]
        assert orbit == [F(2, 5), F(7, 10), F(0)]

    def test_determinism(self):
        spec = IIDUniformSpec()
        assert sample_path(spec, 50, 3).values == sample_path(spec, 50, 3).values

    def test_values_in_unit_interval(self):
        for spec in (IIDUniformSpec(), RotationSpec(theta=golden_rotation_angle()), markov3()):
            path = sample_path(spec, 200, 11)
            assert all(F(0) <= x < F(1) for x in path.values)

    def test_markov_point_emissions(self):
        path = sample_path(markov2(), 100, 5)
        assert set(path.values) <= {F(1, 10), F(9, 10)}


class TestExpectation:
    def test_indicator_uniform(self):
        f = oracle_indicator(union_of([(0, F(1, 4))]))
        assert expectation(FunctionClass([f]), IIDUniformSpec()) == [F(1, 4)]

    def test_constant_any_spec(self):
        f = oracle_constant(F(2, 7))
        for spec in (IIDUniformSpec(), RotationSpec(theta=F(1, 3)), markov2()):
            assert expectation(FunctionClass([f]), spec) == [F(2, 7)]

    def test_markov_staircase(self):
        # hand computation: (2/3) * 1/10 + (1/3) * 9/10 = 11/30
        assert expectation(FunctionClass([staircase(10)]), markov2()) == [F(11, 30)]

    def test_markov_uniform_emission(self):
        spec = MarkovSpec(
            ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
            (Emission.uniform(F(0), F(1, 2)), Emission.uniform(F(1, 2), F(1))),
        )
        f = oracle_indicator(union_of([(0, F(1, 4))]))
        # pi = (1/2, 1/2); conditional expectations 1/2 and 0
        assert expectation(FunctionClass([f]), spec) == [F(1, 4)]

    def test_tabular_rejected(self):
        FC = FunctionClass([Function.tabular([F(1, 2)], [F(1, 2)])])
        with pytest.raises(ValueError, match="expectations need a STEP class"):
            expectation(FC, IIDUniformSpec())


def markov_straddling() -> MarkovSpec:
    """Uniform emissions whose intervals straddle many piece boundaries."""
    return MarkovSpec(
        ((F(1, 5), F(4, 5), F(0)), (F(0), F(1, 2), F(1, 2)), (F(2, 3), F(0), F(1, 3))),
        (Emission.uniform(F(1, 7), F(5, 6)), Emission.uniform(F(3, 10), F(11, 20)),
         Emission.uniform(F(0), F(1))),
    )


def markov_on_cuts() -> MarkovSpec:
    """A point emission on the cut 1/2 and a uniform emission on [1/3, 5/7)."""
    return MarkovSpec(
        ((F(1, 3), F(2, 3)), (F(3, 4), F(1, 4))),
        (Emission.point(F(1, 2)), Emission.uniform(F(1, 3), F(5, 7))),
    )


def even_chain(*emissions) -> MarkovSpec:
    """A chain that moves to each state with equal probability; its
    stationary law is uniform."""
    n = len(emissions)
    return MarkovSpec(tuple((F(1, n),) * n for _ in range(n)), emissions)


# A 2-state chain with point emissions at 0 and on the cut 1/2 of thresholds(4),
# and a 3-state chain with uniform emissions inside one cell of thresholds(4),
# between two of its cuts, and on all of [0, 1).
POINTS_AT_ZERO_AND_ON_A_CUT = MarkovSpec(
    ((F(1, 3), F(2, 3)), (F(3, 4), F(1, 4))), (Emission.point(0), Emission.point(F(1, 2)))
)
UNIFORMS_IN_A_CELL_ON_CUTS_AND_EVERYWHERE = even_chain(
    Emission.uniform(F(1, 16), F(3, 16)),
    Emission.uniform(F(1, 4), F(3, 4)),
    Emission.uniform(0, 1),
)

MASS_SPECS = {
    "iid": IIDUniformSpec(),
    "golden": RotationSpec(theta=golden_rotation_angle()),
    "rotation": RotationSpec(theta=F(2, 7)),
    "markov2": markov2(),
    "markov3": markov3(),
    "straddling": markov_straddling(),
    "on_cuts": markov_on_cuts(),
    "points": POINTS_AT_ZERO_AND_ON_A_CUT,
    "uniforms": UNIFORMS_IN_A_CELL_ON_CUTS_AND_EVERYWHERE,
}

# An uneven class file: cells of unequal widths and a piece that is empty.
UNEVEN_CLASS = {
    "kind": "step",
    "name": "uneven",
    "functions": [
        {"pieces": [
            {"set": "[0/1,1/7)", "value": "1/3"},
            {"set": "empty", "value": "1/1"},
            {"set": "[1/7,5/9),[5/6,1/1)", "value": "2/5"},
            {"set": "[5/9,5/6)", "value": "0/1"},
        ]},
        {"pieces": [
            {"set": "[0/1,1/2)", "value": "1/2"},
            {"set": "[1/2,1/1)", "value": "1/1"},
        ]},
    ],
}


def mass_corpus(tmp_path):
    path = tmp_path / "uneven.json"
    path.write_text(json.dumps(UNEVEN_CLASS))
    classes = (
        [thresholds(n) for n in (1, 4, 6)]
        + [interval_indicators(n) for n in (1, 5)]
        + [full_join_family(2, 1, 3, F(1, 5))]
        + [random_step(s, 4 + s % 5, 8, 3 + s % 6) for s in range(12)]
        + [random_step(5, 9, 7, 6), random_step(8, 1, 3, 2), random_step(13, 100, 3, 3)]
    )
    # functions on different partitions in one class
    mixed = [f for FC in classes[-3:] for f in FC.functions] + [staircase(10)]
    mixed.append(Function.step(
        [union_of([(0, F(1, 5)), (F(2, 3), 1)]), union_of([(F(1, 5), F(2, 3))])],
        [F(1, 3), F(5, 8)],
    ))
    return [*classes, FunctionClass(mixed), load_class(path)]


# [0, 1), windows inside one cell and across many, ends on and off cuts
WINDOWS = [(F(0), F(1)), (F(1, 7), F(5, 9)), (F(1, 3), F(1, 3) + F(1, 10**9)),
           (F(1, 4), F(1, 2)), (F(0), F(1, 8)), (F(7, 8), F(1))] + [
    (F(a, 10**4), F(b, 10**4)) for a, b in [(17, 9973), (2500, 2513), (4999, 5001), (6120, 8888)]
]


class TestExpectationMatchesPieceMeasures:
    """Expectations from the cell masses of the class table equal the
    IntervalUnion piece-measure formula, function by function."""

    @pytest.mark.parametrize("name", sorted(MASS_SPECS))
    def test_classes(self, name, tmp_path):
        spec = MASS_SPECS[name]
        for FC in mass_corpus(tmp_path):
            assert expectation(FC, spec) == [oracle_expectation(f, spec) for f in FC], FC
            C, cuts = refinement(FC)[:2]
            B, masses = spec.cell_masses(C, cuts)
            assert len(masses) == len(cuts) - 1 and all(x >= 0 for x in masses)
            assert sum(masses) == B

    def test_one_expectation_per_class_and_path(self, monkeypatch):
        calls = []
        real = ergoproc.expectation
        monkeypatch.setattr(
            ergoproc, "expectation", lambda FC, s: calls.append((FC, s)) or real(FC, s)
        )
        FC = random_step(2, 6, 5, 7)
        path = sample_path(markov_straddling(), 50, 3)
        for run in (
            lambda: per_function_discrepancies(FC, path),
            lambda: discrepancy(FC, path, [1, 20, 50]),
        ):
            calls.clear()
            run()
            assert calls == [(FC, path.spec)]


class TestCellMasses:
    """Cell masses checked by hand, and one-state chains against integrals."""

    def test_uneven_class_file(self, tmp_path):
        FC = mass_corpus(tmp_path)[-1]
        assert len(FC[0].pieces) == 4 and not FC[0].pieces[1]
        # 1/3 * 1/7 + 2/5 * ((5/9 - 1/7) + (1 - 5/6)), and 1/2 * 1/2 + 1/2
        assert expectation(FC, IIDUniformSpec()) == [F(1, 21) + F(2, 5) * F(73, 126), F(3, 4)]

    def test_points_at_zero_and_on_a_cut(self):
        # pi = (9/17, 8/17); the point 1/2 on a cut lies in the cell right of it
        C, cuts = refinement(thresholds(4))[:2]
        B, masses = POINTS_AT_ZERO_AND_ON_A_CUT.cell_masses(C, cuts)
        assert [F(x, B) for x in masses] == [F(9, 17), 0, F(8, 17), 0]

    def test_uniforms_in_a_cell_on_cuts_and_everywhere(self):
        # each state weighs 1/3: all on cell 0, halves on cells 1 and 2,
        # quarters on every cell
        C, cuts = refinement(thresholds(4))[:2]
        B, masses = UNIFORMS_IN_A_CELL_ON_CUTS_AND_EVERYWHERE.cell_masses(C, cuts)
        assert [F(x, B) for x in masses] == [F(5, 12), F(1, 4), F(1, 4), F(1, 12)]

    @pytest.mark.parametrize("lo,hi", WINDOWS, ids=str)
    def test_one_uniform_state_gives_the_mean_over_its_interval(self, lo, hi, tmp_path):
        spec = even_chain(Emission.uniform(lo, hi))
        for FC in mass_corpus(tmp_path):
            means = [oracle_integral(f, lo, hi) / (hi - lo) for f in FC]
            assert expectation(FC, spec) == means, FC


class TestDiscrepancy:
    def test_exact_arithmetic_example(self):
        # staircase on tenths has E = 9/20; a hand path gives mean 4/10
        f = staircase(10)
        path = sample_path_of((F(1, 5), F(2, 5), F(3, 5)), 0, IIDUniformSpec())
        assert pointwise_discrepancy(f, path) == abs(F(2, 5) - F(9, 20))

    def test_indicator_path_inside_support(self):
        f = oracle_indicator(union_of([(0, F(1, 2))]))
        FC = FunctionClass([f])
        path = sample_path_of((F(1, 8), F(1, 4), F(3, 8)), 0, IIDUniformSpec())
        assert max(per_function_discrepancies(FC, path)) == F(1, 2)

    def test_matches_per_function_enumeration(self):
        FC = thresholds(8)
        path = sample_path(IIDUniformSpec(), 100, 17)
        per = [pointwise_discrepancy(f, path) for f in FC.functions]
        assert per == per_function_discrepancies(FC, path)
        assert max(per_function_discrepancies(FC, path)) == max(per)

    def test_constant_class_zero(self):
        FC = FunctionClass([oracle_constant(F(1, 3))])
        for m in (1, 10, 100):
            path = sample_path(IIDUniformSpec(), m, 23)
            assert max(per_function_discrepancies(FC, path)) == 0

    def test_bounded_by_one(self):
        FC = thresholds(4)
        path = sample_path(markov3(), 150, 31)
        assert F(0) <= max(per_function_discrepancies(FC, path)) <= F(1)

    def test_class_monotone(self):
        big = thresholds(8)
        small = FunctionClass(big.functions[:3])
        path = sample_path(IIDUniformSpec(), 100, 41)
        assert max(per_function_discrepancies(small, path)) <= max(
            per_function_discrepancies(big, path)
        )


# Pieces that are unions of several intervals, one of them empty, with cuts
# at 1/2 (where markov_on_cuts emits a point) and at 1/3 and 5/7 (the ends
# of its uniform emission).
MULTI_INTERVAL_PIECES = [
    ([[(0, F(1, 5)), (F(2, 3), 1)], [(F(1, 5), F(2, 3))]], [F(1, 3), F(5, 8)]),
    (
        [[(0, F(1, 7)), (F(3, 7), F(1, 2)), (F(6, 7), 1)], [],
         [(F(1, 7), F(3, 7)), (F(1, 2), F(6, 7))]],
        [F(1, 2), F(1), F(1, 9)],
    ),
    (
        [[(0, F(1, 3)), (F(5, 7), F(4, 5))], [(F(1, 3), F(1, 2)), (F(4, 5), 1)],
         [(F(1, 2), F(5, 7))]],
        [F(0), F(7, 11), F(1)],
    ),
]


class TestPointwiseDiscrepancy:
    """pointwise_discrepancy reads a path's values by one values_at call on
    the function's class of one, and agrees with the class-level count."""

    @pytest.fixture
    def reloaded(self, tmp_path):
        FC = FunctionClass([
            Function.step([union_of(pairs) for pairs in pieces], values)
            for pieces, values in MULTI_INTERVAL_PIECES
        ], "multi")
        save_class(FC, tmp_path / "multi.json")
        return load_class(tmp_path / "multi.json")

    @pytest.mark.parametrize(
        "spec", [IIDUniformSpec(), RotationSpec(theta=F(2, 7)), markov_on_cuts(), markov3()],
        ids=["iid", "rotation", "markov_on_cuts", "markov3"],
    )
    @pytest.mark.parametrize("seed", [0, 11])
    def test_saved_class_matches_the_class_discrepancies(self, reloaded, spec, seed):
        assert [len(fraction_pairs(piece)) for piece in reloaded[1].pieces] == [3, 0, 2]
        path = sample_path(spec, 400, seed)
        per = [pointwise_discrepancy(f, path) for f in reloaded]
        assert per == per_function_discrepancies(reloaded, path)
        values = path.values
        assert per == [
            abs(sum((oracle_value_at(f, x) for x in values), F(0)) / len(values)
                - oracle_expectation(f, spec))
            for f in reloaded
        ]

    def test_tabular_function_is_rejected(self):
        f = Function.tabular([F(1, 4), F(1, 2)], [0, 1])
        path = sample_path_of((F(1, 4), F(1, 2)), 0, IIDUniformSpec())
        with pytest.raises(ValueError, match="expectations need a STEP class"):
            pointwise_discrepancy(f, path)


def subadditivity_check(F: FunctionClass, path: SamplePath, split: int) -> bool:
    """Exact check of (m+n) G_{m+n} <= m G_m + n G_n across a path split, on
    the library's ``per_function_discrepancies``: a property of the library,
    not an oracle."""
    head, tail = split_path(path, split)

    def weighted(p):
        return len(p) * max(per_function_discrepancies(F, p))

    return weighted(path) <= weighted(head) + weighted(tail)


class TestSubadditivity:
    def test_holds_on_any_split(self):
        FC = thresholds(4)
        path = sample_path(IIDUniformSpec(), 30, 2)
        assert all(subadditivity_check(FC, path, s) for s in range(1, 30))

    def test_identical_halves(self):
        f = oracle_indicator(union_of([(0, F(1, 2))]))
        FC = FunctionClass([f])
        values = (F(1, 4), F(3, 4)) * 5
        path = sample_path_of(values, 0, IIDUniformSpec())
        assert subadditivity_check(FC, path, 5)

    def test_invalid_split(self):
        FC = thresholds(4)
        path = sample_path(IIDUniformSpec(), 10, 2)
        with pytest.raises(InvalidSplit):
            subadditivity_check(FC, path, 10)

    @pytest.mark.parametrize("theta", [golden_rotation_angle(), F(1, 3)])
    def test_parts_of_a_rotation_path_are_binned(self, theta):
        # a head or tail keeps the parent's spec and seed but not its orbit:
        # its discrepancy is that of the same points given by hand
        spec = RotationSpec(theta=theta)
        path = sample_path(spec, 60, 3)
        FC = thresholds(16)
        parts = split_path(path, 5)
        for part in parts:
            assert isinstance(part.ticks, OracleTicks)
            by_hand = sample_path_of(part.values, path.seed, spec)
            assert max(per_function_discrepancies(FC, part)) == max(
                per_function_discrepancies(FC, by_hand)
            )
        assert len(parts[0]) == 5 and parts[0].values == path.values[:5]

    @given(st.integers(0, 10**6), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_randomized(self, seed, m):
        FC = thresholds(4)
        variant = seed % 3
        if variant == 0:
            spec = IIDUniformSpec()
        elif variant == 1:
            spec = RotationSpec(theta=golden_rotation_angle())
        else:
            spec = markov3()
        path = sample_path(spec, m, seed)
        split = 1 + seed % (m - 1)
        assert subadditivity_check(FC, path, split)


class TestEstimateGamma:
    def test_determinism(self):
        FC = thresholds(4)
        a = estimate_gamma(FC, IIDUniformSpec(), [50, 100], 3, 7)
        b = estimate_gamma(FC, IIDUniformSpec(), [50, 100], 3, 7)
        assert a.rows == b.rows and a.estimate == b.estimate

    def test_constant_class_all_zero(self):
        FC = FunctionClass([oracle_constant(F(1, 2))])
        rep = estimate_gamma(FC, IIDUniformSpec(), [10, 100], 2, 5)
        assert all(g == 0 for _, _, g in rep.rows)
        assert rep.estimate == 0

    def test_summary_shape(self):
        FC = thresholds(4)
        rep = estimate_gamma(FC, IIDUniformSpec(), [20, 40], 4, 13)
        assert set(rep.summary) == {20, 40}
        for stats in rep.summary.values():
            assert stats["min"] <= stats["mean"] <= stats["max"]
        assert rep.estimate == rep.summary[40]["mean"]


class TestRotationCounterexample:
    def test_small_demo(self):
        rep = rotation_counterexample(60, 3)
        assert rep.data_dependent_gamma == 1
        assert rep.fixed_family_gamma == 0
        assert rep.combined_dim.dimension == 1

    def test_deterministic(self):
        a = rotation_counterexample(40, 9)
        b = rotation_counterexample(40, 9)
        assert a.x0 == b.x0 and a.data_dependent_gamma == b.data_dependent_gamma

    @pytest.mark.parametrize("m", [0, -2])
    def test_rejects_empty_path(self, m):
        with pytest.raises(ValueError, match="path length must be >= 1"):
            rotation_counterexample(m, 1)

    @pytest.mark.parametrize("theta", [None, F(1, 1000003)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
    def test_start_is_the_first_draw_of_the_seed(self, seed, theta):
        assert rotation_counterexample(5, seed, theta).x0 == SplitMix64(seed).unit_fraction()


class TestBoundCheck:
    def test_thresholds_iid(self):
        rep = bound_check(thresholds(8), IIDUniformSpec(), F(1, 10), 2000, 2, 5)
        assert rep.dim.dimension == 1
        assert rep.bound == 1
        assert rep.passed
        assert rep.estimate < F(1, 10)

    def test_constants(self):
        FC = FunctionClass([oracle_constant(F(1, 2))])
        rep = bound_check(FC, IIDUniformSpec(), F(1, 10), 100, 1, 3)
        assert rep.estimate == 0 and rep.passed

    def test_rotation(self):
        spec = RotationSpec(theta=golden_rotation_angle())
        rep = bound_check(thresholds(8), spec, F(1, 10), 2000, 2, 5)
        assert rep.passed and rep.estimate < F(1, 10)


class TestStationarySolver:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_chain_fixed_point(self, seed):
        from gapdim.rng import SplitMix64

        rng = SplitMix64(seed)
        n = 2 + randbelow(rng, 3)
        rows = []
        for _ in range(n):
            # strictly positive weights keep the chain irreducible
            w = [1 + randbelow(rng, 9) for _ in range(n)]
            total = sum(w)
            rows.append(tuple(F(x, total) for x in w))
        spec = MarkovSpec(
            tuple(rows), tuple(Emission.point(F(i, n)) for i in range(n))
        )
        pi = spec.stationary
        assert sum(pi, F(0)) == 1
        assert all(p > 0 for p in pi)
        for j in range(n):
            assert sum(pi[i] * rows[i][j] for i in range(n)) == pi[j]


def random_chain(rng: SplitMix64):
    """A chain of 1-6 states whose rows hold random zero patterns."""
    n = 1 + randbelow(rng, 6)
    rows = []
    for _ in range(n):
        w = [randbelow(rng, 4) if randbelow(rng, 2) else 0 for _ in range(n)]
        if not any(w):
            w[randbelow(rng, n)] = 1
        rows.append(tuple(F(x, sum(w)) for x in w))
    return tuple(rows)


def point_chain(P) -> MarkovSpec:
    return MarkovSpec(P, tuple(Emission.point(F(i, len(P))) for i in range(len(P))))


class TestErgodicity:
    """The one exact solve decides irreducibility as reachability does."""

    def test_verdict_and_law_match_reachability_on_random_chains(self):
        rng = SplitMix64(14)
        verdicts = Counter()
        for _ in range(2500):
            P = random_chain(rng)
            singular = ergoproc._stationary(P) is None
            try:
                pi = point_chain(P).stationary
            except ValueError as exc:
                assert str(exc) == "transition matrix is not irreducible", P
                pi = None
            assert (pi is not None) == oracle_irreducible(P), P
            if pi is not None:
                assert pi == oracle_stationary(P), P
            verdicts[pi is not None, singular] += 1
        # irreducible, reducible with a unique law, reducible and singular
        assert min(verdicts[True, False], verdicts[False, False]) >= 500, verdicts
        assert verdicts[False, True] >= 100 and verdicts[True, True] == 0, verdicts

    @pytest.mark.parametrize(
        "P",
        [
            ((F(1), F(0)), (F(0), F(1))),
            ((F(1), F(0), F(0)), (F(0), F(1, 2), F(1, 2)), (F(0), F(1, 2), F(1, 2))),
        ],
        ids=["identity", "two-closed-classes"],
    )
    def test_two_closed_classes_make_a_singular_system(self, P):
        assert ergoproc._stationary(P) is None
        with pytest.raises(ValueError, match="transition matrix is not irreducible"):
            point_chain(P)

    def test_transient_state_gets_weight_zero(self):
        P = ((F(1, 2), F(1, 2), F(0)), (F(1, 3), F(2, 3), F(0)), (F(1, 4), F(1, 4), F(1, 2)))
        assert ergoproc._stationary(P) == (F(2, 5), F(3, 5), F(0))
        with pytest.raises(ValueError, match="transition matrix is not irreducible"):
            point_chain(P)

    def test_periodic_chain_is_irreducible(self):
        P = ((F(0), F(1)), (F(1), F(0)))
        assert point_chain(P).stationary == (F(1, 2), F(1, 2))

    def test_one_state_chain(self):
        assert point_chain(((F(1),),)).stationary == (F(1),)

    def test_shape_and_rows_are_checked_first(self):
        with pytest.raises(ValueError, match="square"):
            point_chain(((F(1), F(0)),))
        with pytest.raises(ValueError, match=">= 0"):
            point_chain(((F(2), F(-1)), (F(0), F(1))))
        with pytest.raises(ValueError, match="sum to 1"):
            point_chain(((F(1, 2), F(0)), (F(0), F(1))))


class TestOrbitSeparation:
    def test_default_angle_orbits_cannot_collide_at_demo_scale(self):
        # A collision between truncated orbits of the demo's base points
        # (denominators dividing 7 * 2**53) would force some n*theta mod 1,
        # |n| <= 2m, to have a tiny reduced denominator.  With the golden
        # convergent that denominator stays astronomically large, so the
        # demo can never abort on overlapping windows at feasible m.
        theta = golden_rotation_angle()
        for n in range(1, 4001):
            assert (n * theta % 1).denominator > 10**6


def split_byte_chain() -> MarkovSpec:
    """Transition thresholds at 2**64 / 3 and 2**65 / 3, each strictly
    inside the range of one top byte, so the walk bisects there."""
    return MarkovSpec(
        ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))),
        (Emission.uniform(F(1, 5), F(4, 5)), Emission.point(F(1, 3))),
    )


ORACLE_SPECS = {
    "iid": IIDUniformSpec(),
    "golden": RotationSpec(theta=golden_rotation_angle()),
    "quarter": RotationSpec(theta=F(1, 4)),
    "markov": markov_on_cuts(),
    "markov3": markov3(),
    "split_byte": split_byte_chain(),
}


def cut_at(points) -> FunctionClass:
    """Indicators of [0, p): a class with a cut at every positive point."""
    return FunctionClass([
        oracle_indicator(union_of([(0, p)])) for p in sorted(set(points)) if p
    ])


class TestIntegerPathsMatchFractionOracle:
    """Integer ticks and integer binning agree with the Fraction generator and
    the Fraction bisection they replaced."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    @pytest.mark.parametrize("seed", [0, 1, 29, -7])
    def test_points(self, name, seed):
        spec = ORACLE_SPECS[name]
        path = sample_path(spec, 400, seed)
        assert tuple(F(t, path.scale) for t in path.ticks) == oracle_sample_path(spec, 400, seed)

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    @pytest.mark.parametrize("m", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_points_across_a_block_of_bulk_draws(self, name, m):
        spec = ORACLE_SPECS[name]
        path = sample_path(spec, m, 12345)
        assert tuple(F(t, path.scale) for t in path.ticks) == oracle_sample_path(spec, m, 12345)

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    @pytest.mark.parametrize("seed", [3, 8])
    def test_means(self, name, seed):
        spec = ORACLE_SPECS[name]
        values = oracle_sample_path(spec, 300, seed)
        path = sample_path(spec, 300, seed)
        lengths = [1, 7, 150, 300]
        # thresholds(4) cuts at 1/4, 1/2, 3/4, where rotation:1/4 and the
        # Markov point land; cut_at puts a cut on points of the path itself.
        classes = [thresholds(4), random_step(seed, 6, 4, 7), cut_at(values[:12])]
        for FC in classes:
            got = class_means(FC, path, lengths)
            assert got == [oracle_class_means(FC, values[:m]) for m in lengths]

    def test_points_on_cuts_are_binned_right_of_them(self):
        # rotation:1/4 visits four points; a class cut at all of them puts
        # every sample exactly on a cut
        spec = ORACLE_SPECS["quarter"]
        values = oracle_sample_path(spec, 40, 5)
        FC = cut_at(values)
        assert len(FC) == 4
        path = sample_path(spec, 40, 5)
        assert class_means(FC, path, [40]) == [oracle_class_means(FC, values)]
        assert per_function_discrepancies(FC, path) == [
            pointwise_discrepancy(f, path) for f in FC.functions
        ]

    def test_cut_between_ticks_uses_the_ceiling(self):
        # scale 8: the cut 1/3 sits at 8/3 ticks, so tick 2 (1/4) lies left
        # of it and tick 3 (3/8) right of it
        path = sample_path_of((F(1, 4), F(3, 8)), 0, IIDUniformSpec())
        FC = cut_at([F(1, 3)])
        assert path.scale == 8
        assert class_means(FC, path, [1, 2]) == [[F(1)], [F(1, 2)]]

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_discrepancies(self, name):
        spec = ORACLE_SPECS[name]
        FC = random_step(6, 8, 5, 9)
        values = oracle_sample_path(spec, 300, 2)
        expected = [oracle_expectation(f, spec) for f in FC]
        lengths = [1, 99, 300]
        want = [
            [abs(mean - e) for mean, e in zip(oracle_class_means(FC, values[:m]), expected)]
            for m in lengths
        ]
        path = sample_path(spec, 300, 2)
        assert ergoproc._discrepancies(FC, path, lengths) == want
        assert per_function_discrepancies(FC, path) == want[-1]

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_estimate_gamma_rows_match_resampling(self, name):
        spec = ORACLE_SPECS[name]
        FC = random_step(4, 8, 5, 9)
        grid = [120, 5, 40, 120, 1]
        rep = estimate_gamma(FC, spec, grid, 3, 60)
        expected = expectation(FC, spec)
        rows = []
        for m in sorted(grid):
            for r in range(3):
                means = oracle_class_means(FC, oracle_sample_path(spec, m, 60 + r))
                rows.append((m, r, max(abs(a - e) for a, e in zip(means, expected))))
        assert list(rep.rows) == rows
        assert [m for m, _, _ in rep.rows] == [m for m in (1, 5, 40, 120, 120) for _ in range(3)]
        assert rep.estimate == sum(g for m, _, g in rows if m == 120) / 6


class TestUnitTick:
    def test_numerator_of_unit_fraction(self):
        ticks, fractions = SplitMix64(-3), SplitMix64(-3)
        for _ in range(50):
            assert F(ticks.unit_tick(), 1 << 53) == fractions.unit_fraction()


class TestSamplePathOf:
    def test_scale_is_lcm_of_denominators(self):
        path = sample_path_of((F(1, 4), F(1, 6), 0), 3, IIDUniformSpec())
        assert path.scale == 12 and path.ticks == (3, 2, 0) and len(path) == 3
        assert path.values == (F(1, 4), F(1, 6), F(0))

    @pytest.mark.parametrize("x", [F(-1, 3), F(1), F(5, 4)])
    def test_points_outside_unit_interval_rejected(self, x):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            sample_path_of((F(1, 2), x), 0, IIDUniformSpec())

    def test_no_points_rejected(self):
        # an empty path has no mean: discrepancy would divide by zero
        with pytest.raises(ValueError, match="at least one point"):
            sample_path_of((), 0, IIDUniformSpec())


class TestDiscrepancyTrajectory:
    def test_matches_prefix_paths(self):
        FC = thresholds(8)
        path = sample_path(markov3(), 200, 4)
        lengths = [1, 50, 51, 200]
        assert discrepancy(FC, path, lengths) == [
            max(per_function_discrepancies(FC, sample_path(markov3(), m, 4))) for m in lengths
        ]

    @pytest.mark.parametrize("lengths", [[], [0, 5], [5, 5], [9, 3], [3, 11]])
    def test_bad_lengths_rejected(self, lengths):
        path = sample_path(IIDUniformSpec(), 10, 4)
        with pytest.raises(ValueError, match="prefix lengths"):
            discrepancy(thresholds(4), path, lengths)


ORBIT_THETAS = [golden_rotation_angle(), F(1, 3), F(2, 5), F(5, 8)]


@st.composite
def orbit_cases(draw):
    """(theta, seed, m, increasing lengths within [1, m])."""
    theta = draw(st.sampled_from(ORBIT_THETAS))
    seed = draw(st.integers(-(2**63), 2**64))
    m = draw(st.sampled_from([1, 2]) | st.integers(1, 400))
    lengths = draw(st.sets(st.integers(1, m), max_size=5))
    return theta, seed, m, sorted(lengths | {m})


class TestOrbitCounts:
    """Rotation paths are counted by floor sums over their orbit; the counts
    must equal binning the same ticks one by one."""

    @given(st.integers(0, 40), st.integers(1, 60), st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_floor_sum(self, n, M, a, b):
        assert floor_sum(n, M, a, b) == sum((a * i + b) // M for i in range(n))

    def test_floor_sum_on_orbit_sized_integers(self):
        M, a, b = 7 << 53, 3 << 53, 12345 << 40
        assert floor_sum(1000, M, a, b) == sum((a * i + b) // M for i in range(1000))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_bisecting_every_tick(self, data):
        # small orbits, with thresholds on a tick, next to one and anywhere
        N = data.draw(st.integers(2, 60))
        first, step = data.draw(st.integers(0, N - 1)), data.draw(st.integers(1, N - 1))
        orbit = Orbit(first, step, N, data.draw(st.integers(1, 80)))
        ticks = tuple(orbit)
        near = st.sampled_from(ticks).flatmap(lambda t: st.integers(t - 1, t + 1))
        cut = (near | st.integers(1, N)).filter(lambda K: 0 < K <= N)
        thresholds = sorted(data.draw(st.sets(cut, max_size=6)))
        lengths = sorted(data.draw(st.sets(st.integers(1, len(ticks)), max_size=4)) | {len(ticks)})
        assert list(orbit.counts(thresholds, lengths)) == list(
            oracle_binned_counts(ticks, thresholds, lengths)
        )

    @given(orbit_cases(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_orbit_means_match_binning(self, case, class_seed):
        theta, seed, m, lengths = case
        path = sample_path(RotationSpec(theta=theta), m, seed)
        assert isinstance(path.ticks, Orbit) and len(path) == m
        binned = SamplePath(OracleTicks(path.ticks), path.scale, path.seed, path.spec)
        for FC in (thresholds(16), random_step(class_seed, 16, 8, 32), interval_indicators(10)):
            assert class_means(FC, path, lengths) == class_means(FC, binned, lengths)

    def test_orbit_ticks_are_the_drawn_rotation(self):
        spec = RotationSpec(theta=F(2, 5))
        path = sample_path(spec, 9, 4)
        assert path.values == oracle_sample_path(spec, 9, 4)
        assert path.ticks.first == next(iter(path.ticks)) and path.ticks.length == 9

    def test_period_three_orbit_at_a_billion_points(self, capsys):
        # x_{i+3} = x_i, so the first 10**9 points are 10**9 // 3 periods
        # and the remainder's first point
        spec, m, seed = RotationSpec(theta=F(1, 3)), 10**9, 7
        FC = thresholds(16)
        period = sample_path(spec, 3, seed).values
        q, r = divmod(m, 3)
        wholes, rests = oracle_class_means(FC, period), oracle_class_means(FC, period[:r])
        sums = [3 * q * whole + r * rest for whole, rest in zip(wholes, rests)]
        means = [s / m for s in sums]
        assert class_means(FC, sample_path(spec, m, seed), [m]) == [means]

        expected = [abs(a - e) for a, e in zip(means, expectation(FC, spec))]
        assert main(["discrepancy", "--class", "thresholds(16)", "--process", "rotation:1/3",
                     "--m", str(m), "--seed", str(seed)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert [F(d["exact"]) for d in report["per_function"]] == expected
        assert F(report["gamma_m"]["exact"]) == max(expected)


class TestPathStorage:
    """IID ticks are their draws and rotation ticks an orbit; what a path
    reads as (values, length) is what a tuple of ticks gives."""

    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, 2 * BLOCK + 1])
    def test_iid_ticks_are_the_per_call_draws(self, m):
        # the 53-bit draw k is the tick k << 11 over 2**64: the same point
        path = sample_path(IIDUniformSpec(), m, 77)
        draws, want = path.ticks, tuple(k << 11 for k in oracle_unit_ticks(SplitMix64(77), m))
        assert isinstance(draws, Draws) and path.scale == 2**64
        assert tuple(chain.from_iterable(draws.blocks())) == want
        assert draws.length == m and tuple(draws) == want

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    @pytest.mark.parametrize("m", [1, 2, BLOCK + 1])
    def test_values_length_and_equality(self, name, m):
        spec = ORACLE_SPECS[name]
        path = sample_path(spec, m, 5)
        as_tuple = SamplePath(OracleTicks(path.ticks), path.scale, path.seed, spec)
        assert path.values == as_tuple.values == oracle_sample_path(spec, m, 5)
        assert len(path) == len(as_tuple) == m

    @pytest.mark.parametrize("name", ["markov", "markov3", "split_byte"])
    def test_walk_reads_as_a_tuple(self, name):
        path = sample_path(ORACLE_SPECS[name], 50, 9)
        walk, want = path.ticks, oracle_sample_path(ORACLE_SPECS[name], 50, 9)
        assert isinstance(walk, Walk) and walk.length == 50
        assert tuple(F(t, path.scale) for t in walk) == want

    @pytest.mark.parametrize("name", ["iid", "golden", "quarter", "markov3", "split_byte"])
    def test_discrepancies_read_no_tick(self, monkeypatch, name):
        # thresholds(24) cuts inside 16 top bytes, so an IID path's words
        # are unpacked from its lanes; thresholds(8) cuts on bucket edges
        spec = ORACLE_SPECS[name]
        m = 2 * BLOCK + 1
        path = sample_path(spec, m, 1)
        values = oracle_sample_path(spec, m, 1)
        classes = [thresholds(8), thresholds(24)]
        want = [
            [abs(a - e) for a, e in zip(oracle_class_means(FC, values), expectation(FC, spec))]
            for FC in classes
        ]

        def refuse(*args):
            raise AssertionError("a tick of the path was built")

        for kind in (Draws, Orbit, Walk):
            monkeypatch.setattr(kind, "__iter__", refuse)
        monkeypatch.setattr(Draws, "blocks", refuse)
        assert [per_function_discrepancies(FC, path) for FC in classes] == want


BUCKET = 1 << 56  # the tick range of one top byte


def grid_thresholds(cells: int):
    """The cuts i / cells of an even grid as thresholds over 2**64."""
    return [-(-i * 2**64 // cells) for i in range(1, cells)]


@st.composite
def word_paths(draw, cells: int):
    """(words, thresholds, increasing lengths): a path of IID words whose
    length sits at a block edge, with some ticks moved onto or next to a
    threshold or a bucket edge, and cells - 1 thresholds in (0, 2**64]."""
    cut = st.one_of(
        st.integers(1, 255).map(lambda b: b * BUCKET),  # on a bucket edge
        st.integers(1, 2**53 - 1).map(lambda k: k << 11),  # on a tick
        st.integers(1, 2**64),
    )
    if draw(st.booleans()):
        thresholds = grid_thresholds(cells)
    else:
        thresholds = sorted(draw(st.lists(cut, min_size=cells - 1, max_size=cells - 1)))
    m = draw(st.sampled_from([1, BLOCK - 1, BLOCK, 2 * BLOCK + 1]))
    words = array("Q", chain.from_iterable(SplitMix64(draw(st.integers(0, 2**64 - 1))).word_blocks(m)))
    edges = [*thresholds, *(b * BUCKET for b in range(1, 256))]
    for _ in range(draw(st.integers(0, 8))):
        near = draw(st.sampled_from(edges)) + draw(st.integers(-1, 1))
        words[draw(st.integers(0, m - 1))] = min(max(near, 0), 2**64 - 1)
    lengths = draw(st.sets(st.integers(1, m), max_size=4))
    return words, thresholds, sorted(lengths | {m})


class TestTopByteBinning:
    """IID words binned by their top byte, with a bisect only for the ticks
    the table marks, give the counts of one bisect per tick."""

    @pytest.mark.parametrize("cells", [1, 16, 24, 128, 254, 255, 256, 300])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_counts_match_bisecting_every_tick(self, cells, data):
        words, thresholds, lengths = data.draw(word_paths(cells))
        # a bare word array is the one state of a walk that emits the word
        walk = Walk(bytearray(len(words)), [words], [(0, 1)])
        got = list(walk.counts(thresholds, lengths))
        assert got == list(oracle_binned_counts(tuple(words), thresholds, lengths))

    @pytest.mark.parametrize("cells", [1, 16, 254, 255, 256, 300])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_table_matches_one_bisect_per_byte(self, cells, data):
        cut = st.one_of(
            st.sampled_from([0, 2**64]),
            st.integers(0, 256).map(lambda b: b * BUCKET),  # on a bucket edge
            st.integers(0, 2**53 - 1).map(lambda k: k << 11),  # on a tick
            st.integers(0, 2**64),
        )
        if data.draw(st.booleans()):
            thresholds = grid_thresholds(cells)
        else:
            thresholds = sorted(data.draw(st.lists(cut, min_size=cells - 1, max_size=cells - 1)))
        assert ergoproc._top_byte_table(thresholds) == oracle_top_byte_table(thresholds)

    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_draws_are_binned_across_block_edges(self, m):
        # thresholds on the ticks either side of each block edge (and one
        # past them) split their top bytes, so those ticks are bisected
        path = sample_path(IIDUniformSpec(), m, 41)
        ticks = tuple(path.ticks)
        edges = [i for i in (0, 1, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK) if i < m]
        thresholds = sorted({t + d for t in map(ticks.__getitem__, edges) for d in (0, 1)})
        table = ergoproc._top_byte_table(thresholds)
        assert all(table[t >> 56] == ergoproc.MARKED for t in thresholds)
        cuts = sorted(n for n in {1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, m} if n <= m)
        for lengths in ([m], cuts, [1, 1, m, m]):
            got = list(path.ticks.counts(thresholds, lengths))
            assert got == list(oracle_binned_counts(ticks, thresholds, lengths))

    def test_counting_draws_holds_one_block_of_words(self):
        def peak(m):
            FC = thresholds(16)
            tracemalloc.start()
            try:
                discrepancy(FC, sample_path(IIDUniformSpec(), m, 3), [BLOCK + 1, m])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2 * BLOCK)  # the lane constants and the class table, built once
        small, large = peak(8 * BLOCK), peak(64 * BLOCK)
        # holding all the words would add 8 bytes a tick, 1.75 MiB here
        assert large < small + BLOCK

    def test_even_grids_mark_only_split_bytes(self):
        # 16 and 128 cells cut on bucket edges, 24 cells inside 16 buckets;
        # from 255 cells on, every byte of cell 255 or more is marked too
        marked = {n: ergoproc._top_byte_table(grid_thresholds(n)).count(ergoproc.MARKED)
                  for n in (16, 24, 128, 256)}
        assert marked == {16: 0, 24: 16, 128: 0, 256: 1}


CHAIN_POINTS = sorted({F(k, d) for d in (2, 3, 5, 8) for k in range(d)})


@st.composite
def chains(draw):
    """A 2-4-state chain that moves from each state to the next with
    positive weight, so it is irreducible, and to every state with weight 0
    to 3; each state emits a point or a uniform interval on CHAIN_POINTS,
    which are also the cuts of ``chain_cases``."""
    n = draw(st.integers(2, 4))
    rows = []
    for i in range(n):
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        weights[(i + 1) % n] += 1
        rows.append(tuple(F(w, sum(weights)) for w in weights))
    emissions = []
    for _ in range(n):
        if draw(st.booleans()):
            emissions.append(Emission.point(draw(st.sampled_from(CHAIN_POINTS))))
        else:
            ends = draw(st.sets(st.sampled_from([*CHAIN_POINTS, F(1)]), min_size=2, max_size=2))
            emissions.append(Emission.uniform(*sorted(ends)))
    return MarkovSpec(tuple(rows), tuple(emissions))


@st.composite
def chain_cases(draw):
    """(spec, seed, m, lengths with repeats, cuts): m at a block edge or
    small, the cuts on emission ends and points or anywhere in (0, 1)."""
    spec = draw(chains())
    m = draw(st.sampled_from([1, 2, 37, BLOCK - 1, BLOCK, BLOCK + 1]))
    lengths = sorted(draw(st.lists(st.integers(1, m), max_size=4)) + [m])
    anywhere = st.fractions(0, 1, max_denominator=1000).filter(lambda x: 0 < x < 1)
    cuts = draw(st.sets(st.sampled_from(CHAIN_POINTS[1:]) | anywhere, max_size=6))
    return spec, draw(st.integers(-(2**63), 2**64)), m, lengths, sorted(cuts)


class TestChainPaths:
    """A walk is binned state by state: point states by their visit counts
    and uniform states by the IID kernel on thresholds moved into word
    space.  Its counts, means and discrepancies are those of its ticks."""

    @given(chain_cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_bisecting_every_tick(self, case, data):
        spec, seed, m, lengths, cuts = case
        path = sample_path(spec, m, seed)
        assert path.values == oracle_sample_path(spec, m, seed)
        walk, N = path.ticks, path.scale
        thresholds = [-(-c.numerator * N // c.denominator) for c in cuts]
        # move some words onto and next to a threshold in word space
        for (offset, width), words in zip(walk.emit, walk.words):
            if width and words:
                for t in thresholds:
                    at = -((offset - t) // width) + data.draw(st.integers(-1, 1))
                    words[data.draw(st.integers(0, len(words) - 1))] = min(max(at, 0), 2**64 - 1)
        got = walk.counts(thresholds, lengths)
        assert got == list(oracle_binned_counts(tuple(walk), thresholds, lengths))

    @pytest.mark.parametrize("offset,width,threshold", [(0, 3, 7), (5, 4, 14), (2, 7, 3)])
    def test_words_next_to_a_threshold_that_width_does_not_divide(
        self, offset, width, threshold
    ):
        # the word ceil((t - offset) / width) is the first at or right of t,
        # and the words on either side of it land on either side of t
        first = -((offset - threshold) // width)
        words = array("Q", [first - 1, first, first + 1])
        walk = Walk(bytearray(len(words)), [words], [(offset, width)])
        got = walk.counts([threshold], [1, 2, 3])
        assert got == list(oracle_binned_counts(tuple(walk), [threshold], [1, 2, 3]))
        assert got == [[1, 0], [1, 1], [1, 2]]

    def test_a_walk_mixes_only_the_blocks_it_reads(self, monkeypatch):
        # a chain half of whose steps emit a point reads about 3m/2 of the
        # 2m words it may need, so its last blocks are never mixed
        mixed = []
        word_blocks = SplitMix64.word_blocks
        monkeypatch.setattr(
            SplitMix64, "word_blocks",
            lambda rng, n: (mixed.append(len(b)) or b for b in word_blocks(rng, n)),
        )
        spec, m = split_byte_chain(), 10**5
        path = sample_path(spec, m, 7)
        assert sum(mixed) < 2 * m
        assert all(n <= BLOCK for n in mixed)
        assert path.values == oracle_sample_path(spec, m, 7)


@pytest.fixture(scope="module")
def cycle257() -> MarkovSpec:
    """257 states in a cycle: each stays with probability 1/3 and moves on
    with 2/3; even states emit a point, odd ones a uniform interval."""
    n = 257
    rows = tuple(
        tuple(F(1, 3) if j == i else F(2, 3) if j == (i + 1) % n else F(0) for j in range(n))
        for i in range(n)
    )
    emissions = tuple(
        Emission.point(F(i, 2 * n)) if i % 2 == 0 else Emission.uniform(F(i, 2 * n), F(i + 1, 2 * n))
        for i in range(n)
    )
    return MarkovSpec(rows, emissions)


class TestManyStates:
    """A state past 255 fits no byte and no top-byte table entry: the walk
    stores its states in an array and bisects every such pick."""

    def test_path_and_discrepancies(self, cycle257):
        path = sample_path(cycle257, 1000, 3)
        assert isinstance(path.ticks.states, array) and max(path.ticks.states) > 255
        assert path.values == oracle_sample_path(cycle257, 1000, 3)
        as_tuple = SamplePath(OracleTicks(path.ticks), path.scale, path.seed, path.spec)
        lengths = [1, 400, 1000]
        for FC in (thresholds(16), random_step(5, 12, 8, 9), cut_at(path.values[:40])):
            assert discrepancy(FC, path, lengths) == discrepancy(FC, as_tuple, lengths)
            assert per_function_discrepancies(FC, path) == per_function_discrepancies(FC, as_tuple)
