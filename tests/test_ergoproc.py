from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gapdim import (
    Function,
    FunctionClass,
    IntervalUnion,
    discrepancy,
    estimate_gamma,
    expectation,
    golden_rotation_angle,
    rotation_counterexample,
    sample_path,
    subadditivity_check,
    thresholds,
)
from gapdim.ergoproc import (
    Emission,
    IIDUniformSpec,
    InvalidSplit,
    MarkovSpec,
    NoMarginalExpectation,
    NotErgodic,
    RotationSpec,
    SamplePath,
    bound_check,
    per_function_discrepancies,
    pointwise_discrepancy,
)
from gapdim.funclass import frac_mod1

F = Fraction


def staircase(n: int) -> Function:
    pieces = [IntervalUnion.interval(F(j, n), F(j + 1, n)) for j in range(n)]
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
        with pytest.raises(NotErgodic):
            MarkovSpec(
                ((F(1), F(0)), (F(1, 2), F(1, 2))),
                (Emission.point(F(1, 4)), Emission.point(F(3, 4))),
            )

    def test_stationary_distribution(self):
        assert markov2().stationary_distribution() == (F(2, 3), F(1, 3))

    def test_stationary_is_fixed_point(self):
        spec = markov3()
        pi = spec.stationary_distribution()
        assert sum(pi, F(0)) == 1
        for j in range(3):
            assert sum(pi[i] * spec.transition[i][j] for i in range(3)) == pi[j]


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
        f = Function.indicator(IntervalUnion.interval(0, F(1, 4)))
        assert expectation(f, IIDUniformSpec()) == F(1, 4)

    def test_constant_any_spec(self):
        f = Function.constant(F(2, 7))
        for spec in (IIDUniformSpec(), RotationSpec(theta=F(1, 3)), markov2()):
            assert expectation(f, spec) == F(2, 7)

    def test_markov_staircase(self):
        # hand computation: (2/3) * 1/10 + (1/3) * 9/10 = 11/30
        assert expectation(staircase(10), markov2()) == F(11, 30)

    def test_markov_uniform_emission(self):
        spec = MarkovSpec(
            ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
            (Emission.uniform(F(0), F(1, 2)), Emission.uniform(F(1, 2), F(1))),
        )
        f = Function.indicator(IntervalUnion.interval(0, F(1, 4)))
        # pi = (1/2, 1/2); conditional expectations 1/2 and 0
        assert expectation(f, spec) == F(1, 4)

    def test_tabular_rejected(self):
        f = Function.tabular([F(1, 2)], [F(1, 2)])
        with pytest.raises(NoMarginalExpectation):
            expectation(f, IIDUniformSpec())


class TestDiscrepancy:
    def test_exact_arithmetic_example(self):
        # staircase on tenths has E = 9/20; a hand path gives mean 4/10
        f = staircase(10)
        path = SamplePath((F(1, 5), F(2, 5), F(3, 5)), 0, IIDUniformSpec())
        assert pointwise_discrepancy(f, path) == abs(F(2, 5) - F(9, 20))

    def test_indicator_path_inside_support(self):
        f = Function.indicator(IntervalUnion.interval(0, F(1, 2)))
        FC = FunctionClass([f])
        path = SamplePath((F(1, 8), F(1, 4), F(3, 8)), 0, IIDUniformSpec())
        assert discrepancy(FC, path) == F(1, 2)

    def test_matches_per_function_enumeration(self):
        FC = thresholds(8)
        path = sample_path(IIDUniformSpec(), 100, 17)
        per = [pointwise_discrepancy(f, path) for f in FC.functions]
        assert per == per_function_discrepancies(FC, path)
        assert discrepancy(FC, path) == max(per)

    def test_constant_class_zero(self):
        FC = FunctionClass([Function.constant(F(1, 3))])
        for m in (1, 10, 100):
            path = sample_path(IIDUniformSpec(), m, 23)
            assert discrepancy(FC, path) == 0

    def test_bounded_by_one(self):
        FC = thresholds(4)
        path = sample_path(markov3(), 150, 31)
        assert F(0) <= discrepancy(FC, path) <= F(1)

    def test_class_monotone(self):
        big = thresholds(8)
        small = FunctionClass(big.functions[:3])
        path = sample_path(IIDUniformSpec(), 100, 41)
        assert discrepancy(small, path) <= discrepancy(big, path)


class TestSubadditivity:
    def test_holds_on_any_split(self):
        FC = thresholds(4)
        path = sample_path(IIDUniformSpec(), 30, 2)
        assert all(subadditivity_check(FC, path, s) for s in range(1, 30))

    def test_identical_halves(self):
        f = Function.indicator(IntervalUnion.interval(0, F(1, 2)))
        FC = FunctionClass([f])
        values = (F(1, 4), F(3, 4)) * 5
        path = SamplePath(values, 0, IIDUniformSpec())
        assert subadditivity_check(FC, path, 5)

    def test_invalid_split(self):
        FC = thresholds(4)
        path = sample_path(IIDUniformSpec(), 10, 2)
        with pytest.raises(InvalidSplit):
            subadditivity_check(FC, path, 10)

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
        FC = FunctionClass([Function.constant(F(1, 2))])
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


class TestBoundCheck:
    def test_thresholds_iid(self):
        rep = bound_check(thresholds(8), IIDUniformSpec(), F(1, 10), 2000, 2, 5)
        assert rep.dim.dimension == 1
        assert rep.bound == 1
        assert rep.passed
        assert rep.estimate < F(1, 10)

    def test_constants(self):
        FC = FunctionClass([Function.constant(F(1, 2))])
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
        n = 2 + rng.randint(3)
        rows = []
        for _ in range(n):
            # strictly positive weights keep the chain irreducible
            w = [1 + rng.randint(9) for _ in range(n)]
            total = sum(w)
            rows.append(tuple(F(x, total) for x in w))
        spec = MarkovSpec(
            tuple(rows), tuple(Emission.point(F(i, n)) for i in range(n))
        )
        pi = spec.stationary_distribution()
        assert sum(pi, F(0)) == 1
        assert all(p > 0 for p in pi)
        for j in range(n):
            assert sum(pi[i] * rows[i][j] for i in range(n)) == pi[j]


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
