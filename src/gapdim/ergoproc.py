"""Stationary process simulation and exact discrepancy measurement.

Three process variants generate points in [0, 1): an i.i.d. uniform source,
a circle rotation x -> x + theta (mod 1) started uniformly, and a finite
irreducible Markov chain started from its stationary distribution with a
point or uniform-on-subinterval emission per state.  Path values are exact
rationals built from 53-bit SplitMix64 draws, so every downstream decision
(discrepancy, subadditivity, bound verdicts) is exact; floats appear only in
human-readable report columns.

The discrepancy of a class on a path is the maximum over the class of
|sample mean - expectation|, with expectations computed in closed form from
piece measures under the process marginal rather than by simulation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exactset import ONE, ZERO, IntervalUnion, RationalLike, format_rational
from .funclass import (
    STEP,
    Function,
    FunctionClass,
    frac_mod1,
    refinement,
    trajectory_indicators,
)
from .rng import SplitMix64
from .shatter import NAIVE, DimResult, gap_dim

IID_UNIFORM = "iid"
ROTATION = "rotation"
MARKOV = "markov"


class NotErgodic(ValueError):
    """Markov chains must be irreducible."""


class NoMarginalExpectation(ValueError):
    """Exact expectations exist only for STEP functions."""


class InvalidSplit(ValueError):
    """A subadditivity split must leave both parts non-empty."""


def golden_rotation_angle(min_denominator: int = 1 << 40) -> Fraction:
    """First continued-fraction convergent of (sqrt(5) - 1) / 2 whose
    denominator reaches min_denominator.

    The convergents are ratios of consecutive Fibonacci numbers; a huge
    denominator keeps the rational orbit aperiodic at every feasible sample
    length while staying exact.
    """
    a, b = 1, 1
    while b < min_denominator:
        a, b = b, a + b
    return Fraction(a, b)


@dataclass(frozen=True)
class Emission:
    """Per-state output: a fixed point or a uniform draw on [lo, hi)."""

    kind: str  # "point" | "uniform"
    at: Optional[Fraction] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    @classmethod
    def point(cls, at: RationalLike) -> "Emission":
        at = Fraction(at)
        if not ZERO <= at < ONE:
            raise ValueError(f"emission point {at} outside [0, 1)")
        return cls("point", at=at)

    @classmethod
    def uniform(cls, lo: RationalLike, hi: RationalLike) -> "Emission":
        lo, hi = Fraction(lo), Fraction(hi)
        if not ZERO <= lo < hi <= ONE:
            raise ValueError(f"emission interval [{lo}, {hi}) invalid")
        return cls("uniform", lo=lo, hi=hi)


@dataclass(frozen=True)
class IIDUniformSpec:
    variant: str = field(default=IID_UNIFORM, init=False)

    def describe(self) -> dict:
        return {"variant": IID_UNIFORM}


@dataclass(frozen=True)
class RotationSpec:
    theta: Fraction

    variant: str = field(default=ROTATION, init=False)

    def __post_init__(self):
        if not ZERO < self.theta < ONE:
            raise ValueError(f"theta must be in (0, 1), got {self.theta}")

    def describe(self) -> dict:
        return {"variant": ROTATION, "theta": format_rational(self.theta)}


@dataclass(frozen=True)
class MarkovSpec:
    transition: Tuple[Tuple[Fraction, ...], ...]
    emissions: Tuple[Emission, ...]

    variant: str = field(default=MARKOV, init=False)

    def __post_init__(self):
        n = len(self.transition)
        if n == 0 or any(len(row) != n for row in self.transition):
            raise ValueError("transition matrix must be square and non-empty")
        if len(self.emissions) != n:
            raise ValueError("need one emission per state")
        for row in self.transition:
            if any(p < 0 for p in row):
                raise ValueError("transition probabilities must be >= 0")
            if sum(row, ZERO) != ONE:
                raise ValueError("transition rows must sum to 1 exactly")
        if not _irreducible(self.transition):
            raise NotErgodic("transition matrix is not irreducible")

    @property
    def n_states(self) -> int:
        return len(self.transition)

    def describe(self) -> dict:
        return {
            "variant": MARKOV,
            "transition": [
                [format_rational(p) for p in row] for row in self.transition
            ],
            "emissions": [
                {"kind": "point", "at": format_rational(e.at)}
                if e.kind == "point"
                else {
                    "kind": "uniform",
                    "lo": format_rational(e.lo),
                    "hi": format_rational(e.hi),
                }
                for e in self.emissions
            ],
        }

    def stationary_distribution(self) -> Tuple[Fraction, ...]:
        return _stationary(self.transition)


ProcessSpec = Union[IIDUniformSpec, RotationSpec, MarkovSpec]


def _irreducible(P: Sequence[Sequence[Fraction]]) -> bool:
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


def _stationary(P: Sequence[Sequence[Fraction]]) -> Tuple[Fraction, ...]:
    """Unique solution of pi P = pi, sum(pi) = 1, by exact elimination."""
    n = len(P)
    # rows of (P^T - I), last equation replaced by sum(pi) = 1
    A = [[P[j][i] - (ONE if i == j else ZERO) for j in range(n)] for i in range(n)]
    A[n - 1] = [ONE] * n
    b = [ZERO] * (n - 1) + [ONE]
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


@dataclass(frozen=True)
class SamplePath:
    values: Tuple[Fraction, ...]
    seed: int
    spec: ProcessSpec

    def __len__(self) -> int:
        return len(self.values)


def _pick_cumulative(weights: Sequence[Fraction], u: Fraction) -> int:
    acc = ZERO
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def sample_path(spec: ProcessSpec, m: int, seed: int) -> SamplePath:
    """m exact sample points, fully determined by (spec, m, seed).

    Draw order, documented for reproducibility: IID consumes one uniform per
    point.  ROTATION consumes one uniform for the start x0 and emits
    frac(x0 + i*theta) for i = 1..m.  MARKOV consumes one uniform for the
    stationary initial state, then per step one uniform for the transition
    (from step 2 on) followed by one uniform for the emission when the
    state's emission is an interval.
    """
    if m < 1:
        raise ValueError("path length must be >= 1")
    rng = SplitMix64(seed)
    if isinstance(spec, IIDUniformSpec):
        values = tuple(rng.unit_fraction() for _ in range(m))
    elif isinstance(spec, RotationSpec):
        x0 = rng.unit_fraction()
        values = tuple(frac_mod1(x0 + i * spec.theta) for i in range(1, m + 1))
    elif isinstance(spec, MarkovSpec):
        pi = spec.stationary_distribution()
        out = []
        state = _pick_cumulative(pi, rng.unit_fraction())
        for i in range(m):
            if i > 0:
                state = _pick_cumulative(spec.transition[state], rng.unit_fraction())
            e = spec.emissions[state]
            if e.kind == "point":
                out.append(e.at)
            else:
                out.append(e.lo + (e.hi - e.lo) * rng.unit_fraction())
        values = tuple(out)
    else:
        raise TypeError(f"unknown process spec {spec!r}")
    return SamplePath(values=values, seed=seed, spec=spec)


def expectation(f: Function, spec: ProcessSpec) -> Fraction:
    """Exact E f(X) under the process marginal.

    IID and ROTATION have the uniform marginal, so the expectation is the
    measure-weighted sum of piece values.  The MARKOV marginal is the
    stationary mixture of the emissions.
    """
    if f.kind != STEP:
        raise NoMarginalExpectation("expectations need a STEP function")
    if isinstance(spec, (IIDUniformSpec, RotationSpec)):
        return sum(
            (v * piece.measure for piece, v in zip(f.pieces, f.values)), ZERO
        )
    if isinstance(spec, MarkovSpec):
        pi = spec.stationary_distribution()
        total = ZERO
        for p, e in zip(pi, spec.emissions):
            if e.kind == "point":
                total += p * f.value_at(e.at)
            else:
                window = IntervalUnion.interval(e.lo, e.hi)
                integral = sum(
                    (
                        v * piece.intersect(window).measure
                        for piece, v in zip(f.pieces, f.values)
                    ),
                    ZERO,
                )
                total += p * integral / (e.hi - e.lo)
        return total
    raise TypeError(f"unknown process spec {spec!r}")


def _class_means(F: FunctionClass, values: Sequence[Fraction]) -> List[Fraction]:
    """Exact per-function sample means via common-refinement cell counts."""
    cuts, columns = refinement(F)
    counts = [0] * (len(cuts) - 1)
    for x in values:
        counts[bisect_right(cuts, x) - 1] += 1
    m = len(values)
    return [
        sum((c * v for c, v in zip(counts, column) if c), ZERO) / m
        for column in columns
    ]


def pointwise_discrepancy(f: Function, path: SamplePath) -> Fraction:
    """|sample mean - expectation| of a single function on a path."""
    ef = expectation(f, path.spec)
    mean = sum((f.value_at(x) for x in path.values), ZERO) / len(path.values)
    return abs(mean - ef)


def discrepancy(F: FunctionClass, path: SamplePath) -> Fraction:
    """Maximum over the class of |sample mean - expectation|, exact."""
    return max(per_function_discrepancies(F, path))


def per_function_discrepancies(F: FunctionClass, path: SamplePath) -> List[Fraction]:
    if F.kind != STEP:
        raise NoMarginalExpectation("discrepancies need a STEP class")
    means = _class_means(F, path.values)
    return [
        abs(mean - expectation(f, path.spec))
        for f, mean in zip(F.functions, means)
    ]


def subadditivity_check(F: FunctionClass, path: SamplePath, split: int) -> bool:
    """Exact check of (m+n) G_{m+n} <= m G_m + n G_n across a path split."""
    total = len(path.values)
    if not 1 <= split < total:
        raise InvalidSplit(f"split must be in [1, {total - 1}], got {split}")
    head = SamplePath(path.values[:split], path.seed, path.spec)
    tail = SamplePath(path.values[split:], path.seed, path.spec)
    m, n = split, total - split
    lhs = total * discrepancy(F, path)
    rhs = m * discrepancy(F, head) + n * discrepancy(F, tail)
    return lhs <= rhs


@dataclass(frozen=True)
class GammaReport:
    """Discrepancies over an (m, replicate) grid plus per-m summaries."""

    m_grid: Tuple[int, ...]
    replicates: int
    seed: int
    rows: Tuple[Tuple[int, int, Fraction], ...]  # (m, replicate, gamma_m)
    summary: Dict[int, Dict[str, Fraction]]
    estimate: Fraction  # mean at the largest m


def estimate_gamma(
    F: FunctionClass,
    spec: ProcessSpec,
    m_grid: Sequence[int],
    replicates: int,
    seed: int,
) -> GammaReport:
    """Monte Carlo estimate of the asymptotic discrepancy.

    Replicate r uses seed + r.  The point estimate is the replicate mean at
    the largest m; min and max across replicates are reported instead of a
    confidence interval because no convergence rate is available.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    grid = tuple(sorted(m_grid))
    rows = []
    for m in grid:
        for r in range(replicates):
            g = discrepancy(F, sample_path(spec, m, seed + r))
            rows.append((m, r, g))
    summary = {}
    for m in grid:
        vals = [g for mm, _, g in rows if mm == m]
        summary[m] = {
            "mean": sum(vals, ZERO) / len(vals),
            "min": min(vals),
            "max": max(vals),
        }
    return GammaReport(
        m_grid=grid,
        replicates=replicates,
        seed=seed,
        rows=tuple(rows),
        summary=summary,
        estimate=summary[grid[-1]]["mean"],
    )


DEFAULT_BASE_POINTS = tuple(Fraction(j, 7) for j in range(1, 6))


@dataclass(frozen=True)
class RotationDemoReport:
    m: int
    seed: int
    theta: Fraction
    x0: Fraction
    data_dependent_gamma: Fraction  # exactly 1
    fixed_family_gamma: Fraction  # exactly 0
    combined_dim: DimResult
    gamma_resolution: Fraction
    base_points: Tuple[Fraction, ...]


def rotation_counterexample(
    m: int,
    seed: int,
    theta: Optional[RationalLike] = None,
    base_points: Sequence[RationalLike] = DEFAULT_BASE_POINTS,
) -> RotationDemoReport:
    """The uncountable-family cautionary demo at finite scale.

    A rotation path is sampled.  Family (i) is the single indicator of the
    sampled start's own truncated orbit; every sample point lies in it while
    its expectation is 0 (a finite set has measure zero), so its discrepancy
    is exactly 1.  Family (ii) holds indicators of five fixed base points'
    truncated orbits, disjoint from the path, so its discrepancy is exactly
    0.  The combined truncated family still has gap dimension 1 at any
    resolution below 1/2 because the supports are pairwise disjoint.  The
    family is finite and data dependent by construction, a truncation of an
    uncountable ideal; that caveat is part of this report's meaning.
    """
    if m < 1:
        raise ValueError("path length must be >= 1")
    theta = Fraction(theta) if theta is not None else golden_rotation_angle()
    spec = RotationSpec(theta=theta)
    rng = SplitMix64(seed)
    x0 = rng.unit_fraction()
    path = tuple(frac_mod1(x0 + i * theta) for i in range(1, m + 1))

    combined = trajectory_indicators(theta, (x0, *base_points), window=m)
    # Every expectation is 0, so each family's discrepancy is its path mean;
    # the path lies in the start's orbit, hence in the combined domain.
    means = [Fraction(sum(f.value_at(x) for x in path), m) for f in combined]
    resolution = Fraction(1, 4)
    dim = gap_dim(combined, resolution, mode=NAIVE)
    return RotationDemoReport(
        m=m,
        seed=seed,
        theta=theta,
        x0=x0,
        data_dependent_gamma=means[0],
        fixed_family_gamma=max(means[1:]),
        combined_dim=dim,
        gamma_resolution=resolution,
        base_points=tuple(Fraction(b) for b in base_points),
    )


@dataclass(frozen=True)
class BoundCheckReport:
    gamma: Fraction
    dim: DimResult
    estimate: Fraction
    bound: Fraction  # 10 * gamma
    passed: bool
    margin: Fraction  # bound - estimate
    report: GammaReport


def bound_check(
    F: FunctionClass,
    spec: ProcessSpec,
    gamma: RationalLike,
    m: int,
    replicates: int,
    seed: int,
) -> BoundCheckReport:
    """Check the finite-dimension consequence: discrepancy estimate <= 10*gamma.

    For a finite class the ergodic theorem forces the asymptotic discrepancy
    to 0, so a pass with a wide margin is the expected outcome; the value of
    the check is exercising the whole pipeline and catching regressions.
    """
    gamma = Fraction(gamma)
    dim = gap_dim(F, gamma)
    report = estimate_gamma(F, spec, [m], replicates, seed)
    bound = 10 * gamma
    return BoundCheckReport(
        gamma=gamma,
        dim=dim,
        estimate=report.estimate,
        bound=bound,
        passed=report.estimate <= bound,
        margin=bound - report.estimate,
        report=report,
    )
