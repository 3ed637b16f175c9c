"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated tolerance exactly; Monte Carlo criteria use frozen
seeds so every run is reproducible.
"""

import functools
import sys
import time
from fractions import Fraction
from itertools import combinations

from gapdim import (
    CompleteTree,
    estimate_gamma,
    full_join_family,
    gap_dim,
    golden_rotation_angle,
    join_shatter,
    ptree_witness,
    random_step,
    rotation_counterexample,
    sample_path,
    segment_partition,
    subtree_guarantee,
    thresholds,
    uniform_subtree,
    verify_certificate,
)
from gapdim.ergoproc import (
    Emission,
    IIDUniformSpec,
    MarkovSpec,
    RotationSpec,
    bound_check,
)
from gapdim import treelab
from gapdim.rng import SplitMix64
from gapdim.shatter import candidate_points
from oracles import (
    OracleIntervalUnion, fraction_pairs, is_host_ancestor, oracle_band_of_value,
    oracle_max_uniform_depth, oracle_naive_gap_dim, oracle_pruned_gap_dim, oracle_value_at,
    randbelow,
)
from test_ergoproc import subadditivity_check

F = Fraction


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {title}", file=sys.stderr)
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {title}")

        return run

    return wrap


def sample_leaves(tree, rng, size):
    """size distinct leaves by a partial Fisher-Yates shuffle: draw i picks
    among the leaves left as ``randbelow`` would, from one bulk draw."""
    leaves = list(tree.nodes_at_level(tree.depth))
    for i, x in enumerate(rng.u64s(size)):
        j = i + x % (len(leaves) - i)
        leaves[i], leaves[j] = leaves[j], leaves[i]
    return leaves[:size]


def sample_leaves_per_call(tree, rng, size):
    """``sample_leaves`` with one ``randbelow`` call per leaf."""
    leaves = list(tree.nodes_at_level(tree.depth))
    for i in range(size):
        j = i + randbelow(rng, len(leaves) - i)
        leaves[i], leaves[j] = leaves[j], leaves[i]
    return leaves[:size]


def test_bulk_leaf_samples_are_the_per_call_samples():
    bulk, calls = SplitMix64(1), SplitMix64(1)
    for depth in (3, 7, 10):
        tree = CompleteTree(depth)
        for size in (0, 1, 5, 1 << depth):
            assert sample_leaves(tree, bulk, size) == sample_leaves_per_call(tree, calls, size)
    assert bulk.next_u64() == calls.next_u64()  # the same state left behind


MARKOV3 = MarkovSpec(
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


class CountingLevel(set):
    """A level of a down-set that records, for every node read from it by
    iteration or a membership test, the node's parent: the node of the level
    above that the read considers."""

    def __init__(self, nodes, touched):
        super().__init__(nodes)
        self.touched = touched

    def __iter__(self):
        for t in super().__iter__():
            self.touched.add(t >> 1)
            yield t

    def __contains__(self, t):
        self.touched.add(t >> 1)
        return super().__contains__(t)


@criterion(1, "ancestral pigeonhole stress, exact postconditions, bounded work")
def test_ptree_stress(monkeypatch):
    """Besides the postconditions, a deterministic work bound: the nodes that
    ``_downset`` builds and the nodes ``_branching`` considers number at most
    depth * |S| per witness.  The down-set holds at most min(|S|, 2**l) nodes
    at level l, fewer than depth * |S| in all when |S| >= 4, and a branching
    scan that considers a node outside it (a whole level, say) exceeds that
    on small S."""
    touched = set()
    downset = treelab._downset

    def counting_downset(S):
        down = downset(S)
        for level in down.values():
            touched.update(level)
        return {l: CountingLevel(level, touched) for l, level in down.items()}

    monkeypatch.setattr(treelab, "_downset", counting_downset)
    rng = SplitMix64(1)
    checked = 0
    for depth in range(3, 11):
        tree = CompleteTree(depth)
        n_leaves = 1 << depth
        for c in (F(1, 2), F(1, 4), F(1, 8)):
            lo = c * n_leaves
            if lo < 4:
                continue  # the precondition |S| >= c*2^L >= 4 is unsatisfiable
            for _ in range(200):
                size = int(lo) + randbelow(rng, n_leaves - int(lo) + 1)
                S = set(sample_leaves(tree, rng, size))
                touched.clear()
                w = ptree_witness(tree, S, c)
                assert len(touched) <= depth * len(S), (depth, c, len(S), len(touched))
                assert depth - w.u <= w.level <= depth - 1
                for t in w.nodes:
                    for child in tree.children(t):
                        span = depth - tree.level_of(child)
                        lo_leaf = child << span
                        assert any(
                            x in S for x in range(lo_leaf, lo_leaf + (1 << span))
                        )
                assert len(w.nodes) >= c * n_leaves / (4 * depth)
                checked += 1
    assert checked == 200 * 21  # 21 feasible (L, c) configurations


@criterion(2, "full join to shattering certificate, exact, alpha = 3/10")
def test_join_end_to_end():
    start = time.time()
    gamma = F(1, 5)
    for L in (1, 2, 3):
        FC = full_join_family(L, 1, 3, gamma)
        cert = join_shatter(FC, 1, 3, gamma)
        assert cert.alpha == F(3, 10)
        assert len(cert.points) == L
        assert verify_certificate(FC, F(1, 10), cert)
        res, want = gap_dim(FC, F(1, 10)), oracle_naive_gap_dim(FC, F(1, 10))
        assert res.dimension >= L
        assert (res.dimension, res.exact) == (want.dimension, want.exact)
        assert res.certificate.to_json() == want.certificate.to_json()
    assert time.time() - start < 10.0


def corpus():
    for s in range(100):
        yield random_step(
            seed=s, pieces=4 + s % 5, grid=8, count=3 + s % 6
        )


@criterion(3, "solver matches the NAIVE and PRUNED oracles, certificates re-verify")
def test_solver_oracle_equivalence():
    gammas = (F(1, 8), F(1, 4), F(3, 8))
    classes = 0
    for FC in corpus():
        assert len(FC) <= 8 and len(candidate_points(FC)) <= 8
        classes += 1
        for gamma in gammas:
            res = gap_dim(FC, gamma)
            cert = res.certificate and res.certificate.to_json()
            for oracle in (oracle_naive_gap_dim, oracle_pruned_gap_dim):
                want = oracle(FC, gamma)
                assert (res.dimension, res.exact) == (want.dimension, want.exact)
                assert cert == (want.certificate and want.certificate.to_json())
            if res.certificate is not None:
                assert verify_certificate(FC, gamma, res.certificate)
            else:
                assert res.dimension == 0
    assert classes >= 100


@criterion(4, "dimension antitone in gamma and bounded by log2 |F|")
def test_antitonicity_and_log_bound():
    gammas = (F(1, 8), F(1, 4), F(3, 8))
    for FC in corpus():
        dims = [gap_dim(FC, g).dimension for g in gammas]
        assert dims[0] >= dims[1] >= dims[2]
        bound = len(FC).bit_length() - 1
        assert all(d <= bound for d in dims)


@criterion(5, "finite-class discrepancy decays; every large-m replicate <= 0.02")
def test_glivenko_cantelli_decay():
    start = time.time()
    FC = thresholds(16)
    grid = (100, 1000, 10000, 100000)
    for spec, seed in (
        (IIDUniformSpec(), 101),
        (RotationSpec(theta=golden_rotation_angle()), 202),
    ):
        rep = estimate_gamma(FC, spec, grid, replicates=5, seed=seed)
        for m, r, g in rep.rows:
            if m == 100000:
                assert g <= F(2, 100)
        means = [rep.summary[m]["mean"] for m in grid]
        assert all(a > b for a, b in zip(means, means[1:]))
    assert time.time() - start < 60.0


@criterion(6, "bound pipeline: finite dimension and estimate <= gamma bound/10")
def test_bound_pipeline():
    FC = thresholds(16)
    for spec in (
        IIDUniformSpec(),
        RotationSpec(theta=golden_rotation_angle()),
        MARKOV3,
    ):
        rep = bound_check(FC, spec, F(1, 10), m=10000, replicates=3, seed=77)
        assert rep.dim.exact and rep.dim.dimension >= 0
        assert rep.bound == 1
        assert rep.passed
        assert rep.estimate <= F(1, 10)  # margin >= 9/10 of the bound


@criterion(7, "rotation counterexample: discrepancy 1 and 0 exactly, dim 1")
def test_rotation_counterexample():
    for m in (100, 1000):
        rep = rotation_counterexample(m, seed=7)
        assert rep.data_dependent_gamma == 1
        assert rep.fixed_family_gamma == 0
        assert rep.combined_dim.dimension == 1
        assert rep.gamma_resolution == F(1, 4)


@criterion(8, "subadditivity holds exactly on 1000 seeded path splits")
def test_subadditivity():
    FC = thresholds(4)
    rotation = RotationSpec(theta=golden_rotation_angle())
    violations = 0
    for i in range(1000):
        rng = SplitMix64(10_000 + i)
        m = 2 + randbelow(rng, 28)
        split = 1 + randbelow(rng, m - 1)
        spec = (IIDUniformSpec(), rotation, MARKOV3)[i % 3]
        path = sample_path(spec, m, seed=i)
        if not subadditivity_check(FC, path, split):
            violations += 1
    assert violations == 0


@criterion(9, "uniform-label subtree meets the staged pigeonhole guarantee")
def test_uniform_subtree_guarantee():
    for depth in range(6, 13):
        for K in (2, 3):
            _, bound = subtree_guarantee(depth, K)
            for trial in range(50):
                rng = SplitMix64(depth * 1000 + K * 100 + trial)
                labels = {
                    t: (1 + randbelow(rng, K), 1 + randbelow(rng, K))
                    for t in range(1, 1 << depth)
                }
                tree = CompleteTree(depth, labels)
                emb = uniform_subtree(tree, K)
                assert emb.depth >= bound
                n_internal = (1 << emb.depth) - 1
                assert len(set(emb.nodes)) == len(emb.nodes)
                for pos in range(1, len(emb.nodes) + 1):
                    host = emb.nodes[pos - 1]
                    assert tree.level_of(host) == emb.levels[pos.bit_length() - 1]
                    if pos <= n_internal:
                        assert tree.labels[host] == emb.label
                        for child in (2 * pos, 2 * pos + 1):
                            assert is_host_ancestor(host, emb.nodes[child - 1])
                if depth <= 10:
                    assert emb.depth <= oracle_max_uniform_depth(tree)


@criterion(10, "segment partitions exact; bands match pointwise evaluation")
def test_segment_partition_exactness():
    gammas = (F(1, 5), F(1, 4), F(1, 3))
    for s in range(100):
        FC = random_step(seed=500 + s, pieces=3 + s % 10, grid=11)
        f = FC[0]
        parts = {g: segment_partition(FC, 0, g) for g in gammas}
        for g, ps in parts.items():
            assert sum((p.measure for p in ps), F(0)) == 1
            for i, j in combinations(range(len(ps)), 2):
                assert not ps[i].intersect(ps[j])
        # each segment as an oracle union, built once per (gamma, band)
        oracle_parts = {
            g: [OracleIntervalUnion(fraction_pairs(p)) for p in ps] for g, ps in parts.items()
        }
        rng = SplitMix64(9_000 + s)
        for _ in range(1000):
            x = rng.unit_fraction()
            v = oracle_value_at(f, x)
            for g in gammas:
                k = oracle_band_of_value(v, g)
                assert x in oracle_parts[g][k - 1]
