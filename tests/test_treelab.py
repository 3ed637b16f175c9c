from fractions import Fraction

import pytest

from gapdim import (
    CompleteTree,
    Function,
    FunctionClass,
    IntervalUnion,
    full_join_family,
    gap_dim,
    intersection_tree_build,
    intersection_tree_verify,
    join_shatter,
    maximal_join_from_tree,
    ptree_witness,
    random_step,
    subtree_guarantee,
    uniform_subtree,
    verify_certificate,
)
from gapdim.rng import SplitMix64
from gapdim.shatter import NAIVE
from gapdim.treelab import (
    MissingLabel,
    MissingPayload,
    PtreePreconditionViolated,
    level_counts,
)
from oracles import (
    is_host_ancestor,
    oracle_intersection_tree_build,
    oracle_level_counts,
    oracle_max_uniform_depth,
    oracle_uniform_depth,
)

F = Fraction


def random_leaf_set(tree: CompleteTree, rng: SplitMix64, size: int) -> list:
    leaves = list(tree.leaves())
    for i in range(size):
        j = i + rng.randint(len(leaves) - i)
        leaves[i], leaves[j] = leaves[j], leaves[i]
    return leaves[:size]


def random_labels(depth: int, K: int, rng: SplitMix64) -> CompleteTree:
    labels = {
        t: (1 + rng.randint(K), 1 + rng.randint(K)) for t in range(1, 1 << depth)
    }
    return CompleteTree(depth, labels)


def check_witness(tree, S, c, w):
    L = tree.depth
    assert L - w.u <= w.level <= L - 1
    down = set(S)
    # recompute reachability per witness node from scratch
    for t in w.nodes:
        for child in tree.children(t):
            span = L - tree.level_of(child)
            assert any(x in down for x in range(child << span, (child + 1) << span))
    assert len(w.nodes) >= F(c) * (1 << L) / (4 * L)


class TestPtreeWitness:
    def test_depth2_full_leaves(self):
        tree = CompleteTree(2)
        w = ptree_witness(tree, [4, 5, 6, 7], 1)
        assert w.u == 1
        assert w.level == 1
        assert w.nodes == frozenset({2, 3})
        assert len(w.nodes) >= F(4, 8)

    def test_depth3_leftmost_four(self):
        tree = CompleteTree(3)
        w = ptree_witness(tree, [8, 9, 10, 11], F(1, 2))
        assert w.u == 2
        _, n = level_counts(tree, [8, 9, 10, 11])
        assert n[2] == 2 and n[1] == 1
        assert w.level == 2 and w.nodes == frozenset({4, 5})
        assert len(w.nodes) >= F(1, 2) * 8 / 12

    def test_precondition_violation(self):
        tree = CompleteTree(2)
        with pytest.raises(PtreePreconditionViolated):
            ptree_witness(tree, [4, 5], F(1, 2))

    def test_rejects_non_leaves(self):
        tree = CompleteTree(2)
        with pytest.raises(ValueError):
            ptree_witness(tree, [2, 4, 5, 6], 1)

    def test_bound_is_checked_at_runtime(self, monkeypatch):
        from gapdim import treelab

        monkeypatch.setattr(treelab, "_pigeonhole_level", lambda *a: (1, [], 1))
        with pytest.raises(RuntimeError):
            ptree_witness(CompleteTree(2), [4, 5, 6, 7], 1)

    def test_counts_match_oracle_and_sum_identity(self):
        rng = SplitMix64(123)
        for depth in (3, 4, 5, 6):
            tree = CompleteTree(depth)
            for _ in range(20):
                size = 1 + rng.randint(1 << depth)
                S = random_leaf_set(tree, rng, size)
                m, n = level_counts(tree, S)
                om, on = oracle_level_counts(tree, S)
                assert m == om and n == on
                for v in range(1, depth):
                    total = m[depth - v] + sum(
                        n[l] for l in range(depth - v, depth)
                    )
                    assert total == len(S)

    def test_randomized_stress(self):
        # L in 3..10, c in {1/2, 1/4, 1/8}, 200 seeded sets per feasible combo
        rng = SplitMix64(2024)
        for depth in range(3, 11):
            tree = CompleteTree(depth)
            for c in (F(1, 2), F(1, 4), F(1, 8)):
                lo = c * (1 << depth)
                if lo < 4:
                    continue
                for _ in range(20):  # the acceptance suite runs the full 200
                    size = int(lo) + rng.randint((1 << depth) - int(lo) + 1)
                    S = random_leaf_set(tree, rng, size)
                    w = ptree_witness(tree, S, c)
                    check_witness(tree, S, c, w)


class TestUniformSubtree:
    def test_already_uniform_returns_full_tree(self):
        tree = CompleteTree(3, labels={t: (1, 3) for t in range(1, 8)})
        emb = uniform_subtree(tree, 3)
        assert emb.label == (1, 3)
        assert emb.depth == 3
        assert emb.nodes == tuple(range(1, 16))
        assert emb.levels == (0, 1, 2, 3)

    def test_depth_one_tree(self):
        tree = CompleteTree(1, labels={1: (2, 4)})
        emb = uniform_subtree(tree, 4)
        assert emb.depth == 1
        assert emb.nodes == (1, 2, 3)

    def test_missing_label(self):
        tree = CompleteTree(2, labels={1: (1, 3)})
        with pytest.raises(MissingLabel):
            uniform_subtree(tree, 3)

    @staticmethod
    def check_embedding(tree, emb):
        assert len(set(emb.nodes)) == len(emb.nodes)
        n_internal = (1 << emb.depth) - 1
        for pos in range(1, len(emb.nodes) + 1):
            host = emb.nodes[pos - 1]
            depth_in_emb = pos.bit_length() - 1
            assert tree.level_of(host) == emb.levels[depth_in_emb]
            if pos <= n_internal:
                assert tree.labels[host] == emb.label
                for child_pos in (2 * pos, 2 * pos + 1):
                    assert is_host_ancestor(host, emb.nodes[child_pos - 1])

    def test_random_labelings_structure_oracle_and_guarantee(self):
        rng = SplitMix64(77)
        for depth in (4, 6, 8):
            for K in (2, 3):
                for _ in range(10):
                    tree = random_labels(depth, K, rng)
                    emb = uniform_subtree(tree, K)
                    self.check_embedding(tree, emb)
                    _, bound = subtree_guarantee(depth, K)
                    assert emb.depth >= bound
                    assert emb.depth <= oracle_max_uniform_depth(tree)
                    assert oracle_uniform_depth(tree, emb.label) >= emb.depth

    def test_guarantee_values(self):
        # At desk scales the chained pigeonhole bound collapses to zero
        for L in range(6, 13):
            for K in (2, 3):
                R, bound = subtree_guarantee(L, K)
                assert R == 0 and bound == 0
        R, _ = subtree_guarantee(40, 2)
        assert R >= 1


class TestIntersectionTree:
    def test_ramp_depth_one(self, ramp8):
        FC = FunctionClass([ramp8], "ramp")
        built = intersection_tree_build(FC, F(1, 4), 1)
        assert built is not None
        assert built.functions == (0,)
        assert built.tree.labels[1] == (1, 3)  # lexicographically least pair
        assert built.tree.sets[2] == IntervalUnion.interval(0, F(1, 4))
        assert built.tree.sets[3] == IntervalUnion.interval(F(1, 2), F(3, 4))
        assert intersection_tree_verify(built.tree, FC, F(1, 4), built.functions)

    def test_constants_fail(self):
        FC = FunctionClass([Function.constant(F(1, 2))])
        assert intersection_tree_build(FC, F(1, 4), 1) is None

    def test_full_join_family_depth_two(self):
        FC = full_join_family(2, 1, 3, F(1, 5))
        built = intersection_tree_build(FC, F(1, 5), 2)
        assert built is not None
        assert all(built.tree.labels[t] == (1, 3) for t in range(1, 4))
        assert intersection_tree_verify(built.tree, FC, F(1, 5), built.functions)
        for bad in ([0, 4], [-1, 0]):  # a negative index must not wrap around
            with pytest.raises(ValueError, match="function indices"):
                intersection_tree_verify(built.tree, FC, F(1, 5), bad)

    def test_verify_rejects_adjacent_labels(self, ramp8):
        FC = FunctionClass([ramp8])
        gamma = F(1, 4)
        from gapdim import segment

        tree = CompleteTree(
            1,
            labels={1: (2, 3)},
            sets={2: segment(ramp8, gamma, 2), 3: segment(ramp8, gamma, 3)},
        )
        assert not intersection_tree_verify(tree, FC, gamma, [0])

    def test_verify_rejects_empty_path_intersection(self, ramp8):
        FC = FunctionClass([ramp8, ramp8])
        gamma = F(1, 4)
        from gapdim import segment

        # both levels reuse the ramp: child segments of a band-1 node are
        # disjoint from band-3/band-1 of the same function, so some path dies
        tree = CompleteTree(
            2,
            labels={1: (1, 3), 2: (1, 3), 3: (1, 3)},
            sets={
                2: segment(ramp8, gamma, 1),
                3: segment(ramp8, gamma, 3),
                4: segment(ramp8, gamma, 1),
                5: segment(ramp8, gamma, 3),
                6: segment(ramp8, gamma, 1),
                7: segment(ramp8, gamma, 3),
            },
        )
        assert not intersection_tree_verify(tree, FC, gamma, [0, 0])

    def test_verify_missing_payload(self, ramp8):
        FC = FunctionClass([ramp8])
        tree = CompleteTree(1, labels={1: (1, 3)}, sets={2: IntervalUnion.full()})
        with pytest.raises(MissingPayload):
            intersection_tree_verify(tree, FC, F(1, 4), [0])

    def test_builder_output_always_verifies(self):
        rng = SplitMix64(9)
        from gapdim import random_step

        built_count = 0
        for seed in range(12):
            FC = random_step(seed, pieces=6, grid=6, count=4)
            built = intersection_tree_build(FC, F(1, 3), 2)
            if built is not None:
                built_count += 1
                assert intersection_tree_verify(
                    built.tree, FC, F(1, 3), built.functions
                )
        assert built_count > 0


class TestBuilderMatchesOracle:
    """The cell-bitmask search against the IntervalUnion search it replaced."""

    GAMMAS = (F(1, 8), F(1, 5), F(1, 4))
    BUDGETS = (25, 400)

    def corpus(self):
        for gamma in self.GAMMAS:
            for L in (1, 2, 3):
                yield full_join_family(L, 1, 3, gamma), gamma
            for seed in range(8):
                yield random_step(seed, 4 + seed % 13, 1 + seed % 9, 2 + seed % 7), gamma

    @staticmethod
    def answer(built):
        return None if built is None else (built.tree.to_json(), built.functions)

    def test_same_answer_on_corpus(self):
        answers = []
        for FC, gamma in self.corpus():
            for depth in range(1, 6):
                row = []
                for budget in self.BUDGETS:
                    got = self.answer(intersection_tree_build(FC, gamma, depth, budget))
                    want = oracle_intersection_tree_build(FC, gamma, depth, budget)
                    assert got == self.answer(want), (FC.name, gamma, depth, budget)
                    row.append(got)
                answers.append(row)
        # The corpus holds built trees, failed searches, and searches that
        # gave up on the small budget but succeed on the large one.
        assert any(small is not None for small, _ in answers)
        assert any(large is None for _, large in answers)
        assert any(small is None and large is not None for small, large in answers)


class TestMaximalJoin:
    def test_full_join_family_composition(self):
        FC = full_join_family(2, 1, 3, F(1, 5))
        built = intersection_tree_build(FC, F(1, 5), 2)
        mj = maximal_join_from_tree(built, FC, F(1, 5))
        assert mj.label == (1, 3)
        assert len(mj.function_indices) == 2
        assert len(mj.cells) == 4
        # each cell is the meet of two half-measure segments on 16 cells
        assert all(c.cell.measure == F(1, 4) for c in mj.cells)

    def test_depth_one_gives_two_cells(self, ramp8):
        FC = FunctionClass([ramp8])
        built = intersection_tree_build(FC, F(1, 4), 1)
        mj = maximal_join_from_tree(built, FC, F(1, 4))
        assert len(mj.cells) == 2

    def test_cells_feed_join_shatter(self):
        FC = full_join_family(2, 1, 3, F(1, 5))
        built = intersection_tree_build(FC, F(1, 5), 2)
        mj = maximal_join_from_tree(built, FC, F(1, 5))
        # the N extracted functions support a shattering witness for a
        # sub-family of size 2**floor(log2 N)
        n_sub = 1 << ((len(mj.function_indices)).bit_length() - 1)
        sub = FC.subclass(list(mj.function_indices)[:n_sub])
        k, k2 = mj.label
        cert = join_shatter(sub, k, k2, F(1, 5))
        assert verify_certificate(sub, F(1, 10), cert)
        assert gap_dim(sub, F(1, 10), mode=NAIVE).dimension >= len(cert.points)


class TestTreeJson:
    def test_round_trip(self, ramp8):
        FC = FunctionClass([ramp8])
        built = intersection_tree_build(FC, F(1, 4), 1)
        back = CompleteTree.from_json(built.tree.to_json())
        assert back.depth == built.tree.depth
        assert back.labels == built.tree.labels
        assert back.sets == built.tree.sets


class TestDeterminism:
    def test_uniform_subtree_repeatable(self):
        rng = SplitMix64(5150)
        tree = random_labels(7, 3, rng)
        a = uniform_subtree(tree, 3)
        b = uniform_subtree(tree, 3)
        assert a == b

    def test_builder_repeatable(self):
        FC = full_join_family(2, 1, 3, F(1, 5))
        a = intersection_tree_build(FC, F(1, 5), 2)
        b = intersection_tree_build(FC, F(1, 5), 2)
        assert a.functions == b.functions
        assert a.tree.labels == b.tree.labels and a.tree.sets == b.tree.sets


class TestDepthThreePipeline:
    def test_build_verify_extract_on_l3_family(self):
        FC = full_join_family(3, 1, 3, F(1, 5))
        built = intersection_tree_build(FC, F(1, 5), 3)
        assert built is not None
        assert intersection_tree_verify(built.tree, FC, F(1, 5), built.functions)
        mj = maximal_join_from_tree(built, FC, F(1, 5))
        assert mj.label == (1, 3)
        assert len(mj.cells) == 1 << len(mj.function_indices)
        assert all(c.cell.measure > 0 for c in mj.cells)
