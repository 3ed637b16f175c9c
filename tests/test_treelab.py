import importlib.util
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gapdim import (
    CompleteTree,
    FunctionClass,
    IntervalUnion,
    full_join_family,
    gap_dim,
    generate,
    intersection_tree_build,
    intersection_tree_verify,
    join_shatter,
    maximal_join_from_tree,
    ptree_witness,
    random_step,
    segment,
    subtree_guarantee,
    uniform_subtree,
    verify_certificate,
)
from gapdim import funclass, treelab
from gapdim.funclass import SegmentIndexOutOfRange, k_of_gamma, segment_partition
from gapdim.rng import SplitMix64
from gapdim.treelab import (
    IntersectionTree,
    MissingPayload,
    PtreePreconditionViolated,
    pow2_text,
    ptree_precondition,
)
from oracles import (
    is_host_ancestor,
    oracle_constant,
    oracle_intersection_tree_build,
    oracle_intersection_tree_verify,
    oracle_join,
    oracle_level_counts,
    oracle_max_uniform_depth,
    oracle_naive_gap_dim,
    oracle_tree_from_json,
    oracle_tree_to_json,
    oracle_uniform_depth,
    randbelow,
    union_of,
)

F = Fraction
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def random_leaf_set(tree: CompleteTree, rng: SplitMix64, size: int) -> list:
    leaves = list(tree.nodes_at_level(tree.depth))
    for i in range(size):
        j = i + randbelow(rng, len(leaves) - i)
        leaves[i], leaves[j] = leaves[j], leaves[i]
    return leaves[:size]


def random_labels(depth: int, K: int, rng: SplitMix64) -> CompleteTree:
    labels = {
        t: (1 + randbelow(rng, K), 1 + randbelow(rng, K)) for t in range(1, 1 << depth)
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
        _, n = oracle_level_counts(tree, [8, 9, 10, 11])
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
                    size = int(lo) + randbelow(rng, (1 << depth) - int(lo) + 1)
                    S = random_leaf_set(tree, rng, size)
                    w = ptree_witness(tree, S, c)
                    check_witness(tree, S, c, w)

    def test_deep_tree_with_four_leaves(self):
        # The tree has 2**61 - 1 nodes; only the leaves' ancestors are visited.
        L = 60
        tree = CompleteTree(L)
        S = [(1 << L) + i for i in range(4)]
        w = ptree_witness(tree, S, F(4, 1 << L))
        top = 1 << (L - 1)
        assert (w.level, w.nodes, w.u) == (L - 1, frozenset({top, top + 1}), L - 1)


class TestHugeDepth:
    """Nothing of size 2**depth is built for a tree that holds few nodes."""

    DEPTH = 1 << 40

    def test_nodes_are_checked_by_bit_length(self):
        L = self.DEPTH
        tree = CompleteTree(L, labels={1: (1, 2), 1 << 50: (2, 1)}, sets={2: IntervalUnion.full()})
        assert not tree.is_leaf(1 << 50)
        for t in (0, -1):
            with pytest.raises(ValueError, match=f"node {t} outside the tree"):
                CompleteTree(L, labels={t: (1, 2)})
        CompleteTree(2, sets={7: IntervalUnion.full()})
        with pytest.raises(ValueError, match="node 8 outside the tree"):
            CompleteTree(2, sets={8: IntervalUnion.full()})

    def test_label_scan_stops_at_the_first_missing_node(self):
        tree = CompleteTree(self.DEPTH, labels={1: (1, 2), 2: (1, 2), 4: (1, 2)})
        with pytest.raises(ValueError, match="internal node 3 has no label"):
            uniform_subtree(tree, 2)
        tree = CompleteTree(self.DEPTH, labels={1: (1, 2), 2: (3, 2)})
        with pytest.raises(ValueError, match=r"label \(3, 2\) of node 2 outside \[1, 2\]\^2"):
            uniform_subtree(tree, 2)

    def test_payload_scan_stops_at_the_first_missing_node(self, ramp8):
        L = 64
        tree = CompleteTree(L, sets={2: IntervalUnion.full(), 3: IntervalUnion.full()})
        with pytest.raises(MissingPayload, match="node 4 has no set payload"):
            intersection_tree_verify(tree, FunctionClass([ramp8]), F(1, 4), [0] * L)

    def test_precondition_without_the_power(self):
        L = self.DEPTH
        for size, c, power in ((4, F(1), f"2^{L}"), (10**6, F(1, 10**9), f"1/1000000000*2^{L}")):
            with pytest.raises(PtreePreconditionViolated) as exc:
                ptree_precondition(size, c, L)
            assert str(exc.value) == f"need |S| >= c*2^L >= 4, got |S|={size}, c*2^L={power}"
        ptree_precondition(4, F(4, 1 << 60), 60)  # holds: 4 >= 4 >= 4
        with pytest.raises(PtreePreconditionViolated, match=f"c\\*2\\^L={1 << 60}$"):
            ptree_precondition(4, F(1), 60)

    def test_pow2_text(self):
        assert pow2_text(3) == "8" and pow2_text(3, plus=-1) == "7"
        assert pow2_text(3, F(3, 16)) == "3/2"
        assert pow2_text(20000) == "2^20000"
        assert pow2_text(self.DEPTH, F(1, 3), -1) == f"1/3*2^{self.DEPTH}-1"


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
        with pytest.raises(ValueError, match="internal node 2 has no label"):
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
        assert built.tree.sets[2] == union_of([(0, F(1, 4))])
        assert built.tree.sets[3] == union_of([(F(1, 2), F(3, 4))])
        assert intersection_tree_verify(built.tree, FC, F(1, 4), built.functions)

    def test_constants_fail(self):
        FC = FunctionClass([oracle_constant(F(1, 2))])
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

    def test_verify_reads_unlabeled_bands_from_the_sets(self):
        FC = full_join_family(2, 1, 3, F(1, 5))
        built = intersection_tree_build(FC, F(1, 5), 2)
        bare = CompleteTree(2, sets=built.tree.sets)
        assert intersection_tree_verify(bare, FC, F(1, 5), built.functions)
        for payload in (segment(FC, built.functions[0], F(1, 5), 2), union_of([(0, F(1, 3))])):
            # an adjacent (here empty) segment, and a set that is no segment
            sets = {**built.tree.sets, 3: payload}
            assert not intersection_tree_verify(CompleteTree(2, sets=sets), FC, F(1, 5),
                                                built.functions)

    def test_verify_rejects_adjacent_labels(self, ramp8):
        FC = FunctionClass([ramp8])
        gamma = F(1, 4)

        tree = CompleteTree(
            1,
            labels={1: (2, 3)},
            sets={2: segment(FC, 0, gamma, 2), 3: segment(FC, 0, gamma, 3)},
        )
        assert not intersection_tree_verify(tree, FC, gamma, [0])

    def test_verify_rejects_empty_path_intersection(self, ramp8):
        FC = FunctionClass([ramp8, ramp8])
        gamma = F(1, 4)

        # both levels reuse the ramp: child segments of a band-1 node are
        # disjoint from band-3/band-1 of the same function, so some path dies
        tree = CompleteTree(
            2,
            labels={1: (1, 3), 2: (1, 3), 3: (1, 3)},
            sets={
                2: segment(FC, 0, gamma, 1),
                3: segment(FC, 0, gamma, 3),
                4: segment(FC, 0, gamma, 1),
                5: segment(FC, 0, gamma, 3),
                6: segment(FC, 0, gamma, 1),
                7: segment(FC, 0, gamma, 3),
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

    def test_same_budget_boundary(self):
        """Where the oracle gives up on the small budget but builds on the
        large one, bisection finds the least budget b at which it builds;
        the builder must give up at b - 1 and build the same tree at b, so
        that no visit is counted once too often or too seldom."""
        small, large = self.BUDGETS
        boundaries = 0
        for FC, gamma in self.corpus():
            for depth in range(1, 6):
                if oracle_intersection_tree_build(FC, gamma, depth, small) is not None:
                    continue
                want = oracle_intersection_tree_build(FC, gamma, depth, large)
                if want is None:
                    continue
                lo, hi = small, large  # the oracle gives up at lo and builds at hi
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    built = oracle_intersection_tree_build(FC, gamma, depth, mid)
                    if built is None:
                        lo = mid
                    else:
                        hi, want = mid, built
                case = (FC.name, gamma, depth, hi)
                assert intersection_tree_build(FC, gamma, depth, hi - 1) is None, case
                got = intersection_tree_build(FC, gamma, depth, hi)
                assert self.answer(got) == self.answer(want), case
                boundaries += 1
        assert boundaries >= 3


    @pytest.mark.parametrize("spec", ["random_step(3,32,8,12)", "random_step(3,32,300,12)"])
    def test_both_mask_branches(self, spec):
        """Classes of V below 256 and of V from 256 up, whose masks are
        built two ways: the same trees as the oracle, and each verifies."""
        FC, gamma = generate(spec), F(1, 4)
        found = []
        for depth in (1, 2, 3, 4):
            built = intersection_tree_build(FC, gamma, depth)
            want = oracle_intersection_tree_build(FC, gamma, depth, 1_000_000)
            assert self.answer(built) == self.answer(want), (spec, depth)
            if built is not None:
                assert intersection_tree_verify(built.tree, FC, gamma, built.functions)
            found.append(built is not None)
        assert found == [True, True, True, False]

    def test_a_narrow_table_builds_without_the_band_table(self, monkeypatch):
        """Below V = 256 the masks come from the value rows, not cell by cell."""
        FC, gamma = random_step(123, 64, 1, 24), F(1, 5)
        want = self.answer(intersection_tree_build(random_step(123, 64, 1, 24), gamma, 3))

        def refuse(*args):
            raise AssertionError("the band table was read")

        monkeypatch.setattr(funclass, "cell_bands", refuse)
        assert want is not None
        assert self.answer(intersection_tree_build(FC, gamma, 3)) == want


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

    def test_unsorted_levels_keep_their_order(self):
        # the same tree over the reversed class picks functions 7, 6, 5: the
        # join's signature entries follow the levels, not the indices
        FC = full_join_family(3, 1, 3, F(1, 5))
        built = intersection_tree_build(FC, F(1, 5), 3)
        n = len(FC)
        reverse = IntersectionTree(built.tree, tuple(n - 1 - fi for fi in built.functions))
        RC = FC.subclass(range(n - 1, -1, -1))
        mj = maximal_join_from_tree(reverse, RC, F(1, 5))
        hs = mj.function_indices
        assert list(hs) == sorted(hs, reverse=True) and len(hs) == 3
        pairs = [(segment(RC, h, F(1, 5), 1), segment(RC, h, F(1, 5), 3)) for h in hs]
        assert [(c.cell.to_text(), c.signature) for c in mj.cells] == oracle_join(pairs)
        forward = maximal_join_from_tree(built, FC, F(1, 5))
        assert [(c.cell, c.signature) for c in mj.cells] == [
            (c.cell, c.signature) for c in forward.cells
        ]

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
        res, want = gap_dim(sub, F(1, 10)), oracle_naive_gap_dim(sub, F(1, 10))
        assert res.dimension >= len(cert.points)
        assert (res.dimension, res.exact) == (want.dimension, want.exact)
        assert res.certificate.to_json() == want.certificate.to_json()


def tree_file_text(doc: dict) -> str:
    """A tree document as ``CompleteTree.save`` writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def setup_tree_files(tmp_path, seed: int) -> list:
    """The tree files that the trees workload of perfbench writes at set-up."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    files = workloads.PLANS["trees"](seed).files
    names = sorted(name for name in files if name.startswith("tree"))
    for name in names:
        files[name](str(tmp_path / name), str(tmp_path))
    return [tmp_path / name for name in names]


def fjf_tree(depth: int) -> CompleteTree:
    built = intersection_tree_build(full_join_family(3, 1, 3, F(1, 5)), F(1, 5), depth)
    assert built is not None
    return built.tree


class TestTreeJson:
    """Tree files repeat a level's segments at every node of the level;
    each distinct payload is written and parsed once, and the files are
    those that writing and parsing every node on its own gives."""

    def test_round_trip(self, ramp8):
        FC = FunctionClass([ramp8])
        built = intersection_tree_build(FC, F(1, 4), 1)
        back = CompleteTree.from_json(built.tree.to_json())
        assert back.depth == built.tree.depth
        assert back.labels == built.tree.labels
        assert back.sets == built.tree.sets

    @staticmethod
    def check_files(tree: CompleteTree, path) -> None:
        want = oracle_tree_to_json(tree)
        tree.save(path)
        assert path.read_text() == tree_file_text(want)
        back = CompleteTree.from_json(tree.to_json())
        ref = oracle_tree_from_json(want)
        assert (back.depth, back.labels, back.sets) == (ref.depth, ref.labels, ref.sets)
        assert (back.labels, back.sets) == (tree.labels, tree.sets)
        assert back.to_json() == want

    def test_corpus_files_match_per_node_text(self, tmp_path):
        trees = [
            built.tree
            for FC, gamma in TestBuilderMatchesOracle().corpus()
            for depth in range(1, 6)
            for built in [intersection_tree_build(FC, gamma, depth, 400)]
            if built is not None
        ]
        assert len(trees) > 50 and max(tree.depth for tree in trees) == 5
        # a tree without payloads, and one whose equal payloads are copies
        copies = {t: IntervalUnion.from_text(s.to_text()) for t, s in trees[-1].sets.items()}
        trees += [CompleteTree(3), CompleteTree(trees[-1].depth, trees[-1].labels, copies)]
        for tree in trees:
            self.check_files(tree, tmp_path / "tree.json")

    @pytest.mark.parametrize("seed", [1, 2])
    def test_setup_tree_files_match_per_node_text(self, tmp_path, seed):
        paths = setup_tree_files(tmp_path, seed)
        assert len(paths) == 8
        for path in paths:
            text = path.read_text()
            doc = json.loads(text)
            assert tree_file_text(oracle_tree_to_json(oracle_tree_from_json(doc))) == text
            tree = CompleteTree.load(path)
            self.check_files(tree, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_text() == text

    @pytest.mark.parametrize("copied", [False, True])
    def test_each_distinct_payload_is_written_once(self, monkeypatch, copied):
        tree = fjf_tree(6)
        if copied:  # equal payloads that are not one object
            sets = {t: IntervalUnion.from_text(s.to_text()) for t, s in tree.sets.items()}
            tree = CompleteTree(tree.depth, tree.labels, sets)
        to_text, written = IntervalUnion.to_text, []
        monkeypatch.setattr(IntervalUnion, "to_text", lambda s: written.append(s) or to_text(s))
        doc = tree.to_json()
        monkeypatch.undo()
        distinct = set(tree.sets.values())
        assert len(written) == len(set(written)) == len(distinct) < len(tree.sets) // 4
        assert doc == oracle_tree_to_json(tree)

    def test_each_distinct_text_is_parsed_once(self, monkeypatch):
        doc = fjf_tree(6).to_json()
        texts = [entry["set"] for entry in doc["nodes"].values() if entry["set"] is not None]
        from_text, parsed = IntervalUnion.from_text, []
        monkeypatch.setattr(
            IntervalUnion, "from_text", classmethod(lambda c, s: parsed.append(s) or from_text(s))
        )
        tree = CompleteTree.from_json(doc)
        monkeypatch.undo()
        assert sorted(parsed) == sorted(set(texts)) and len(parsed) < len(texts) // 4
        # the nodes that repeat a text share its one union
        assert len({id(s) for s in tree.sets.values()}) == len(parsed)
        assert tree.sets == oracle_tree_from_json(doc).sets

    def test_a_bad_text_raises_at_its_first_node(self):
        doc = fjf_tree(3).to_json()
        nodes = dict(doc["nodes"])
        for key, text in (("5", "[0/1,1/2"), ("9", "[0/1,1/2"), ("12", "[0/1,1/3")):
            nodes[key] = {**nodes[key], "set": text}
        with pytest.raises(ValueError, match=re.escape("malformed interval union: '[0/1,1/2'")):
            CompleteTree.from_json({**doc, "nodes": nodes})

    @pytest.mark.parametrize("value", [["[0/1,1/2)"], {"set": "[0/1,1/2)"}, 5, 0.5, True])
    def test_a_set_that_is_no_string_is_named(self, value):
        doc = fjf_tree(3).to_json()
        nodes = {key: {**entry, "set": value} if key in ("6", "7") else entry
                 for key, entry in doc["nodes"].items()}
        message = f"must be an interval union string, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CompleteTree.from_json({**doc, "nodes": nodes})

    @pytest.mark.parametrize("key", ["999", "16", "0", "-3"])
    def test_a_node_without_data_is_checked_against_the_depth(self, key):
        doc = fjf_tree(3).to_json()
        nodes = {**doc["nodes"], key: {"label": None, "set": None}}
        with pytest.raises(ValueError, match=f"^node {key} outside the tree$"):
            CompleteTree.from_json({**doc, "nodes": nodes})
        # the tree's own nodes without data still read
        nodes = {**doc["nodes"], "15": {"label": None, "set": None}}
        assert 15 not in CompleteTree.from_json({**doc, "nodes": nodes}).sets


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


def mutations(tree: CompleteTree, F: FunctionClass, gamma, functions, rng: SplitMix64):
    """Copies of a built tree with one kind of fault each: swapped, adjacent
    and removed labels, and payloads that are a sibling's, another band's or
    another function's segment, empty, or the whole interval."""
    K = k_of_gamma(gamma)
    internal = range(1, 1 << tree.depth)
    yield CompleteTree(tree.depth, {}, tree.sets)
    for t in internal:
        k, k2 = tree.labels[t]
        for label in ((k2, k), (k, k + 1 if k < K else k - 1)):
            yield CompleteTree(tree.depth, {**tree.labels, t: label}, tree.sets)
        labels = {u: lbl for u, lbl in tree.labels.items() if u != t}
        yield CompleteTree(tree.depth, labels, tree.sets)
    for t in range(2, 1 << (tree.depth + 1)):
        g = functions[tree.level_of(t) - 1]
        other = randbelow(rng, len(F))
        payloads = [tree.sets[t ^ 1], IntervalUnion(1), IntervalUnion.full()]
        payloads += [segment(F, h, gamma, 1 + randbelow(rng, K)) for h in (g, other)]
        for payload in payloads:
            for labels in (tree.labels, {}):
                yield CompleteTree(tree.depth, labels, {**tree.sets, t: payload})


def segment_tree(F: FunctionClass, gamma, functions, labels) -> CompleteTree:
    """A tree whose every node carries the segments its label names of its
    level's function; repeated functions make path intersections empty."""
    L = len(functions)
    sets = {}
    for t in range(1, 1 << L):
        g = functions[t.bit_length() - 1]
        k, k2 = labels[t]
        sets[2 * t], sets[2 * t + 1] = segment(F, g, gamma, k), segment(F, g, gamma, k2)
    return CompleteTree(L, labels, sets)


class TestOnePassVerify:
    """intersection_tree_verify reads each level's segments once, with one
    rule for labeled and unlabeled nodes, and agrees with the two-branch
    check and its recursive walk."""

    CASES = [
        (full_join_family(L, 1, 3, F(1, 5)), F(1, 5), d) for L in (1, 2, 3) for d in (1, 2, 3)
        if d <= 1 << L
    ] + [
        (full_join_family(2, 4, 1, F(2, 9)), F(2, 9), 2),
        # trees whose labels name many different band pairs
        (random_step(15, 24, 8, 8), F(1, 5), 3),
        (random_step(23, 24, 8, 8), F(1, 5), 3),
    ]

    def built(self, FC, gamma, depth):
        built = intersection_tree_build(FC, gamma, depth)
        assert built is not None
        return built

    @pytest.mark.parametrize("FC,gamma,depth", CASES, ids=repr)
    def test_mutated_trees_match_the_two_branch_check(self, FC, gamma, depth):
        built = self.built(FC, gamma, depth)
        assert intersection_tree_verify(built.tree, FC, gamma, built.functions)
        assert oracle_intersection_tree_verify(built.tree, FC, gamma, built.functions)
        verdicts = []
        for tree in mutations(built.tree, FC, gamma, built.functions, SplitMix64(depth)):
            ok = intersection_tree_verify(tree, FC, gamma, built.functions)
            assert ok == oracle_intersection_tree_verify(tree, FC, gamma, built.functions)
            verdicts.append(ok)
        assert False in verdicts

    @pytest.mark.parametrize("seed", range(6))
    def test_path_intersections_match_the_walk(self, seed):
        """Segment trees over random function sequences of a full join
        family: a repeated function or an empty band empties a path."""
        rng = SplitMix64(seed)
        FC, gamma = full_join_family(2 + seed % 2, 1, 3, F(1, 5)), F(1, 5)
        pairs = [(1, 3), (3, 1)] * 3 + [(1, 4), (5, 3)]  # bands 4 and 5 are empty
        verdicts = set()
        for _ in range(12):
            L = 1 + randbelow(rng, 3)
            functions = [randbelow(rng, len(FC)) for _ in range(L)]
            labels = {t: pairs[randbelow(rng, len(pairs))] for t in range(1, 1 << L)}
            tree = segment_tree(FC, gamma, functions, labels)
            for t in (tree, CompleteTree(L, {}, tree.sets)):
                ok = intersection_tree_verify(t, FC, gamma, functions)
                assert ok == oracle_intersection_tree_verify(t, FC, gamma, functions)
                verdicts.add(ok)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_segment_partition_runs_once_per_level(self, monkeypatch, depth):
        FC, gamma = full_join_family(3, 1, 3, F(1, 5)), F(1, 5)
        built = self.built(FC, gamma, depth)
        calls = []

        def counting(G, i, g):
            calls.append(i)
            return segment_partition(G, i, g)

        monkeypatch.setattr(treelab, "segment_partition", counting)
        assert intersection_tree_verify(built.tree, FC, gamma, built.functions)
        assert calls == list(built.functions)
        calls.clear()
        unlabeled = CompleteTree(depth, {}, built.tree.sets)
        assert intersection_tree_verify(unlabeled, FC, gamma, built.functions)
        assert len(calls) == depth

    def test_builder_asks_only_for_the_bands_its_labels_name(self, monkeypatch):
        FC, gamma = random_step(15, 24, 8, 8), F(1, 5)
        asked = []

        def counting(G, i, g, k):
            asked.append(k)
            return segment(G, i, g, k)

        monkeypatch.setattr(treelab, "segment", counting)
        monkeypatch.setattr(treelab, "segment_partition", None)  # never called
        built = intersection_tree_build(FC, gamma, 3)
        assert built is not None
        named = [
            {k for t in built.tree.nodes_at_level(level) for k in built.tree.labels[t]}
            for level in range(3)
        ]
        assert len(asked) == sum(map(len, named)) < 3 * k_of_gamma(gamma)
        assert sorted(asked) == sorted(k for bands in named for k in bands)

    @pytest.mark.parametrize("bad", [7, -2, 0, 6])
    def test_a_label_outside_the_bands_raises_before_any_verdict(self, bad):
        FC, gamma = full_join_family(2, 1, 3, F(1, 5)), F(1, 5)
        built = self.built(FC, gamma, 2)
        # node 2's label is adjacent, so the two-branch check stopped there
        labels = {**built.tree.labels, 2: (2, 3), 3: (1, bad)}
        tree = CompleteTree(2, labels, built.tree.sets)
        assert not oracle_intersection_tree_verify(tree, FC, gamma, built.functions)
        with pytest.raises(SegmentIndexOutOfRange, match=rf"band {bad} outside \[1, 5\]"):
            intersection_tree_verify(tree, FC, gamma, built.functions)

    def test_labels_on_leaves_are_not_read(self):
        FC, gamma = full_join_family(2, 1, 3, F(1, 5)), F(1, 5)
        built = self.built(FC, gamma, 2)
        tree = CompleteTree(2, {**built.tree.labels, 5: (9, 9)}, built.tree.sets)
        assert intersection_tree_verify(tree, FC, gamma, built.functions)
