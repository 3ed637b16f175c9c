"""Complete binary trees: ancestral pigeonholes, uniform-label subtrees,
and intersection trees.

Trees are heap indexed: nodes are 1 .. 2**(L+1)-1, the children of t are 2t
and 2t+1, and the level of t is its bit length minus one.  Internal nodes
may carry a label (k, k2), a pair of band indices; any node may carry an
interval-union payload.

The ancestral pigeonhole takes a large set S of leaves and returns a level
close to the bottom where many nodes have both children leading into S.
Iterating it, together with label pigeonholes, extracts from any fully
labeled tree an embedded complete subtree all of whose internal labels
agree.  Intersection trees pair the tree structure with function segments:
children carry non-adjacent segments of one function per level and every
root path has an intersection of positive measure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .exactset import IntervalUnion, RationalLike, read_json_object
from .funclass import (
    STEP, FunctionClass, band_of_value, k_of_gamma, non_adjacent, refinement, segment,
    segment_partition,
)
from .shatter import JoinCell, join

Label = Tuple[int, int]


class PtreePreconditionViolated(ValueError):
    """The ancestral pigeonhole needs |S| >= c * 2**L >= 4."""


class MissingLabel(ValueError):
    """Every internal node must be labeled for subtree extraction."""


class MissingPayload(ValueError):
    """Every non-root node of an intersection tree must carry a set."""


class CompleteTree:
    """A complete binary tree of a given depth with optional node data."""

    def __init__(
        self,
        depth: int,
        labels: Optional[Dict[int, Label]] = None,
        sets: Optional[Dict[int, IntervalUnion]] = None,
    ):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.depth = depth
        self.labels: Dict[int, Label] = dict(labels or {})
        self.sets: Dict[int, IntervalUnion] = dict(sets or {})
        last = self.size
        for t in list(self.labels) + list(self.sets):
            if not 1 <= t <= last:
                raise ValueError(f"node {t} outside the tree")

    @property
    def size(self) -> int:
        return (1 << (self.depth + 1)) - 1

    @staticmethod
    def level_of(t: int) -> int:
        return t.bit_length() - 1

    def nodes_at_level(self, r: int) -> range:
        if not 0 <= r <= self.depth:
            raise ValueError(f"level {r} outside [0, {self.depth}]")
        return range(1 << r, 1 << (r + 1))

    def leaves(self) -> range:
        return self.nodes_at_level(self.depth)

    def is_leaf(self, t: int) -> bool:
        return self.level_of(t) == self.depth

    def children(self, t: int) -> Tuple[int, int]:
        return 2 * t, 2 * t + 1

    @staticmethod
    def parent(t: int) -> int:
        return t // 2

    def internal_nodes(self) -> range:
        return range(1, 1 << self.depth)

    def to_json(self) -> dict:
        nodes = {}
        for t in range(1, self.size + 1):
            label = self.labels.get(t)
            payload = self.sets.get(t)
            nodes[str(t)] = {
                "label": list(label) if label else None,
                "set": payload.to_text() if payload is not None else None,
            }
        return {"depth": self.depth, "nodes": nodes}

    @classmethod
    def from_json(cls, doc: dict) -> "CompleteTree":
        labels, sets = {}, {}
        for key, entry in doc.get("nodes", {}).items():
            t = int(key)
            if entry.get("label") is not None:
                k, k2 = entry["label"]
                labels[t] = (int(k), int(k2))
            if entry.get("set") is not None:
                sets[t] = IntervalUnion.from_text(entry["set"])
        return cls(int(doc["depth"]), labels, sets)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CompleteTree":
        return cls.from_json(read_json_object(path))


@dataclass(frozen=True)
class PtreeWitness:
    level: int
    nodes: frozenset
    u: int


def _downset(tree: CompleteTree, S: Set[int], floor_level: int) -> List[bool]:
    """down[t] says whether t's subtree truncated at floor_level meets S."""
    down = [False] * ((1 << (floor_level + 1)))
    for t in S:
        down[t] = True
    for t in range((1 << floor_level) - 1, 0, -1):
        if down[2 * t] or down[2 * t + 1]:
            down[t] = True
    return down


def level_counts(
    tree: CompleteTree, S: Sequence[int], floor_level: Optional[int] = None
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """The ancestor counts (m_l, n_l) for levels above the member set S.

    m_l counts level-l nodes with a member of S strictly below them; n_l
    counts level-l nodes both of whose children either belong to S or have
    a member of S below them.  S must live on one level (by default the
    leaves).
    """
    S = set(S)
    fl = tree.depth if floor_level is None else floor_level
    down = _downset(tree, S, fl)
    m: Dict[int, int] = {}
    n: Dict[int, int] = {}
    for l in range(fl):
        m[l] = sum(1 for t in tree.nodes_at_level(l) if down[2 * t] or down[2 * t + 1])
        n[l] = sum(1 for t in tree.nodes_at_level(l) if down[2 * t] and down[2 * t + 1])
    return m, n


def _u_of(c: Fraction) -> int:
    """Smallest integer u with 2**(u-1) >= 1/c, i.e. ceil(log2(1/c) + 1)."""
    u = 1
    while c * (1 << (u - 1)) < 1:
        u += 1
    return u


def _pigeonhole_level(
    tree: CompleteTree, S: Set[int], member_level: int, c: Fraction
) -> Tuple[int, List[int], int]:
    """Shared core of the ancestral pigeonhole, relative to a member level."""
    u = _u_of(c)
    down = _downset(tree, S, member_level)
    best_level, best_nodes = None, None
    for l in range(member_level - u, member_level):
        nodes = [t for t in tree.nodes_at_level(l) if down[2 * t] and down[2 * t + 1]]
        if best_nodes is None or len(nodes) > len(best_nodes):
            best_level, best_nodes = l, nodes
    return best_level, best_nodes, u


def ptree_witness(tree: CompleteTree, S: Sequence[int], c: RationalLike) -> PtreeWitness:
    """Ancestral pigeonhole: a level l0 in [L-u, L-1] whose set S' of nodes
    with both children leading into S has size at least c * 2**L / (4L).

    Requires |S| >= c * 2**L >= 4 with S a set of leaves.  Ties between
    levels go to the smallest level.
    """
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError(f"c must be in (0, 1], got {c}")
    L = tree.depth
    S = set(S)
    leaves = tree.leaves()
    if any(t not in leaves for t in S):
        raise ValueError("S must be a set of leaves")
    if not (len(S) >= c * (1 << L) >= 4):
        raise PtreePreconditionViolated(
            f"need |S| >= c*2^L >= 4, got |S|={len(S)}, c*2^L={c * (1 << L)}"
        )
    level, nodes, u = _pigeonhole_level(tree, S, L, c)
    if len(nodes) < c * (1 << L) / (4 * L):
        raise RuntimeError(f"pigeonhole level {level} has only {len(nodes)} nodes")
    return PtreeWitness(level=level, nodes=frozenset(nodes), u=u)


@dataclass(frozen=True)
class EmbeddedSubtree:
    """A complete binary subtree embedded in a host tree.

    ``nodes[i - 1]`` is the host node playing heap position i; parent-child
    pairs are connected by descending host paths, every internal position
    carries ``label`` in the host, and all positions at one embedded depth
    share the host depth recorded in ``levels``.
    """

    depth: int
    nodes: Tuple[int, ...]
    label: Label
    levels: Tuple[int, ...]

    def host_node(self, position: int) -> int:
        return self.nodes[position - 1]


def _majority_label(tree: CompleteTree, nodes: Sequence[int]) -> Tuple[Label, List[int]]:
    groups: Dict[Label, List[int]] = {}
    for t in nodes:
        groups.setdefault(tree.labels[t], []).append(t)
    top = max(len(grp) for grp in groups.values())
    # ties between equally frequent labels go to the lexicographically least
    label = min(lbl for lbl, grp in groups.items() if len(grp) == top)
    return label, sorted(groups[label])


def uniform_subtree(tree: CompleteTree, K: int) -> EmbeddedSubtree:
    """Extract an embedded complete subtree whose internal labels all agree.

    Stage 0 pigeonholes the labels of level L-1.  While the ancestral
    pigeonhole's precondition holds, each further stage applies it to the
    current node set and pigeonholes the labels of the witness, producing
    node sets on strictly higher levels.  Once the precondition fails, the
    climb continues greedily: the next stage is the highest level below the
    current one where some node has both children leading into the current
    set.  The most frequent stage label is selected, the subtree descends
    through its stage sets (lexicographically least choices throughout),
    and the last stage's children provide the leaf level.
    """
    L = tree.depth
    if L < 1:
        raise ValueError("uniform_subtree needs depth >= 1")
    for t in tree.internal_nodes():
        label = tree.labels.get(t)
        if label is None:
            raise MissingLabel(f"internal node {t} has no label")
        if not (1 <= label[0] <= K and 1 <= label[1] <= K):
            raise ValueError(f"label {label} of node {t} outside [1, {K}]^2")

    label, nodes = _majority_label(tree, tree.nodes_at_level(L - 1))
    stages: List[Tuple[int, Label, List[int]]] = [(L - 1, label, nodes)]

    while True:
        level, _, nodes = stages[-1]
        if level < 1 or len(nodes) < 4:
            break
        c = Fraction(len(nodes), 1 << level)
        l0, witness_nodes, _ = _pigeonhole_level(tree, set(nodes), level, c)
        label, subset = _majority_label(tree, witness_nodes)
        stages.append((l0, label, subset))

    # Greedy continuation past the pigeonhole's reach, one branching
    # ancestor level at a time.
    while True:
        level, _, nodes = stages[-1]
        if level < 1 or len(nodes) < 2:
            break
        down = _downset(tree, set(nodes), level)
        found = None
        for l in range(level - 1, -1, -1):
            cands = [t for t in tree.nodes_at_level(l) if down[2 * t] and down[2 * t + 1]]
            if cands:
                found = (l, cands)
                break
        if found is None:
            break
        label, subset = _majority_label(tree, found[1])
        stages.append((found[0], label, subset))

    counts: Dict[Label, int] = {}
    for _, lbl, _ in stages:
        counts[lbl] = counts.get(lbl, 0) + 1
    top = max(counts.values())
    chosen_label = min(lbl for lbl, cnt in counts.items() if cnt == top)
    chosen = sorted(
        ((lv, nodes) for lv, lbl, nodes in stages if lbl == chosen_label),
        key=lambda pair: pair[0],
    )

    depth = len(chosen)
    out: List[int] = [0] * ((1 << (depth + 1)) - 1)
    out[0] = chosen[0][1][0]
    for j in range(depth):
        next_pool = chosen[j + 1][1] if j + 1 < depth else None
        next_level = chosen[j + 1][0] if j + 1 < depth else None
        for pos in range(1 << j, 1 << (j + 1)):
            t = out[pos - 1]
            for side, child in enumerate(tree.children(t)):
                if next_pool is None:
                    descendant = child  # leaf completion one level down
                else:
                    shift = next_level - tree.level_of(child)
                    descendant = next(
                        (x for x in next_pool if x >> shift == child), None
                    )
                    if descendant is None:
                        raise RuntimeError("stage chain broke during descent")
                out[2 * pos + side - 1] = descendant
    levels = tuple(lv for lv, _ in chosen) + (chosen[-1][0] + 1,)
    return EmbeddedSubtree(depth=depth, nodes=tuple(out), label=chosen_label, levels=levels)


def subtree_guarantee(L: int, K: int) -> Tuple[int, Fraction]:
    """(R, R/K**2): the stage count whose chained pigeonhole bound stays
    above 4, and the resulting lower bound on extractable uniform depth."""
    if L < 1 or K < 1:
        raise ValueError("need L >= 1 and K >= 1")
    numerator = 1 << (L - 1)
    R = 0
    r = 1
    while True:
        denom = (4**r) * (K ** (2 * r + 1)) * ((2 * L * K * K) ** (r * (r + 1) // 2))
        if Fraction(numerator, denom) > 4:
            R = r
            r += 1
        else:
            break
    return R, Fraction(R, K * K)


# ---------------------------------------------------------------------------
# Intersection trees


@dataclass(frozen=True)
class IntersectionTree:
    """A built intersection tree plus the per-level function indices."""

    tree: CompleteTree
    functions: Tuple[int, ...]


def intersection_tree_build(
    F: FunctionClass,
    gamma: RationalLike,
    L: int,
    visit_cap: int = 1_000_000,
) -> Optional[IntersectionTree]:
    """Greedy backtracking construction of a depth-L intersection tree.

    Level by level, the builder looks for a function such that every
    current node's path intersection meets two non-adjacent segments of it
    in positive measure; the lexicographically least valid segment pair is
    taken per node and the function choice backtracks on dead ends.
    Returns None when the search space or the visit budget is exhausted,
    which is a legitimate outcome for classes that admit no such tree.
    """
    gamma = Fraction(gamma)
    if L < 1:
        raise ValueError("tree depth must be >= 1")
    if F.kind != STEP:
        raise ValueError("intersection trees need a STEP class")
    K = k_of_gamma(gamma)
    pairs = [(k, k2) for k in range(1, K + 1) for k2 in range(k + 2, K + 1)]
    # Segments and path intersections are unions of refinement cells, held
    # as bitmasks over the cells; every cell has positive measure, so an
    # intersection has positive measure iff its mask is non-zero.
    cuts, columns = refinement(F)
    band = {v: band_of_value(v, gamma) for column in columns for v in set(column)}
    masks = [[0] * (K + 1) for _ in columns]  # masks[fi][k]: cells of segment k
    for seg, column in zip(masks, columns):
        for j, v in enumerate(column):
            seg[band[v]] |= 1 << j

    stack: List[Tuple[int, List[Label]]] = []  # per level: (function, labels)
    visits = 0

    def attempt(frontier: List[int]) -> bool:
        nonlocal visits
        if len(stack) == L:
            return True
        for fi, seg in enumerate(masks):
            picks = []
            for W in frontier:
                visits += 1
                if visits > visit_cap:
                    return False  # every enclosing level stops at its next visit
                pick = next((p for p in pairs if W & seg[p[0]] and W & seg[p[1]]), None)
                if pick is None:
                    break
                picks.append(pick)
            else:
                stack.append((fi, picks))
                if attempt([W & seg[k] for W, pair in zip(frontier, picks) for k in pair]):
                    return True
                stack.pop()
        return False

    if not attempt([(1 << (len(cuts) - 1)) - 1]):
        return None
    labels: Dict[int, Label] = {}
    sets: Dict[int, IntervalUnion] = {}
    for level, (fi, picks) in enumerate(stack):
        segs = segment_partition(F[fi], gamma)
        for t, (k, k2) in enumerate(picks, start=1 << level):
            labels[t] = (k, k2)
            sets[2 * t], sets[2 * t + 1] = segs[k - 1], segs[k2 - 1]
    return IntersectionTree(CompleteTree(L, labels, sets), tuple(fi for fi, _ in stack))


def intersection_tree_verify(
    tree: CompleteTree,
    F: FunctionClass,
    gamma: RationalLike,
    functions: Sequence[int],
) -> bool:
    """Exact re-check of the two intersection-tree properties.

    (a) every internal node's children carry non-adjacent segments of the
    level's function, in label order; (b) the root-to-node intersection has
    positive measure at every node.
    """
    gamma = Fraction(gamma)
    L = tree.depth
    if len(functions) != L:
        raise ValueError(f"need {L} function indices, got {len(functions)}")
    if any(not 0 <= i < len(F) for i in functions):
        raise ValueError(f"function indices must lie in [0, {len(F)})")
    for t in range(2, tree.size + 1):
        if t not in tree.sets:
            raise MissingPayload(f"node {t} has no set payload")

    for t in tree.internal_nodes():
        level = tree.level_of(t)
        g = F[functions[level]]
        left, right = tree.children(t)
        label = tree.labels.get(t)
        if label is not None:
            k, k2 = label
            if not non_adjacent(k, k2):
                return False
            if tree.sets[left] != segment(g, gamma, k):
                return False
            if tree.sets[right] != segment(g, gamma, k2):
                return False
        else:
            K = k_of_gamma(gamma)
            bands = {
                kk: segment(g, gamma, kk) for kk in range(1, K + 1)
            }
            k = next((kk for kk, s in bands.items() if s == tree.sets[left]), None)
            k2 = next((kk for kk, s in bands.items() if s == tree.sets[right]), None)
            if k is None or k2 is None or not non_adjacent(k, k2):
                return False

    def walk(t: int, W: IntervalUnion) -> bool:
        if t != 1:
            W = W.intersect(tree.sets[t])
        if W.measure <= 0:
            return False
        if tree.is_leaf(t):
            return True
        left, right = tree.children(t)
        return walk(left, W) and walk(right, W)

    return walk(1, IntervalUnion.full())


@dataclass(frozen=True)
class MaximalJoin:
    """A uniform-label subtree's function sequence and its full join."""

    function_indices: Tuple[int, ...]
    label: Label
    cells: Tuple[JoinCell, ...]


def maximal_join_from_tree(
    built: IntersectionTree, F: FunctionClass, gamma: RationalLike
) -> MaximalJoin:
    """Compose the uniform-subtree extraction with the join of its segments.

    The embedded subtree's internal levels select one function per level;
    the join of their (k, k2) segment pairs then has all 2**N cells of
    positive measure, because every root path of the subtree sits inside a
    distinct cell.
    """
    gamma = Fraction(gamma)
    if not intersection_tree_verify(built.tree, F, gamma, built.functions):
        raise ValueError("tree does not verify against the class")
    emb = uniform_subtree(built.tree, k_of_gamma(gamma))
    k, k2 = emb.label
    hs = [built.functions[lv] for lv in emb.levels[:-1]]
    if len(set(hs)) != len(hs):
        raise RuntimeError("verified tree reused a function on chosen levels")
    families = [
        (segment(F[h], gamma, k), segment(F[h], gamma, k2)) for h in hs
    ]
    cells = join(families)
    if len(cells) != 1 << len(hs) or any(c.cell.measure <= 0 for c in cells):
        raise RuntimeError("subtree join unexpectedly not full")
    return MaximalJoin(
        function_indices=tuple(hs), label=emb.label, cells=tuple(cells)
    )
