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
root path has an intersection of positive measure; verification reads each
level's segments once, in one pass down the tree.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count, takewhile
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .exactset import (
    IntervalUnion, RationalLike, as_fraction, json_int, json_key, json_list, json_object,
    read_json_object, write_json,
)
from .funclass import (
    STEP, FunctionClass, SegmentIndexOutOfRange, cell_bands, k_of_gamma, non_adjacent, segment,
    segment_partition,
)
from .shatter import JoinCell, join

Label = Tuple[int, int]


class PtreePreconditionViolated(ValueError):
    """The ancestral pigeonhole needs |S| >= c * 2**L >= 4."""


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
        self._check_nodes(depth, [*self.labels, *self.sets])

    @staticmethod
    def _check_nodes(depth: int, nodes: Iterable[int]) -> None:
        for t in nodes:
            # the nodes are 1 .. 2**(depth+1) - 1: at most depth + 1 bits
            if t < 1 or t.bit_length() > depth + 1:
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

    def is_leaf(self, t: int) -> bool:
        return self.level_of(t) == self.depth

    def children(self, t: int) -> Tuple[int, int]:
        return 2 * t, 2 * t + 1

    def internal_nodes(self) -> Iterator[int]:
        """The nodes 1, 2, ... of the levels above the leaves, lazily: a scan
        that stops at a missing label never counts up to 2**depth."""
        return _heap_order(1, self.depth)

    def to_json(self) -> dict:
        """The tree as a JSON document.  A level's few segments repeat at
        each of its nodes, so each distinct payload is written once."""
        texts: Dict[IntervalUnion, str] = {}
        nodes = {}
        for t in range(1, self.size + 1):
            label = self.labels.get(t)
            payload = self.sets.get(t)
            text = texts.get(payload)
            if text is None and payload is not None:
                text = texts[payload] = payload.to_text()
            nodes[str(t)] = {"label": list(label) if label else None, "set": text}
        return {"depth": self.depth, "nodes": nodes}

    @classmethod
    def from_json(cls, doc: dict) -> "CompleteTree":
        """The tree of a JSON document, read node by node in file order.
        Each distinct payload text is parsed once, and the nodes that repeat
        it share the one immutable union."""
        labels, sets, keys = {}, {}, []
        unions: Dict[str, IntervalUnion] = {}
        for key, entry in json_object(doc.get("nodes", {}), "nodes").items():
            t = json_key(key, "node")
            keys.append(t)
            entry = json_object(entry, f"node {key}")
            if entry.get("label") is not None:
                label = json_list(entry["label"], "label")
                if len(label) != 2:
                    raise ValueError(f"label must hold 2 bands, got {len(label)}")
                labels[t] = tuple(json_int(k, "label band") for k in label)
            text = entry.get("set")
            if type(text) is str and text in unions:
                sets[t] = unions[text]
            elif text is not None:  # from_text names a value that is no string
                sets[t] = unions[text] = IntervalUnion.from_text(text)
        tree = cls(json_int(doc["depth"], "depth"), labels, sets)
        cls._check_nodes(tree.depth, keys)  # a node without data must lie in the tree too
        return tree

    def save(self, path) -> None:
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path) -> "CompleteTree":
        return cls.from_json(read_json_object(path))


def _heap_order(first: int, levels: int) -> Iterator[int]:
    """The nodes first, first + 1, ... of levels 0 .. levels - 1, lazily."""
    return takewhile(lambda t: t.bit_length() <= levels, count(first))


def pow2_text(L: int, c: RationalLike = 1, plus: int = 0) -> str:
    """c * 2**L + plus in digits where Python prints them (2**L is built only
    for L < 2**16), else as the expression "c*2^L+plus"."""
    c = as_fraction(c)
    if L < 1 << 16:
        try:
            return str(c * (1 << L) + plus)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return ("2" if c == 1 else f"{c}*2") + f"^{L}" + (f"{plus:+d}" if plus else "")


class PtreeWitness(NamedTuple):
    level: int
    nodes: frozenset
    u: int


def _downset(S: Iterable[int]) -> Dict[int, Set[int]]:
    """The members of S, all nodes of one level, and their ancestors, by
    level: the nodes whose subtree meets S.  That is at most |S| nodes a
    level, whatever the tree's size, each level the parents of the one below."""
    level = set(S)
    if not level:
        return {}
    depth = next(iter(level)).bit_length() - 1
    down = {depth: level}
    for l in range(depth - 1, -1, -1):
        level = down[l] = {t >> 1 for t in level}
    return down


def _branching(down: Dict[int, Set[int]], l: int) -> List[int]:
    """The level-l nodes both of whose children are in the down-set, sorted."""
    below = down.get(l + 1, set())
    return sorted({t >> 1 for t in below if t ^ 1 in below})


def _u_of(c: Fraction) -> int:
    """Smallest integer u with 2**(u-1) >= 1/c, i.e. ceil(log2(1/c) + 1)."""
    u = 1
    while c * (1 << (u - 1)) < 1:
        u += 1
    return u


def _pigeonhole_level(
    S: Iterable[int], member_level: int, c: Fraction
) -> Tuple[int, List[int], int]:
    """Shared core of the ancestral pigeonhole, relative to a member level."""
    u = _u_of(c)
    down = _downset(S)
    best_level, best_nodes = None, None
    for l in range(member_level - u, member_level):
        nodes = _branching(down, l)
        if best_nodes is None or len(nodes) > len(best_nodes):
            best_level, best_nodes = l, nodes
    return best_level, best_nodes, u


def ptree_precondition(size: int, c: Fraction, L: int) -> None:
    """Raise PtreePreconditionViolated unless size >= c * 2**L >= 4, for c > 0.

    Past the bit length of size * den(c), c * 2**L > size, so 2**L is built
    only when it is at most that large.
    """
    if L > (size * c.denominator).bit_length() or not size >= c * (1 << L) >= 4:
        raise PtreePreconditionViolated(
            f"need |S| >= c*2^L >= 4, got |S|={size}, c*2^L={pow2_text(L, c)}"
        )


def ptree_witness(tree: CompleteTree, S: Sequence[int], c: RationalLike) -> PtreeWitness:
    """Ancestral pigeonhole: a level l0 in [L-u, L-1] whose set S' of nodes
    with both children leading into S has size at least c * 2**L / (4L).

    Requires |S| >= c * 2**L >= 4 with S a set of leaves.  Ties between
    levels go to the smallest level.
    """
    c = as_fraction(c)
    if not 0 < c <= 1:
        raise ValueError(f"c must be in (0, 1], got {c}")
    L = tree.depth
    S = set(S)
    if any(t >> L != 1 for t in S):  # the leaves are the nodes of L + 1 bits
        raise ValueError("S must be a set of leaves")
    ptree_precondition(len(S), c, L)
    level, nodes, u = _pigeonhole_level(S, L, c)
    if len(nodes) < c * (1 << L) / (4 * L):
        raise RuntimeError(f"pigeonhole level {level} has only {len(nodes)} nodes")
    return PtreeWitness(level=level, nodes=frozenset(nodes), u=u)


class EmbeddedSubtree(NamedTuple):
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
            raise ValueError(f"internal node {t} has no label")
        if not (1 <= label[0] <= K and 1 <= label[1] <= K):
            raise ValueError(f"label {label} of node {t} outside [1, {K}]^2")

    label, nodes = _majority_label(tree, tree.nodes_at_level(L - 1))
    stages: List[Tuple[int, Label, List[int]]] = [(L - 1, label, nodes)]

    while True:
        level, _, nodes = stages[-1]
        if level < 1 or len(nodes) < 4:
            break
        c = Fraction(len(nodes), 1 << level)
        l0, witness_nodes, _ = _pigeonhole_level(nodes, level, c)
        label, subset = _majority_label(tree, witness_nodes)
        stages.append((l0, label, subset))

    # Greedy continuation past the pigeonhole's reach, one branching
    # ancestor level at a time.
    while True:
        level, _, nodes = stages[-1]
        if level < 1 or len(nodes) < 2:
            break
        down = _downset(nodes)
        l0 = next((l for l in range(level - 1, -1, -1) if _branching(down, l)), None)
        if l0 is None:
            break
        label, subset = _majority_label(tree, _branching(down, l0))
        stages.append((l0, label, subset))

    counts = Counter(lbl for _, lbl, _ in stages)
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
    numerator, r = 1 << (L - 1), 1  # R is the last r whose bound passes 4
    while Fraction(numerator, 4**r * K ** (2 * r + 1) * (2 * L * K * K) ** (r * (r + 1) // 2)) > 4:
        r += 1
    return r - 1, Fraction(r - 1, K * K)


# ---------------------------------------------------------------------------
# Intersection trees


class IntersectionTree(NamedTuple):
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

    A visit is one (function, frontier node) pair examined: the nodes of a
    level are tried in order until one meets no usable pair, and that node
    counts too.  ``visit_cap`` bounds the visits of the whole search.

    None means that the visit budget ran out, or that the greedy order
    found no tree: the search never backtracks over a node's pair.  It
    proves that the class has no depth-L tree at gamma only when the budget
    did not run out and every function has at most one usable pair (two
    non-empty, non-adjacent segments); otherwise a tree that picks a later
    pair at some node may still exist.
    """
    gamma = as_fraction(gamma)
    if L < 1:
        raise ValueError("tree depth must be >= 1")
    if F.kind != STEP:
        raise ValueError("intersection trees need a STEP class")
    K = k_of_gamma(gamma)
    # Segments and path intersections are unions of refinement cells, held
    # as bitmasks over the cells; every cell has positive measure, so an
    # intersection has positive measure iff its mask is non-zero.
    bands = cell_bands(F, gamma)
    masks = [[0] * (K + 1) for _ in bands]  # masks[fi][k]: cells of segment k
    for seg, row in zip(masks, bands):
        for j, k in enumerate(row):
            seg[k] |= 1 << j
    # Per function, its usable choices in pair order: the non-adjacent band
    # pairs whose two segments are both non-empty, with those segments'
    # masks.  No other pair can meet a path intersection, so a visit tries
    # only these.
    choices = []
    for seg in masks:
        present = [k for k in range(1, K + 1) if seg[k]]
        choices.append(
            [((k, k2), seg[k], seg[k2]) for k in present for k2 in present if k2 > k + 1]
        )

    stack: List[Tuple[int, List[Label]]] = []  # per level: (function, labels)
    visits = 0

    def attempt(frontier: List[int]) -> bool:
        nonlocal visits
        if len(stack) == L:
            return True
        for fi, usable in enumerate(choices):
            picks = []
            for W in frontier:
                for choice in usable:
                    if W & choice[1] and W & choice[2]:
                        picks.append(choice)
                        break
                else:
                    visits += 1  # the node no choice meets was visited too
                    break
            visits += len(picks)
            if visits > visit_cap:
                return False  # every enclosing level stops after its next sweep
            if len(picks) == len(frontier):
                stack.append((fi, [pair for pair, _, _ in picks]))
                if attempt([W & m for W, (_, a, b) in zip(frontier, picks) for m in (a, b)]):
                    return True
                stack.pop()
        return False

    if not attempt([(1 << len(bands[0])) - 1]):
        return None
    labels: Dict[int, Label] = {}
    sets: Dict[int, IntervalUnion] = {}
    for level, (fi, picks) in enumerate(stack):
        segs = {k: segment(F, fi, gamma, k) for k in set().union(*picks)}
        for t, (k, k2) in enumerate(picks, start=1 << level):
            labels[t] = (k, k2)
            sets[2 * t], sets[2 * t + 1] = segs[k], segs[k2]
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
    positive measure at every node.  An unlabeled node takes the bands whose
    segments of the level's function equal its children's sets, and a label
    must name those same segments.  A missing payload or a band outside
    [1, K] raises before any verdict.
    """
    gamma = as_fraction(gamma)
    L = tree.depth
    if len(functions) != L:
        raise ValueError(f"need {L} function indices, got {len(functions)}")
    if any(not 0 <= i < len(F) for i in functions):
        raise ValueError(f"function indices must lie in [0, {len(F)})")
    for t in _heap_order(2, L + 1):
        if t not in tree.sets:
            raise MissingPayload(f"node {t} has no set payload")
    K = k_of_gamma(gamma)
    bad = [k for t in tree.internal_nodes() for k in tree.labels.get(t, ()) if not 1 <= k <= K]
    if bad:
        raise SegmentIndexOutOfRange(f"band {bad[0]} outside [1, {K}]")

    paths = [IntervalUnion.full()]  # the root-to-node intersections of one level
    for level, fi in enumerate(functions):
        segs = segment_partition(F, fi, gamma)
        below = []
        for t, W in enumerate(paths, start=1 << level):
            pair = tree.sets[2 * t], tree.sets[2 * t + 1]
            k, k2 = tree.labels.get(t) or [segs.index(s) + 1 if s in segs else None for s in pair]
            if k is None or k2 is None or not non_adjacent(k, k2):
                return False
            if (segs[k - 1], segs[k2 - 1]) != pair:
                return False
            for s in pair:
                below.append(W.intersect(s))
                if not below[-1]:
                    return False
        paths = below
    return True


class MaximalJoin(NamedTuple):
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
    gamma = as_fraction(gamma)
    if not intersection_tree_verify(built.tree, F, gamma, built.functions):
        raise ValueError("tree does not verify against the class")
    emb = uniform_subtree(built.tree, k_of_gamma(gamma))
    k, k2 = emb.label
    hs = [built.functions[lv] for lv in emb.levels[:-1]]
    if len(set(hs)) != len(hs):
        raise RuntimeError("verified tree reused a function on chosen levels")
    cells = join(F.subclass(hs), gamma, k, k2)
    if len(cells) != 1 << len(hs) or any(not c.cell for c in cells):
        raise RuntimeError("subtree join unexpectedly not full")
    return MaximalJoin(
        function_indices=tuple(hs), label=emb.label, cells=tuple(cells)
    )
