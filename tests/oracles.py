"""Independent reference implementations used only to cross-check results.

Each oracle deliberately uses a different algorithm from the library code it
checks, so agreement is evidence rather than tautology.
"""

from fractions import Fraction
from itertools import combinations

from gapdim import CompleteTree, FunctionClass, IntervalUnion, k_of_gamma, segment
from gapdim.treelab import IntersectionTree, Label


def oracle_shatters(F: FunctionClass, points, gamma) -> bool:
    """Interval-stabbing decision for shatterability of a point set.

    For each subset mask and function, the levels alpha realizing the mask
    through that function form an open interval; the set is shattered iff
    the per-mask unions of those intervals have a common point.  The sweep
    checks every midpoint between consecutive interval endpoints as well as
    sentinels outside the range, which is exhaustive because stabbing
    patterns only change at endpoints.
    """
    gamma = Fraction(gamma)
    pts = sorted(points)
    d = len(pts)
    windows = {mask: [] for mask in range(1 << d)}
    endpoints = set()
    for f in F.functions:
        vals = [f.value_at(x) for x in pts]
        for mask in range(1 << d):
            inside = [v for i, v in enumerate(vals) if (mask >> i) & 1]
            outside = [v for i, v in enumerate(vals) if not (mask >> i) & 1]
            lo = max(outside) + gamma if outside else None  # alpha > lo
            hi = min(inside) - gamma if inside else None  # alpha < hi
            if lo is not None and hi is not None and not lo < hi:
                continue
            windows[mask].append((lo, hi))
            if lo is not None:
                endpoints.add(lo)
            if hi is not None:
                endpoints.add(hi)
    if not endpoints:
        return False
    cuts = sorted(endpoints)
    probes = [cuts[0] - 1, cuts[-1] + 1]
    probes += [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    probes += cuts  # boundary alphas can only lose, but probe them anyway

    def stabbed(mask, alpha):
        return any(
            (lo is None or alpha > lo) and (hi is None or alpha < hi)
            for lo, hi in windows[mask]
        )

    return any(
        all(stabbed(mask, alpha) for mask in range(1 << d)) for alpha in probes
    )


def oracle_shatters_certificate(F: FunctionClass, points, gamma):
    """The candidate-level scan in Fraction arithmetic, with sentinels.

    Candidate levels are a sentinel below the critical set
    {f(x) - gamma, f(x) + gamma}, the midpoints between its consecutive
    values, and a sentinel above it; the first level at which every subset
    mask is realized gives (points, alpha, selector), the selector holding
    the lowest function index per mask.  Returns None when no level works.
    """
    gamma = Fraction(gamma)
    pts = sorted({Fraction(x) for x in points})
    d = len(pts)
    values = [[f.value_at(x) for x in pts] for f in F.functions]
    critical = sorted({v + s * gamma for row in values for v in row for s in (-1, 1)})
    candidates = [critical[0] - 1]
    candidates += [(a + b) / 2 for a, b in zip(critical, critical[1:])]
    candidates.append(critical[-1] + 1)
    for alpha in candidates:
        selector = {}
        for fi, row in enumerate(values):
            if all(v > alpha + gamma or v < alpha - gamma for v in row):
                sig = sum(1 << i for i, v in enumerate(row) if v > alpha + gamma)
                selector.setdefault(sig, fi)
        if len(selector) == 1 << d:
            return tuple(pts), alpha, selector
    return None


def oracle_join(families):
    """Join as a product: intersect the running cells with every member.

    Rejects a family with two overlapping members up front; returns
    (cell text, signature) pairs in the product's (lexicographic) order.
    """
    for fam in families:
        for a, b in combinations(fam, 2):
            if not a.intersect(b).is_empty:
                raise ValueError("overlapping family")
    cells = [(IntervalUnion.full(), ())]
    for fam in families:
        cells = [
            (cell.intersect(member), sig + (i,))
            for cell, sig in cells
            for i, member in enumerate(fam)
            if not cell.intersect(member).is_empty
        ]
    return [(cell.to_text(), sig) for cell, sig in cells]


def oracle_gap_dim(F: FunctionClass, candidate_pts, gamma, max_d=None) -> int:
    """Largest shattered subset size by raw enumeration over candidates."""
    best = 0
    top = max_d if max_d is not None else len(candidate_pts)
    for d in range(1, top + 1):
        if not any(
            oracle_shatters(F, sub, gamma)
            for sub in combinations(candidate_pts, d)
        ):
            break
        best = d
    return best


def oracle_level_counts(tree: CompleteTree, S):
    """Ancestor counts recomputed from explicit descendant sets."""
    S = set(S)
    L = tree.depth

    def leaves_below(t):
        level = tree.level_of(t)
        span = L - level
        return range(t << span, (t + 1) << span)

    m, n = {}, {}
    for l in range(L):
        m[l] = 0
        n[l] = 0
        for t in tree.nodes_at_level(l):
            left, right = tree.children(t)
            l_hit = any(x in S for x in leaves_below(left))
            r_hit = any(x in S for x in leaves_below(right))
            if l_hit or r_hit:
                m[l] += 1
            if l_hit and r_hit:
                n[l] += 1
    return m, n


def oracle_uniform_depth(tree: CompleteTree, label: Label) -> int:
    """Max depth of an embedded complete subtree with all internal labels
    equal to `label`, by bottom-up dynamic programming over host nodes."""
    size = tree.size
    best = [0] * (size + 2)
    rooted = [0] * (size + 2)
    for t in range(size, 0, -1):
        if not tree.is_leaf(t):
            left, right = tree.children(t)
            if tree.labels.get(t) == label:
                rooted[t] = 1 + min(best[left], best[right])
            best[t] = max(rooted[t], best[left], best[right])
    return best[1]


def oracle_max_uniform_depth(tree: CompleteTree) -> int:
    labels = set(tree.labels.values())
    return max(oracle_uniform_depth(tree, lbl) for lbl in labels)


def is_host_ancestor(u: int, v: int) -> bool:
    """Heap-index ancestor test: u is a strict ancestor of v."""
    du, dv = u.bit_length() - 1, v.bit_length() - 1
    return dv > du and (v >> (dv - du)) == u


def oracle_intersection_tree_build(F: FunctionClass, gamma, L: int, visit_cap: int):
    """The intersection-tree search in IntervalUnion algebra.

    Same search order and visit budget as ``intersection_tree_build``, but
    every path intersection is an explicit IntervalUnion tested for
    emptiness, and labels and payloads are assigned and undone as the search
    backtracks.
    """
    gamma = Fraction(gamma)
    K = k_of_gamma(gamma)
    pairs = [(k, k2) for k in range(1, K + 1) for k2 in range(k + 2, K + 1)]
    segs = [[segment(f, gamma, k) for k in range(1, K + 1)] for f in F.functions]
    labels, sets, chosen = {}, {}, []
    visits = 0

    class BudgetExceeded(Exception):
        pass

    def attempt(level, frontier):
        nonlocal visits
        if level == L:
            return True
        for fi in range(len(F)):
            assignment = []
            for node, W in frontier:
                visits += 1
                if visits > visit_cap:
                    raise BudgetExceeded
                pick = None
                for k, k2 in pairs:
                    if W.intersect(segs[fi][k - 1]).is_empty:
                        continue
                    if W.intersect(segs[fi][k2 - 1]).is_empty:
                        continue
                    pick = (k, k2)
                    break
                if pick is None:
                    assignment = None
                    break
                assignment.append((node, W, pick))
            if assignment is None:
                continue
            child_frontier = []
            for node, W, (k, k2) in assignment:
                labels[node] = (k, k2)
                left, right = 2 * node, 2 * node + 1
                sets[left] = segs[fi][k - 1]
                sets[right] = segs[fi][k2 - 1]
                child_frontier.append((left, W.intersect(segs[fi][k - 1])))
                child_frontier.append((right, W.intersect(segs[fi][k2 - 1])))
            chosen.append(fi)
            if attempt(level + 1, child_frontier):
                return True
            chosen.pop()
            for node, _, _ in assignment:
                del labels[node]
                del sets[2 * node], sets[2 * node + 1]
        return False

    try:
        ok = attempt(0, [(1, IntervalUnion.full())])
    except BudgetExceeded:
        return None
    if not ok:
        return None
    return IntersectionTree(CompleteTree(L, labels, sets), tuple(chosen))
