"""Mutation check of the exact kernels: can their tests fail?

Each mutant is one ``ast`` edit of one kernel function: a strict
comparison loosened, two operands swapped, a denominator dropped, an error
mapping removed.  The script copies ``src``, ``tests``, ``pyproject.toml``
and what some tests read, ``perfbench`` and ``README.md``, to a temporary
directory, first runs the kernels' test files there on the unmutated code
(which must pass), then writes each mutant in turn and runs the test files
it names against it.  A mutant is killed when a test fails, and survives
when they all pass: a survivor is a fault the tests cannot see.

Run it from anywhere, on demand; pytest does not collect it and the tier-1
suite does not run it::

    python tests/mutants.py

It prints one line per mutant, then the number of survivors, and exits 1
when any mutant survives.  It needs pytest and hypothesis, as the tests
do, and nothing outside the standard library besides.

A mutant names its function by a bare name, or as ``Class.method`` for a
method, and that name must match exactly one function of its module.
Every ``old`` text must occur exactly once in that function, compared as
syntax trees, so a kernel that changes shape fails here loudly instead of
leaving a mutant that edits nothing.  A change that adds a kernel adds its
mutants here.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
# the class kernels' own test files
TESTS = ("tests/test_shatter.py", "tests/test_cli.py", "tests/test_funclass.py")
FUNCLASS_TESTS = ("tests/test_funclass.py",)
ERGOPROC_TESTS = ("tests/test_ergoproc.py",)
EXACTSET_TESTS = ("tests/test_exactset.py",)
RNG_TESTS = ("tests/test_rng.py",)
TREELAB_TESTS = ("tests/test_treelab.py",)
CLI_TESTS = ("tests/test_cli.py",)


class Mutant(NamedTuple):
    name: str
    module: str  # path under src/gapdim
    function: str  # the function the edit is confined to: name or Class.method
    old: str  # one expression or statement of that function
    new: str  # what replaces it
    tests: Tuple[str, ...] = TESTS  # the test files that should kill it


MUTANTS = [
    Mutant(
        "verify_certificate: > for >= at alpha + gamma", "shatter.py", "verify_certificate",
        "col[fi] * hi.denominator > hi.numerator * V",
        "col[fi] * hi.denominator >= hi.numerator * V",
    ),
    Mutant(
        "verify_certificate: < for <= at alpha - gamma", "shatter.py", "verify_certificate",
        "col[fi] * lo.denominator < lo.numerator * V",
        "col[fi] * lo.denominator <= lo.numerator * V",
    ),
    Mutant(
        "verify_certificate: alpha + gamma swapped with alpha - gamma", "shatter.py",
        "verify_certificate",
        "hi, lo = cert.alpha + gamma, cert.alpha - gamma",
        "hi, lo = cert.alpha - gamma, cert.alpha + gamma",
    ),
    Mutant(
        "verify_certificate: table denominator V dropped", "shatter.py", "verify_certificate",
        "col[fi] * hi.denominator > hi.numerator * V",
        "col[fi] * hi.denominator > hi.numerator",
    ),
    Mutant(
        "verify_certificate: denominator of alpha - gamma dropped", "shatter.py",
        "verify_certificate",
        "col[fi] * lo.denominator < lo.numerator * V",
        "col[fi] < lo.numerator * V",
    ),
    Mutant(
        "verify_certificate: a foreign point stays a bare ValueError", "shatter.py",
        "verify_certificate",
        "try:\n"
        "    V, columns = values_at(F, cert.points)\n"
        "except ValueError as exc:\n"
        "    raise MalformedCertificate(str(exc)) from None",
        "V, columns = values_at(F, cert.points)",
    ),
    Mutant("_grow: lo and hi for lo or hi", "shatter.py", "_grow", "lo and hi", "lo or hi"),
    Mutant(
        "_grow: the parts above the point put first", "shatter.py", "_grow",
        "lows + highs", "highs + lows",
    ),
    Mutant(
        "_window_sides: a function stops being above at v + g", "shatter.py", "_window_sides",
        "index[v - g]", "index[v + g]",
    ),
    Mutant(
        "gap_dim: a later set of the best size replaces the first", "shatter.py", "gap_dim",
        "len(cand) > len(best_set)", "len(cand) >= len(best_set)",
    ),
    Mutant(
        "gap_dim: a branch with exactly one point too few left is searched anyway",
        "shatter.py", "gap_dim",
        "len(prefix) + (n - nxt) <= len(best_set)", "len(prefix) + (n - nxt) < len(best_set)",
    ),
    Mutant(
        "gap_dim: a branch with just enough points left is cut", "shatter.py", "gap_dim",
        "len(prefix) + (n - nxt) <= len(best_set)",
        "len(prefix) + (n - nxt) <= len(best_set) + 1", (*TESTS, "tests/test_acceptance.py"),
    ),
    Mutant(
        "gap_dim: groups of half the size needed still searched", "shatter.py", "gap_dim",
        "len(best_set) - len(cand) + 1", "len(best_set) - len(cand)",
    ),
    Mutant(
        "gap_dim: groups need twice the functions a larger set needs", "shatter.py", "gap_dim",
        "len(best_set) - len(cand) + 1", "len(best_set) - len(cand) + 2",
        (*TESTS, "tests/test_acceptance.py"),
    ),
    Mutant(
        "join: segment k taken for signature entry 1 and segment k2 for 0", "shatter.py",
        "join", "[masks.get(k2, 0) for masks in table]", "[masks.get(k, 0) for masks in table]",
    ),
    Mutant(
        "values_at: a point read one cell to the right", "funclass.py", "values_at",
        "bisect_right(cuts, x.numerator * C // x.denominator) - 1",
        "bisect_right(cuts, x.numerator * C // x.denominator)",
    ),
    Mutant(
        "values_at: the point 1 taken into the last cell", "funclass.py", "values_at",
        "0 <= j < len(cuts) - 1", "0 <= j <= len(cuts) - 1",
    ),
    Mutant(
        "values_at: the ceiling of x * C for its floor", "funclass.py", "values_at",
        "x.numerator * C // x.denominator", "-(-x.numerator * C // x.denominator)",
    ),
    Mutant(
        "_value_bands: the value 1 put in band K + 1", "funclass.py", "_value_bands",
        "min(v * b // Va + 1, K)", "v * b // Va + 1",
    ),
    Mutant(
        "_value_bands: every band moved one lower", "funclass.py", "_value_bands",
        "v * b // Va + 1", "v * b // Va",
    ),
    Mutant(
        "band_masks: every cell's mask bit moved one up", "funclass.py", "band_masks",
        "int(text.translate(table), 2)", "int(text.translate(table), 2) << 1",
        (*FUNCLASS_TESTS, *TREELAB_TESTS),
    ),
    Mutant(
        "band_masks: a row read with cell 0 first", "funclass.py", "band_masks",
        "reversed(row)", "row", (*FUNCLASS_TESTS, *TREELAB_TESTS),
    ),
    Mutant(
        "band_masks: a table of V = 256 read as bytes", "funclass.py", "band_masks",
        "V < 256", "V <= 256", FUNCLASS_TESTS,
    ),
    Mutant(
        "band_masks: from V = 256 up, a band's mask keeps only its last cell", "funclass.py",
        "band_masks", "seg.get(k, 0) | 1 << j", "1 << j", FUNCLASS_TESTS,
    ),
    Mutant(
        "_merge: a cell valued by the piece left of it", "funclass.py", "_merge",
        "bisect_right(ends, c)", "bisect_right(ends, c) - 1",
    ),
    Mutant(
        "k_of_gamma: the floor of 1 / gamma for its ceiling", "funclass.py", "k_of_gamma",
        "-(-gamma.denominator // gamma.numerator)", "gamma.denominator // gamma.numerator",
        FUNCLASS_TESTS,
    ),
    Mutant(
        "non_adjacent: adjacent bands taken as non-adjacent", "funclass.py", "non_adjacent",
        "abs(k - k2) >= 2", "abs(k - k2) >= 1", (*FUNCLASS_TESTS, *TREELAB_TESTS),
    ),
    Mutant(
        "_step_row: the row built without the piece owners", "funclass.py", "_step_row",
        "tuple(scaled[i] for i in pieces.owners)", "scaled", FUNCLASS_TESTS,
    ),
    Mutant(
        "class_to_json: STEP values written over C instead of V", "funclass.py",
        "class_to_json", "value_rows(F)", "(F._table[0], F._table[-1])", FUNCLASS_TESTS,
    ),
    Mutant(
        "class_from_json: a checked partition not kept for the next function", "funclass.py",
        "class_from_json", "partitions[texts], row = _step_row(partitions[texts], values)",
        "row = _step_row(partitions[texts], values)[1]", FUNCLASS_TESTS,
    ),
    Mutant(
        "_tabular_row: a row of the wrong length let through", "funclass.py", "_tabular_row",
        "len(points) != len(vals) or not points", "not points", FUNCLASS_TESTS,
    ),
    Mutant(
        "Domain: a repeated point taken as sorted", "funclass.py", "Domain.__new__", "lt",
        "lambda a, b: a <= b", FUNCLASS_TESTS,
    ),
    Mutant(
        "values_at: a point between two domain points read at the next one", "funclass.py",
        "values_at", "j == len(domain) or domain[j] != x", "j == len(domain)",
    ),
    Mutant(
        "candidate_points: the first refinement cell dropped", "shatter.py",
        "candidate_points", "zip(cuts, cuts[1:])", "zip(cuts[1:], cuts[2:])",
        (*TESTS, "tests/test_acceptance.py"),
    ),
    Mutant(
        "segment_of_mask: the first refinement cell left out of every STEP segment",
        "funclass.py", "segment_of_mask", "cuts[a.bit_length() - 1]",
        "cuts[max(a.bit_length() - 1, 1)]", (*FUNCLASS_TESTS, "tests/test_shatter.py"),
    ),
    Mutant(
        "segment_of_mask: the end of each run read one cut too low", "funclass.py",
        "segment_of_mask", "cuts[b.bit_length()]", "cuts[b.bit_length() - 1]",
        (*FUNCLASS_TESTS, "tests/test_shatter.py"),
    ),
    Mutant(
        "FunctionClass.subclass: the rows taken in index order", "funclass.py",
        "FunctionClass.subclass", "tuple(rows[i] for i in indices)",
        "tuple(rows[i] for i in sorted(indices))", FUNCLASS_TESTS,
    ),
    Mutant(
        "_equal_cells: rows not divided by g", "funclass.py", "_equal_cells",
        "tuple(tuple(v // g for v in row) for row in rows)", "rows", FUNCLASS_TESTS,
    ),
    Mutant(
        "_equal_cells: V left at q", "funclass.py", "_equal_cells", "q // g", "q",
        FUNCLASS_TESTS,
    ),
    Mutant(
        "_equal_cells: g read from the first row alone", "funclass.py", "_equal_cells",
        "math.gcd(*(math.gcd(q, *row) for row in rows))", "math.gcd(q, *rows[0])",
        FUNCLASS_TESTS,
    ),
    Mutant(
        "FunctionClass.functions: STEP values over C instead of V", "funclass.py",
        "FunctionClass.functions", "self._table[-2:]", "(self._table[0], self._table[-1])",
        FUNCLASS_TESTS,
    ),
    Mutant(
        "FunctionClass.functions: each value put on the mirrored cell", "funclass.py",
        "FunctionClass.functions", "tuple(range(n))", "tuple(range(n))[::-1]", FUNCLASS_TESTS,
    ),
    Mutant(
        "_walk: a MARKED byte taken for the state", "ergoproc.py", "_walk",
        "bisect_right(rows[state], w) if s == MARKED else s", "s", ERGOPROC_TESTS,
    ),
    Mutant(
        "Walk.counts: the floor of the word-space threshold for its ceiling", "ergoproc.py",
        "Walk.counts", "-((offset - t) // width)", "(t - offset) // width", ERGOPROC_TESTS,
    ),
    Mutant(
        "Walk.counts: word-space thresholds not clamped at 0", "ergoproc.py", "Walk.counts",
        "max(-((offset - t) // width), 0)", "-((offset - t) // width)", ERGOPROC_TESTS,
    ),
    Mutant(
        "Walk.counts: a many-state walk's visits counted from the path's start",
        "ergoproc.py", "Walk.counts", "Counter(self.states[a:b])", "Counter(self.states[:b])",
        ERGOPROC_TESTS,
    ),
    Mutant(
        "Orbit.counts: a tick one below a threshold counted at or above it", "ergoproc.py",
        "Orbit.counts", "b + N - K", "b + N - K + 1", ERGOPROC_TESTS,
    ),
    Mutant(
        "Orbit.counts: a tick on a threshold counted below it", "ergoproc.py",
        "Orbit.counts", "b + N - K", "b + N - K - 1", ERGOPROC_TESTS,
    ),
    Mutant(
        "Orbit.counts: the m of the floor-sum identity dropped", "ergoproc.py",
        "Orbit.counts", "top - floor_sum(m, N, d, b + N - K) + m",
        "top - floor_sum(m, N, d, b + N - K)", ERGOPROC_TESTS,
    ),
    Mutant(
        "_class_sums: the first interior cut of the class table dropped", "ergoproc.py",
        "_class_sums", "cuts[1:-1]", "cuts[2:-1]", ERGOPROC_TESTS,
    ),
    Mutant(
        "_top_byte_table: a split byte left unmarked", "ergoproc.py", "_top_byte_table",
        "table[t >> 56] = MARKED", "pass", ERGOPROC_TESTS,
    ),
    Mutant(
        "_binned_counts: a length inside a block counted to the block's end", "ergoproc.py",
        "_binned_counts", "min(m - start, len(cells))", "len(cells)", ERGOPROC_TESTS,
    ),
    Mutant(
        "_binned_counts: the path index not advanced past a block", "ergoproc.py",
        "_binned_counts", "start += len(cells)", "pass", ERGOPROC_TESTS,
    ),
    Mutant(
        "_binned_counts: the MARKED ticks of the whole block bisected", "ergoproc.py",
        "_binned_counts", "compress(block[done:stop], marked[done:stop])",
        "compress(block, marked)", ERGOPROC_TESTS,
    ),
    Mutant(
        "Draws.counts: the low byte of each lane taken for its top byte", "ergoproc.py",
        "Draws.counts", "lanes[7::16]", "lanes[0::16]", ERGOPROC_TESTS,
    ),
    Mutant(
        "_discrepancies: the expectation's denominator q dropped from s * q", "ergoproc.py",
        "_discrepancies", "s * e.denominator", "s", ERGOPROC_TESTS,
    ),
    Mutant(
        "floor_sum: the (a // M) * i terms summed over i = 1 .. n", "ergoproc.py",
        "floor_sum", "n * (n - 1) // 2 * (a // M)", "n * (n + 1) // 2 * (a // M)",
        ERGOPROC_TESTS,
    ),
    Mutant(
        "MarkovSpec.cell_masses: a uniform emission's overlaps not clamped at 0",
        "ergoproc.py", "MarkovSpec.cell_masses", "max(0, min(b * q, hi) - max(a * q, lo))",
        "min(b * q, hi) - max(a * q, lo)", ERGOPROC_TESTS,
    ),
    Mutant(
        "MarkovSpec.cell_masses: a point emission on a cut weighs the cell left of it",
        "ergoproc.py", "MarkovSpec.cell_masses",
        "bisect_right(cuts, e.lo.numerator * C // e.lo.denominator)",
        "bisect_left(cuts, e.lo.numerator * C // e.lo.denominator)", ERGOPROC_TESTS,
    ),
    Mutant(
        "_stationary: pi P = pi solved as P pi = pi", "ergoproc.py", "_stationary",
        "P[j][i]", "P[i][j]", ERGOPROC_TESTS,
    ),
    Mutant(
        "_stationary: no back substitution above the pivot", "ergoproc.py", "_stationary",
        "r != col and A[r][col] != 0", "r > col and A[r][col] != 0", ERGOPROC_TESTS,
    ),
    Mutant(
        "_stationary: the right-hand side not scaled by the row factor", "ergoproc.py",
        "_stationary", "factor * b[col]", "b[col]", ERGOPROC_TESTS,
    ),
    Mutant(
        "expectation: the cell masses' denominator B dropped", "ergoproc.py", "expectation",
        "V * B", "V", ERGOPROC_TESTS,
    ),
    Mutant(
        "expectation: every process weighs cells as the uniform law", "ergoproc.py",
        "expectation", "spec.cell_masses(C, cuts)", "_uniform_masses(C, cuts)", ERGOPROC_TESTS,
    ),
    Mutant(
        "MarkovSpec.__init__: rows not checked to sum to 1", "ergoproc.py",
        "MarkovSpec.__init__", "sum(row, ZERO) != ONE", "False", ERGOPROC_TESTS,
    ),
    Mutant(
        "RotationSpec.__new__: theta 0 accepted", "ergoproc.py", "RotationSpec.__new__",
        "ZERO < theta < ONE", "ZERO <= theta < ONE", ERGOPROC_TESTS,
    ),
    Mutant(
        "RotationSpec.__new__: theta not read through as_fraction", "ergoproc.py",
        "RotationSpec.__new__", "as_fraction(theta)", "theta", EXACTSET_TESTS,
    ),
    Mutant(
        "IntervalUnion: touching intervals kept apart", "exactset.py", "__init__",
        "lo > end", "lo >= end", EXACTSET_TESTS,
    ),
    Mutant(
        "IntervalUnion: an interval ending at 1 refused", "exactset.py", "__init__",
        "0 <= lo < hi <= D", "0 <= lo < hi < D", EXACTSET_TESTS,
    ),
    Mutant(
        "IntervalUnion: pairs never brought to the least denominator", "exactset.py",
        "__init__", "math.gcd(D, *(x for pair in merged for x in pair))", "1", EXACTSET_TESTS,
    ),
    Mutant(
        "IntervalUnion: the denominator 0 accepted", "exactset.py", "__init__",
        "D < 1", "D < 0", EXACTSET_TESTS,
    ),
    Mutant(
        "_ints: a list read from its longest matching prefix", "cli.py", "_ints",
        "_INTEGER_LIST.fullmatch(text)", "_INTEGER_LIST.match(text)", CLI_TESTS,
    ),
    Mutant(
        "parse_integer: a prefix of digits accepted", "exactset.py", "parse_integer",
        "_INTEGER_TEXT.fullmatch(text)", "_INTEGER_TEXT.match(text)",
        EXACTSET_TESTS + CLI_TESTS,
    ),
    Mutant(
        "from_text: the largest denominator taken for their lcm", "exactset.py", "from_text",
        "math.lcm(*{q for _, q in ends})", "max({q for _, q in ends})", EXACTSET_TESTS,
    ),
    Mutant(
        "intersect: a piece starts at the lower of the two left ends", "exactset.py",
        "intersect", "max(a[i][0], b[j][0])", "min(a[i][0], b[j][0])", EXACTSET_TESTS,
    ),
    Mutant(
        "as_fraction: a float let through", "exactset.py", "as_fraction",
        "isinstance(x, int)", "isinstance(x, (int, float))", EXACTSET_TESTS,
    ),
    Mutant(
        "dumps: a flat container's inner and outer indents swapped", "exactset.py", "_spread",
        "f'{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}'",
        "f'{text[0]}{outer}{text[1:-1]}{inner}{text[-1]}'", EXACTSET_TESTS + CLI_TESTS,
    ),
    Mutant(
        "intersection_tree_build: the node no choice meets not counted as a visit",
        "treelab.py", "intersection_tree_build", "visits += 1", "pass", TREELAB_TESTS,
    ),
    Mutant(
        "intersection_tree_build: a node's last usable pair preferred to its first",
        "treelab.py", "intersection_tree_build", "usable", "usable[::-1]", TREELAB_TESTS,
    ),
    Mutant(
        "uniform_subtree: the leaves put on the last stage's level", "treelab.py",
        "uniform_subtree", "chosen[-1][0] + 1", "chosen[-1][0]", TREELAB_TESTS,
    ),
    Mutant(
        "intersection_tree_verify: an empty root-to-node intersection passes", "treelab.py",
        "intersection_tree_verify", "not below[-1]", "False", TREELAB_TESTS,
    ),
    Mutant(
        "intersection_tree_verify: adjacent segments pass", "treelab.py",
        "intersection_tree_verify", "not non_adjacent(k, k2)", "False", TREELAB_TESTS,
    ),
    Mutant(
        "intersection_tree_verify: a label naming other segments passes", "treelab.py",
        "intersection_tree_verify", "(segs[k - 1], segs[k2 - 1]) != pair", "False",
        TREELAB_TESTS,
    ),
    Mutant(
        "intersection_tree_verify: each node checked alone, not with its path", "treelab.py",
        "intersection_tree_verify", "W.intersect(s)", "s", TREELAB_TESTS,
    ),
    Mutant(
        "_config: a repeated flag overrides the first", "cli.py", "_config",
        "field in given", "False", CLI_TESTS,
    ),
    Mutant(
        "_config: the --name=value form loses its value", "cli.py", "_config",
        "token.partition('=')", "(*token.partition('=')[:2], '')", CLI_TESTS,
    ),
    Mutant(
        "_config: a value read from the token after it", "cli.py", "_config",
        "next(tokens, None)", "(next(tokens, None), next(tokens, None))[-1]", CLI_TESTS,
    ),
    Mutant(
        "_lane_blocks: the carried lanes not masked after the add", "rng.py", "_lane_blocks",
        "(lanes + stride) & mask", "lanes + stride", RNG_TESTS,
    ),
    Mutant(
        "_lane_blocks: the first block's lanes built without steps", "rng.py", "_lane_blocks",
        "(state * ones + steps) & mask", "(state * ones) & mask", RNG_TESTS,
    ),
    Mutant(
        "_lane_blocks: the partial last block cut one lane short", "rng.py", "_lane_blocks",
        "(1 << (128 * size)) - 1", "(1 << (128 * (size - 1))) - 1", RNG_TESTS,
    ),
    Mutant(
        "_lanes: the lanes carried one state short of a block", "rng.py", "_lanes",
        "(BLOCK * GOLDEN_GAMMA) & MASK64", "((BLOCK - 1) * GOLDEN_GAMMA) & MASK64", RNG_TESTS,
    ),
]


def parse_fragment(text: str):
    """One expression, or else a list of statements."""
    try:
        return ast.parse(text, mode="eval").body
    except SyntaxError:
        return ast.parse(text).body


class Edit(ast.NodeTransformer):
    """Replace every node equal to `old` (as a tree) below the node it visits."""

    def __init__(self, old: str, new: str):
        self.new, self.hits = new, 0
        old = parse_fragment(old)
        self.old = ast.dump(old[0] if isinstance(old, list) else old)

    def visit(self, node):
        if ast.dump(node) == self.old:
            self.hits += 1
            return parse_fragment(self.new)
        return self.generic_visit(node)


def find_function(tree: ast.Module, mutant: Mutant) -> ast.FunctionDef:
    """The one function a mutant names: a bare name matches a function or
    method of that name anywhere in the module, and ``Class.method`` only
    the methods of that name inside classes of that name."""
    owner, _, name = mutant.function.rpartition(".")
    scopes = [tree]
    if owner:
        scopes = [node for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == owner]
    found = [node for scope in scopes for node in ast.walk(scope)
             if isinstance(node, ast.FunctionDef) and node.name == name]
    if len(found) != 1:
        raise SystemExit(
            f"mutant {mutant.name!r}: {mutant.function!r} names {len(found)} functions "
            f"in {mutant.module}, not one; name a method as Class.method"
        )
    return found[0]


def mutated_source(text: str, mutant: Mutant) -> str:
    tree = ast.parse(text)
    edit = Edit(mutant.old, mutant.new)
    edit.generic_visit(find_function(tree, mutant))
    tree = ast.fix_missing_locations(tree)
    if edit.hits != 1:
        raise SystemExit(
            f"mutant {mutant.name!r}: {mutant.old!r} occurs {edit.hits} times "
            f"in {mutant.module}:{mutant.function}, not once"
        )
    return ast.unparse(tree)


def run_tests(workdir: Path, tests: Tuple[str, ...]) -> Tuple[bool, str]:
    """Whether the test files pass in `workdir`, and the first failure."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode == 0, (failed or [done.stdout.strip()[-200:]])[0]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="gapdim-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work)
        modules = {m.module for m in MUTANTS}
        originals = {m: (work / "src/gapdim" / m).read_text() for m in modules}
        # the baseline runs the unparsed, unmutated modules, as the mutants are unparsed
        for module, text in originals.items():
            (work / "src/gapdim" / module).write_text(ast.unparse(ast.parse(text)))
        passed, failure = run_tests(work, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if not passed:
            print(f"the unmutated code fails its tests: {failure}")
            return 2
        survivors = []
        for mutant in MUTANTS:
            path = work / "src/gapdim" / mutant.module
            path.write_text(mutated_source(originals[mutant.module], mutant))
            passed, failure = run_tests(work, mutant.tests)
            path.write_text(ast.unparse(ast.parse(originals[mutant.module])))
            if passed:
                survivors.append(mutant)
                print(f"SURVIVED  {mutant.name}")
            else:
                print(f"killed    {mutant.name}  ({failure})")
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
