"""Rules about the library source itself."""

import ast
import importlib.util
import sys
from pathlib import Path

import gapdim
import mutants

SOURCES = sorted(Path(gapdim.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_sources_found():
    assert set(TREES) >= {"__init__.py", "cli.py", "ergoproc.py"}


def test_no_assert_statements():
    """Postconditions are explicit checks: ``python -O`` strips asserts."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def imported_modules():
    """``(file:line, top-level package)`` of every absolute import in the
    library; a relative import stays inside gapdim."""
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                yield f"{name}:{node.lineno}", module.partition(".")[0]


def test_imports_stay_in_the_standard_library():
    """The library has no dependencies (``dependencies = []``)."""
    allowed = sys.stdlib_module_names | {"gapdim"}
    found = [f"{at} {module}" for at, module in imported_modules() if module not in allowed]
    assert found == []


def test_no_module_imports_dataclasses():
    """Records are NamedTuples or slotted classes.  ``dataclasses`` writes
    and compiles the methods of each of its classes at every start, and
    imports ``inspect``, ``ast`` and ``tokenize`` first."""
    assert [at for at, module in imported_modules() if module == "dataclasses"] == []


FLOAT_ALLOWED = {("exactset.py", "decimal12")}  # formats report columns


def test_no_floats_outside_report_formatting():
    """No decision may rest on a float: no float literal or ``float(...)``."""
    found = []

    def scan(name, node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        is_float = (
            isinstance(node, ast.Constant) and isinstance(node.value, float)
        ) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
        if is_float and (name, scope) not in FLOAT_ALLOWED:
            found.append(f"{name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            scan(name, child, scope)

    for name, tree in TREES.items():
        scan(name, tree, None)
    assert found == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_functions_exist():
    """Every function the benchmark tracer wraps is still defined in gapdim."""
    tracer = perfbench_tracer()
    missing = []
    for full in tracer.target_names():
        module, _, attr = full.partition(".")
        namespace = vars(importlib.import_module(f"gapdim.{module}"))
        cls_name, _, method = attr.rpartition(".")
        if cls_name:  # a method: defined in the class itself, as the tracer needs
            cls = namespace.get(cls_name)
            found = isinstance(cls, type) and method in vars(cls)
        else:
            found = callable(namespace.get(attr))
        if not found:
            missing.append(full)
    assert tracer.target_names() and missing == []


def test_private_attributes_stay_in_their_module():
    """A module reads ``obj._name`` only where obj is ``self`` or ``cls`` or
    where the module itself assigns ``_name`` to some object, so only the
    module that stores a private field reads it."""
    found = []
    for name, tree in TREES.items():
        nodes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        assigned = {node.attr for node in nodes if isinstance(node.ctx, ast.Store)}
        found += [
            f"{name}:{node.lineno} {node.attr}"
            for node in nodes
            if node.attr.startswith("_")
            and not node.attr.endswith("__")
            and node.attr not in assigned
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ]
    assert found == []


# Kept without a caller: the planned ``itree witness`` command (ROADMAP item
# 9) runs the tree-to-shattering chain through it.
CALLER_ALLOWED = {"maximal_join_from_tree"}


def referenced_names(tree):
    """Every name a module reads, as an identifier, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_caller():
    """Every public module-level function and class and every public method
    of the library is reached from library code other than ``__init__.py``,
    from ``perfbench``, or as a benchmark tracer target: a name that only
    the tests reach is deleted.  Names match by name alone, so a
    same-named variable anywhere in those sources hides a dead definition."""
    callers = {full.rpartition(".")[2] for full in perfbench_tracer().target_names()}
    callers |= CALLER_ALLOWED
    for name, tree in TREES.items():
        if name != "__init__.py":
            callers.update(referenced_names(tree))
    for path in sorted(PERFBENCH.glob("*.py")):
        callers.update(referenced_names(ast.parse(path.read_text(), filename=str(path))))
    defined = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (name, f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    found = [
        f"{name}:{qualified}"
        for name, qualified, bare in defined
        if not bare.startswith("_") and bare not in callers
    ]
    assert found == []


def caught_names(tree):
    """Every name an ``except`` clause of a module names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            yield from (t.id if isinstance(t, ast.Name) else t.attr for t in types)


def test_every_exception_class_is_caught():
    """Every exception class the library defines is named in an ``except``
    clause of library code: a type that no handler tells apart is a plain
    ValueError with the same message."""
    caught = {name for tree in TREES.values() for name in caught_names(tree)}
    found = []
    for name, tree in TREES.items():
        stem = name.removesuffix(".py")
        module = gapdim if stem == "__init__" else importlib.import_module(f"gapdim.{stem}")
        found += [
            f"{name}:{node.name}"
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            and issubclass(getattr(module, node.name), BaseException)
            and node.name not in caught
        ]
    assert found == []


def indented_json_writes(tree):
    """The function (or None at module level) around every ``json.dump`` or
    ``json.dumps`` call that passes ``indent``."""
    def scan(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and any(keyword.arg == "indent" for keyword in node.keywords)
        ):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from scan(child, scope)

    return list(scan(tree, None))


def test_one_indented_json_writer():
    """``exactset.dumps`` is the only indented JSON writer: with an indent,
    ``json`` encodes in pure Python, and ``dumps`` writes the same bytes
    through its C encoder."""
    found = [
        f"{name.removesuffix('.py')}.{scope}"
        for name, tree in TREES.items()
        for scope in indented_json_writes(tree)
    ]
    assert found == []


def test_functions_are_built_from_their_values():
    """Library code builds a function only through ``Function.step`` or
    ``Function.tabular``, which check its values once: no call names the
    ``Function`` constructor itself."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "Function"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Function"
        )
    ]
    assert found == []


PROCESS_SPECS = {"IIDUniformSpec", "RotationSpec", "MarkovSpec"}


def test_no_type_dispatch_on_the_process_spec():
    """Each process spec draws its own path, weighs its own cells and caps
    its own length (``path``, ``cell_masses``, ``max_length``): no library
    ``isinstance`` call names a spec class."""
    found = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            named = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node.args[1])
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if named & PROCESS_SPECS:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_every_mutant_edits_its_function_once():
    """Each mutant of ``tests/mutants.py`` names exactly one function and
    finds its ``old`` text there exactly once (else ``mutated_source``
    exits), so a kernel that is renamed or reshaped leaves no mutant that
    edits nothing."""
    texts = {path.name: path.read_text() for path in SOURCES}
    for mutant in mutants.MUTANTS:
        edited = mutants.mutated_source(texts[mutant.module], mutant)
        assert edited != ast.unparse(TREES[mutant.module]), mutant.name


# What ``tests/oracles.py`` may import from gapdim: data types and their
# constructors, constants, exception types, parsers and formatters.
ORACLE_IMPORTS = {
    "CompleteTree", "DimResult", "Function", "FunctionClass", "IIDUniformSpec",
    "IntersectionTree", "IntervalUnion", "Label", "MarkovSpec", "RotationSpec",
    "SamplePath", "ShatterCertificate", "SplitMix64",
    "STEP", "TABULAR",
    "MissingPayload", "SegmentIndexOutOfRange",
    "format_rational", "parse_rational",
}


def test_oracles_import_no_kernel():
    """An oracle that calls a library kernel shares the code it checks, so
    ``tests/oracles.py`` imports from gapdim only the names of
    ``ORACLE_IMPORTS``, and never the package or a module itself.  Methods
    of a data type are not imports: the oracles' set algebra is checked
    apart, with the library's set operations patched to raise
    (``test_exactset.py::test_oracle_does_its_own_set_algebra``)."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.partition(".")[0] == "gapdim"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "gapdim":
            found += [a.name for a in node.names if a.name not in ORACLE_IMPORTS]
    assert found == []
