"""Rules about the library source itself."""

import ast
from pathlib import Path

import gapdim

SOURCES = sorted(Path(gapdim.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "ergoproc.py"}


def test_no_assert_statements():
    """Postconditions are explicit checks: ``python -O`` strips asserts."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
