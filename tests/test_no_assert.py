"""Checks in the package and the demos are explicit raises, never `assert`
statements, which `python -O` strips.  Standard library `ast` only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "prymlab").glob("*.py"), *(ROOT / "demos").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}; raise explicitly instead"
