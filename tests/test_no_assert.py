"""Invariants in the package raise real exceptions: `python -O` strips asserts."""

import ast
from pathlib import Path

import pytest

import rareevent

SOURCES = sorted(Path(rareevent.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements on lines {lines}"
