"""Arithmetic stays exact: no source file holds a float literal."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def float_literals(source):
    """Line numbers of the float constants in source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
    ]


def test_the_scan_sees_floats_only():
    # math.inf is an attribute, not a literal
    assert float_literals("x = 1.0\ny = 1e3 + 2\nz = math.inf\nw = '1.5'\n") == [1, 2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_float_literals(path):
    assert float_literals(path.read_text()) == []
