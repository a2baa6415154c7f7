"""Every name a module in src/ or tests/ imports is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports names to re-export them, not to use them
FILES = sorted(
    p
    for p in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by the imports in source that no Name node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_scan_sees_unused_and_used_names():
    source = "import os, sys\nfrom a.b import c as d, e\nprint(sys.argv, e.f)\n"
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
