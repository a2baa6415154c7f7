"""Every import is used where it is made, and every module-level name is read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))
# a package's __init__ imports names to re-export them, not to use them
FILES = [p for p in SOURCES + TESTS if p.name != "__init__.py"]


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


def module_level_names(source):
    """Functions, classes and constants that source binds at module level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    # dunders such as __version__ are read by tools, not by code
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def read_names(source):
    """Names that source reads: as a name, as an attribute, or by importing it."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_names(bound_in, readers):
    """Module-level names of the bound_in sources that no reader source reads."""
    bound = set().union(*(module_level_names(s) for s in bound_in))
    read = set().union(*(read_names(s) for s in readers))
    return sorted(bound - read)


def test_the_scan_sees_unused_and_used_names():
    source = "import os, sys\nfrom a.b import c as d, e\nprint(sys.argv, e.f)\n"
    assert unused_imports(source) == ["d", "os"]
    module = "X = 1\nY: int = 2\ndef f(): return X\nclass C: pass\ndef g(): pass\n__all__ = []\n"
    caller = "from m import C\nm.g()\n"
    assert unread_names([module], [module, caller]) == ["Y", "f"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_module_level_name_is_read():
    # a name that only __init__ imports counts as read: it is re-exported
    texts = [p.read_text() for p in SOURCES + TESTS]
    package = [p.read_text() for p in SOURCES if p.parent.name == "epsgeom"]
    assert unread_names(package, texts) == []
