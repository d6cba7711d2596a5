"""Static checks on the package source, with the standard library alone."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "g2lab"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements of `source` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport json.encoder as enc\n"
              "import numpy as np\nfrom math import pi, tau\nx = np.zeros(1) * pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "enc"), (5, "tau")]


def unused_private_names(sources):
    """(module, line, name) of the private module-level functions, classes and
    constants of `sources` ({module: source}) whose name no module there reads,
    as a loaded name or an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_detects_unused_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE = 4\n_x, _y = 1, 2\n"
                 "def _helper():\n    return _LIMIT\n"
                 "def _dead():\n    _inner = 1\n    return _inner\n"
                 "class _Unused:\n    pass\n__all__ = []\n"),
        "b.py": "from a import _helper\nimport a\nprint(_helper(), a._y)\n",
    }
    assert unused_private_names(sources) == [
        ("a.py", 2, "_SPARE"), ("a.py", 3, "_x"), ("a.py", 6, "_dead"), ("a.py", 9, "_Unused")]
