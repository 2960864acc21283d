"""Every name a package module, test module or tools/ script imports is
used in that file, and every private module-level name the package
defines is read somewhere in it.

`__init__.py` is left out of the import check: its imports are the
re-exported public surface, frozen in test_api.py.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hambypass"
# id -> file: package modules by name, test modules and scripts by their path
IMPORTERS = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
IMPORTERS.update({f"{d}/{p.name}": p for d in ("tests", "tools") for p in (ROOT / d).glob("*.py")})


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, sorted."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("module", sorted(IMPORTERS))
def test_module_imports_are_used(module):
    assert unused_imports(IMPORTERS[module].read_text()) == []


def test_unused_import_check_flags_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "from functools import cache, lru_cache\n"
        "import os.path\n"
        "\n"
        "@cache\n"
        "def f(x: int) -> int:\n"
        "    return 1\n"
    )
    assert unused_imports(source) == ["lru_cache", "os"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The `module.name` of every module-level `_name` (not a dunder) that a
    def, class or assignment in `sources` (module -> source) binds and that
    no module reads, as a name or as an attribute; sorted."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(
        f"{module}.{name}"
        for module, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_unread_private_name_check_flags_a_leftover():
    sources = {
        "a.py": "_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n\ndef _used():\n    return _LIMIT\n",
        "b.py": "from . import a\n\nclass _Old:\n    pass\n\ndef f():\n    return a._used()\n",
    }
    assert unread_private_names(sources) == ["a.py._SPARE", "b.py._Old"]
