"""Every name a package module imports is used in that module.

`__init__.py` is left out: its imports are the re-exported public surface,
frozen in test_api.py.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hambypass"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


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
