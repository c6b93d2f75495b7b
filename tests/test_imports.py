"""Every name a module of the package imports is used in that module.

No linter runs on the sources, so an import left behind by a refactor would
otherwise stay. ``__init__.py`` re-exports its imports and is exempt, and so
are ``__future__`` imports, which are compiler directives.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eqlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = (
        "from __future__ import annotations\nimport os\nfrom math import pi, tau as t\nprint(pi)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "t (line 3)"]
