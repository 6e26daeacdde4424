"""Every name a module under ``src/lightsout`` imports must be used there.

The sources are parsed with ``ast``, not imported.  A name counts as used
when it appears as a ``Name`` node anywhere in the module; ``a.b`` uses
``a``.  Re-exports from ``__init__.py`` and ``from __future__`` imports are
exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lightsout

SOURCES = sorted(
    path
    for path in Path(lightsout.__file__).resolve().parent.rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """(line, name) for each imported name the module never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_sources_found():
    assert any(path.name == "search.py" for path in SOURCES)


def test_detects_an_unused_import():
    source = "from typing import List, Tuple\nimport os\nx: Tuple[int] = (os.sep,)\n"
    assert unused_imports(source) == [(1, "List")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_import(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports {unused}"
