"""The package's self-checks must survive ``python -O``.

``python -O`` strips ``assert`` statements, so every internal check under
``src/lightsout`` raises (``AuditError`` or a ``ValueError``) instead.  The
sources are parsed with ``ast``, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lightsout

SOURCES = sorted(Path(lightsout.__file__).resolve().parent.rglob("*.py"))


def test_sources_found():
    assert any(path.name == "modular.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"
