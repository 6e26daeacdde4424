"""Tripwires for the package's public name list, ``lightsout.__all__``.

Every listed name must resolve and appear once, and every public name that
``lightsout/__init__.py`` binds must be listed, so deleting a function
without its ``__all__`` entry, or exporting one without listing it, fails
here.  Bound names are read from the file with ``ast``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import lightsout

INIT = Path(lightsout.__file__).resolve()


def bound_public_names():
    """Names without a leading underscore bound at the top of __init__.py."""
    names = set()
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_entry_resolves():
    missing = [name for name in lightsout.__all__ if not hasattr(lightsout, name)]
    assert not missing, f"__all__ names missing from lightsout: {missing}"


def test_no_entry_repeats():
    repeats = [name for name, k in Counter(lightsout.__all__).items() if k > 1]
    assert not repeats, f"__all__ repeats {repeats}"


def test_every_bound_public_name_listed():
    unlisted = sorted(bound_public_names() - set(lightsout.__all__))
    assert not unlisted, f"bound in __init__.py but not in __all__: {unlisted}"


def test_bound_names_found():
    assert {"solve", "max_size_search", "run_suite"} <= bound_public_names()
