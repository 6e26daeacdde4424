"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import lightsout.modular as modular_mod


@pytest.fixture
def fresh_memo(monkeypatch):
    """Empty normal_form's memo of its last matrices, both entries, and
    return a function that empties it again; the pairs held before the
    test return after it."""

    def reset() -> None:
        monkeypatch.setattr(modular_mod, "_last", ())

    reset()
    return reset


@pytest.fixture
def reductions(monkeypatch, fresh_memo):
    """The matrices normal_form diagonalises during the test, in order,
    starting from an empty memo: one entry per _Reduction built."""
    built = []

    class Counted(modular_mod._Reduction):
        def __init__(self, m):
            built.append(m)
            super().__init__(m)

    monkeypatch.setattr(modular_mod, "_Reduction", Counted)
    return built
