"""Tripwires for the traced benchmark run.

``bench/tracer.py`` wraps program functions by name (its ``TARGETS``) and
reads some of their parameters, and a traced workload fails when a layer it
must reach records no call.  These tests check the program side of that
contract, so a rename or a rerouted call fails here first.  The tracer file
is parsed with ``ast``, not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lightsout
import lightsout.modular as modular_mod
import lightsout.search as search_mod
from lightsout.cli import main as cli_main
from lightsout.game import winnable
from lightsout.graphs import named_graph, neighborhood_matrix
from lightsout.search import _scan_edge_count
from lightsout.toggling import toggling_numbers

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_targets():
    """The (layer, module, attribute) triples of the tracer's TARGETS."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "TARGETS":
            return ast.literal_eval(value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


@pytest.mark.parametrize("layer, module, attr", traced_targets())
def test_every_traced_name_resolves(layer, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{layer}: {module}.{attr} is gone"
    assert callable(owner), f"{layer}: {module}.{attr} is not callable"


def test_scan_keeps_the_parameters_the_tracer_reads():
    params = inspect.signature(_scan_edge_count).parameters
    assert {"n", "e"} <= set(params)


def test_normal_form_keeps_its_matrix_parameter():
    assert next(iter(inspect.signature(modular_mod.normal_form).parameters)) == "m"


@pytest.fixture
def normal_form_calls(monkeypatch):
    """Count calls through every lightsout binding of normal_form."""
    original = modular_mod.normal_form
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "lightsout" or name.startswith("lightsout.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize("ell", [2, 6])
def test_winnable_diagonalises_once(normal_form_calls, ell):
    m = neighborhood_matrix(named_graph("cycle5"), ell)
    winnable(m, (1, 0, 0, 0, 0))
    assert len(normal_form_calls) == 1


@pytest.mark.parametrize("ell", [2, 6])
def test_toggling_numbers_diagonalises_once(normal_form_calls, ell):
    m = neighborhood_matrix(named_graph("path4"), ell)
    toggling_numbers(m, range(4), 1)
    assert len(normal_form_calls) == 1


def test_maxsize_reaches_every_hooked_search_layer(monkeypatch, capsys):
    """The traced scan-8-42 run reads the scan, the canonical sweep and the
    normal_form audit through the lightsout.search bindings; each must be
    called, and the scan must return a list the tracer can count."""
    results = {
        name: [] for name in ("_scan_edge_count", "_canonical_reps_of_closed_set", "normal_form")
    }
    for name, seen in results.items():
        original = getattr(search_mod, name)

        def recording(*args, _original=original, _seen=seen, **kwargs):
            _seen.append(_original(*args, **kwargs))
            return _seen[-1]

        monkeypatch.setattr(search_mod, name, recording)
    assert cli_main(["maxsize", "--n", "8", "--modulus", "42"]) == 0
    capsys.readouterr()
    for name, seen in results.items():
        assert seen, f"maxsize never called {name} through lightsout.search"
    assert all(isinstance(r, list) for r in results["_scan_edge_count"])


def test_import_builds_no_type_table():
    """The benchmark's setup_s covers the import, so the type table waits
    for the first scan."""
    script = (
        "import lightsout, lightsout.search as s;"
        " print(len(s._FREE_TREES), len(s._CELLS))"
    )
    src = os.path.dirname(os.path.dirname(lightsout.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0"]
