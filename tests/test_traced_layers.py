"""Tripwires for the traced benchmark run.

``bench/tracer.py`` wraps program functions by name (its ``TARGETS``) and
reads some of their parameters, and a traced workload fails when a layer it
must reach records no call.  These tests check the program side of that
contract, so a rename or a rerouted call fails here first.  The tracer file
is parsed with ``ast``, not imported; one traced measurement per workload
runs ``bench/child.py`` in a subprocess.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import time
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

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per_layer metrics that bench/run.py derives itself, not from a child's layers
RUN_METRICS = {"search.pool.speedup_j2", "trace.overhead_ratio", "error_rate"}


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


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_child_reports_every_layer(workload):
    """One traced measurement, started as bench/run.py starts it, exits 0
    and ends in a strict JSON line with no errors, no absent layer, and a
    finite value for every per_layer metric of BENCHMARK.json that the
    child measures.  run.py leaves out the metrics of a hooked function
    that has gone, so its own output would not show a lost layer."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("LIGHTSOUT_JOBS", None)
    argv = [sys.executable, str(ROOT / "bench" / "child.py"), workload, "2201", "trace",
            "1", "0", "1", repr(time.monotonic())]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    record = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=reject_constant)
    assert record["errors"] == []
    assert record["absent_layers"] == []
    wanted = {m["name"] for m in SPEC["per_layer"]} - RUN_METRICS
    assert set(record["layers"]) == wanted
    assert all(math.isfinite(value) for value in record["layers"].values())
