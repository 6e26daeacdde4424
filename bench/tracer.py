"""Per-layer tracing from outside the program.

The traced run replaces chosen functions of the ``lightsout`` modules with
timing wrappers.  A module that did ``from .modular import det_int`` calls
through its own binding, so a wrapper goes on every module attribute that
holds the original object, not only on the defining module.  Each wrapper
knows which binding it sits on, so calls can be attributed to the caller's
module (``normal_form`` entered through ``lightsout.search`` is the search's
audit of survivors).

Spans are aggregated in memory per (target, binding): call count, total time
and self time, where self time is the span's duration minus the time of the
wrapped spans it encloses.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (layer name, defining module, attribute).  "Class.method" names wrap the
# method on the class.  Names starting with "_" are private: a later version
# of the program may delete them, and their metrics are then left out.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("modular.det_int", "lightsout.modular", "det_int"),
    ("modular.normal_form", "lightsout.modular", "normal_form"),
    ("modular.solve", "lightsout.modular", "solve"),
    ("modular.mul_vec", "lightsout.modular", "ZModMatrix.mul_vec"),
    ("search.max_size_search", "lightsout.search", "max_size_search"),
    ("search.scan", "lightsout.search", "_scan_edge_count"),
    ("search.canon", "lightsout.search", "_canonical_reps_of_closed_set"),
    ("rules.pendantremove_conditions", "lightsout.rules", "pendantremove_conditions"),
    ("game.winnable", "lightsout.game", "winnable"),
    ("game.is_AW", "lightsout.game", "is_AW"),
    ("toggling.toggling_numbers", "lightsout.toggling", "toggling_numbers"),
    ("graphs.neighborhood_matrix", "lightsout.graphs", "neighborhood_matrix"),
    ("graphs.Graph.repr", "lightsout.graphs", "Graph.__repr__"),
    ("verify.run_suite", "lightsout.verify", "run_suite"),
    ("cli.main", "lightsout.cli", "main"),
)

# Sizes of the game matrices whose normal_form cost is reported per call.
NORMAL_FORM_SIZES = (25, 64, 100)


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs the wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self.active = True
        self.present: Dict[str, bool] = {}
        self.stats: Dict[Tuple[str, str], _Stat] = {}
        self._stack: List[List[float]] = []
        self.normal_form_by_n: Dict[int, List[float]] = {}
        self.scan_candidates = 0
        self.scan_winners = 0
        self.suites: Dict[str, List[float]] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "lightsout" or name.startswith("lightsout."))
        ]
        for layer, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                self.present[layer] = original is not None
                if original is not None:
                    setattr(cls, meth, self._wrap(layer, module_name, original))
                continue
            original = getattr(owner, attr, None)
            self.present[layer] = original is not None
            if original is None:
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, self._wrap(layer, mod.__name__, original))

    def _wrap(self, layer: str, binding: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault((layer, binding), _Stat())
        stack = self._stack
        clock = time.perf_counter
        hook = self._hook(layer, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        return wrapper

    def _hook(self, layer: str, fn: Callable) -> Optional[Callable]:
        if layer == "modular.normal_form":
            def on_normal_form(args, kwargs, result, duration):
                m = args[0] if args else kwargs.get("m")
                slot = self.normal_form_by_n.setdefault(getattr(m, "rows", -1), [0, 0.0])
                slot[0] += 1
                slot[1] += duration
            return on_normal_form
        if layer == "search.scan":
            signature = inspect.signature(fn)

            def on_scan(args, kwargs, result, duration):
                bound = signature.bind(*args, **kwargs).arguments
                if "n" in bound and "e" in bound:
                    self.scan_candidates += math.comb(math.comb(bound["n"], 2), bound["e"])
                    self.scan_winners += len(result)
                else:  # a changed signature: the scan counts are unknown
                    self.present["search.scan"] = False
            return on_scan
        if layer == "verify.run_suite":
            def on_suite(args, kwargs, result, duration):
                name = args[0] if args else kwargs.get("name")
                if name != "all":
                    self.suites[name] = [duration, sum(r.checks for r in result)]
            return on_suite
        return None

    # -- summaries --------------------------------------------------------

    def calls(self, layer: str, binding: Optional[str] = None) -> int:
        return sum(
            s.calls
            for (name, via), s in self.stats.items()
            if name == layer and (binding is None or via == binding)
        )

    def self_s(self, layer: str, binding: Optional[str] = None) -> float:
        return sum(
            s.self_time
            for (name, via), s in self.stats.items()
            if name == layer and (binding is None or via == binding)
        )

    def total_s(self, layer: str) -> float:
        return sum(s.total for (name, _), s in self.stats.items() if name == layer)

    def layer_metrics(self, suite_names: Tuple[str, ...]) -> Dict[str, float]:
        """Per-layer metrics; a layer the run did not reach reads 0.

        Metrics of a target the program no longer defines are left out.
        """
        out: Dict[str, float] = {}
        have = self.present

        def per_call(total: float, calls: int, scale: float) -> float:
            return total / calls * scale if calls else 0.0

        if have["modular.det_int"]:
            calls = self.calls("modular.det_int")
            out["modular.det_int.calls"] = calls
            out["modular.det_int.self_s"] = self.self_s("modular.det_int")
            out["modular.det_int.us_per_call"] = per_call(
                self.self_s("modular.det_int"), calls, 1e6
            )
        if have["modular.normal_form"]:
            out["modular.normal_form.calls"] = self.calls("modular.normal_form")
            out["modular.normal_form.self_s"] = self.self_s("modular.normal_form")
            for n in NORMAL_FORM_SIZES:
                count, total = self.normal_form_by_n.get(n, (0, 0.0))
                out[f"modular.normal_form.ms_n{n}"] = per_call(total, count, 1e3)
            out["search.audit.self_s"] = self.self_s(
                "modular.normal_form", "lightsout.search"
            )
        if have["modular.solve"]:
            out["modular.solve.self_s"] = self.self_s("modular.solve")
        if have["modular.mul_vec"]:
            out["modular.mul_vec.calls"] = self.calls("modular.mul_vec")
            out["modular.mul_vec.self_s"] = self.self_s("modular.mul_vec")
        if have["search.scan"] and have["modular.det_int"]:
            candidates = self.scan_candidates
            det_evals = self.calls("modular.det_int", "lightsout.search")
            out["search.scan.candidates"] = candidates
            out["search.scan.det_evals"] = det_evals
            out["search.scan.pruned_ratio"] = (
                (candidates - det_evals) / candidates if candidates else 0.0
            )
            out["search.scan.winners"] = self.scan_winners
            out["search.scan.useful_ratio"] = (
                self.scan_winners / det_evals if det_evals else 0.0
            )
            scan_s = self.total_s("search.scan")
            out["search.scan.candidates_per_s"] = candidates / scan_s if scan_s else 0.0
        if have["search.canon"]:
            out["search.canon.self_s"] = self.self_s("search.canon")
        for layer in (
            "rules.pendantremove_conditions",
            "game.winnable",
            "game.is_AW",
            "toggling.toggling_numbers",
            "graphs.neighborhood_matrix",
        ):
            if have[layer]:
                out[f"{layer}.calls"] = self.calls(layer)
                out[f"{layer}.self_s"] = self.self_s(layer)
        if have["graphs.Graph.repr"]:
            out["graphs.Graph.repr.calls"] = self.calls("graphs.Graph.repr")
        if have["verify.run_suite"]:
            for name in suite_names:
                seconds, checks = self.suites.get(name, (0.0, 0))
                out[f"verify.{name}.s"] = seconds
                out[f"verify.{name}.checks"] = checks
        if have["cli.main"]:
            out["cli.main.self_s"] = self.self_s("cli.main")
        return out

    def silent(self, expected: Tuple[str, ...]) -> List[str]:
        """Expected layers, still defined by the program, that saw no call."""
        silent = []
        for layer in expected:
            binding = None
            if layer == "search.audit":
                layer, binding = "modular.normal_form", "lightsout.search"
            if self.present.get(layer) and self.calls(layer, binding) == 0:
                silent.append(layer if binding is None else f"{layer}@{binding}")
        return silent
