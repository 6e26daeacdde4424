"""The four workloads: inputs, the timed section, and the answer checks.

Imported only inside a fresh child process, after ``lightsout`` is on the
path.  Every call into the program goes through a module attribute looked
up at call time, so the traced run's wrappers see it.

Each workload's ``run`` returns an Outcome whose ``ops`` hold the latency of
every timed operation; ``check`` runs after the timed section and adds one
message to ``errors`` per wrong answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import lightsout
import lightsout.cli

# Checks per suite of `lightsout verify --suite all`, recorded at the commit
# that introduced this benchmark.  The counts do not depend on the seed.
SUITE_CHECKS: Dict[str, int] = {
    "oracle": 46902,
    "twins": 223,
    "thm-2-4": 425,
    "thm-3-1": 100,
    "cor-3-2": 318,
    "lemma-3-4": 7500,
    "lemma-3-5": 60,
    "thm-3-6": 4596,
    "cor-3-7": 465,
    "lemma-3-9": 130,
    "lemma-3-10": 50,
    "cor-3-11": 50,
    "cor-3-12": 41,
    "lemma-4-6": 4641,
    "lemma-4-7": 392,
    "lemma-4-8": 2016,
    "lemma-4-9": 31,
    "thm-4-10": 8,
    "props-4-x": 53,
    "appendix": 96,
}
TOTAL_CHECKS = 68097

# The two-process split of the suites, balanced by their cost at the
# benchmark's introduction (thm-3-6 alone is about 40% of the sweep).
SECOND_PART_SUITES = ("oracle", "lemma-3-4", "lemma-4-6", "lemma-4-8")

GRID_MODULI = (2, 3, 6, 30)
# Seeded labelings per board, by grid side k (n = k*k), giving 156 timed
# operations per repetition, short enough for about nine repetitions in a
# 30-second run.  The counts put about as many operations above the 7 x 7
# boards as below them, so the median operation falls in the middle of
# the 7 x 7 `winnable` calls rather than in the gap between two board sizes,
# where it would jump from run to run.
GRID_LABELINGS = {5: 5, 6: 5, 7: 8, 8: 4, 9: 2, 10: 3}
# Always-winnable verdicts of the k x k grid, frozen as a third witness
# beside the determinant and diagonalisation routes.
GRID_AW = {
    5: (False, False, False, False),
    6: (True, True, True, True),
    7: (True, True, True, True),
    8: (True, False, False, False),
    9: (False, False, False, False),
    10: (True, True, True, True),
}


@dataclass
class Outcome:
    ops: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    stdout_sha256: str = ""
    answers: list = field(default_factory=list)


def call_cli(argv: List[str]) -> Tuple[int, str, float]:
    """Run the command line in-process; return exit code, stdout and seconds."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lightsout.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a dead run
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), time.perf_counter() - started


def _report(code: int, stdout: str, argv: List[str], errors: List[str]) -> dict:
    if code != 0:
        errors.append(f"{' '.join(argv)}: exit code {code}")
        return {}
    try:
        return json.loads(stdout)
    except ValueError:
        errors.append(f"{' '.join(argv)}: stdout is not JSON")
        return {}


class Maxsize:
    """`lightsout maxsize --n N --modulus ELL --jobs J`; the seed is unused."""

    def __init__(self, n: int, modulus: int, max_size: int, extremal: Tuple[str, ...]):
        self.n = n
        self.modulus = modulus
        self.max_size = max_size
        self.extremal = list(extremal)

    def generate(self, seed: int) -> None:
        pass

    def run(self, jobs: int, part: int, parts: int) -> Outcome:
        argv = ["maxsize", "--n", str(self.n), "--modulus", str(self.modulus),
                "--jobs", str(jobs)]
        code, stdout, seconds = call_cli(argv)
        outcome = Outcome(ops=[seconds])
        outcome.answers.append((argv, code, stdout))
        outcome.stdout_sha256 = hashlib.sha256(stdout.encode()).hexdigest()
        return outcome

    def check(self, outcome: Outcome) -> None:
        for argv, code, stdout in outcome.answers:
            result = _report(code, stdout, argv, outcome.errors).get("result")
            if result is None:
                continue
            want = {"agree": True, "max_size": self.max_size,
                    "extremal_graphs": self.extremal}
            for key, value in want.items():
                if result.get(key) != value:
                    outcome.errors.append(
                        f"maxsize n={self.n} ell={self.modulus}: {key}="
                        f"{result.get(key)!r}, expected {value!r}"
                    )


class VerifyAll:
    """`lightsout verify --suite all --seed SEED`.

    Split over two processes, each part runs one `verify --suite NAME` per
    suite, as a user would from two shells.
    """

    def generate(self, seed: int) -> None:
        self.seed = seed

    def _suites(self, part: int, parts: int) -> List[str]:
        if parts == 1:
            return ["all"]
        names = [s for s in lightsout.verify.suite_names() if s != "all"]
        second = [s for s in names if s in SECOND_PART_SUITES]
        first = [s for s in names if s not in SECOND_PART_SUITES]
        return (first, second)[part]

    def run(self, jobs: int, part: int, parts: int) -> Outcome:
        outcome = Outcome()
        for suite in self._suites(part, parts):
            argv = ["verify", "--suite", suite, "--seed", str(self.seed)]
            code, stdout, seconds = call_cli(argv)
            outcome.ops.append(seconds)
            outcome.answers.append((argv, code, stdout))
        return outcome

    def check(self, outcome: Outcome) -> None:
        for argv, code, stdout in outcome.answers:
            result = _report(code, stdout, argv, outcome.errors).get("result")
            if result is None:
                continue
            if result.get("passed") is not True:
                outcome.errors.append(f"{' '.join(argv)}: passed is not true")
            counts = {s.get("suite"): s.get("checks") for s in result.get("suites", [])}
            wanted = SUITE_CHECKS if argv[2] == "all" else {argv[2]: SUITE_CHECKS.get(argv[2])}
            if counts != wanted:
                outcome.errors.append(
                    f"{' '.join(argv)}: check counts {counts} differ from the record"
                )
            if argv[2] == "all" and sum(counts.values()) != TOTAL_CHECKS:
                outcome.errors.append(
                    f"verify --suite all: {sum(counts.values())} checks,"
                    f" recorded {TOTAL_CHECKS}"
                )


def grid_graph(k: int) -> "lightsout.Graph":
    """The k x k grid of classic Lights Out, vertex r*k + c."""
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return lightsout.Graph.from_edges(k * k, edges)


_FAILED = object()


@dataclass
class Board:
    k: int
    modulus: int
    closed: "lightsout.ZModMatrix"
    open: "lightsout.ZModMatrix"
    labelings: List[Tuple[int, ...]]


class SolveGrid:
    """Is-AW, seeded labelings and toggling sets on k x k grid boards."""

    def generate(self, seed: int) -> None:
        rng = random.Random(seed)
        self.boards: List[Board] = []
        for k, count in GRID_LABELINGS.items():
            g = grid_graph(k)
            for ell in GRID_MODULI:
                closed = lightsout.neighborhood_matrix(g, ell)
                # Each labeling is what a seeded toggle vector leaves behind,
                # as a puzzle made by pressing buttons: winnable on every
                # board, so every `winnable` call takes the same path whatever
                # the seed.  On AW boards this is a uniform labeling.
                labelings = [
                    tuple(closed.mul_vec([rng.randrange(ell) for _ in range(k * k)]))
                    for _ in range(count)
                ]
                self.boards.append(Board(
                    k, ell, closed, lightsout.adjacency_matrix(g, ell), labelings,
                ))

    def run(self, jobs: int, part: int, parts: int) -> Outcome:
        outcome = Outcome()

        def timed(name: str, fn, *args):
            started = time.perf_counter()
            try:
                return fn(*args)
            except Exception as exc:  # a crash is a wrong answer
                outcome.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                return _FAILED
            finally:
                outcome.ops.append(time.perf_counter() - started)

        for board in self.boards[part::parts]:
            name = f"grid {board.k}x{board.k} mod {board.modulus}"
            aw = timed(name, lightsout.is_AW, board.closed)
            toggles = [
                timed(name, lightsout.winnable, board.closed, labels)
                for labels in board.labelings
            ]
            coset = timed(name, lightsout.toggling_numbers, board.open,
                          range(board.k ** 2), 1)
            outcome.answers.append((board, aw, toggles, coset))
        return outcome

    def check(self, outcome: Outcome) -> None:
        for board, aw, toggles, coset in outcome.answers:
            if _FAILED in (aw, coset) or _FAILED in toggles:
                continue  # the crash is already recorded
            name = f"grid {board.k}x{board.k} mod {board.modulus}"
            ell = board.modulus
            diagonal = lightsout.normal_form(board.closed).D.diag()
            by_diagonal = all(math.gcd(d, ell) == 1 for d in diagonal)
            frozen = GRID_AW[board.k][GRID_MODULI.index(ell)]
            if not aw == by_diagonal == frozen:
                outcome.errors.append(
                    f"{name}: is_AW {aw}, diagonal {by_diagonal}, recorded {frozen}"
                )
            for labels, x in zip(board.labelings, toggles):
                if x is None:
                    outcome.errors.append(f"{name}: lost a labeling made by toggling")
                elif any(lightsout.apply_toggles(board.closed, labels, x)):
                    outcome.errors.append(f"{name}: toggles do not clear the labeling")


WORKLOADS = {
    "scan-8-42": lambda: Maxsize(8, 42, 23, ("GL~v~w",)),
    "canon-9-30": lambda: Maxsize(9, 30, 32, ("H]~v~z~",)),
    "verify-all": VerifyAll,
    "solve-grid": SolveGrid,
}

# Traced layers each workload must reach; a wrapper on one of them that
# records no call was installed at the wrong name.
EXPECTED_LAYERS = {
    "scan-8-42": ("cli.main", "search.max_size_search", "search.scan",
                  "search.canon", "search.audit"),
    "canon-9-30": ("cli.main", "search.max_size_search", "search.scan",
                   "search.canon", "search.audit"),
    "verify-all": ("cli.main", "verify.run_suite", "modular.normal_form",
                   "modular.solve", "game.winnable", "game.is_AW",
                   "toggling.toggling_numbers", "rules.pendantremove_conditions",
                   "graphs.neighborhood_matrix"),
    "solve-grid": ("game.is_AW", "game.winnable", "toggling.toggling_numbers",
                   "modular.solve", "modular.normal_form"),
}
