"""Fuzz the command line in-process: every argv from a grammar of valid,
malformed and extreme inputs must end in a clean exit.

For each argv: the exit code is 0, 1 or 2 and stderr has no traceback;
exit 2 prints nothing on stdout; exits 0 and 1 print one JSON object with
"schema": 1.  An argv with a value past a stated input bound must exit 2.
Every example runs under a real-time deadline, so an input that starts
unbounded work fails the test instead of hanging it.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import signal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lightsout.cli import MAX_MATRIX_DIM, main
from lightsout.graphs import GRAPH6_MAX_N
from lightsout.modular import MAX_MODULUS

DEADLINE_S = 2.0
# Matrix file paths in the grammar name this directory; each test run
# substitutes its own temporary directory.
DIR = "<dir>"

# Each pool maps a slot of the grammar to its valid values and to the
# malformed or extreme ones.  Graphs and matrix files carry their order
# (None when they have none), so that valid labelings can match it.
VALID = {
    "graph": [
        ("path4", 4), ("path(4)", 4), ("cycle5", 5), ("matching6", 6),
        ("complete3", 3), ("star13", 4), ("G3", 6), ("bowtie", 5),
        ("edges:2:0-1", 2), ("edges:3:", 3), (f"edges:{GRAPH6_MAX_N}:", GRAPH6_MAX_N),
        ("g6:Ch", 4),
    ],
    "matrix": [("sq.txt", 2)],
    "game": ["neighborhood", "adjacency"],
    "modulus": ["2", "3", "4", "5", "6", "30", "210", "1048577", str(MAX_MODULUS)],
    "label": ["0", "1", "-1", "7", str(10**30)],
    "subset": ["all", "0", "0,1", "0,0"],
    "r": ["0", "1", "-5", str(10**30)],
    # Small orders and two past the old wall at 10; every modulus here
    # answers at n = 11 and 40 in well under the deadline.
    "n": ["2", "3", "4", "5", "6", "7", "11", "40"],
    "bounded": [None, "2", "3", "5", "25", "n"],
    "jobs": ["1"],
    "csv": [f"{DIR}/table.csv"],
    "suite": ["appendix", "twins", "thm-4-10", "lemma-4-9", "cor-3-11"],
    "seed": ["0", "3", "-1", str(2**70)],
}
BAD = {
    "graph": [
        (spec, None)
        for spec in [
            "", "path", "path0", "cycle2", "dodecahedron", "edges:", "edges:3",
            "edges:x:", "edges:-1:", "edges:3:01", "edges:3:0-5", "edges:3:0-0",
            "edges:3:0-1,", "g6:", "g6:~~~~", "path" + "9" * 5000,
            # past the 62-vertex bound
            "path100000", "cycle3000", "complete63", "matching(63)",
            f"edges:{GRAPH6_MAX_N + 1}:", "edges:100000:",
        ]
    ],
    "matrix": [
        (name, None)
        for name in ["rect.txt", "ragged.txt", "bad.txt", "empty.txt",
                     "wide.txt", "big.txt", "missing.txt"]
    ],
    "game": ["bogus", "matrix:"],
    "modulus": ["0", "1", "-5", str(MAX_MODULUS + 1), str(10**40), "abc"],
    "label": ["x", ""],
    "subset": ["99", "-1", "x", ""],
    "r": ["abc"],
    "n": ["0", "1", "-3", "63", "2000000", "x"],
    "bounded": ["0", "-1", "y"],
    "jobs": ["0", "-2", "z"],
    "csv": [DIR],
    "suite": ["nope", ""],
    "seed": ["s"],
}


@st.composite
def argvs(draw, bad: bool):
    """Argvs for all four subcommands; with bad, any slot may be malformed."""

    def pick(key):
        return draw(st.sampled_from(VALID[key] + (BAD[key] if bad else [])))

    def maybe(name, key):
        return [name, pick(key)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["winnable", "toggling", "maxsize", "verify"]))
    if command == "verify":
        return ["verify", "--suite", pick("suite"), *maybe("--seed", "seed")]
    if command == "maxsize":
        n, bounded = pick("n"), pick("bounded")
        argv = ["maxsize", "--n", n, "--modulus", pick("modulus")]
        if bounded is not None:
            argv += ["--bounded", n if bounded == "n" else bounded]
        if draw(st.booleans()):
            argv.append("--no-prune")
        return argv + maybe("--jobs", "jobs") + maybe("--csv", "csv")

    source = draw(st.sampled_from(["graph", "matrix"] + (["none"] if bad else [])))
    if source == "graph":
        spec, order = pick("graph")
        board = ["--graph", spec, *maybe("--game", "game")]
    elif source == "matrix":
        name, order = pick("matrix")
        board = ["--game", f"matrix:{DIR}/{name}"]
    else:
        board, order = [], None
    argv = [command, *board, "--modulus", pick("modulus")]
    if command == "toggling":
        return argv + maybe("--subset", "subset") + maybe("--r", "r")
    if draw(st.booleans()):
        k = draw(st.integers(0, 7)) if bad or order is None else order
        argv += ["--labels", ",".join(pick("label") for _ in range(k))]
    return argv


def _over_graph_bound(spec: str) -> bool:
    m = re.fullmatch(r"(?:path|cycle|matching|complete)\(?(\d+)\)?|edges:(\d+):.*", spec)
    if m is None:
        return False
    digits = m.group(1) or m.group(2)
    return len(digits) > 9 or int(digits) > GRAPH6_MAX_N


def _over_modulus_bound(text: str) -> bool:
    return text.lstrip("-").isdigit() and not 2 <= int(text) <= MAX_MODULUS


def expected_two(argv) -> bool:
    """Whether argv carries a value past one of the stated input bounds."""
    values = dict(zip(argv, argv[1:]))
    if argv[0] == "maxsize":
        n = values["--n"]
        if n.isdigit() and int(n) > GRAPH6_MAX_N:
            return True
        jobs = values.get("--jobs", "1")
        if jobs.lstrip("-").isdigit() and int(jobs) < 1:
            return True
    if "--modulus" in values and _over_modulus_bound(values["--modulus"]):
        return True
    if "--graph" in values and _over_graph_bound(values["--graph"]):
        return True
    game = values.get("--game", "")
    return game.endswith(("/wide.txt", "/big.txt"))


class DeadlineExceeded(BaseException):
    """Raised by the timer; a BaseException, so no handler can absorb it."""


def _expire(signum, frame):
    raise DeadlineExceeded(f"example ran past {DEADLINE_S} s")


def run_bounded(argv):
    """(exit code, stdout, stderr) of main(argv) under a real-time deadline.

    argparse rejects an argv by raising SystemExit; its code is the exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrices")
    (path / "sq.txt").write_text("# a 2 x 2 game\n1 1\n0, 1\n")
    (path / "rect.txt").write_text("1 0 1\n0 1 1\n")
    (path / "ragged.txt").write_text("1 2\n3\n")
    (path / "bad.txt").write_text("1 x\n0 1\n")
    (path / "empty.txt").write_text("# nothing\n\n")
    dim = MAX_MATRIX_DIM + 1
    (path / "wide.txt").write_text(" ".join(["1"] * dim) + "\n")
    rows = (" ".join(str((i * j + i + j) % 7) for j in range(dim)) for i in range(dim))
    (path / "big.txt").write_text("\n".join(rows) + "\n")
    return str(path)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=st.one_of(argvs(bad=False), argvs(bad=True)))
@example(argv=["maxsize", "--n", "11", "--modulus", "30", "--bounded", "11"])
@example(argv=["maxsize", "--n", "2000000", "--modulus", "30", "--bounded", "2000000"])
@example(argv=["winnable", "--graph", "path100000", "--modulus", "2"])
@example(argv=["toggling", "--graph", "cycle3000", "--modulus", "2"])
@example(argv=["winnable", "--graph", "edges:100000:", "--modulus", "2"])
@example(argv=["winnable", "--game", f"matrix:{DIR}/big.txt", "--modulus", "7"])
@example(argv=["winnable", "--graph", "path4", "--modulus", str(MAX_MODULUS + 1)])
@example(argv=["toggling", "--graph", "edges:1:", "--game", "adjacency",
               "--modulus", "9999991"])
@example(argv=["maxsize", "--n", "6", "--modulus", "10", "--bounded", "3"])
def test_every_argv_exits_cleanly(matrix_dir, argv):
    argv = [token.replace(DIR, matrix_dir) for token in argv]
    code, out, err = run_bounded(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert out == "", argv
        return
    assert not expected_two(argv), (argv, code, err)
    report = json.loads(out)
    assert isinstance(report, dict) and report["schema"] == 1, argv
    assert report["command"] == argv[0]
