"""Command-line surface: solving, toggling sets, searches, verification.

Reports are JSON (schema version 1) on standard output; human diagnostics
and timing go to standard error.  Stdout never embeds wall-clock data or
the worker count, so a report is byte-identical for fixed inputs and seed
regardless of --jobs.

Exit codes: 0 when the answer is winnable / always-winnable / all checks
passed, 1 for the negative answer, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .game import is_AW, winnable
from .graphs import (
    Graph,
    adjacency_matrix,
    find_M_twins,
    graph6_decode,
    graph6_encode,
    named_graph,
    neighborhood_matrix,
)
from .modular import ZModMatrix
from .search import max_size_search
from .toggling import minimal_nonempty_r, toggling_numbers
from .verify import run_suite, suite_names

SCHEMA_VERSION = 1

JOBS_ENV_VAR = "LIGHTSOUT_JOBS"

MAX_MATRIX_DIM = 400


class UsageError(ValueError):
    """Bad flags or malformed inputs; maps to exit code 2."""


def parse_graph(spec: str) -> Graph:
    """Accept g6:STRING, edges:N:u-v,..., or a constructor name."""
    if spec.startswith("g6:"):
        return graph6_decode(spec[len("g6:"):])
    if spec.startswith("edges:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise UsageError(
                "edge lists look like edges:N:u-v,u-v (edges:3: is empty)"
            )
        n = int(parts[1])
        edges: List[Tuple[int, int]] = []
        if parts[2]:
            for chunk in parts[2].split(","):
                u, dash, v = chunk.partition("-")
                if not dash:
                    raise UsageError(f"bad edge {chunk!r}; write u-v")
                edges.append((int(u), int(v)))
        return Graph.from_edges(n, edges)
    return named_graph(spec)


def parse_int_list(text: str) -> List[int]:
    if not text.strip():
        return []
    return [int(tok) for tok in text.split(",")]


def parse_matrix_file(path: str, ell: int) -> ZModMatrix:
    """Whitespace- or comma-separated integer rows, one row per line.

    Input limit: at most MAX_MATRIX_DIM rows and columns, else UsageError
    (exit 2).  Diagonalisation is pure Python and cubic in the size: a
    dense 100x100 matrix mod 30 (the largest board in the benchmark is
    100x100) takes about 0.3 s and a 400x400 one about 14 s (Python 3.11,
    one core of a 2-vCPU VM).
    """
    rows: List[List[int]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(tok) for tok in line.replace(",", " ").split()])
            if len(rows) > MAX_MATRIX_DIM or len(rows[-1]) > MAX_MATRIX_DIM:
                raise UsageError(
                    f"matrix file {path} exceeds {MAX_MATRIX_DIM} rows or columns"
                )
    if not rows:
        raise UsageError(f"matrix file {path} has no rows")
    return ZModMatrix.from_rows(rows, ell)


def _game_matrix(args: argparse.Namespace) -> Tuple[Optional[Graph], ZModMatrix]:
    """The graph (when one was given) and the game matrix to play on."""
    game = args.game
    if game.startswith("matrix:"):
        path = game[len("matrix:"):]
        if not path:
            raise UsageError("the matrix game needs a file: --game matrix:FILE")
        matrix = parse_matrix_file(path, args.modulus)
        if not matrix.is_square:
            raise UsageError(
                f"game matrix must be square, got {matrix.rows}x{matrix.cols}"
            )
        g = parse_graph(args.graph) if args.graph else None
        return g, matrix
    if args.graph is None:
        raise UsageError("--graph is required unless --game is matrix:FILE")
    g = parse_graph(args.graph)
    if game == "neighborhood":
        return g, neighborhood_matrix(g, args.modulus)
    if game == "adjacency":
        return g, adjacency_matrix(g, args.modulus)
    raise UsageError(
        f"unknown game {game!r}; use neighborhood, adjacency, or matrix:FILE"
    )


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(
    command: str,
    inputs: Dict[str, object],
    result: Dict[str, object],
    seed: Optional[int] = None,
) -> None:
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "provenance": {"version": __version__, "seed": seed},
    }
    print(json.dumps(report, indent=2))


def _graph_inputs(args: argparse.Namespace, g: Optional[Graph]) -> Dict[str, object]:
    return {
        "graph": args.graph,
        "graph6": graph6_encode(g) if g is not None else None,
        "game": args.game,
        "modulus": args.modulus,
    }


def cmd_winnable(args: argparse.Namespace) -> int:
    g, matrix = _game_matrix(args)
    if not matrix.is_square:
        raise UsageError("winnability needs a square game matrix")
    inputs = _graph_inputs(args, g)
    if args.labels is not None:
        labels = parse_int_list(args.labels)
        if len(labels) != matrix.rows:
            raise UsageError(
                f"labels length {len(labels)} != {matrix.rows} vertices"
            )
        inputs["labels"] = labels
        toggles = winnable(matrix, labels)
        _emit(
            "winnable",
            inputs,
            {
                "mode": "labeling",
                "winnable": toggles is not None,
                "toggles": list(toggles) if toggles is not None else None,
            },
        )
        return 0 if toggles is not None else 1
    inputs["labels"] = None
    aw = is_AW(matrix)
    witness: Optional[List[int]] = None
    if not aw:
        twins = find_M_twins(matrix)
        if twins:
            witness = list(twins[0])
            _note(
                f"not always winnable: rows/columns {twins[0]} act identically"
            )
    _emit(
        "winnable",
        inputs,
        {
            "mode": "always_winnable",
            "always_winnable": aw,
            "twin_witness": witness,
        },
    )
    return 0 if aw else 1


def cmd_toggling(args: argparse.Namespace) -> int:
    g, matrix = _game_matrix(args)
    if not matrix.is_square:
        raise UsageError("toggling sets need a square game matrix")
    n = matrix.rows
    if args.subset == "all":
        subset = list(range(n))
    else:
        subset = parse_int_list(args.subset)
        bad = [v for v in subset if not (0 <= v < n)]
        if bad:
            raise UsageError(f"subset vertices out of range: {bad}")
    coset = toggling_numbers(matrix, subset, args.r)
    inputs = _graph_inputs(args, g)
    inputs["subset"] = subset
    inputs["r"] = args.r
    _note(f"toggling set: {coset!r}")
    _emit(
        "toggling",
        inputs,
        {
            "empty": coset.empty,
            "base": None if coset.empty else coset.base,
            "generator": None if coset.empty else coset.generator,
            "members": list(coset.members()),
            "minimal_nonempty_r": minimal_nonempty_r(matrix, subset),
        },
    )
    return 0


def cmd_maxsize(args: argparse.Namespace) -> int:
    jobs = args.jobs
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise UsageError(f"{JOBS_ENV_VAR}={raw!r} is not an integer")
    _note(f"searching n={args.n} mod {args.modulus} with {jobs} job(s)")
    try:
        report = max_size_search(
            args.n,
            args.modulus,
            bounded_cap=args.bounded,
            prune=not args.no_prune,
            jobs=jobs,
        )
    except RuntimeError as exc:
        _note(f"search exhausted: {exc}")
        return 1
    if args.csv:
        _append_csv(args.csv, report)
    _emit(
        "maxsize",
        {
            "n": args.n,
            "modulus": args.modulus,
            "bounded": args.bounded,
            "prune": not args.no_prune,
        },
        report.to_json(),
    )
    return 0


def _append_csv(path: str, report) -> None:
    new_file = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(["n", "modulus", "max_size", "extremal_count"])
        writer.writerow(
            [report.n, report.ell, report.max_size, len(report.extremal_graphs)]
        )


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in suite_names():
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from"
            f" {', '.join(suite_names())}"
        )
    results = run_suite(args.suite, seed=args.seed)
    payload = []
    for res in results:
        entry = res.to_json()
        elapsed = entry.pop("elapsed_ms")
        status = "PASS" if res.passed else "FAIL"
        _note(f"{res.name}: {res.checks} checks, {status} ({elapsed} ms)")
        for failure in res.failures:
            _note(f"  counterexample: {failure}")
        payload.append(entry)
    all_passed = all(res.passed for res in results)
    _emit(
        "verify",
        {"suite": args.suite},
        {"passed": all_passed, "suites": payload},
        seed=args.seed,
    )
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightsout",
        description=(
            "Lights-out style toggle games on graphs over the integers"
            " mod ell: winnability, toggling sets, extremal searches,"
            " and verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--graph",
        help="g6:STRING | edges:N:u-v,... | a name like path4, cycle5, G3",
    )
    shared.add_argument("--modulus", type=int, required=True)
    shared.add_argument(
        "--game",
        default="neighborhood",
        help="neighborhood (default), adjacency, or matrix:FILE",
    )

    win = sub.add_parser(
        "winnable",
        parents=[shared],
        help="always-winnable status, or a toggle certificate for --labels",
    )
    win.add_argument(
        "--labels", help="comma-separated initial labeling, length n"
    )
    win.set_defaults(func=cmd_winnable)

    tog = sub.add_parser(
        "toggling",
        parents=[shared],
        help="the U-toggling set at a given shift",
    )
    tog.add_argument(
        "--subset",
        default="all",
        help="comma-separated vertices, or 'all' (default)",
    )
    tog.add_argument("--r", type=int, default=0, help="shift value")
    tog.set_defaults(func=cmd_toggling)

    mx = sub.add_parser(
        "maxsize",
        help="largest always-winnable size and the extremal graphs",
    )
    mx.add_argument("--n", type=int, required=True)
    mx.add_argument("--modulus", type=int, required=True)
    mx.add_argument(
        "--bounded",
        type=int,
        help="cap on complement edges (required for n > 10)",
    )
    mx.add_argument(
        "--no-prune",
        action="store_true",
        help="disable the complement degree bound",
    )
    mx.add_argument(
        "--jobs",
        type=int,
        help=f"worker processes (default ${JOBS_ENV_VAR} or 1)",
    )
    mx.add_argument("--csv", help="append an n,modulus,max,count row here")
    mx.set_defaults(func=cmd_maxsize)

    ver = sub.add_parser(
        "verify", help="re-derive published results at desk scale"
    )
    ver.add_argument(
        "--suite",
        required=True,
        help=f"one of: {', '.join(suite_names())}",
    )
    ver.add_argument(
        "--seed", type=int, default=0, help="seed for sampled sweeps"
    )
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except UsageError as exc:
        _note(f"error: {exc}")
        return 2
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    _note(f"done in {(time.perf_counter() - started) * 1000.0:.1f} ms")
    return code


if __name__ == "__main__":
    sys.exit(main())
