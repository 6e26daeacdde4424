"""Named verification suites re-deriving the library's published claims.

Each suite replays one result at desk scale: closed forms against brute
force, reduction rules against direct matrix computation, search reports
against predictions, and the frozen toggle tables against the solver.
The registry is shared by the command line and the acceptance tests, so
a suite failure surfaces identically in both.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Dict, Iterator, List, Sequence, Tuple, Union

from .game import (
    cycle_lambda_winnable,
    cycle_shift_canonical,
    is_AW,
    lambda_labeling,
    shift_labeling,
    winnable,
)
from .graphs import (
    Graph,
    adjacency_matrix,
    complement,
    corona_pendant,
    cycle_graph,
    disjoint_union,
    find_M_twins,
    graph6_decode,
    graph6_encode,
    is_pendant_graph,
    matching_graph,
    named_graph,
    neighborhood_matrix,
    path_graph,
)
from .modular import ZModMatrix, det_int
from .rules import (
    dominating_reduction,
    p4_replacement_equiv,
    path_restriction_violations,
    pendant_graph_naw,
    pendantremove_conditions,
    pendantremove_dompen,
    extswitch_valid,
    notswin_witness,
    subsetjoinaw_check,
)
from .search import (
    dedup_isomorphism,
    max_size_search,
    pendant_lower_bound_witness,
    triangle_family_graph,
)
from .toggling import (
    compose_components,
    minimal_nonempty_r,
    noU_transfer,
    toggling_numbers,
)

MAX_RECORDED_FAILURES = 25

# Unique winning toggle vector for the all-ones labeling in the adjacency
# game on each fixed graph, with the summed toggle count; entries are
# integers to be reduced mod ell.  Valid for every ell keeping the
# adjacency matrix invertible (checked per modulus by the suite).
APPENDIX_TABLES: Dict[str, Tuple[Tuple[int, ...], int]] = {
    "G1": ((0, -1, -1, 0), -2),
    "G2": ((0, -1, -1, 0, 0, 0), -2),
    "G3": ((0, -1, -1, 0, 0, 0), -2),
    "G4": ((1, 0, -1, -1, -1, -2), -4),
    "G5": ((0, -1, -1, 0, 0, 0, -1, -1), -4),
    "G6": ((1, -1, -1, 0, -1, 0), -2),
    "G7": ((-2, -1, 1, 0, -1, -1), -4),
    "G8": ((-2, -1, 1, 0, -1, -1, -1, -1), -6),
}

APPENDIX_MODULI = (2, 3, 5, 6)


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite run."""

    name: str
    description: str
    checks: int
    failures: Tuple[str, ...]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> Dict[str, object]:
        return {
            "suite": self.name,
            "description": self.description,
            "checks": self.checks,
            "passed": self.passed,
            "failures": list(self.failures),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


# A failure message, or a zero-argument callable that builds it.  Suites
# pass callables, so a passing check formats nothing (no graph repr).
_Message = Union[str, Callable[[], str]]


def _text(message: _Message) -> str:
    return message if isinstance(message, str) else message()


class _Recorder:
    """Counts checks and keeps the first few failure messages."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: _Message) -> None:
        self.checks += 1
        if not ok and len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(_text(message))

    def run(self, fn: Callable[[], object], context: _Message) -> None:
        """Count a self-asserting computation, recording any blow-up."""
        self.checks += 1
        try:
            fn()
        except AssertionError as exc:
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(f"{_text(context)}: {exc}"[:400])


def graphs_of_order(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        edges = [pairs[j] for j in range(len(pairs)) if bits >> j & 1]
        yield Graph.from_edges(n, edges)


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph.from_edges(n, edges)


@lru_cache(maxsize=None)
def _report(n: int, ell: int):
    return max_size_search(n, ell)


def _games(
    orders: Sequence[int], moduli: Sequence[int]
) -> Iterator[Tuple[Graph, int, ZModMatrix]]:
    """(g, ell, matrix) for both games on every labeled graph of each order."""
    for n in orders:
        for g in graphs_of_order(n):
            for ell in moduli:
                for game in (neighborhood_matrix, adjacency_matrix):
                    yield g, ell, game(g, ell)


def _image_labelings(m: ZModMatrix) -> set:
    """All clearable labelings, by replaying every toggle vector."""
    ell = m.modulus
    out = set()
    for x in itertools.product(range(ell), repeat=m.cols):
        moved = m.mul_vec(x)
        out.add(tuple((-v) % ell for v in moved))
    return out


def _suite_oracle(rec: _Recorder, seed: int) -> None:
    for g, ell, matrix in _games(range(1, 5), (2, 3, 4)):
        clearable = _image_labelings(matrix)
        for pi in itertools.product(range(ell), repeat=g.n):
            rec.check(
                (winnable(matrix, pi) is not None) == (pi in clearable),
                lambda: f"solver/brute split on {g!r} mod {ell} at {pi}",
            )


def _suite_twins(rec: _Recorder, seed: int) -> None:
    for g, ell, matrix in _games(range(2, 5), (2, 3, 4)):
        if find_M_twins(matrix):
            rec.check(
                not is_AW(matrix),
                lambda: f"twins did not block AW: {g!r} mod {ell}",
            )
    k2 = neighborhood_matrix(path_graph(2), 2)
    rec.check(
        (0, 1) in find_M_twins(k2) and not is_AW(k2),
        "adjacent pair must be neighborhood twins",
    )


def _suite_thm_2_4(rec: _Recorder, seed: int) -> None:
    for n in range(1, 5):
        for g in graphs_of_order(n):
            for ell in range(2, 7):
                rec.run(
                    lambda g=g, ell=ell: dominating_reduction(g, ell),
                    lambda: f"dominating reduction on {g!r} mod {ell}",
                )
    rng = random.Random(seed)
    for _ in range(50):
        g = _random_graph(rng, rng.randrange(5, 7))
        ell = rng.choice([2, 3, 4, 5, 6, 9, 12])
        rec.run(
            lambda g=g, ell=ell: dominating_reduction(g, ell),
            lambda: f"dominating reduction on {g!r} mod {ell}",
        )


def _suite_thm_3_1(rec: _Recorder, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randrange(1, 5)
        g = _random_graph(rng, n)
        u_set = tuple(v for v in range(n) if rng.random() < 0.5)
        ell = rng.choice([2, 3, 4])
        rec.run(
            lambda g=g, u=u_set, ell=ell: p4_replacement_equiv(g, u, ell),
            lambda: f"path-four replacement on {g!r}, U={u_set}, mod {ell}",
        )


def _suite_cor_3_2(rec: _Recorder, seed: int) -> None:
    for n in range(2, 6):
        for gbar in graphs_of_order(n):
            winnability_violations = [
                v
                for v in path_restriction_violations(gbar)
                if v.rule in (1, 2)
            ]
            if not winnability_violations:
                continue
            for ell in (2, 3, 6):
                rec.check(
                    not is_AW(neighborhood_matrix(complement(gbar), ell)),
                    lambda: f"violation did not certify failure:"
                    f" {gbar!r} mod {ell}",
                )
    for n, ell in ((5, 3), (6, 10), (6, 30)):
        for g6 in _report(n, ell).extremal_graphs:
            gbar = complement(graph6_decode(g6))
            long_paths = [
                v
                for v in path_restriction_violations(gbar)
                if v.rule == 3
            ]
            rec.check(
                not long_paths,
                lambda: f"extremal complement has a long path component: {g6}",
            )


def _suite_lemma_3_4(rec: _Recorder, seed: int) -> None:
    rng = random.Random(seed)
    for g, ell, matrix in _games(range(1, 5), range(2, 7)):
        subset = tuple(v for v in range(g.n) if rng.random() < 0.7) or (0,)
        for u_set in (tuple(range(g.n)), subset):
            r_min = minimal_nonempty_r(matrix, u_set)
            period = r_min if r_min else ell
            rec.check(
                ell % period == 0,
                lambda: f"minimal shift does not divide modulus:"
                f" {g!r} U={u_set} mod {ell}",
            )
            for s in range(ell):
                nonempty = not toggling_numbers(matrix, u_set, s).empty
                rec.check(
                    nonempty == (s % period == 0),
                    lambda: f"divisibility biconditional fails:"
                    f" {g!r} U={u_set} s={s} mod {ell}",
                )


def _suite_lemma_3_5(rec: _Recorder, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(60):
        base = _random_graph(rng, rng.randrange(1, 12))
        grown = disjoint_union(base, Graph(1, [0]))
        attach = rng.randrange(base.n)
        host = Graph.from_edges(
            grown.n, grown.edges() + [(attach, base.n)]
        )
        ell = rng.choice([2, 3, 4, 6])
        s = rng.randrange(ell)
        result = noU_transfer(host, base.n, s, ell)
        rec.check(
            result.agree,
            lambda: f"transfer mismatch on {host!r} s={s} mod {ell}:"
            f" {result.whole!r} vs {result.reduced!r}",
        )


def _pendant_vertices(g: Graph) -> List[int]:
    return [v for v in range(g.n) if g.degree(v) == 1]


def _some_shift_clears(g: Graph, pi: Tuple[int, ...], ell: int) -> bool:
    """Whether some all-vertex shift of pi clears, by one solve per shift
    (independent of the [A | 1] route that picks the counterexample)."""
    mat = adjacency_matrix(g, ell)
    return any(
        winnable(mat, shift_labeling(pi, range(g.n), s, ell)) is not None
        for s in range(ell)
    )


def _suite_thm_3_6(rec: _Recorder, seed: int) -> None:
    for n in range(2, 6):
        for g in graphs_of_order(n):
            pendants = _pendant_vertices(g)
            if not pendants:
                continue
            p = pendants[0]
            for ell in (2, 4):
                rec.run(
                    lambda g=g, p=p, ell=ell: pendantremove_dompen(g, p, ell),
                    lambda: f"pendant-removal AW equivalence on {g!r}"
                    f" mod {ell}",
                )
                conditions = pendantremove_conditions(g, p, ell)
                witness = conditions.counterexample
                rec.check(
                    witness is None
                    if conditions.shifts_cover_all_labelings
                    else not _some_shift_clears(g, witness, ell),
                    lambda: f"shift counterexample {witness} wrong on {g!r}"
                    f" mod {ell}",
                )
                # Always true: pendantremove_conditions raises on a
                # disagreement, which run_suite records as a failure.
                rec.check(
                    conditions.agree,
                    lambda: f"conditions vs direct check on {g!r} p={p}"
                    f" mod {ell}: predicted {conditions.predicted},"
                    f" direct {conditions.direct}",
                )


def _suite_cor_3_7(rec: _Recorder, seed: int) -> None:
    for n in range(2, 6):
        for g in graphs_of_order(n):
            if not _pendant_vertices(g):
                continue
            for ell in (2, 3, 4, 5, 6):
                if not is_AW(adjacency_matrix(g, ell)):
                    continue
                rec.run(
                    lambda g=g, ell=ell: subsetjoinaw_check(g, ell),
                    lambda: f"unit criterion on {g!r} mod {ell}",
                )
    rng = random.Random(seed)
    for _ in range(25):
        g = corona_pendant(_random_graph(rng, rng.randrange(1, 6)))
        ell = rng.choice([2, 3, 4, 6, 9])
        rec.run(
            lambda g=g, ell=ell: subsetjoinaw_check(g, ell),
            lambda: f"unit criterion on corona {g!r} mod {ell}",
        )


def _suite_lemma_3_9(rec: _Recorder, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(40):
        base = _random_graph(rng, rng.randrange(1, 7))
        g = corona_pendant(base)
        ell = rng.choice([2, 3, 4, 5, 6, 8])
        rec.check(
            is_AW(adjacency_matrix(g, ell)),
            lambda: f"corona not adjacency-AW: {g!r} mod {ell}",
        )
        coset = toggling_numbers(
            adjacency_matrix(g, ell), range(g.n), 1
        )
        expected = (2 * (g.num_edges() - g.n)) % ell
        rec.check(
            coset.members() == (expected,),
            lambda: f"corona toggle total: {g!r} mod {ell} gave {coset!r}",
        )
    for _ in range(25):
        parts = [
            corona_pendant(_random_tree(rng, rng.randrange(1, 4)))
            for _ in range(rng.randrange(1, 4))
        ]
        forest = reduce(disjoint_union, parts)
        ell = rng.choice([2, 3, 4, 6, 8])
        coset = toggling_numbers(
            adjacency_matrix(forest, ell), range(forest.n), 1
        )
        rec.check(
            coset.members() == ((-2 * len(parts)) % ell,),
            lambda: f"forest toggle total: {forest!r} mod {ell} gave"
            f" {coset!r}",
        )
        split = compose_components(
            [
                toggling_numbers(
                    adjacency_matrix(part, ell), range(part.n), 1
                )
                for part in parts
            ]
        )
        rec.check(
            split == coset,
            lambda: f"componentwise composition mismatch mod {ell}:"
            f" {forest!r}",
        )


def _suite_lemma_3_10(rec: _Recorder, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(50):
        g = corona_pendant(_random_graph(rng, rng.randrange(1, 7)))
        ell = rng.choice([2, 3, 4, 5, 6, 8, 10])
        rec.run(
            lambda g=g, ell=ell: pendant_graph_naw(g, ell),
            lambda: f"pendant complement criterion on {g!r} mod {ell}",
        )


def _suite_cor_3_11(rec: _Recorder, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(50):
        c = rng.randrange(1, 4)
        parts = [
            corona_pendant(_random_tree(rng, rng.randrange(1, 4)))
            for _ in range(c)
        ]
        forest = reduce(disjoint_union, parts)
        ell = rng.choice([2, 3, 4, 5, 6, 9, 12])
        direct = is_AW(neighborhood_matrix(complement(forest), ell))
        rec.check(
            direct == (math.gcd(2 * c - 1, ell) == 1),
            lambda: f"component-count criterion: c={c} mod {ell} on"
            f" {forest!r}",
        )


def _suite_cor_3_12(rec: _Recorder, seed: int) -> None:
    p3_corona = corona_pendant(path_graph(3))
    p4_p2 = disjoint_union(path_graph(4), path_graph(2))
    p4_p4 = disjoint_union(path_graph(4), path_graph(4))
    p4_2p2 = disjoint_union(p4_p2, path_graph(2))
    swaps = [
        ("G1", path_graph(4)),
        ("G2", p3_corona),
        ("G3", p3_corona),
        ("G4", p4_p2),
        ("G5", p4_p4),
        ("G6", p3_corona),
        ("G7", p4_p2),
        ("G8", p4_2p2),
    ]
    for name, replacement in swaps:
        fixed = named_graph(name)
        host = disjoint_union(fixed, path_graph(2))
        for ell in (2, 3, 4, 6, 30):
            ok = extswitch_valid(
                host, range(fixed.n), replacement, ell
            )
            rec.check(
                ok,
                lambda: f"replacement rejected: {name} -> {replacement!r} mod"
                f" {ell}",
            )
    mismatched = extswitch_valid(
        disjoint_union(named_graph("G4"), path_graph(2)),
        range(6),
        p3_corona,
        4,
    )
    rec.check(
        not mismatched,
        "toggle-set mismatch must invalidate the switch",
    )


def _suite_lemma_4_6(rec: _Recorder, seed: int) -> None:
    for n in (4, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for e in range(n // 2 + 1, n):
            t = e - n // 2
            for combo in itertools.combinations(range(len(pairs)), e):
                edges = [pairs[j] for j in combo]
                gbar = Graph.from_edges(n, edges)
                # J - B is the neighborhood matrix of complement(gbar); one
                # integer determinant decides N-AW for every modulus.
                rows = [[1] * n for _ in range(n)]
                for u, v in edges:
                    rows[u][v] = rows[v][u] = 0
                det = det_int(rows)
                for ell in (2, 3, 4, 5):
                    if math.gcd(det % ell, ell) == 1:
                        rec.check(
                            gbar.max_degree() <= t + 1,
                            lambda: f"degree bound broken: {gbar!r} e={e} mod"
                            f" {ell}",
                        )
    pruned = max_size_search(6, 30, prune=True)
    unpruned = max_size_search(6, 30, prune=False)
    rec.check(
        (pruned.max_size, pruned.extremal_graphs)
        == (unpruned.max_size, unpruned.extremal_graphs),
        "pruned and unpruned searches disagree at (6, 30)",
    )


def _suite_lemma_4_7(rec: _Recorder, seed: int) -> None:
    for k in range(3, 10):
        for ell in (2, 4, 6):
            matrix = adjacency_matrix(cycle_graph(k), ell)
            for a in range(ell):
                for b in range(ell):
                    closed = cycle_lambda_winnable(k, a, b, ell)
                    direct = winnable(matrix, lambda_labeling(k, a, b, ell)) is not None
                    rec.check(
                        closed == direct,
                        lambda: f"cycle closed form: k={k} (a,b)=({a},{b})"
                        f" mod {ell}",
                    )


def _suite_lemma_4_8(rec: _Recorder, seed: int) -> None:
    for k in range(3, 10):
        for ell in (2, 4, 6):
            matrix = adjacency_matrix(cycle_graph(k), ell)
            for a, b, s in itertools.product(range(ell), repeat=3):
                try:
                    ap, bp = cycle_shift_canonical(k, a, b, s, ell)
                except AssertionError as exc:
                    rec.check(False, lambda: f"shift reduction: {exc}")
                    continue
                shifted = shift_labeling(
                    lambda_labeling(k, a, b, ell), range(k), s, ell
                )
                lhs = winnable(matrix, shifted) is not None
                rhs = winnable(matrix, lambda_labeling(k, ap, bp, ell)) is not None
                rec.check(
                    lhs == rhs,
                    lambda: f"shift transport: k={k} (a,b,s)=({a},{b},{s})"
                    f" mod {ell}",
                )


def _suite_lemma_4_9(rec: _Recorder, seed: int) -> None:
    cases = [
        disjoint_union(cycle_graph(4), path_graph(2)),
        cycle_graph(6),
        disjoint_union(cycle_graph(3), cycle_graph(5)),
        disjoint_union(
            disjoint_union(cycle_graph(3), cycle_graph(3)), path_graph(3)
        ),
    ]
    for g in cases:
        for ell in (2, 4):
            witness = notswin_witness(g, ell)
            rec.check(
                witness is not None,
                lambda: f"expected obstruction witness on {g!r} mod {ell}",
            )
    for ell in (2, 4):
        rec.check(
            notswin_witness(cycle_graph(5), ell) is None,
            lambda: f"single odd cycle should yield no witness mod {ell}",
        )
    for k in range(3, 10):
        for ell in (2, 4, 6):
            rec.check(
                not is_AW(adjacency_matrix(cycle_graph(k), ell)),
                lambda: f"cycle adjacency game AW at even modulus: k={k} mod"
                f" {ell}",
            )


def _suite_thm_4_10(rec: _Recorder, seed: int) -> None:
    for n, ell in ((4, 2), (4, 6), (6, 4), (6, 10), (6, 30)):
        for g6 in _report(n, ell).extremal_graphs:
            gbar = complement(graph6_decode(g6))
            if gbar.max_degree() > 2:
                continue
            for vertices in gbar.components():
                part = gbar.induced(vertices)
                rec.check(
                    part.n in (2, 4) and part.num_edges() == part.n - 1,
                    lambda: f"low-degree extremal complement has a component"
                    f" of order {part.n} at ({n}, {ell})",
                )


def _canonical_g6(g: Graph) -> str:
    return graph6_encode(dedup_isomorphism([g])[0])


def _suite_props_4_x(rec: _Recorder, seed: int) -> None:
    for n, ell in (
        (4, 2),
        (4, 3),
        (4, 6),
        (5, 2),
        (5, 3),
        (6, 4),
        (6, 5),
        (6, 10),
        (6, 30),
    ):
        report = _report(n, ell)
        pairs = math.comb(n, 2)
        rec.check(
            pairs - (n - 1) <= report.max_size <= pairs - n // 2,
            lambda: f"size window violated at ({n}, {ell})",
        )
        rec.check(
            report.agree,
            lambda: f"search disagrees with prediction at ({n}, {ell}):"
            f" got {report.max_size}, predicted {report.conjectured.size}",
        )
    for n in (3, 5):
        for ell in range(2, 7):
            report = _report(n, ell)
            rec.check(
                report.extremal_graphs
                == (_canonical_g6(complement(matching_graph(n))),),
                lambda: f"odd-order extremal not the matching complement"
                f" at ({n}, {ell})",
            )
    for n in (4, 6):
        for ell in range(2, 7):
            report = _report(n, ell)
            hit = report.max_size == math.comb(n, 2) - n // 2
            rec.check(
                hit == (math.gcd(n - 1, ell) == 1),
                lambda: f"even-order matching biconditional wrong"
                f" at ({n}, {ell})",
            )
            if hit:
                rec.check(
                    report.extremal_graphs
                    == (_canonical_g6(complement(matching_graph(n))),),
                    lambda: f"coprime even extremal not the matching"
                    f" complement at ({n}, {ell})",
                )
    for n, ell in ((4, 3), (6, 5)):
        report = _report(n, ell)
        rec.check(
            report.max_size == math.comb(n, 2) - (n // 2 + 1)
            and _canonical_g6(triangle_family_graph(n))
            in report.extremal_graphs,
            lambda: f"odd-modulus triangle case wrong at ({n}, {ell})",
        )
    expected_unique = {
        (4, 6): path_graph(4),
        (6, 10): complement(disjoint_union(path_graph(4), path_graph(2))),
        (6, 30): complement(corona_pendant(path_graph(3))),
    }
    for (n, ell), graph in expected_unique.items():
        rec.check(
            _report(n, ell).extremal_graphs == (_canonical_g6(graph),),
            lambda: f"even-even extremal class wrong at ({n}, {ell})",
        )
    for n, ell in ((4, 6), (6, 10), (6, 30)):
        k = _report(n, ell).conjectured.k or 0
        witness = pendant_lower_bound_witness(n, k)
        rec.check(
            is_pendant_graph(witness)[0]
            and witness.num_edges() == n // 2 + k
            and is_AW(neighborhood_matrix(complement(witness), ell)),
            lambda: f"lower-bound witness broken at ({n}, {ell})",
        )


def _suite_appendix(rec: _Recorder, seed: int) -> None:
    for name, (toggles, total) in APPENDIX_TABLES.items():
        g = named_graph(name)
        for ell in APPENDIX_MODULI:
            matrix = adjacency_matrix(g, ell)
            rec.check(
                is_AW(matrix),
                lambda: f"{name} adjacency matrix not invertible mod {ell}",
            )
            got = winnable(matrix, [1] * g.n)
            expected = tuple(v % ell for v in toggles)
            rec.check(
                got == expected,
                lambda: f"{name} toggle vector mod {ell}: got {got},"
                f" table says {expected}",
            )
            coset = toggling_numbers(matrix, range(g.n), 1)
            rec.check(
                coset.members() == (total % ell,),
                lambda: f"{name} summed toggles mod {ell}: got {coset!r},"
                f" table says {total % ell}",
            )


_SUITES: Dict[str, Tuple[str, Callable[[_Recorder, int], None]]] = {
    "oracle": (
        "solver winnability equals brute force over all toggle vectors",
        _suite_oracle,
    ),
    "twins": ("equal matrix rows or columns block AW", _suite_twins),
    "thm-2-4": (
        "complement with universal vertex is N-AW iff the base is A-AW",
        _suite_thm_2_4,
    ),
    "thm-3-1": (
        "joining a path-four end to a subset preserves complement N-AW",
        _suite_thm_3_1,
    ),
    "cor-3-2": (
        "forbidden path components certify non-AW; extremal complements"
        " avoid long paths",
        _suite_cor_3_2,
    ),
    "lemma-3-4": (
        "nonempty shift set is periodic with the minimal shift dividing"
        " the modulus",
        _suite_lemma_3_4,
    ),
    "lemma-3-5": (
        "pendant-pair removal transfers full-vertex toggle sets",
        _suite_lemma_3_5,
    ),
    "thm-3-6": (
        "pendant-removal conditions match direct complement N-AW",
        _suite_thm_3_6,
    ),
    "cor-3-7": (
        "complement N-AW iff 1 + toggle total is a unit",
        _suite_cor_3_7,
    ),
    "lemma-3-9": (
        "pendant coronas are A-AW with closed-form toggle totals",
        _suite_lemma_3_9,
    ),
    "lemma-3-10": (
        "pendant complement N-AW iff 2(order - size) - 1 is a unit",
        _suite_lemma_3_10,
    ),
    "cor-3-11": (
        "pendant-tree complements: N-AW iff 2c - 1 is a unit",
        _suite_cor_3_11,
    ),
    "cor-3-12": (
        "component switches preserving toggle data preserve N-AW",
        _suite_cor_3_12,
    ),
    "lemma-4-6": (
        "N-AW forces the complement max degree bound; pruning is neutral",
        _suite_lemma_4_6,
    ),
    "lemma-4-7": (
        "cycle canonical labeling winnability closed form",
        _suite_lemma_4_7,
    ),
    "lemma-4-8": (
        "cycle shift canonicalization transports winnability",
        _suite_lemma_4_8,
    ),
    "lemma-4-9": (
        "even or repeated cycles obstruct every all-vertex shift",
        _suite_lemma_4_9,
    ),
    "thm-4-10": (
        "low-degree extremal complements split into short paths",
        _suite_thm_4_10,
    ),
    "props-4-x": (
        "search reports match every closed-form size and class",
        _suite_props_4_x,
    ),
    "appendix": (
        "frozen toggle tables for the eight fixed graphs",
        _suite_appendix,
    ),
}


def suite_names() -> Tuple[str, ...]:
    return tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int = 0) -> List[SuiteResult]:
    """Run one suite (or all of them) and return per-suite results.

    Each suite fills a recorder made here.  A self-check raised inside a
    suite (AuditError, RuleDisagreement: any AssertionError) ends that
    suite only, as one more failed check "<name> stopped: <message>".
    """
    if name == "all":
        results = []
        for single in _SUITES:
            results.extend(run_suite(single, seed))
        return results
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(suite_names())}"
        )
    description, fn = _SUITES[name]
    rec = _Recorder()
    started = time.perf_counter()
    try:
        fn(rec, seed)
    except AssertionError as exc:
        rec.check(False, f"{name} stopped: {exc}"[:400])
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return [
        SuiteResult(
            name=name,
            description=description,
            checks=rec.checks,
            failures=tuple(rec.failures),
            elapsed_ms=elapsed_ms,
        )
    ]
