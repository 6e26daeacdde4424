"""Exhaustive search for the densest always-winnable neighborhood games.

The search enumerates complements by edge count: a graph G on n vertices
has maximum size among N-AW graphs exactly when its complement has minimum
size among complements of N-AW graphs, and the complement size is pinned
to the window [floor(n/2), n-1].  Scanning complement edge counts in
increasing order and stopping at the first count that admits an N-AW
complement therefore finds the maximum and every labeled graph achieving
it.

Candidates are tested with an exact integer determinant; the surviving
canonical representatives are re-verified through the diagonalization
route so the two invertibility criteria audit each other.  Work is split
into fixed-size rank ranges of the combination sequence, so the merged
result is independent of worker count and scheduling.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graphs import (
    Graph,
    complement,
    corona_pendant,
    cycle_graph,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    is_pendant_graph,
    matching_graph,
    neighborhood_matrix,
    path_graph,
)
from .modular import AuditError, check_modulus, det_int, normal_form

RULE_ODD = "odd_n"
RULE_EVEN_COPRIME = "even_n_coprime"
RULE_EVEN_ODD_ELL = "even_n_odd_ell"
RULE_EVEN_EVEN = "even_even"

PROVEN = "PROVEN"
CONJECTURED = "CONJECTURED"

# Full labeled enumeration is quadratic-exponential in n; past this order
# the caller must supply a complement-edge cap.  It also bounds
# canonical_adjacency_bits, since an asymmetric graph has n! relabelings.
FULL_ENUMERATION_MAX_N = 10

# Ranks per work unit.  Fixed (never derived from the worker count) so
# that chunk boundaries, and hence the merged winner set, are identical
# for every parallelism level.
CHUNK_RANKS = 50_000


def minimal_coprime_k(n: int, ell: int) -> int:
    """Smallest k >= 0 with gcd(n - 2k - 1, ell) = 1 (n even).

    Terminates by k = (n - 2) / 2, where the gcd argument reaches 1.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    for k in range(n // 2):
        if math.gcd(n - 2 * k - 1, ell) == 1:
            return k
    raise AssertionError(f"no k below n/2 for n={n}, ell={ell}")


@dataclass(frozen=True)
class ConjecturedMax:
    """Predicted maximum size with the dispatch rule that produced it.

    k is the coprimality offset when the rule uses one (0 for the even
    coprime rule, the minimal offset for the even-even rule) and None
    for rules that do not.
    """

    n: int
    ell: int
    size: int
    rule: str
    k: Optional[int]
    status: str

    def to_json(self) -> Dict[str, object]:
        return {
            "size": self.size,
            "rule": self.rule,
            "k": self.k,
            "status": self.status,
        }


def conjectured_max(n: int, ell: int) -> ConjecturedMax:
    """Closed-form prediction of the maximum N-AW size on n vertices.

    Dispatch: odd n subtracts floor(n/2) from C(n,2); even n with
    gcd(n-1, ell) = 1 subtracts n/2; even n with odd ell subtracts
    n/2 + 1; even n with even ell subtracts n/2 + k for the minimal k
    with gcd(n - 2k - 1, ell) = 1.  The first three rules and the last
    with k <= 3 are settled; k >= 4 is conjectural.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"n must be an int, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    check_modulus(ell)
    pairs = math.comb(n, 2)
    if n % 2 == 1:
        return ConjecturedMax(n, ell, pairs - n // 2, RULE_ODD, None, PROVEN)
    if math.gcd(n - 1, ell) == 1:
        return ConjecturedMax(
            n, ell, pairs - n // 2, RULE_EVEN_COPRIME, 0, PROVEN
        )
    if ell % 2 == 1:
        return ConjecturedMax(
            n, ell, pairs - (n // 2 + 1), RULE_EVEN_ODD_ELL, None, PROVEN
        )
    k = minimal_coprime_k(n, ell)
    status = PROVEN if k <= 3 else CONJECTURED
    return ConjecturedMax(
        n, ell, pairs - (n // 2 + k), RULE_EVEN_EVEN, k, status
    )


def pendant_lower_bound_witness(n: int, k: int) -> Graph:
    """Pendant forest of order n and size n/2 + k realizing the bound.

    (P_{k+1} pendant-corona) plus a perfect matching on the remaining
    n - 2k - 2 vertices.  Its complement is N-AW exactly when
    gcd(n - 2k - 1, ell) = 1, so at the minimal such k it witnesses the
    even-even prediction from below.
    """
    if n % 2 != 0 or k < 0 or 2 * k + 2 > n:
        raise ValueError(f"need even n >= 2k + 2, got n={n}, k={k}")
    core = corona_pendant(path_graph(k + 1))
    if 2 * k + 2 == n:
        return core
    return disjoint_union(core, matching_graph(n - 2 * k - 2))


def _pairs(n: int) -> List[Tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def unrank_combination(rank: int, n_items: int, k: int) -> List[int]:
    """The rank-th k-subset of range(n_items) in lexicographic order."""
    total = math.comb(n_items, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for C({n_items},{k})")
    combo: List[int] = []
    x = 0
    remaining = k
    r = rank
    while remaining:
        block = math.comb(n_items - x - 1, remaining - 1)
        if r < block:
            combo.append(x)
            remaining -= 1
        else:
            r -= block
        x += 1
    return combo


def next_combination(combo: List[int], n_items: int) -> bool:
    """Advance combo to its lexicographic successor in place.

    Returns False (combo untouched) when combo is already the last
    k-subset of range(n_items).
    """
    k = len(combo)
    for i in reversed(range(k)):
        if combo[i] != n_items - k + i:
            combo[i] += 1
            for j in range(i + 1, k):
                combo[j] = combo[j - 1] + 1
            return True
    return False


def _scan_chunk(args: Tuple[int, int, int, int, int, bool]) -> List[int]:
    """Test one rank range of complement candidates; return winner masks.

    Each mask packs the complement's pair indicators with pair (0,1)
    most significant, matching Graph.adjacency_bits.  A candidate wins
    when the complementary graph's neighborhood matrix has determinant
    coprime to the modulus.
    """
    n, ell, e, start, count, prune = args
    pairs = _pairs(n)
    npairs = len(pairs)
    combo = unrank_combination(start, npairs, e)
    t = e - n // 2
    cap = t + 1
    use_prune = prune and n % 2 == 0 and t >= 1
    winners: List[int] = []
    deg = [0] * n
    for step in range(count):
        skip = False
        if use_prune:
            for i in range(n):
                deg[i] = 0
            for j in combo:
                u, v = pairs[j]
                deg[u] += 1
                deg[v] += 1
                if deg[u] > cap or deg[v] > cap:
                    skip = True
                    break
        if not skip:
            rows = [[1] * n for _ in range(n)]
            for j in combo:
                u, v = pairs[j]
                rows[u][v] = 0
                rows[v][u] = 0
            if math.gcd(det_int(rows) % ell, ell) == 1:
                mask = 0
                for j in combo:
                    mask |= 1 << (npairs - 1 - j)
                winners.append(mask)
        if step + 1 < count and not next_combination(combo, npairs):
            raise AuditError("rank range overran the combination sequence")
    return winners


def _scan_edge_count(
    n: int, ell: int, e: int, prune: bool, jobs: int
) -> List[int]:
    """All winning complement masks with exactly e edges, sorted."""
    npairs = math.comb(n, 2)
    total = math.comb(npairs, e)
    chunks = [
        (n, ell, e, start, min(CHUNK_RANKS, total - start), prune)
        for start in range(0, total, CHUNK_RANKS)
    ]
    # The pool starts every worker up front, so never ask for more than
    # can run at once or than there are chunks to hand out.
    workers = min(jobs, os.cpu_count() or 1, len(chunks))
    if workers <= 1:
        results = [_scan_chunk(chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunk, chunks))
    merged = set()
    for part in results:
        merged.update(part)
    return sorted(merged)


def _graph_from_mask(n: int, mask: int) -> Graph:
    pairs = _pairs(n)
    npairs = len(pairs)
    edges = [
        pairs[j] for j in range(npairs) if mask >> (npairs - 1 - j) & 1
    ]
    return Graph.from_edges(n, edges)


def _orbit(n: int, mask: int) -> Set[int]:
    """Every relabeling of a pair mask, in time proportional to their number.

    The transposition (0 1) and the cycle (0 1 ... n-1) generate all vertex
    permutations, so closing {mask} under their pair maps gives the orbit.
    """
    if n <= 1:
        return {mask}
    pairs = _pairs(n)
    bit = {pair: len(pairs) - 1 - j for j, pair in enumerate(pairs)}
    # (bit of a pair, bit of its image) under each generator.
    gens = [
        [(bit[u, v], bit[min(p[u], p[v]), max(p[u], p[v])]) for u, v in pairs]
        for p in ([1, 0] + list(range(2, n)), list(range(1, n)) + [0])
    ]
    orbit = {mask}
    todo = [mask]
    while todo:
        current = todo.pop()
        for gen in gens:
            image = sum(1 << dst for src, dst in gen if current >> src & 1)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def canonical_adjacency_bits(g: Graph) -> int:
    """Lexicographically least adjacency bits over all vertex relabelings.

    The cost is proportional to g's orbit size, n! for an asymmetric graph.
    """
    if g.n > FULL_ENUMERATION_MAX_N:
        raise ValueError(f"canonical form limited to n <= {FULL_ENUMERATION_MAX_N}")
    return min(_orbit(g.n, g.adjacency_bits()))


def dedup_isomorphism(graphs: Sequence[Graph]) -> List[Graph]:
    """One canonical representative per isomorphism class, sorted.

    Representatives are rebuilt from the canonical (minimal) adjacency
    bits, so two isomorphic inputs map to the identical Graph.
    """
    canon: Dict[Tuple[int, int], int] = {}
    reps: Dict[Tuple[int, int], Graph] = {}
    for g in graphs:
        key = (g.n, g.adjacency_bits())
        if key not in canon:
            canon[key] = canonical_adjacency_bits(g)
        c = canon[key]
        reps[(g.n, c)] = _graph_from_mask(g.n, c)
    return [reps[key] for key in sorted(reps)]


def _canonical_reps_of_closed_set(n: int, masks: Sequence[int]) -> List[int]:
    """Canonical class representatives of a permutation-closed mask set.

    The input must contain every relabeling of each of its members (true
    for the full labeled winner list at a fixed edge count).  Repeatedly
    taking the minimal remaining mask and deleting its orbit then yields
    exactly the lexicographically least member of each class; both facts
    are checked, raising AuditError.  The cost is proportional to the
    total orbit size, which is len(masks) for a closed input.
    """
    remaining = set(masks)
    reps: List[int] = []
    while remaining:
        best = min(remaining)
        orbit = _orbit(n, best)
        if min(orbit) != best:
            raise AuditError("minimal mask was not canonical")
        if not orbit <= remaining:
            raise AuditError("winner set not closed under relabeling")
        remaining -= orbit
        reps.append(best)
    return reps


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of one maximum-size search.

    extremal_graphs holds canonical graph6 strings, sorted.  elapsed_ms
    is kept out of the default JSON payload so that reports compare
    byte-for-byte across runs and worker counts.
    """

    n: int
    ell: int
    max_size: int
    extremal_graphs: Tuple[str, ...]
    search_method: str
    prune: bool
    conjectured: ConjecturedMax
    agree: bool
    elapsed_ms: float

    def to_json(self, include_timing: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "n": self.n,
            "ell": self.ell,
            "max_size": self.max_size,
            "extremal_graphs": list(self.extremal_graphs),
            "search_method": self.search_method,
            "prune": self.prune,
            "conjectured": self.conjectured.to_json(),
            "agree": self.agree,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def max_size_search(
    n: int,
    ell: int,
    *,
    bounded_cap: Optional[int] = None,
    prune: bool = True,
    jobs: int = 1,
) -> ExtremalReport:
    """Maximum N-AW size on n vertices over Z_ell, with all extremal graphs.

    Complement edge counts are scanned upward from floor(n/2); the scan
    stops at the first count admitting a winner, which a full search is
    guaranteed to reach by n - 1.  bounded_cap limits the scan to
    complements of at most that many edges (mandatory above
    FULL_ENUMERATION_MAX_N vertices) and raises RuntimeError if the cap
    is exhausted first.
    """
    started = time.perf_counter()
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"n must be an int, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    check_modulus(ell)
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if bounded_cap is None:
        if n > FULL_ENUMERATION_MAX_N:
            raise ValueError(
                f"full enumeration is limited to n <= {FULL_ENUMERATION_MAX_N};"
                " pass bounded_cap for larger orders"
            )
    elif not isinstance(bounded_cap, int) or isinstance(bounded_cap, bool):
        raise TypeError("bounded_cap must be an int or None")
    elif bounded_cap < 0:
        raise ValueError(f"bounded_cap must be nonnegative, got {bounded_cap}")

    npairs = math.comb(n, 2)
    e_stop = npairs if bounded_cap is None else min(bounded_cap, npairs)
    winners: List[int] = []
    found_e = None
    for e in range(n // 2, e_stop + 1):
        winners = _scan_edge_count(n, ell, e, prune, jobs)
        if winners:
            found_e = e
            break
    if found_e is None:
        raise RuntimeError(
            f"no always-winnable graph found with complement size <= {e_stop};"
            " raise the cap"
        )
    if found_e > n - 1:
        raise AuditError(
            f"winner first appeared at complement size {found_e} > n - 1,"
            " above the pendant-tree guarantee"
        )
    max_size = npairs - found_e

    full = (1 << npairs) - 1
    rep_masks = _canonical_reps_of_closed_set(n, [full ^ w for w in winners])
    rep_graphs = [_graph_from_mask(n, mask) for mask in rep_masks]
    for g in rep_graphs:
        if g.num_edges() != max_size:
            raise AuditError("representative has wrong size")
        nf = normal_form(neighborhood_matrix(g, ell))
        if any(math.gcd(d, ell) != 1 for d in nf.D.diag()):
            raise AuditError("determinant and diagonalization disagree on a winner")

    conj = conjectured_max(n, ell)
    if n % 2 == 0 and ell % 2 == 0:
        witness = pendant_lower_bound_witness(n, conj.k or 0)
        wnf = normal_form(neighborhood_matrix(complement(witness), ell))
        if any(math.gcd(d, ell) != 1 for d in wnf.D.diag()):
            raise AuditError("pendant lower-bound witness is not N-AW")
        if npairs - witness.num_edges() != conj.size:
            raise AuditError("pendant lower-bound witness has the wrong size")

    if bounded_cap is not None:
        method = f"bounded({bounded_cap})"
    elif prune:
        method = "pruned"
    else:
        method = "full"
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return ExtremalReport(
        n=n,
        ell=ell,
        max_size=max_size,
        extremal_graphs=tuple(sorted(graph6_encode(g) for g in rep_graphs)),
        search_method=method,
        prune=prune,
        conjectured=conj,
        agree=max_size == conj.size,
        elapsed_ms=elapsed_ms,
    )


def triangle_family_graph(n: int) -> Graph:
    """Complement of (C_3 plus matching plus an isolated vertex), order n.

    The one known family of extremal graphs whose complements are not
    pendant graphs; it appears for even n >= 4 when the modulus is odd
    and shares a nontrivial factor with n - 1.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError(f"triangle family needs even n >= 4, got {n}")
    base = cycle_graph(3)
    if n > 4:
        base = disjoint_union(base, matching_graph(n - 4))
    base = disjoint_union(base, Graph(1, [0]))
    return complement(base)


@dataclass(frozen=True)
class ConjectureCheck:
    """Search-versus-prediction record with pendant classification.

    pendant_complement pairs each extremal graph6 string with whether
    its complement is a pendant graph.  triangle_family lists extremal
    graphs matched by the known non-pendant family; unexplained lists
    extremal graphs that are neither.
    """

    n: int
    ell: int
    max_size: int
    conjectured: ConjecturedMax
    agree: bool
    pendant_complement: Tuple[Tuple[str, bool], ...]
    all_pendant_complements: bool
    triangle_family: Tuple[str, ...]
    unexplained: Tuple[str, ...]
    report: ExtremalReport

    def to_json(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "ell": self.ell,
            "max_size": self.max_size,
            "conjectured": self.conjectured.to_json(),
            "agree": self.agree,
            "pendant_complement": [
                [g6, flag] for g6, flag in self.pendant_complement
            ],
            "all_pendant_complements": self.all_pendant_complements,
            "triangle_family": list(self.triangle_family),
            "unexplained": list(self.unexplained),
            "report": self.report.to_json(),
        }


def verify_conjecture(
    n: int,
    ell: int,
    *,
    bounded_cap: Optional[int] = None,
    prune: bool = True,
    jobs: int = 1,
    report: Optional[ExtremalReport] = None,
) -> ConjectureCheck:
    """Run (or reuse) a search and classify the extremal graphs.

    Every extremal complement is tested for being a pendant graph; when
    the modulus is odd the known triangle family is recognized as the
    expected exception.  Pass a precomputed report to skip re-searching.
    """
    if report is None:
        report = max_size_search(
            n, ell, bounded_cap=bounded_cap, prune=prune, jobs=jobs
        )
    elif (report.n, report.ell) != (n, ell):
        raise ValueError("supplied report is for different parameters")

    triangle_g6 = None
    if ell % 2 == 1 and n % 2 == 0 and n >= 4:
        canonical = dedup_isomorphism([triangle_family_graph(n)])[0]
        triangle_g6 = graph6_encode(canonical)

    pendant_flags: List[Tuple[str, bool]] = []
    triangle_members: List[str] = []
    unexplained: List[str] = []
    for g6 in report.extremal_graphs:
        g = graph6_decode(g6)
        pendant, _ = is_pendant_graph(complement(g))
        pendant_flags.append((g6, pendant))
        if g6 == triangle_g6:
            triangle_members.append(g6)
        elif not pendant:
            unexplained.append(g6)

    return ConjectureCheck(
        n=n,
        ell=ell,
        max_size=report.max_size,
        conjectured=report.conjectured,
        agree=report.agree,
        pendant_complement=tuple(pendant_flags),
        all_pendant_complements=all(flag for _, flag in pendant_flags),
        triangle_family=tuple(triangle_members),
        unexplained=tuple(unexplained),
        report=report,
    )
