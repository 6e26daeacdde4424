"""Exhaustive search for the densest always-winnable neighborhood games.

The search enumerates complements by edge count: a graph G on n vertices
has maximum size among N-AW graphs exactly when its complement has minimum
size among complements of N-AW graphs, and the complement size is pinned
to the window [floor(n/2), n-1].  Scanning complement edge counts in
increasing order and stopping at the first count that admits an N-AW
complement therefore finds the maximum and every labeled graph achieving
it.

The complements with e edges are walked depth first over the pair
indices, one chunk per lexicographically least edge.  The walk drops
every branch whose candidates all have two vertices of equal neighborhood
in B (twins in G, so J - B has equal rows) or, when the Lemma 4.6 degree
cap applies, a degree above it (see _scan_chunk for the three rules).
Every twin-free candidate it reaches is tested with the exact integer
determinant of G's neighborhood matrix J - B, factored over the
components of B by the matrix determinant lemma (see _complement_det).
The components are small and repeat across candidates, so their terms
are memoised.  The surviving canonical representatives are re-verified
through the diagonalization route, so the two invertibility criteria
still audit each other.  The chunks' winners are merged as a sorted set,
so the result is independent of worker count and scheduling.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graphs import (
    Graph,
    complement,
    corona_pendant,
    cycle_graph,
    disjoint_union,
    graph6_encode,
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
LOWER_BOUND = "LOWER_BOUND"

# Largest order any search accepts: at n = 11 the first complement edge
# count already has C(55, 5) = 3,478,761 candidates, over
# MAX_SCAN_CANDIDATES.  It also bounds canonical_adjacency_bits, since an
# asymmetric graph has n! relabelings.
FULL_ENUMERATION_MAX_N = 10

# Most candidate complements one edge count may have before the scan
# refuses it; within FULL_ENUMERATION_MAX_N that is n = 10 with e >= 6.
# One process tests 57k-1.5M candidates/s (Python 3.11, one core of a
# 2-vCPU VM: 57k-62k/s at (8, 210) e = 7, where most candidates the walk
# reaches need a determinant; 1.47M/s at (10, 210) e = 6, where it drops
# most branches), so an accepted edge count takes at most about 35 s.
MAX_SCAN_CANDIDATES = 2_000_000


def minimal_coprime_k(n: int, ell: int) -> int:
    """Smallest k >= 0 with gcd(n - 2k - 1, ell) = 1 (n even).

    Terminates by k = (n - 2) / 2, where the gcd argument reaches 1.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    for k in range(n // 2):
        if math.gcd(n - 2 * k - 1, ell) == 1:
            return k
    raise AuditError(f"no k below n/2 for n={n}, ell={ell}")


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
    with k <= 3 are settled.  For k >= 4 the pendant witness proves only a
    lower bound (LOWER_BOUND), and larger N-AW graphs beat it at (12, 2310)
    and (14, 30030).
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
    status = PROVEN if k <= 3 else LOWER_BOUND
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


Edges = Tuple[Tuple[int, int], ...]
# (k, local edges) of a component -> [d, s], s filled in on first need.
ComponentMemo = Dict[Tuple[int, Edges], List[Optional[int]]]


def _shifted_rows(k: int, edges: Sequence[Tuple[int, int]], t: int) -> List[List[int]]:
    """Rows of t*J - C for the graph C on vertices 0..k-1 with these edges."""
    rows = [[t] * k for _ in range(k)]
    for u, v in edges:
        rows[u][v] = rows[v][u] = t - 1
    return rows


def _component_s(
    key: Optional[Tuple[int, Edges]], terms: List[Optional[int]]
) -> int:
    """s = 1^T adj(-C) 1 = det(J - C) - det(-C), by the determinant lemma."""
    if terms[1] is None:
        terms[1] = det_int(_shifted_rows(*key, 1)) - terms[0]
    return terms[1]


def _complement_det(
    n: int, edges: Sequence[Tuple[int, int]], memo: ComponentMemo
) -> int:
    """det(J - B) for the complement B on n vertices with the given edges.

    edges must be (u, v) pairs with u < v in lexicographic order.  With
    d_i = det(-C_i) and s_i = 1^T adj(-C_i) 1 over the components C_i of B,
    the matrix determinant lemma gives

        det(J - B) = prod_i d_i + sum_i s_i prod_{j != i} d_j,

    so two components with d_i = 0 make it 0, and with one such component
    only its s_i is needed.  Each component is relabeled to 0..k-1 in
    vertex order and memoised under (k, local edges), d_i on first sight
    and s_i on first need; an isolated vertex has (d, s) = (0, 1).  A B
    connected on all n vertices (a spanning tree at e = n - 1) rarely
    repeats, so it gets one direct det_int and no memo entry.
    """
    # Union-find that always hangs the larger root under the smaller, so a
    # vertex's parent never exceeds it and one ascending pass flattens it.
    root = list(range(n))
    for u, v in edges:
        while root[u] != u:
            u = root[u]
        while root[v] != v:
            v = root[v]
        if u < v:
            root[v] = u
        elif v < u:
            root[u] = v
    for x in range(n):
        root[x] = root[root[x]]
    if not any(root):
        return det_int(_shifted_rows(n, edges, 1))
    members: Dict[int, List[int]] = {}
    for x in range(n):
        members.setdefault(root[x], []).append(x)
    component_edges: Dict[int, List[Tuple[int, int]]] = {}
    for u, v in edges:
        component_edges.setdefault(root[u], []).append((u, v))
    parts: List[Tuple[Tuple[int, Edges], List[Optional[int]]]] = []
    prod = 1  # product of the nonzero d_i
    zero = None  # the one part with d_i = 0, if any
    for r, verts in members.items():
        if len(verts) == 1:
            key, terms = None, [0, 1]
        else:
            local = {x: i for i, x in enumerate(verts)}
            local_edges = [(local[u], local[v]) for u, v in component_edges[r]]
            key = (len(verts), tuple(local_edges))
            terms = memo.get(key)
            if terms is None:
                terms = memo[key] = [det_int(_shifted_rows(*key, 0)), None]
        if terms[0]:
            prod *= terms[0]
            parts.append((key, terms))
        elif zero is None:
            zero = (key, terms)
        else:
            return 0
    if zero is not None:
        return _component_s(*zero) * prod
    return prod + sum(_component_s(*part) * (prod // part[1][0]) for part in parts)


def _scan_chunk(args: Tuple[int, int, int, int, bool]) -> List[int]:
    """Test the complements whose least edge is pairs[first]; return winners.

    The candidates are the e-edge complements made of pairs[first] and
    e - 1 later pairs.  Each mask packs the complement's pair indicators
    with pair (0,1) most significant, matching Graph.adjacency_bits.  A
    candidate wins when the complementary graph's neighborhood matrix
    J - B has determinant coprime to the modulus.  Two vertices with the
    same neighborhood in B have the same closed neighborhood in G, so
    J - B has two equal rows and determinant 0; such candidates get no
    determinant.

    The candidates are walked depth first, adding pairs in increasing
    index order while each vertex's neighborhood bitmask is kept up to
    date.  A branch is dropped when one of three rules shows that none of
    its candidates can pass the test at its leaves:

    1. Settled twins.  When the next pair is (u, v), no later pair touches
       a vertex below u, so two such vertices with equal neighborhoods stay
       twins; the loop over the next pair stops, since a larger u settles
       more vertices.
    2. Forced isolation.  Each pair still to place covers at most two
       vertices of degree 0, so when the degree-0 vertices outnumber twice
       the pairs still to place by two or more, two of them stay isolated,
       and isolated vertices are twins.
    3. Degree cap.  When prune applies (n even and t = e - n/2 >= 1), a pair
       that would lift a degree above t + 1 (Lemma 4.6) is skipped; degrees
       only grow along a branch.

    Each surviving candidate gets the full twin test, then _complement_det,
    whose component memo lives for this call only, so results cannot depend
    on how chunks are split among workers.  max_size_search still audits
    the survivors through normal_form.
    """
    n, ell, e, first, prune = args
    pairs = _pairs(n)
    npairs = len(pairs)
    t = e - n // 2
    # No degree reaches n, so without the cap no pair is skipped.
    cap = t + 1 if prune and n % 2 == 0 and t >= 1 else n
    winners: List[int] = []
    memo: ComponentMemo = {}
    nbrs = [0] * n  # a vertex's degree is the bit count of its mask
    edges: List[Tuple[int, int]] = []  # the branch so far, in index order

    def walk(ks: Iterable[int], left: int, mask: int) -> None:
        """Extend the branch by pairs[k] for each k in ks in turn.

        left counts the pairs still to place, pairs[k] included.
        """
        settled = -1
        for k in ks:
            u, v = pairs[k]
            if u != settled:
                settled = u
                if len(set(nbrs[:u])) < u:  # rule 1
                    break
            if nbrs[u].bit_count() == cap or nbrs[v].bit_count() == cap:  # rule 3
                continue
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
            edges.append(pairs[k])
            branch = mask | 1 << (npairs - 1 - k)
            if left == 1:
                if (
                    len(set(nbrs)) == n
                    and math.gcd(_complement_det(n, edges, memo) % ell, ell) == 1
                ):
                    winners.append(branch)
            elif nbrs.count(0) - 2 * (left - 1) < 2:  # rule 2
                walk(range(k + 1, npairs - left + 2), left - 1, branch)
            edges.pop()
            nbrs[u] ^= 1 << v
            nbrs[v] ^= 1 << u

    walk(range(first, first + 1), e, 0)  # the root offers pairs[first] alone
    return winners


def available_cpus() -> int:
    """CPUs this process may run on, from its affinity mask where there is one.

    os.cpu_count() counts the host's CPUs, which overstates the share of a
    process confined by taskset or a cpuset.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan_edge_count(
    n: int, ell: int, e: int, prune: bool, jobs: int
) -> List[int]:
    """All winning complement masks with exactly e >= 1 edges, sorted.

    There is one chunk per possible least edge pairs[first].
    """
    npairs = math.comb(n, 2)
    chunks = [(n, ell, e, first, prune) for first in range(npairs - e + 1)]
    # The pool starts every worker up front, so never ask for more than
    # can run at once or than there are chunks to hand out.
    workers = min(jobs, available_cpus(), len(chunks))
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
    is kept out of the JSON payload so that reports compare
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

    def to_json(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "ell": self.ell,
            "max_size": self.max_size,
            "extremal_graphs": list(self.extremal_graphs),
            "search_method": self.search_method,
            "prune": self.prune,
            "conjectured": self.conjectured.to_json(),
            "agree": self.agree,
        }


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
    complements of at most that many edges and raises RuntimeError if the
    cap is exhausted first.  An order above FULL_ENUMERATION_MAX_N raises
    ValueError before any scan, as does an edge count with more than
    MAX_SCAN_CANDIDATES candidates before it is scanned.
    """
    started = time.perf_counter()
    conj = conjectured_max(n, ell)
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if n > FULL_ENUMERATION_MAX_N:
        raise ValueError(
            f"the search is limited to n <= {FULL_ENUMERATION_MAX_N}, got n = {n}"
        )
    if bounded_cap is not None:
        if not isinstance(bounded_cap, int) or isinstance(bounded_cap, bool):
            raise TypeError("bounded_cap must be an int or None")
        if bounded_cap < 0:
            raise ValueError(f"bounded_cap must be nonnegative, got {bounded_cap}")

    npairs = math.comb(n, 2)
    e_stop = npairs if bounded_cap is None else min(bounded_cap, npairs)
    winners: List[int] = []
    found_e = None
    for e in range(n // 2, e_stop + 1):
        if math.comb(npairs, e) > MAX_SCAN_CANDIDATES:
            raise ValueError(
                f"complement edge count {e} gives C({npairs}, {e}) candidates,"
                f" over the scan limit of {MAX_SCAN_CANDIDATES:,}"
            )
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
