"""Exhaustive search for the densest always-winnable neighborhood games.

The search enumerates complements by edge count: a graph G on n vertices
has maximum size among N-AW graphs exactly when its complement has minimum
size among complements of N-AW graphs, and the complement size is pinned
to the window [floor(n/2), n-1].  Scanning complement edge counts in
increasing order and stopping at the first count that admits an N-AW
complement therefore finds the maximum and every labeled graph achieving
it.

An edge count is decided from component types, not labeled complements.
By the matrix determinant lemma, det(J - B) for G's neighborhood matrix
depends only on the multiset of the terms (det(-C), det(J - C) - det(-C))
of B's components C (see _union_det), and apart from copies of K2 and at
most one isolated vertex those components come from a finite set of
connected graphs that the edge count bounds.  Those types are generated
once from free trees and cached; each multiset of them is tested once,
and each winning multiset is laid out and closed under relabeling, so the
scan still returns every labeled winner (see _scan_edge_count).  The
surviving canonical representatives are re-verified through the
diagonalization route, so the two invertibility criteria still audit each
other.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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

# Most candidate complements, C(C(n, 2), e), one edge count may have
# before the search refuses it; within FULL_ENUMERATION_MAX_N that is
# n = 10 with e >= 6.  The scan visits no candidates, but the labeled
# winners it expands and _canonical_reps_of_closed_set walks are a subset
# of them, so the limit bounds both.
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


_Layout = Tuple[Dict[Tuple[int, int], int], List[List[List[int]]]]
_LAYOUTS: Dict[int, _Layout] = {}  # n -> _layout(n), filled on demand


def _layout(n: int) -> _Layout:
    """The bit of each pair u < v in a mask on n vertices, (0, 1) most
    significant, and the tables _orbit applies its generators with: for
    each of the transposition (0 1) and the cycle (0 1 ... n-1), table i
    maps byte i of a mask to the bits of its pairs' images.  The top table
    covers only the bits left above the last full byte.
    """
    layout = _LAYOUTS.get(n)
    if layout is None:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        npairs = len(pairs)
        bit = {pair: npairs - 1 - j for j, pair in enumerate(pairs)}
        tables = []
        for p in ([1, 0] + list(range(2, n)), list(range(1, n)) + [0]):
            image = [0] * npairs  # image[b]: the image of the pair at bit b
            for (u, v), b in bit.items():
                image[b] = 1 << bit[min(p[u], p[v]), max(p[u], p[v])]
            chunks = []
            for lo in range(0, npairs, 8):
                t = [0] * (1 << min(8, npairs - lo))
                for x in range(1, len(t)):
                    low = x & -x
                    t[x] = t[x ^ low] | image[lo + low.bit_length() - 1]
                chunks.append(t)
            tables.append(chunks)
        layout = _LAYOUTS[n] = (bit, tables)
    return layout


Edges = Tuple[Tuple[int, int], ...]

# Free trees on k vertices at index k - 1, grown on demand by _free_trees.
_FREE_TREES: List[List[Edges]] = []
# (k, m) -> {(d, s): [(edges, largest degree), ...]}: connected graphs on
# k vertices with m edges, at least one labeled graph per isomorphism
# class, filled on demand by _cell.
_CELLS: Dict[Tuple[int, int], Dict[Tuple[int, int], List[Tuple[Edges, int]]]] = {}


def _shifted_rows(k: int, edges: Sequence[Tuple[int, int]], t: int) -> List[List[int]]:
    """Rows of t*J - C for the graph C on vertices 0..k-1 with these edges."""
    rows = [[t] * k for _ in range(k)]
    for u, v in edges:
        rows[u][v] = rows[v][u] = t - 1
    return rows


def _tree_code(k: int, edges: Edges) -> str:
    """AHU code of a free tree rooted at its centre, the lesser of two.

    Two trees get equal codes exactly when they are isomorphic.
    """
    adj: List[List[int]] = [[] for _ in range(k)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    layer = [v for v in range(k) if degree[v] <= 1]
    left = k
    while left > 2:  # strip the leaves until the centre is left
        left -= len(layer)
        inner = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    inner.append(w)
        layer = inner

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


def _free_trees(k: int) -> List[Edges]:
    """One tree on vertices 0..k-1 per isomorphism class, k >= 1.

    Each tree on k vertices is a tree on k - 1 vertices with a leaf k - 1
    attached, and the AHU code drops repeats.
    """
    if not _FREE_TREES:
        _FREE_TREES.append([()])
    while len(_FREE_TREES) < k:
        order = len(_FREE_TREES) + 1
        grown: Dict[str, Edges] = {}
        for tree in _FREE_TREES[-1]:
            for v in range(order - 1):
                edges = tree + ((v, order - 1),)
                grown.setdefault(_tree_code(order, edges), edges)
        _FREE_TREES.append(list(grown.values()))
    return _FREE_TREES[k - 1]


def _component_terms(k: int, edges: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """(d, s) = (det(-C), det(J - C) - det(-C)) for the graph C on 0..k-1."""
    d = det_int(_shifted_rows(k, edges, 0))
    return d, det_int(_shifted_rows(k, edges, 1)) - d


def _cell(k: int, m: int) -> Dict[Tuple[int, int], List[Tuple[Edges, int]]]:
    """Connected graphs on k vertices with m >= k - 1 edges, by (d, s).

    Every such graph has a spanning tree, so adding each set of m - k + 1
    pairs to each free tree reaches every isomorphism class; repeats are
    harmless, since a graph and its relabelings share (d, s).
    """
    cell = _CELLS.get((k, m))
    if cell is None:
        cell = {}
        for tree in _free_trees(k):
            absent = [p for p in itertools.combinations(range(k), 2) if p not in tree]
            for extra in itertools.combinations(absent, m - k + 1):
                edges = tree + extra
                degree = [0] * k
                for u, v in edges:
                    degree[u] += 1
                    degree[v] += 1
                cell.setdefault(_component_terms(k, edges), []).append(
                    (edges, max(degree))
                )
        _CELLS[k, m] = cell
    return cell


def _union_det(terms: Iterable[Tuple[int, int]], j: int) -> int:
    """det(J - B) for B the disjoint union of j copies of K2 and components
    with these (d, s) terms.

    With d_i = det(-C_i) and s_i = 1^T adj(-C_i) 1 over the components C_i
    of B, the matrix determinant lemma gives

        det(J - B) = prod_i d_i + sum_i s_i prod_{j != i} d_j.

    With D and S those two sums over the other components, and (-1, 2) the
    terms of K2, this is (-1)^j (D + S - 2jD).
    """
    big_d, big_s = 1, 0
    for d, s in terms:
        big_d, big_s = big_d * d, big_s * d + s * big_d
    return (-1) ** j * (big_d + big_s - 2 * j * big_d)


def _scan_edge_count(n: int, ell: int, e: int, prune: bool) -> List[int]:
    """All winning complement masks with exactly e >= 1 edges, sorted.

    Each mask packs the complement's pair indicators with pair (0,1) most
    significant, matching Graph.adjacency_bits.  A complement B wins when
    G's neighborhood matrix J - B has determinant coprime to the modulus,
    and that determinant depends only on B's component types (_union_det).

    A component on k vertices with m edges adds 2m - k to B's total
    2e - n.  K2 adds 0 and an isolated vertex K1 adds -1; two K1 are twins
    and make the determinant 0, so B has at most one.  Every other
    connected graph adds at least 1, so the rest of B is a multiset of
    types from the cells (k, m) with 1 <= 2m - k <= 2e - n + 1, padded
    with j copies of K2.  When prune applies (n even and t = e - n/2 >= 1)
    the types with a degree above t + 1 (Lemma 4.6) are dropped.

    Each multiset that passes the determinant test is laid out on
    consecutive vertices once per choice of labeled types, and a layout
    not already found adds its whole orbit, so the result is closed under
    relabeling and holds every labeled winner.
    """
    t = e - n // 2
    # No degree reaches n, so without the cap no type is dropped.
    cap = t + 1 if prune and n % 2 == 0 and t >= 1 else n
    top = 2 * e - n + 1  # the largest 2m - k of a type B can contain
    # (2m - k, k, (d, s), the kept labeled types) per key of the table
    keys = []
    for k in range(3, n + 1):
        for m in range(k - 1, min(math.comb(k, 2), (top + k) // 2) + 1):
            for terms, graphs in _cell(k, m).items():
                kept = [edges for edges, degree in graphs if degree <= cap]
                if kept:
                    keys.append((2 * m - k, k, terms, kept))

    def multisets(start: int, excess: int, room: int) -> Iterator[List[int]]:
        """Non-decreasing index lists into keys with this total 2m - k and
        at most room vertices."""
        if excess == 0:
            yield []
            return
        for i in range(start, len(keys)):
            if keys[i][0] <= excess and keys[i][1] <= room:
                for rest in multisets(i, excess - keys[i][0], room - keys[i][1]):
                    yield [i] + rest

    bit = _layout(n)[0]
    winners: Set[int] = set()
    for ones in (0, 1):  # the number of K1 components
        for chosen in multisets(0, 2 * e - n + ones, n - ones):
            spare = n - ones - sum(keys[i][1] for i in chosen)
            if spare % 2:
                continue
            terms = [keys[i][2] for i in chosen] + [(0, 1)] * ones
            if math.gcd(_union_det(terms, spare // 2) % ell, ell) != 1:
                continue
            groups = list(Counter(chosen).items())  # chosen is sorted
            for picks in itertools.product(
                *(itertools.combinations_with_replacement(keys[i][3], r) for i, r in groups)
            ):
                mask, base = 0, 0
                for (i, _), pick in zip(groups, picks):
                    for edges in pick:
                        for u, v in edges:
                            mask |= 1 << bit[base + u, base + v]
                        base += keys[i][1]
                for _ in range(spare // 2):
                    mask |= 1 << bit[base, base + 1]
                    base += 2
                if mask not in winners:
                    winners |= _orbit(n, mask)
    return sorted(winners)


def _graph_from_mask(n: int, mask: int) -> Graph:
    bit = _layout(n)[0]
    return Graph.from_edges(n, [pair for pair, b in bit.items() if mask >> b & 1])


def _orbit(n: int, mask: int) -> Set[int]:
    """Every relabeling of a pair mask, in time proportional to their number.

    The transposition (0 1) and the cycle (0 1 ... n-1) generate all vertex
    permutations, so closing {mask} under their pair maps gives the orbit.
    Each generator is applied by table lookup (_layout): the image of a
    mask is the OR over its bytes of that byte's table entry, so a step
    costs ceil(C(n, 2) / 8) lookups instead of a loop over the pairs.
    """
    tables = _layout(n)[1]
    orbit = {mask}
    todo = [mask]
    while todo:
        current = todo.pop()
        for chunks in tables:
            image, rest = 0, current
            for t in chunks:
                image |= t[rest & 255]
                rest >>= 8
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
    MAX_SCAN_CANDIDATES candidates before it is scanned.  jobs must be
    positive but changes nothing: the search runs in this process.
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
        winners = _scan_edge_count(n, ell, e, prune)
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
