"""Exhaustive search for the densest always-winnable neighborhood games.

The search enumerates complements by edge count: a graph G on n vertices
has maximum size among N-AW graphs exactly when its complement has minimum
size among complements of N-AW graphs, and the complement size is pinned
to the window [floor(n/2), n-1].  Scanning complement edge counts in
increasing order and stopping at the first count that admits an N-AW
complement therefore finds the maximum and every class of graphs
achieving it.

An edge count is decided from component types, not labeled complements.
By the matrix determinant lemma, det(J - B) for G's neighborhood matrix
depends only on the multiset of the terms (det(-C), det(J - C) - det(-C))
of B's components C (see _union_det), and apart from copies of K2 and at
most one isolated vertex those components come from a finite set of
connected graphs that the edge count bounds.  Those types are generated
once from free trees and cached; each multiset of them is tested once,
and each winning multiset is laid out once per pick of labeled types (see
_scan_edge_count).  Each layout is canonicalised once by a search over
labelings pruned by automorphisms (_canonical_form), not by walking its
relabelings.  Each class's automorphism count is checked against its
components', and its representative is re-verified through the
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
    GRAPH6_MAX_N,
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

# Largest order any search accepts.  The type table (_cell) that decides
# each edge count has no size bound of its own yet, so the order stays where
# every modulus has been measured: at n = 10 the slowest, ell = 210, takes
# about 0.22 s, nearly all of it building the table.
FULL_ENUMERATION_MAX_N = 10

# Most search-tree nodes one canonical form may visit before _canonical_form
# raises ValueError.  The worst graphs measured, complements of disjoint
# unions of regular graphs on 60 to 62 vertices, take about 44,000 nodes
# (2 s); a random cubic graph on 62 vertices takes 1,700.
MAX_CANON_NODES = 100_000


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


_LAYOUTS: Dict[int, Dict[Tuple[int, int], int]] = {}  # filled on demand by _layout


def _layout(n: int) -> Dict[Tuple[int, int], int]:
    """The bit of each pair u < v in a mask on n vertices, (0, 1) most
    significant."""
    bit = _LAYOUTS.get(n)
    if bit is None:
        npairs = math.comb(n, 2)
        pairs = itertools.combinations(range(n), 2)
        bit = _LAYOUTS[n] = {pair: npairs - 1 - j for j, pair in enumerate(pairs)}
    return bit


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
    """The winning complement layouts with exactly e >= 1 edges, sorted.

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
    consecutive vertices once per choice of labeled types, so every class
    of winners has at least one layout; no other relabeling is built.
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

    bit = _layout(n)
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
                winners.add(mask)
    return sorted(winners)


def _graph_from_mask(n: int, mask: int) -> Graph:
    bit = _layout(n)
    return Graph.from_edges(n, [pair for pair, b in bit.items() if mask >> b & 1])


def _canonical_form(adj: Sequence[int]) -> Tuple[int, int]:
    """(form, |Aut|) of the graph with these neighbour bitmasks, where form
    is its greatest pair bits (packed as Graph.adjacency_bits) over all
    relabelings.

    Labels are handed out in order.  The unlabeled vertices sit in an
    ordered partition whose cells share their adjacency to the labeled
    prefix, cells adjacent to earlier labels first, and every labeling that
    can still be greatest labels the cells in that order with each
    vertex's neighbours first in every later cell.  So the next label goes
    to a vertex of the first cell, and its row is fixed by how many
    neighbours it has in each cell: only the vertices with the greatest
    row are tried, and each cell then splits into neighbours and the rest.

    The search tree is pruned as in McKay & Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 60 (2014):
    - a node whose prefix is below the best leaf's is dropped, unless it
      matches the first leaf's;
    - at a node, one candidate per orbit of the known automorphisms that
      fix the prefix is tried, the transpositions of twins
      (N(u) - {w} = N(w) - {u}) counting as known;
    - a leaf whose form equals the first or the best leaf's gives an
      automorphism, and the search jumps back to where their paths split.
    The automorphisms met at the nodes of the first path generate the
    stabiliser of each prefix on it, so |Aut| is the product over that
    path of each label's orbit under those fixing the labels before it.
    More than MAX_CANON_NODES nodes raise ValueError.
    """
    n = len(adj)
    twins = [
        sum(1 << w for w in range(n) if adj[u] & ~(1 << w) == adj[w] & ~(1 << u))
        for u in range(n)
    ]
    path: List[int] = []
    gens: List[Tuple[List[int], int]] = []  # (image of each vertex, moved vertices)
    # (form, labeling) of the first leaf and of the best one so far
    first: Optional[Tuple[int, List[int]]] = None
    best: Tuple[int, List[int]] = (-1, [])
    nodes = 0

    def orbit(v: int, fixed: int) -> int:
        """The vertices v reaches by known automorphisms fixing `fixed`."""
        moves = [g for g, moved in gens if not moved & fixed]
        seen, todo = 1 << v, [v]
        while todo:
            x = todo.pop()
            new = twins[x] & ~fixed
            for g in moves:
                new |= 1 << g[x]
            new &= ~seen
            seen |= new
            while new:
                low = new & -new
                todo.append(low.bit_length() - 1)
                new ^= low
        return seen

    def leaf(form: int) -> Optional[int]:
        """Record a complete labeling; return the depth to jump back to."""
        nonlocal first, best
        labeling = path[:]
        if first is None:
            first = best = (form, labeling)
            return None
        for known, ref in (first, best):
            if form == known:
                image = list(range(n))
                moved = 0
                for x, y in zip(ref, labeling):
                    image[x] = y
                    if x != y:
                        moved |= 1 << x
                gens.append((image, moved))
                return next(i for i, (x, y) in enumerate(zip(ref, labeling)) if x != y)
        if form > best[0]:
            best = (form, labeling)
        return None

    def visit(cells: List[int], form: int, fixed: int) -> Optional[int]:
        """Search below the node labeled by path; return None, or the depth
        of the node the search jumps back to."""
        nonlocal nodes
        nodes += 1
        if nodes > MAX_CANON_NODES:
            raise ValueError(
                f"canonical form search passed {MAX_CANON_NODES:,} nodes at n = {n}"
            )
        if not cells:
            return leaf(form)
        top, chosen = -1, 0
        rest = cells[1:]
        head = cells[0]
        room = head.bit_count() - 1
        low_bits = head
        while low_bits:
            low = low_bits & -low_bits
            low_bits ^= low
            a = adj[low.bit_length() - 1]
            c = (a & head).bit_count()
            row = ((1 << c) - 1) << (room - c)
            for cell in rest:
                k, c = cell.bit_count(), (a & cell).bit_count()
                row = row << k | ((1 << c) - 1) << (k - c)
            if row > top:
                top, chosen = row, low
            elif row == top:
                chosen |= low
        depth = len(path)
        form = form << (n - 1 - depth) | top
        if first is not None:
            shift = (n - 1 - depth) * (n - 2 - depth) // 2  # bits still to come
            if form < best[0] >> shift and form != first[0] >> shift:
                return None
        tried = 0
        while chosen:
            low = chosen & -chosen
            chosen ^= low
            v = low.bit_length() - 1
            if tried and orbit(v, fixed) & tried:
                continue
            tried |= low
            a = adj[v]
            refined = [
                part for cell in cells for part in (cell & a, cell & ~a & ~low) if part
            ]
            path.append(v)
            jump = visit(refined, form, fixed | low)
            path.pop()
            if jump is not None and jump < depth:
                return jump
        return None

    visit([(1 << n) - 1] if n else [], 0, 0)
    order, fixed = 1, 0
    for v in first[1]:
        order *= orbit(v, fixed).bit_count()
        fixed |= 1 << v
    return best[0], order


def canonical_adjacency_bits(g: Graph) -> int:
    """Lexicographically least adjacency bits over all vertex relabelings.

    These are the complement's greatest bits, flipped, so one search by
    _canonical_form gives them without walking the n! relabelings.  Orders
    up to GRAPH6_MAX_N are accepted.
    """
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"canonical form limited to n <= {GRAPH6_MAX_N}")
    form, _ = _canonical_form(complement(g).adj)
    return ((1 << math.comb(g.n, 2)) - 1) ^ form


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
    """The canonical masks, sorted, of the classes of these graph masks.

    The input need not be closed under relabeling any more: max_size_search
    passes the complement of each winning layout, one per class or a few.
    The name is kept because bench/tracer.py times this step by it.  Each
    mask is canonicalised once.  For the first mask of each class, the
    order of Aut(B) of its complement B must equal prod |Aut(C)|^r * r!
    over B's component classes C of multiplicity r (2^j * j! for j copies
    of K2), each |Aut(C)| from a search of C alone; else AuditError.
    """
    full = (1 << math.comb(n, 2)) - 1
    reps: Set[int] = set()
    for mask in masks:
        b = complement(_graph_from_mask(n, mask))
        form, order = _canonical_form(b.adj)
        if full ^ form in reps:
            continue
        reps.add(full ^ form)
        parts = Counter()
        for vertices in b.components():
            c = b.induced(vertices)
            parts[(c.n, *_canonical_form(c.adj))] += 1
        want = math.prod(aut**r * math.factorial(r) for (_, _, aut), r in parts.items())
        if want != order:
            raise AuditError(
                f"|Aut| of a winner's complement is {order} from its search"
                f" and {want} from its components"
            )
    return sorted(reps)


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
    ValueError before any scan.  Each winning layout is canonicalised once,
    and each class's representative is audited by its automorphism count
    and by the diagonalization route.  jobs must be positive but changes
    nothing: the search runs in this process.
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
