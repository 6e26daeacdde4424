"""The labeled complement scan, kept as the oracle for the type scan.

This is the depth-first walk that search._scan_edge_count ran before it
decided edge counts from component types: every labeled complement with e
edges that survives the twin and degree-cap rules gets the exact
determinant of J - B, factored over its components.  It runs serially;
labeled_scan merges its chunks as the search did.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from lightsout.modular import det_int
from lightsout.search import _pairs, _shifted_rows

Edges = Tuple[Tuple[int, int], ...]
# (k, local edges) of a component -> [d, s], s filled in on first need.
ComponentMemo = Dict[Tuple[int, Edges], List[Optional[int]]]


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


def labeled_scan(n: int, ell: int, e: int, prune: bool) -> List[int]:
    """All winning complement masks with exactly e >= 1 edges, sorted.

    There is one chunk per possible least edge pairs[first].
    """
    npairs = math.comb(n, 2)
    merged = set()
    for first in range(npairs - e + 1):
        merged.update(_scan_chunk((n, ell, e, first, prune)))
    return sorted(merged)
