"""Simple undirected graphs with bitset adjacency, named constructors,
structural predicates, and graph6 interchange.

Vertices are always 0..n-1.  Named graphs from the reference figures use
the drawing's letter order mapped to 0, 1, 2, ... so downstream toggle
tables are unambiguous.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .modular import ZModMatrix, check_modulus

# Largest order the short graph6 form (one size byte) can encode.
GRAPH6_MAX_N = 62


class Graph:
    """Immutable simple graph stored as one adjacency bitmask per vertex."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n:
            raise ValueError("adjacency table length must equal n")
        for v, mask in enumerate(adj):
            if mask >> n:
                raise ValueError(f"vertex {v} adjacent to out-of-range vertex")
            if mask & (1 << v):
                raise ValueError(f"loop at vertex {v}")
        for u in range(n):
            for v in range(u + 1, n):
                if bool(adj[u] & (1 << v)) != bool(adj[v] & (1 << u)):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def neighbors(self, v: int) -> List[int]:
        mask = self.adj[v]
        return [u for u in range(self.n) if mask & (1 << u)]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> List[int]:
        return [m.bit_count() for m in self.adj]

    def degree_sequence(self) -> Tuple[int, ...]:
        return tuple(sorted(self.degrees(), reverse=True))

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def edges(self) -> List[Tuple[int, int]]:
        out = []
        for u in range(self.n):
            mask = self.adj[u] >> (u + 1)
            v = u + 1
            while mask:
                if mask & 1:
                    out.append((u, v))
                mask >>= 1
                v += 1
        return out

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists, ordered by minimum."""
        seen = 0
        comps = []
        for start in range(self.n):
            if seen & (1 << start):
                continue
            frontier = 1 << start
            comp = 0
            while frontier:
                comp |= frontier
                nxt = 0
                m = frontier
                while m:
                    v = (m & -m).bit_length() - 1
                    nxt |= self.adj[v]
                    m &= m - 1
                frontier = nxt & ~comp
            seen |= comp
            comps.append([v for v in range(self.n) if comp & (1 << v)])
        return comps

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is sorted(vertices)[i]."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError("vertices out of range")
        index = {v: i for i, v in enumerate(vs)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph.from_edges(len(vs), edges)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image graph under the bijection old vertex v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        return Graph.from_edges(self.n, [(perm[u], perm[v]) for u, v in self.edges()])

    def adjacency_bits(self) -> int:
        """Upper-triangle bits packed with pair (0,1) as the most significant.

        Used as a total order on labeled graphs of the same order, and as
        the canonical-form key after minimizing over vertex permutations.
        """
        bits = 0
        for u in range(self.n):
            for v in range(u + 1, self.n):
                bits = (bits << 1) | self.has_edge(u, v)
        return bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [(full & ~g.adj[v]) & ~(1 << v) for v in range(g.n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [mask << g.n for mask in h.adj]
    return Graph(g.n + h.n, adj)


def corona_pendant(h: Graph) -> Graph:
    """Attach one new degree-1 vertex to each vertex of h.

    Vertex v of h keeps its label; its new pendant is vertex h.n + v.
    """
    n = h.n
    edges = h.edges() + [(v, n + v) for v in range(n)]
    return Graph.from_edges(2 * n, edges)


def path_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError(f"path needs at least 1 vertex, got {k}")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {k}")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def matching_graph(n: int) -> Graph:
    """Perfect matching for even n; one uncovered vertex when n is odd."""
    if n < 1:
        raise ValueError(f"matching needs at least 1 vertex, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(0, n - 1, 2)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {n}")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    if leaves < 1:
        raise ValueError(f"star needs at least 1 leaf, got {leaves}")
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


# Fixed graphs from the reference figures; letters a, b, c, ... map to
# vertices 0, 1, 2, ... in each drawing.
_FIXED_GRAPHS: Dict[str, Tuple[int, Tuple[Tuple[int, int], ...]]] = {
    "G1": (4, ((0, 1), (0, 3), (1, 3), (1, 2))),
    "G2": (6, ((0, 1), (0, 4), (1, 4), (1, 2), (2, 3), (1, 5))),
    "G3": (6, ((0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (4, 5))),
    "G4": (6, ((0, 1), (0, 4), (1, 4), (1, 2), (2, 3), (4, 5))),
    "G5": (8, ((0, 1), (1, 2), (1, 4), (2, 3), (4, 5), (5, 6), (6, 7))),
    "G6": (6, ((0, 1), (1, 2), (1, 4), (2, 3), (4, 5), (3, 5))),
    "G7": (6, ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5))),
    "G8": (8, ((0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5), (6, 7))),
    "bowtie": (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4))),
    "house": (5, ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4))),
    "K23": (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
    "Gd9": (6, ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5))),
    "Gd9prime": (4, ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3))),
    "figure_d9_2": (8, ((0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (5, 6), (4, 7))),
}

_PARAM_RE = re.compile(r"^(path|cycle|matching|complete)\(?(\d+)\)?$")


def named_graph(name: str) -> Graph:
    """Construct a graph by name.

    Accepts the fixed figure names (G1..G8, bowtie, house, K23, Gd9,
    Gd9prime, figure_d9_2, star13) and parameterized families written
    either as path(4) or path4 (same for cycle, matching, complete).
    A family order above GRAPH6_MAX_N raises ValueError before building.
    """
    token = name.strip()
    by_fixed = {k.lower(): k for k in _FIXED_GRAPHS}
    low = token.lower()
    if low in by_fixed:
        n, edges = _FIXED_GRAPHS[by_fixed[low]]
        return Graph.from_edges(n, edges)
    if low in ("star13", "star(1,3)"):
        return star_graph(3)
    m = _PARAM_RE.match(low)
    if m:
        family, k = m.group(1), int(m.group(2))
        if k > GRAPH6_MAX_N:
            raise ValueError(
                f"named graphs are limited to {GRAPH6_MAX_N} vertices, got {k}"
            )
        builder = {
            "path": path_graph,
            "cycle": cycle_graph,
            "matching": matching_graph,
            "complete": complete_graph,
        }[family]
        return builder(k)
    raise ValueError(f"unknown graph name: {name!r}")


def _graph_matrix(g: Graph, ell: int, diagonal: int) -> ZModMatrix:
    """The 0/1 adjacency matrix of g with every diagonal entry set to diagonal."""
    check_modulus(ell)
    n = g.n
    flat = [0] * (n * n)
    for i in range(n):
        flat[i * n + i] = diagonal
        mask = g.adj[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            flat[i * n + j] = 1
            mask &= mask - 1
    return ZModMatrix(n, n, ell, flat)


def neighborhood_matrix(g: Graph, ell: int) -> ZModMatrix:
    """Closed-neighborhood 0/1 matrix: unit diagonal plus adjacency."""
    return _graph_matrix(g, ell, 1)


def adjacency_matrix(g: Graph, ell: int) -> ZModMatrix:
    return _graph_matrix(g, ell, 0)


def find_M_twins(m: ZModMatrix) -> List[Tuple[int, int]]:
    """All index pairs (i, j), i < j, with equal rows or equal columns of m."""
    if not m.is_square:
        raise ValueError("twin search requires a square matrix")
    pairs = []
    for i in range(m.rows):
        for j in range(i + 1, m.rows):
            if m.row(i) == m.row(j) or m.col(i) == m.col(j):
                pairs.append((i, j))
    return pairs


def is_pendant_graph(g: Graph) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Decide whether g is H with one new pendant attached to each vertex.

    Criterion: g has no isolated vertex and every vertex of degree >= 2 has
    exactly one neighbor of degree 1.  When it holds, the witness is the
    pendant side of the partition: each degree->=2 vertex contributes its
    unique degree-1 neighbor, and each two-vertex component contributes its
    lower-indexed endpoint.
    """
    degs = g.degrees()
    pendants = []
    matched = set()
    for v in range(g.n):
        if degs[v] == 0:
            return False, None
        if degs[v] == 1:
            continue
        leaf_neighbors = [u for u in g.neighbors(v) if degs[u] == 1]
        if len(leaf_neighbors) != 1:
            return False, None
        pendants.append(leaf_neighbors[0])
        matched.add(v)
        matched.add(leaf_neighbors[0])
    # Unmatched vertices all have degree 1 and must pair into two-vertex
    # components; the lower index plays the pendant role.
    for v in range(g.n):
        if v in matched:
            continue
        u = g.neighbors(v)[0]
        if degs[u] != 1 or u in matched:
            return False, None
        matched.add(v)
        matched.add(u)
        pendants.append(min(u, v))
    return True, tuple(sorted(pendants))


def graph6_encode(g: Graph) -> str:
    """Standard short-form graph6 string for n <= GRAPH6_MAX_N."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"short graph6 form supports n <= {GRAPH6_MAX_N}, got {g.n}")
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def graph6_decode(text: str) -> Graph:
    """Inverse of graph6_encode; rejects malformed input."""
    if not text:
        raise ValueError("empty graph6 string")
    for ch in text:
        if not (63 <= ord(ch) <= 126):
            raise ValueError(f"invalid graph6 byte: {ch!r}")
    n = ord(text[0]) - 63
    if n > GRAPH6_MAX_N:
        raise ValueError(f"long-form graph6 (n > {GRAPH6_MAX_N}) is not supported")
    nbits = n * (n - 1) // 2
    expected = 1 + (nbits + 5) // 6
    if len(text) != expected:
        raise ValueError(
            f"graph6 string for n={n} must have {expected} bytes, got {len(text)}"
        )
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 string")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)
