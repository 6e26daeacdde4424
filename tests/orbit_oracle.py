"""The relabeling orbit of a pair mask and the closed-set sweep, the oracle
for the canonical form.

orbit(n, mask) closes {mask} under two generators of every vertex
permutation, so min(orbit(...)) is the lexicographically least adjacency
bits by brute force over the relabelings; its cost is the orbit's size, n!
for an asymmetric graph.  closed_set_reps() takes the classes of a mask
set closed under relabeling by walking each orbit once.  Nothing here
comes from the lightsout package.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

# n -> the byte tables of the transposition (0 1) and the cycle (0 1 ... n-1)
_TABLES: Dict[int, List[List[List[int]]]] = {}


def _tables(n: int) -> List[List[List[int]]]:
    """For each of the two generators, table i maps byte i of a mask, pair
    (0, 1) most significant, to the bits of its pairs' images.  The top
    table covers only the bits left above the last full byte."""
    tables = _TABLES.get(n)
    if tables is None:
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
        _TABLES[n] = tables
    return tables


def orbit(n: int, mask: int) -> Set[int]:
    """Every relabeling of a pair mask, in time proportional to their number.

    The transposition (0 1) and the cycle (0 1 ... n-1) generate all vertex
    permutations, so closing {mask} under their pair maps gives the orbit.
    Each generator is applied by table lookup: the image of a mask is the
    OR over its bytes of that byte's table entry, so a step costs
    ceil(C(n, 2) / 8) lookups instead of a loop over the pairs.
    """
    tables = _tables(n)
    seen = {mask}
    todo = [mask]
    while todo:
        current = todo.pop()
        for chunks in tables:
            image, rest = 0, current
            for t in chunks:
                image |= t[rest & 255]
                rest >>= 8
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def closed_set_reps(n: int, masks: Sequence[int]) -> List[int]:
    """The least mask of each class of a mask set closed under relabeling,
    sorted: take the least remaining mask and delete its orbit, which must
    lie inside the set."""
    remaining = set(masks)
    reps: List[int] = []
    while remaining:
        best = min(remaining)
        members = orbit(n, best)
        assert min(members) == best, "the least remaining mask was not least in its orbit"
        assert members <= remaining, "the mask set is not closed under relabeling"
        remaining -= members
        reps.append(best)
    return reps
