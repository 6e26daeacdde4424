"""Toggling-number cosets.

For a game matrix M, a vertex subset U, and a residue r, the toggling
numbers are the values sum(x[v] for v in U) over all toggle vectors x that
clear the labeling which is r on U and 0 elsewhere.  Whenever non-empty,
this set is a coset of a cyclic subgroup of Z_ell, so it is stored as a
base point plus a subgroup generator dividing ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Tuple

from .graphs import Graph, adjacency_matrix
from .modular import ZModMatrix, check_modulus, normal_form, solve


@dataclass(frozen=True)
class ToggleCoset:
    """The set {base + k*generator mod ell : k} (or the empty set).

    generator is normalized to a divisor of ell, with 0 encoding the trivial
    subgroup (a singleton set); base is reduced modulo the generator when one
    is present, so equal sets compare equal structurally.
    """

    modulus: int
    empty: bool
    base: int
    generator: int

    def __post_init__(self):
        check_modulus(self.modulus)
        ell = self.modulus
        if self.empty:
            object.__setattr__(self, "base", 0)
            object.__setattr__(self, "generator", 0)
            return
        gen = math.gcd(self.generator, ell)
        if gen == ell:
            gen = 0
        base = self.base % gen if gen else self.base % ell
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "generator", gen)

    @classmethod
    def empty_set(cls, ell: int) -> "ToggleCoset":
        return cls(modulus=ell, empty=True, base=0, generator=0)

    @classmethod
    def singleton(cls, ell: int, value: int) -> "ToggleCoset":
        return cls(modulus=ell, empty=False, base=value, generator=0)

    def members(self) -> Tuple[int, ...]:
        if self.empty:
            return ()
        if self.generator == 0:
            return (self.base,)
        return tuple(
            self.base + k * self.generator
            for k in range(self.modulus // self.generator)
        )

    def contains(self, t: int) -> bool:
        if self.empty:
            return False
        t %= self.modulus
        if self.generator == 0:
            return t == self.base
        return t % self.generator == self.base

    def translate(self, delta: int) -> "ToggleCoset":
        """The coset shifted by delta: {t + delta : t in self}."""
        if self.empty:
            return self
        return ToggleCoset(
            modulus=self.modulus,
            empty=False,
            base=self.base + delta,
            generator=self.generator,
        )

    def __repr__(self) -> str:
        if self.empty:
            return f"ToggleCoset(empty, mod {self.modulus})"
        if self.generator == 0:
            return f"ToggleCoset({{{self.base}}}, mod {self.modulus})"
        return (
            f"ToggleCoset({self.base} + {self.generator}*Z, mod {self.modulus})"
        )


def toggling_numbers(m: ZModMatrix, u_set: Iterable[int], r: int) -> ToggleCoset:
    """The coset of U-sums over all clearings of the (U, r) labeling."""
    if not m.is_square:
        raise ValueError("toggling numbers require a square game matrix")
    ell = m.modulus
    u = sorted(set(u_set))
    if u and not (0 <= u[0] and u[-1] < m.rows):
        raise ValueError("vertex subset out of range")
    labeling = [0] * m.rows
    for v in u:
        labeling[v] = r % ell
    sol = solve(m, [(-p) % ell for p in labeling])
    if sol is None:
        return ToggleCoset.empty_set(ell)
    base = sum(sol.particular[v] for v in u) % ell
    gen = 0
    for g in sol.null_generators:
        gen = math.gcd(gen, sum(g[v] for v in u) % ell)
    return ToggleCoset(modulus=ell, empty=False, base=base, generator=gen)


def minimal_nonempty_r(m: ZModMatrix, u_set: Iterable[int]) -> int:
    """Least r in 1..ell-1 with a non-empty toggling set, else 0.

    With u_inv M v_inv = D, the (U, r) labeling clears exactly when
    D y = -r w is solvable for w = u_inv 1_U, that is when r w = 0 in
    Q = sum_i Z_{m_i}, where m_i is the i-th diagonal entry of D (ell where
    it is 0).  The least such r is the order of w in Q,
    lcm_i m_i / gcd(w_i, m_i), which divides ell.  The 0 return encodes
    order ell, where only the zero shift is absorbable.  It reads the
    normal form that solve on the same m reuses.
    """
    if not m.is_square:
        raise ValueError("toggling numbers require a square game matrix")
    u = set(u_set)
    if any(not 0 <= v < m.rows for v in u):
        raise ValueError("vertex subset out of range")
    nf = normal_form(m)
    ell = m.modulus
    w = nf.apply_u_inv([int(v in u) for v in range(m.rows)])
    order = 1
    for m_i, w_i in zip(nf.divisors, w):
        order = math.lcm(order, m_i // math.gcd(w_i, m_i))
    return 0 if order == ell else order


def compose_components(cosets: Sequence[ToggleCoset]) -> ToggleCoset:
    """Sumset of per-component cosets: bases add, subgroups join."""
    if not cosets:
        raise ValueError("need at least one coset to compose")
    ell = cosets[0].modulus
    if any(c.modulus != ell for c in cosets):
        raise ValueError("modulus mismatch in composition")
    if any(c.empty for c in cosets):
        return ToggleCoset.empty_set(ell)
    base = sum(c.base for c in cosets) % ell
    gen = 0
    for c in cosets:
        gen = math.gcd(gen, c.generator)
    return ToggleCoset(modulus=ell, empty=False, base=base, generator=gen)


class TransferCheck(NamedTuple):
    """Both sides of the pendant-removal toggling-number identity."""

    whole: ToggleCoset
    reduced: ToggleCoset

    @property
    def agree(self) -> bool:
        return self.whole == self.reduced


def noU_transfer(g: Graph, p: int, s: int, ell: int) -> TransferCheck:
    """Compare full-graph toggling numbers against the two-vertex reduction.

    With p a pendant vertex, v its neighbor, G' = G - {p, v}, and U the
    other neighbors of v, the all-vertex toggling numbers at shift s equal
    {t - 2s} over the (V(G') - U)-toggling numbers of G' at shift s.  The
    labeling on G' is s outside U and 0 on U, and only non-U toggles count.
    """
    check_modulus(ell)
    if g.degree(p) != 1:
        raise ValueError(f"vertex {p} is not pendant (degree {g.degree(p)})")
    v = g.neighbors(p)[0]
    whole = toggling_numbers(adjacency_matrix(g, ell), range(g.n), s)
    keep = sorted(set(range(g.n)) - {p, v})
    index = {old: new for new, old in enumerate(keep)}
    reduced_graph = g.induced(keep)
    u_new = {index[w] for w in g.neighbors(v) if w != p}
    non_u = [w for w in range(reduced_graph.n) if w not in u_new]
    inner = toggling_numbers(adjacency_matrix(reduced_graph, ell), non_u, s)
    return TransferCheck(whole=whole, reduced=inner.translate(-2 * s))
