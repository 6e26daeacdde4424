"""Exact linear algebra over the ring Z_ell (ell >= 2, not necessarily prime).

Everything here works with plain Python integers reduced to [0, ell), so all
results are exact.  The central tool is a diagonalisation u_inv*M*v_inv = D
(mod ell) with invertible u_inv, v_inv and diagonal D, from which solvability,
complete solution sets and null-space generators follow coordinate-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

MAX_MODULUS = 2**31 - 1


class AuditError(AssertionError):
    """An internal self-check failed; raised, not asserted, so python -O keeps it."""


def check_modulus(ell: int) -> int:
    """Validate a modulus and return it.

    Moduli below 2 are rejected.  The upper bound is a stated input limit, so
    an absurd modulus fails cleanly (the command line exits with code 2).
    """
    if not isinstance(ell, int) or isinstance(ell, bool):
        raise ValueError(f"modulus must be an integer, got {ell!r}")
    if ell < 2 or ell > MAX_MODULUS:
        raise ValueError(f"modulus must satisfy 2 <= ell <= 2^31 - 1, got {ell}")
    return ell


def unit_lift(d: int, g: int, ell: int) -> int:
    """Return a unit u mod ell with u * g == d (mod ell), where g = gcd(d, ell).

    Such a unit always exists: d/g is a unit mod ell/g, and every unit mod
    ell/g lifts to a unit mod ell along d/g + k * (ell/g).
    """
    base = (d // g) % ell
    step = ell // g
    u = base
    for _ in range(g):
        if math.gcd(u, ell) == 1:
            return u
        u = (u + step) % ell
    raise ArithmeticError(f"no unit lift for d={d}, g={g}, ell={ell}")


class ZModMatrix:
    """An immutable rows x cols matrix with entries reduced into [0, ell)."""

    __slots__ = ("rows", "cols", "modulus", "entries")

    def __init__(self, rows: int, cols: int, modulus: int, entries: Sequence[int]):
        check_modulus(modulus)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        entries = tuple(e % modulus for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ZModMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], modulus: int) -> "ZModMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: List[int] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, modulus, flat)

    @classmethod
    def identity(cls, n: int, modulus: int) -> "ZModMatrix":
        flat = [0] * (n * n)
        for i in range(n):
            flat[i * n + i] = 1
        return cls(n, n, modulus, flat)

    @classmethod
    def diagonal(cls, diag: Sequence[int], modulus: int) -> "ZModMatrix":
        n = len(diag)
        flat = [0] * (n * n)
        for i, d in enumerate(diag):
            flat[i * n + i] = d
        return cls(n, n, modulus, flat)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Tuple[int, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> List[List[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def diag(self) -> Tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))

    def mul_vec(self, x: Sequence[int]) -> Tuple[int, ...]:
        if len(x) != self.cols:
            raise ValueError(f"vector length {len(x)} != cols {self.cols}")
        ell = self.modulus
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = 0
            for j, xj in enumerate(x):
                acc += self.entries[base + j] * xj
            out.append(acc % ell)
        return tuple(out)

    def __matmul__(self, other: "ZModMatrix") -> "ZModMatrix":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ell = self.modulus
        n, k, m = self.rows, self.cols, other.cols
        flat = [0] * (n * m)
        for i in range(n):
            row = self.entries[i * k : (i + 1) * k]
            for j in range(m):
                acc = 0
                for t in range(k):
                    acc += row[t] * other.entries[t * m + j]
                flat[i * m + j] = acc % ell
        return ZModMatrix(n, m, ell, flat)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZModMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.modulus == other.modulus
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.modulus, self.entries))

    def __repr__(self) -> str:
        return f"ZModMatrix({self.to_rows()!r}, modulus={self.modulus})"


@dataclass(frozen=True)
class NormalForm:
    """Diagonalisation u_inv * M * v_inv = D (mod ell).

    u_inv and v_inv are invertible, D is diagonal.  Each nonzero diagonal
    entry is normalized to gcd(d, ell), so it divides ell, and the nonzero
    entries form a divisibility chain.
    """

    D: ZModMatrix
    u_inv: ZModMatrix
    v_inv: ZModMatrix


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of M x = c: particular plus the span of null_generators."""

    particular: Tuple[int, ...]
    null_generators: Tuple[Tuple[int, ...], ...]
    modulus: int

    def enumerate(self) -> Iterator[Tuple[int, ...]]:
        """Yield every solution (closure of the generators; small cases only)."""
        ell = self.modulus
        n = len(self.particular)
        seen = {self.particular}
        frontier = [self.particular]
        while frontier:
            nxt: List[Tuple[int, ...]] = []
            for v in frontier:
                for g in self.null_generators:
                    w = tuple((a + b) % ell for a, b in zip(v, g))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return iter(sorted(seen))

    def count(self) -> int:
        return sum(1 for _ in self.enumerate())


class _Reduction:
    """Mutable worktable maintaining P * M * Q = D with P, Q invertible.

    Row operations act as D <- E * D, P <- E * P; column operations act as
    D <- D * F, Q <- Q * F.  Every entry is reduced mod ell after each step.
    """

    def __init__(self, m: ZModMatrix):
        self.ell = m.modulus
        self.r = m.rows
        self.c = m.cols
        self.d = [list(m.row(i)) for i in range(m.rows)]
        self.p = [[int(i == j) for j in range(self.r)] for i in range(self.r)]
        self.q = [[int(i == j) for j in range(self.c)] for i in range(self.c)]

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.p[i], self.p[j] = self.p[j], self.p[i]

    def add_row(self, i: int, j: int, coef: int) -> None:
        """Row i of D gains coef * row j; P follows suit."""
        ell = self.ell
        di, dj = self.d[i], self.d[j]
        for t in range(self.c):
            di[t] = (di[t] + coef * dj[t]) % ell
        pi, pj = self.p[i], self.p[j]
        for t in range(self.r):
            pi[t] = (pi[t] + coef * pj[t]) % ell

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.q:
            row[i], row[j] = row[j], row[i]

    def add_col(self, i: int, j: int, coef: int) -> None:
        """Column i of D gains coef * column j; Q follows suit."""
        ell = self.ell
        for row in self.d:
            row[i] = (row[i] + coef * row[j]) % ell
        for row in self.q:
            row[i] = (row[i] + coef * row[j]) % ell

    def scale_diag_to_gcd(self, k: int) -> None:
        """Replace d_k by gcd(d_k, ell), scaling row k of P by a unit."""
        ell = self.ell
        d = self.d[k][k]
        if d == 0:
            return
        g = math.gcd(d, ell)
        if d == g:
            return
        u_inv = pow(unit_lift(d, g, ell), -1, ell)
        self.d[k][k] = g
        pk = self.p[k]
        for t in range(self.r):
            pk[t] = (pk[t] * u_inv) % ell

    def find_pivot(self, k: int) -> Optional[Tuple[int, int]]:
        """Smallest nonzero entry in the trailing block, ties by (row, col)."""
        best: Optional[Tuple[int, int, int]] = None
        for i in range(k, self.r):
            row = self.d[i]
            for j in range(k, self.c):
                e = row[j]
                if e and (best is None or e < best[0]):
                    best = (e, i, j)
        if best is None:
            return None
        return best[1], best[2]

    def diagonalize(self) -> None:
        for k in range(min(self.r, self.c)):
            while True:
                piv = self.find_pivot(k)
                if piv is None:
                    return
                self.swap_rows(k, piv[0])
                self.swap_cols(k, piv[1])
                p = self.d[k][k]
                for i in range(k + 1, self.r):
                    e = self.d[i][k]
                    if e:
                        self.add_row(i, k, -(e // p))
                for j in range(k + 1, self.c):
                    e = self.d[k][j]
                    if e:
                        self.add_col(j, k, -(e // p))
                if all(self.d[i][k] == 0 for i in range(k + 1, self.r)) and all(
                    self.d[k][j] == 0 for j in range(k + 1, self.c)
                ):
                    break

    def fix_chain(self) -> None:
        """Normalize diagonal entries to gcd with ell and enforce d_i | d_{i+1}."""
        ell = self.ell
        size = min(self.r, self.c)
        for k in range(size):
            if self.d[k][k]:
                self.scale_diag_to_gcd(k)
        # Zeros (annihilating everything) sort to the end of the chain.
        changed = True
        while changed:
            changed = False
            for k in range(size - 1):
                a, b = self.d[k][k], self.d[k + 1][k + 1]
                if a == 0 and b != 0:
                    self.swap_rows(k, k + 1)
                    self.swap_cols(k, k + 1)
                    changed = True
                elif a and b and b % a != 0:
                    # Re-diagonalize the 2x2 block diag(a, b): pulling column
                    # k+1 into column k creates [[a, 0], [b, b]], whose local
                    # clearing yields diag(gcd(a, b), lcm-like).
                    self.add_col(k, k + 1, 1)
                    self._clear_two(k)
                    self.scale_diag_to_gcd(k)
                    self.scale_diag_to_gcd(k + 1)
                    changed = True

    def _clear_two(self, k: int) -> None:
        """Local re-diagonalization of the 2x2 block at (k, k)."""
        while True:
            candidates = [
                (self.d[i][j], i, j)
                for i in (k, k + 1)
                for j in (k, k + 1)
                if self.d[i][j]
            ]
            if not candidates:
                return
            _, pi, pj = min(candidates)
            self.swap_rows(k, pi)
            self.swap_cols(k, pj)
            p = self.d[k][k]
            e = self.d[k + 1][k]
            if e:
                self.add_row(k + 1, k, -(e // p))
            e = self.d[k][k + 1]
            if e:
                self.add_col(k + 1, k, -(e // p))
            if self.d[k + 1][k] == 0 and self.d[k][k + 1] == 0:
                return


def normal_form(m: ZModMatrix) -> NormalForm:
    """Diagonalize m as u_inv * m * v_inv = D (mod ell), both invertible.

    The pivot rule (smallest nonzero value, ties by row then column) makes
    the output deterministic for a fixed input.
    """
    work = _Reduction(m)
    work.diagonalize()
    work.fix_chain()
    ell = m.modulus

    def build(rows_list: List[List[int]], nrows: int, ncols: int) -> ZModMatrix:
        return ZModMatrix(nrows, ncols, ell, [e for row in rows_list for e in row])

    return NormalForm(
        D=build(work.d, work.r, work.c),
        u_inv=build(work.p, work.r, work.r),
        v_inv=build(work.q, work.c, work.c),
    )


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination).

    Kept independent of normal_form so determinant-based and
    decomposition-based invertibility checks are two separate routes.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_mod(m: ZModMatrix) -> int:
    """det(m) reduced into [0, ell)."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    return det_int(m.to_rows()) % m.modulus


def is_invertible(m: ZModMatrix) -> bool:
    """True iff det(m) is a unit mod ell."""
    if not m.is_square:
        raise ValueError("invertibility requires a square matrix")
    return math.gcd(det_mod(m), m.modulus) == 1


def solve(
    m: ZModMatrix, c: Sequence[int], nf: Optional[NormalForm] = None
) -> Optional[SolutionSet]:
    """Solve m x = c (mod ell); None when the system has no solution.

    With u_inv M v_inv = D, the system becomes D y = u_inv c with x = v_inv y.
    Each coordinate equation d * y = c' (mod ell) with d | ell is solvable
    iff d | c', contributing y = c'/d and a null generator of order ell/d.
    Pass a precomputed NormalForm to amortize repeated solves.
    """
    ell = m.modulus
    if len(c) != m.rows:
        raise ValueError(f"right-hand side length {len(c)} != rows {m.rows}")
    if nf is None:
        nf = normal_form(m)
    cp = nf.u_inv.mul_vec([x % ell for x in c])
    diag = nf.D.diag()
    y = [0] * m.cols
    gens_y: List[Tuple[int, ...]] = []

    def e_vec(i: int, scale: int) -> Tuple[int, ...]:
        v = [0] * m.cols
        v[i] = scale % ell
        return tuple(v)

    for i in range(m.rows):
        ci = cp[i]
        if i >= m.cols:
            if ci != 0:
                return None
            continue
        d = diag[i]
        if d == 0:
            if ci != 0:
                return None
            gens_y.append(e_vec(i, 1))
        else:
            if ell % d != 0:
                raise ValueError("normal form diagonal must divide the modulus")
            if ci % d != 0:
                return None
            y[i] = ci // d
            if d != 1 and math.gcd(d, ell) != 1:
                gens_y.append(e_vec(i, ell // d))
    for j in range(m.rows, m.cols):
        gens_y.append(e_vec(j, 1))

    q = nf.v_inv
    particular = q.mul_vec(y)
    gens = []
    for g in gens_y:
        img = q.mul_vec(g)
        if any(img):
            gens.append(img)
    if m.mul_vec(particular) != tuple(x % ell for x in c):
        raise AuditError("internal solver error: particular solution failed check")
    return SolutionSet(particular=particular, null_generators=tuple(gens), modulus=ell)


def nullspace(m: ZModMatrix) -> List[Tuple[int, ...]]:
    """Generators of {x : m x = 0}; empty exactly when m is invertible."""
    if not m.is_square:
        raise ValueError("nullspace requires a square matrix")
    sol = solve(m, [0] * m.rows)
    if sol is None:
        raise AuditError("homogeneous system reported unsolvable")
    return list(sol.null_generators)
