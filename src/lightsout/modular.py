"""Exact linear algebra over the ring Z_ell (ell >= 2, not necessarily prime).

Everything here works with plain Python integers reduced to [0, ell), so all
results are exact.  The central tool is a diagonalisation u_inv*M*v_inv = D
(mod ell) with invertible u_inv, v_inv and diagonal D, from which solvability,
complete solution sets and null-space generators follow coordinate-wise.
Invertibility takes a route independent of it: a square matrix is
invertible mod ell exactly when it has full rank over GF(p) for every prime
p dividing ell, so is_invertible runs one elimination mod each such prime.

Matrices are stored as tuples of row tuples, and the kernels work by rows.
A matrix-vector product on a 0/1 matrix (every graph game matrix, and every
matrix mod 2) sums each row's support, read by one itemgetter per row that
the matrix builds on its first product; any other matrix takes one sum of
products per row.  The diagonalisation works on D alone, as a list of rows,
and skips the entries an operation would leave unchanged.  It logs its row
and column operations instead of carrying u_inv and v_inv along, so solve
applies them to one vector by replaying a log; the full matrices are the
same replays on unit vectors, on request.  What solve reads from the matrix
alone, the divisors of the diagonal and the null generators, is computed
once per form.  normal_form keeps the last two matrices it diagonalised with
their forms, so repeated solves on the same or an equal matrix diagonalise
it once, even when they alternate with a second matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress
from operator import floordiv, itemgetter, mod, mul
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

MAX_MODULUS = 2**31 - 1
# SolutionSet.enumerate (and count) refuse larger solution sets.
MAX_ENUMERATED_SOLUTIONS = 2**20

# One logged row or column operation (i, j, coef); see NormalForm.
_Op = Tuple[int, int, Optional[int]]
# The entries of a matrix whose products mul_vec takes over row supports.
_BITS = frozenset((0, 1))


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
    """An immutable rows x cols matrix with entries reduced into [0, ell).

    The entries are stored as a tuple of row tuples (``data``); ``rows`` and
    ``cols`` are the dimensions, and ``entries`` is the row-major flat tuple,
    built on demand.  Products work row by row.  When every entry is 0 or 1,
    ``mul_vec`` sums each row's entries of the vector at the row's 1s, read
    by per-row getters built on the first call and kept in ``_support``;
    otherwise, and for ``@``, each row is a sum of products.
    """

    __slots__ = ("rows", "cols", "modulus", "data", "_support")

    def __init__(self, rows: int, cols: int, modulus: int, entries: Iterable[int]):
        check_modulus(modulus)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        flat = [e % modulus for e in entries]
        if len(flat) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(flat)}"
            )
        data = tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))
        self._init(rows, cols, modulus, data)

    def _init(
        self, rows: int, cols: int, modulus: int, data: Tuple[Tuple[int, ...], ...]
    ) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_support", None)

    @classmethod
    def _of_rows(
        cls, data: Iterable[Iterable[int]], cols: int, modulus: int
    ) -> "ZModMatrix":
        """Wrap rows already reduced into [0, modulus) and of length cols."""
        m = object.__new__(cls)
        data = tuple(map(tuple, data))
        m._init(len(data), cols, modulus, data)
        return m

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ZModMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], modulus: int) -> "ZModMatrix":
        check_modulus(modulus)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls._of_rows(([e % modulus for e in row] for row in rows), c, modulus)

    @classmethod
    def identity(cls, n: int, modulus: int) -> "ZModMatrix":
        return cls.diagonal([1] * n, modulus)

    @classmethod
    def diagonal(cls, diag: Sequence[int], modulus: int) -> "ZModMatrix":
        check_modulus(modulus)
        n = len(diag)
        data = []
        for i, d in enumerate(diag):
            row = [0] * n
            row[i] = d % modulus
            data.append(row)
        return cls._of_rows(data, n, modulus)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def entries(self) -> Tuple[int, ...]:
        return tuple(chain.from_iterable(self.data))

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.data[i]

    def col(self, j: int) -> Tuple[int, ...]:
        return tuple([row[j] for row in self.data])

    def to_rows(self) -> List[List[int]]:
        return [list(row) for row in self.data]

    def diag(self) -> Tuple[int, ...]:
        data = self.data
        return tuple([data[i][i] for i in range(min(self.rows, self.cols))])

    def mul_vec(self, x: Sequence[int]) -> Tuple[int, ...]:
        if len(x) != self.cols:
            raise ValueError(f"vector length {len(x)} != cols {self.cols}")
        ell = self.modulus
        support = self._support
        if support is None:
            support = self._support_getters()
            object.__setattr__(self, "_support", support)
        if support:
            return tuple([sum(g(x)) % ell for g in support])
        return tuple([sum(map(mul, row, x)) % ell for row in self.data])

    def _support_getters(self) -> Tuple[Callable, ...]:
        """One getter per row for the vector's entries at the row's 1s, or ()
        unless every entry is 0 or 1.

        Every getter returns a sequence: itemgetter with one index would
        return the bare entry, so rows with one 1 or none get a slice.
        """
        if not all(map(_BITS.issuperset, self.data)):
            return ()
        cols = range(self.cols)
        getters = []
        for row in self.data:
            ones = tuple(compress(cols, row))
            if len(ones) > 1:
                getters.append(itemgetter(*ones))
            else:
                span = slice(ones[0], ones[0] + 1) if ones else slice(0)
                getters.append(itemgetter(span))
        return tuple(getters)

    def __matmul__(self, other: "ZModMatrix") -> "ZModMatrix":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ell = self.modulus
        cols = [other.col(j) for j in range(other.cols)]
        return ZModMatrix._of_rows(
            ([sum(map(mul, row, col)) % ell for col in cols] for row in self.data),
            other.cols,
            ell,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZModMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.modulus == other.modulus
            and self.data == other.data
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

    The transforms are kept as the logs of the reduction that made D, each
    entry (i, j, coef) in the order performed: coef None swaps i and j,
    i == j scales i by the unit coef, and otherwise i gains coef times j.
    row_log holds the row operations, so u_inv is the identity with them
    applied to its rows.  col_log holds the column operations (swaps and
    additions only), so v_inv is the identity with them applied to its
    columns.  apply_u_inv and apply_v_inv replay a log on one vector; u_inv
    and v_inv, built on first access, are the replays on the unit vectors.
    divisors and null_generators, also built on first access, are what
    solve reads from the matrix alone.
    """

    D: ZModMatrix
    row_log: Tuple[_Op, ...]
    col_log: Tuple[_Op, ...]

    @cached_property
    def u_inv(self) -> ZModMatrix:
        n, ell = self.D.rows, self.D.modulus
        cols = map(self.apply_u_inv, ZModMatrix.identity(n, ell).data)
        return ZModMatrix._of_rows(zip(*cols), n, ell)

    @cached_property
    def v_inv(self) -> ZModMatrix:
        n, ell = self.D.cols, self.D.modulus
        cols = map(self.apply_v_inv, ZModMatrix.identity(n, ell).data)
        return ZModMatrix._of_rows(zip(*cols), n, ell)

    @cached_property
    def divisors(self) -> Tuple[int, ...]:
        """m_i = d_i, or ell where d_i = 0, for i < max(rows, cols).

        Past the diagonal d_i counts as 0.  So D y = c' is solvable exactly
        when m_i divides c'_i for every row i, and the y_i with i a column
        form Z_{ell / m_i} (the zero group where m_i = 1).
        """
        D = self.D
        ell = D.modulus
        diag = D.diag()
        for d in diag:
            if d and ell % d:
                raise ValueError("normal form diagonal must divide the modulus")
        pad = max(D.rows, D.cols) - len(diag)
        return tuple([d or ell for d in diag]) + (ell,) * pad

    @cached_property
    def null_generators(self) -> Tuple[Tuple[int, ...], ...]:
        """The v_inv images of (ell / m_i) e_i for the columns i with
        m_i != 1, in column order.

        They generate the solutions of M x = 0, the image under v_inv of
        the y with D y = 0; none is zero, since v_inv is invertible.
        """
        ell, cols = self.D.modulus, self.D.cols
        gens = []
        for i, m_i in enumerate(self.divisors[:cols]):
            if m_i != 1:
                e = [0] * cols
                e[i] = ell // m_i
                gens.append(self.apply_v_inv(e))
        return tuple(gens)

    def apply_u_inv(self, x: Sequence[int]) -> Tuple[int, ...]:
        """u_inv * x: the row operations, first to last, on x."""
        if len(x) != self.D.rows:
            raise ValueError(f"vector length {len(x)} != rows {self.D.rows}")
        ell = self.D.modulus
        v = [e % ell for e in x]
        for i, j, coef in self.row_log:
            if coef is None:
                v[i], v[j] = v[j], v[i]
            elif i == j:
                v[i] = v[i] * coef % ell
            else:
                v[i] = (v[i] + coef * v[j]) % ell
        return tuple(v)

    def apply_v_inv(self, y: Sequence[int]) -> Tuple[int, ...]:
        """v_inv * y: the column operations, last to first, on y.

        v_inv is the product F_1 * ... * F_s of the logged column
        operations, so F_s acts on y first.  Column i gaining coef times
        column j moves y's entry j by coef times its entry i.
        """
        if len(y) != self.D.cols:
            raise ValueError(f"vector length {len(y)} != cols {self.D.cols}")
        ell = self.D.modulus
        v = [e % ell for e in y]
        for i, j, coef in reversed(self.col_log):
            if coef is None:
                v[i], v[j] = v[j], v[i]
            else:
                v[j] = (v[j] + coef * v[i]) % ell
        return tuple(v)


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of M x = c: particular plus the span of null_generators."""

    particular: Tuple[int, ...]
    null_generators: Tuple[Tuple[int, ...], ...]
    modulus: int

    def enumerate(self) -> Iterator[Tuple[int, ...]]:
        """Yield every solution (closure of the generators; small cases only).

        Input limit: a closure of more than MAX_ENUMERATED_SOLUTIONS
        solutions raises ValueError instead of growing without bound.  No
        command calls enumerate or count, so the limit guards library use.
        """
        ell = self.modulus
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
                        if len(seen) > MAX_ENUMERATED_SOLUTIONS:
                            raise ValueError(
                                "solution set exceeds the enumeration limit"
                                f" of {MAX_ENUMERATED_SOLUTIONS} solutions"
                            )
            frontier = nxt
        return iter(sorted(seen))

    def count(self) -> int:
        return sum(1 for _ in self.enumerate())


def _span_end(row: List[int]) -> int:
    """One past the index of the last nonzero entry of a nonzero row."""
    return len(row) - list(map(bool, row))[::-1].index(True)


def _add_span(
    dst: List[int], src: List[int], coef: int, ell: int, lo: int, hi: int
) -> None:
    """dst[lo:hi] gains coef * src[lo:hi], reduced mod ell."""
    for t in range(lo, hi):
        dst[t] = (dst[t] + coef * src[t]) % ell


class _Reduction:
    """Mutable worktable that reduces D = M to diagonal form and logs how.

    Row operations act as D <- E * D and column operations as D <- D * F,
    with every entry reduced mod ell after each step.  Each operation is
    appended to row_log or col_log in the format of NormalForm, so the
    worktable never holds the transforms P = u_inv and Q = v_inv that
    satisfy P * M * Q = D.

    ``diagonalize`` runs over the whole matrix, then over each 2x2 block
    that ``fix_chain`` re-diagonalises.  Operations skip entries they would
    leave unchanged: a row addition stops at the source row's last nonzero
    entry, a column operation in ``diagonalize`` touches only the rows
    whose pivot-column entry is nonzero, and ``swap_cols`` and ``add_col``
    skip the already-clear rows above both columns.
    """

    def __init__(self, m: ZModMatrix):
        self.ell = m.modulus
        self.r = m.rows
        self.c = m.cols
        self.d = [list(row) for row in m.data]
        self.row_log: List[_Op] = []
        self.col_log: List[_Op] = []

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.row_log.append((i, j, None))

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.d[min(i, j) :]:
            row[i], row[j] = row[j], row[i]
        self.col_log.append((i, j, None))

    def add_col(self, i: int, j: int, coef: int) -> None:
        """Column i of D gains coef * column j; rows above both are clear."""
        ell = self.ell
        for row in self.d[min(i, j) :]:
            row[i] = (row[i] + coef * row[j]) % ell
        self.col_log.append((i, j, coef))

    def scale_diag_to_gcd(self, k: int) -> None:
        """Replace d_k by gcd(d_k, ell), scaling row k by a unit."""
        ell = self.ell
        d = self.d[k][k]
        if d == 0:
            return
        g = math.gcd(d, ell)
        if d == g:
            return
        self.d[k][k] = g
        self.row_log.append((k, k, pow(unit_lift(d, g, ell), -1, ell)))

    def find_pivot(self, k: int, end: int, cend: int) -> Optional[Tuple[int, int]]:
        """Smallest nonzero entry in rows [k, end) and columns [k, cend),
        ties by (row, col).

        Rows k.. are zero outside those columns (left of column k, and
        right of a 2x2 block), so the search sees every live entry.  A 1 is
        the smallest possible value, so the first 1 in row-major order, if
        any, is the answer.
        """
        d = self.d
        for i in range(k, end):
            seg = d[i][k:cend]
            if 1 in seg:
                return i, k + seg.index(1)
        best: Optional[Tuple[int, int, int]] = None
        for i in range(k, end):
            seg = d[i][k:cend]
            e = min(filter(None, seg), default=0)
            if e and (best is None or e < best[0]):
                best = (e, i, k + seg.index(e))
        if best is None:
            return None
        return best[1], best[2]

    def diagonalize(self, start: int = 0, end: Optional[int] = None) -> None:
        """Clear row and column k around a smallest pivot, for each k in turn.

        The pass covers pivots from start on; given end, it covers rows and
        columns [start, end), a 2x2 block of fix_chain, and by default the
        whole matrix.  Rows and columns before k are already clear, so the
        pivot row's nonzero span is [k, hi) and the row operations run over
        it alone.  Column operations touch only the live rows, the rows
        from k on whose column k is nonzero; once the row operations are
        done that is row k alone unless some entry below the pivot left a
        remainder.
        """
        ell, d, c = self.ell, self.d, self.c
        r, cend = (self.r, c) if end is None else (end, end)
        row_log, col_log = self.row_log, self.col_log
        for k in range(start, min(r, c)):
            while True:
                piv = self.find_pivot(k, r, cend)
                if piv is None:
                    return
                self.swap_rows(k, piv[0])
                self.swap_cols(k, piv[1])
                dk = d[k]
                pivot = dk[k]
                hi = _span_end(dk)
                live = [k]
                for i in range(k + 1, r):
                    di = d[i]
                    if di[k]:
                        coef = -(di[k] // pivot)
                        _add_span(di, dk, coef, ell, k, hi)
                        row_log.append((i, k, coef))
                        if di[k]:
                            live.append(i)
                for j in range(k + 1, hi):
                    if dk[j]:
                        coef = -(dk[j] // pivot)
                        for i in live:
                            di = d[i]
                            di[j] = (di[j] + coef * di[k]) % ell
                        col_log.append((j, k, coef))
                if len(live) == 1 and not any(dk[k + 1 :]):
                    break

    def fix_chain(self) -> None:
        """Normalize diagonal entries to gcd with ell and enforce d_i | d_{i+1}.

        Zeros swap to the end.  For a not dividing b, adding column k+1 to
        column k makes the block [[a, 0], [b, b]], and ``diagonalize`` on
        it leaves gcd(a, b) at k.

        Each step maps (a, b) to (gcd(a, b), lcm(a, b)) on divisors of ell,
        with 0 above every divisor: a compare-exchange of every prime
        exponent at once.  A pass over k is then one bubble-sort pass of
        each exponent sequence, so no pass after the max(size, 1)-th can
        change anything, and one that does raises AuditError.
        """
        size = min(self.r, self.c)
        for k in range(size):
            if self.d[k][k]:
                self.scale_diag_to_gcd(k)
        # Zeros (annihilating everything) sort to the end of the chain.
        changed, passes = True, 0
        while changed:
            if passes > max(size, 1):
                raise AuditError(f"chain fix still changing after {passes} passes")
            changed = False
            passes += 1
            for k in range(size - 1):
                a, b = self.d[k][k], self.d[k + 1][k + 1]
                if a == 0 and b != 0:
                    self.swap_rows(k, k + 1)
                    self.swap_cols(k, k + 1)
                    changed = True
                elif a and b and b % a != 0:
                    self.add_col(k, k + 1, 1)
                    self.diagonalize(k, k + 2)
                    self.scale_diag_to_gcd(k)
                    self.scale_diag_to_gcd(k + 1)
                    changed = True


# How many recently diagonalised matrices normal_form keeps with their forms.
_MEMO_SIZE = 2
# The matrices normal_form diagonalised last, newest first, each with its
# form: at most _MEMO_SIZE pairs, rebound as one tuple.
_last: Tuple[Tuple[ZModMatrix, NormalForm], ...] = ()


def normal_form(m: ZModMatrix) -> NormalForm:
    """Diagonalize m as u_inv * m * v_inv = D (mod ell), both invertible.

    The pivot rule (smallest nonzero value, ties by row then column) makes
    the output deterministic for a fixed input.  The form is kept with its
    matrix, both immutable, and returned again for the same or an equal m
    while m is among the last _MEMO_SIZE matrices asked for.
    """
    global _last
    for i, (last_m, last_nf) in enumerate(_last):
        if m is last_m or m == last_m:
            if i:
                _last = ((last_m, last_nf),) + _last[:i] + _last[i + 1 :]
            return last_nf
    work = _Reduction(m)
    work.diagonalize()
    work.fix_chain()
    nf = NormalForm(
        D=ZModMatrix._of_rows(work.d, work.c, m.modulus),
        row_log=tuple(work.row_log),
        col_log=tuple(work.col_log),
    )
    _last = ((m, nf),) + _last[: _MEMO_SIZE - 1]
    return nf


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination).

    The search's determinant kernel.  is_invertible does not use it, so the
    tests can check elimination mod each prime against this exact value.
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


@lru_cache(maxsize=256)
def _prime_divisors(ell: int) -> Tuple[int, ...]:
    """The distinct primes dividing ell >= 1, ascending, by trial division.

    Any factor left once p * p exceeds it is prime.  For ell <= MAX_MODULUS
    that is at most about 23,000 odd trial divisors, paid once per modulus.
    """
    primes = []
    p = 2
    while p * p <= ell:
        if ell % p == 0:
            primes.append(p)
            while ell % p == 0:
                ell //= p
        p += 1 if p == 2 else 2
    if ell > 1:
        primes.append(ell)
    return tuple(primes)


def _full_rank_mod2(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the square matrix rows has full rank over GF(2).

    Each row is packed into an int bitmask and reduced by XOR against a
    basis of the rows before it, kept by leading bit.  The rank is full
    exactly when no row reduces to zero.
    """
    basis = {}
    for row in rows:
        r = int("".join(["01"[x & 1] for x in row]), 2)
        while r:
            top = r.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = r
                break
            r ^= b
        else:
            return False
    return True


def _full_rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> bool:
    """Whether the square matrix rows has full rank over GF(p), p an odd prime.

    Each step takes a pivot in the first column and scales its row so the
    pivot is 1.  Every other row keeps only the columns right of the pivot,
    and only the rows with a nonzero entry in the pivot column are updated.
    An update stops at the scaled pivot row's last nonzero entry and carries
    the rest of the row over unchanged.
    """
    live = [[x % p for x in row] for row in rows]
    while live:
        for i, r in enumerate(live):
            if r[0]:
                break
        else:
            return False
        head, *tail = live.pop(i)
        inv = pow(head, -1, p)
        hi = _span_end(tail) if any(tail) else 0
        tail = [x * inv % p for x in tail[:hi]]
        rest = []
        for r in live:
            c = r[0]
            if c:
                r = [(x - c * y) % p for x, y in zip(r[1 : hi + 1], tail)] + r[hi + 1 :]
            else:
                del r[0]
            rest.append(r)
        live = rest
    return True


def is_invertible(m: ZModMatrix) -> bool:
    """True iff det(m) is a unit mod ell.

    That holds exactly when m has full rank over GF(p) for every prime p
    dividing ell.  The primes are tried in ascending order, and the first
    one over which m is singular decides.
    """
    if not m.is_square:
        raise ValueError("invertibility requires a square matrix")
    for p in _prime_divisors(m.modulus):
        if not (_full_rank_mod2(m.data) if p == 2 else _full_rank_mod_p(m.data, p)):
            return False
    return True


def solve(m: ZModMatrix, c: Sequence[int]) -> Optional[SolutionSet]:
    """Solve m x = c (mod ell); None when the system has no solution.

    With u_inv M v_inv = D, the system becomes D y = u_inv c with x = v_inv y.
    Each coordinate equation d * y = c' (mod ell) with d | ell is solvable
    iff d | c', contributing y = c'/d and a null generator of order ell/d.
    The divisors and the null generators depend on m alone and are kept on
    its normal form, which repeated solves on the same or an equal m reuse,
    so each call pays for one u_inv and one v_inv replay, the divisibility
    tests and the audit m x = c.
    """
    ell = m.modulus
    if len(c) != m.rows:
        raise ValueError(f"right-hand side length {len(c)} != rows {m.rows}")
    nf = normal_form(m)
    target = tuple([x % ell for x in c])
    cp = nf.apply_u_inv(target)
    divisors = nf.divisors
    if any(map(mod, cp, divisors)):
        return None
    y = list(map(floordiv, cp, divisors[: m.cols])) + [0] * (m.cols - m.rows)
    particular = nf.apply_v_inv(y)
    if m.mul_vec(particular) != target:
        raise AuditError("internal solver error: particular solution failed check")
    return SolutionSet(particular, nf.null_generators, ell)
