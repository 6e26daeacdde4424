"""Differential tests of the row-oriented kernels against the entry-wise ones.

``_RefReduction``, ``ref_normal_form``, ``ref_mul_vec`` and ``ref_solve`` are
the earlier entry-by-entry implementations, kept here as the slow path: a
flat row-major worktable, Q stored untransposed, every row and column
operation over the full row or column, and a full scan for the pivot.  The
production kernel must return byte-identical ``(D, u_inv, v_inv)`` and
identical solution sets.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Optional, Tuple

import pytest

import lightsout.modular as modular_mod
from lightsout.game import winnable
from lightsout.graphs import Graph, adjacency_matrix, neighborhood_matrix
from lightsout.modular import ZModMatrix, normal_form, solve, unit_lift
from test_modular import DIFFERENTIAL_MODULI, differential_corpus

MODULI = [2, 3, 4, 6, 8, 9, 12, 30, 97, 210, 2**31 - 1]


class _RefReduction:
    """Entry-wise worktable maintaining P * M * Q = D."""

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
        ell = self.ell
        for row in self.d:
            row[i] = (row[i] + coef * row[j]) % ell
        for row in self.q:
            row[i] = (row[i] + coef * row[j]) % ell

    def scale_diag_to_gcd(self, k: int) -> None:
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
        size = min(self.r, self.c)
        for k in range(size):
            if self.d[k][k]:
                self.scale_diag_to_gcd(k)
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
                    self.add_col(k, k + 1, 1)
                    self._clear_two(k)
                    self.scale_diag_to_gcd(k)
                    self.scale_diag_to_gcd(k + 1)
                    changed = True

    def _clear_two(self, k: int) -> None:
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


def ref_normal_form(m: ZModMatrix) -> Tuple[ZModMatrix, ZModMatrix, ZModMatrix]:
    """(D, u_inv, v_inv) from the entry-wise reduction."""
    work = _RefReduction(m)
    work.diagonalize()
    work.fix_chain()

    def build(rows: List[List[int]], nrows: int, ncols: int) -> ZModMatrix:
        return ZModMatrix(nrows, ncols, m.modulus, [e for row in rows for e in row])

    return (
        build(work.d, work.r, work.c),
        build(work.p, work.r, work.r),
        build(work.q, work.c, work.c),
    )


def ref_mul_vec(m: ZModMatrix, x) -> Tuple[int, ...]:
    """Matrix-vector product, one flat entry at a time."""
    entries = m.entries
    out = []
    for i in range(m.rows):
        acc = 0
        for j, xj in enumerate(x):
            acc += entries[i * m.cols + j] * xj
        out.append(acc % m.modulus)
    return tuple(out)


def ref_solve(m: ZModMatrix, c) -> Optional[Tuple[tuple, tuple]]:
    """(particular, null generators), each generator as v_inv times a unit vector."""
    ell = m.modulus
    d_mat, u_inv, v_inv = ref_normal_form(m)
    cp = ref_mul_vec(u_inv, [x % ell for x in c])
    diag = d_mat.diag()
    y = [0] * m.cols
    gens_y = []

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
            if ci % d != 0:
                return None
            y[i] = ci // d
            if d != 1 and math.gcd(d, ell) != 1:
                gens_y.append(e_vec(i, ell // d))
    for j in range(m.rows, m.cols):
        gens_y.append(e_vec(j, 1))
    gens = [img for img in (ref_mul_vec(v_inv, g) for g in gens_y) if any(img)]
    return ref_mul_vec(v_inv, y), tuple(gens)


def random_corpus(seed: int):
    """Every shape 0..8 x 0..8 at every modulus, one matrix each.

    Uniform entries at a large modulus almost never include a 1, so every
    pivot there comes from the minimum scan.  Half the matrices draw most
    entries from 0..2 instead, which brings 1-pivots, ties and zero rows to
    every modulus.
    """
    rng = random.Random(seed)
    for ell in MODULI:
        for r in range(9):
            for c in range(9):
                small = rng.random() < 0.5
                entries = [
                    rng.randrange(3 if small and rng.random() < 0.6 else ell)
                    for _ in range(r * c)
                ]
                yield ZModMatrix(r, c, ell, entries)


def grid_graph(k: int) -> Graph:
    edges = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    return Graph.from_edges(k * k, edges)


def grid_matrix(k: int, ell: int) -> ZModMatrix:
    return neighborhood_matrix(grid_graph(k), ell)


def assert_same_solution(m: ZModMatrix, c) -> None:
    got = solve(m, c)
    want = ref_solve(m, c)
    if want is None:
        assert got is None, (m, c)
    else:
        assert got is not None, (m, c)
        assert (got.particular, got.null_generators) == want, (m, c)


def assert_same_normal_form(m: ZModMatrix) -> None:
    nf = normal_form(m)
    d_ref, u_ref, v_ref = ref_normal_form(m)
    assert (nf.D, nf.u_inv, nf.v_inv) == (d_ref, u_ref, v_ref), m
    assert (nf.D.entries, nf.u_inv.entries, nf.v_inv.entries) == (
        d_ref.entries,
        u_ref.entries,
        v_ref.entries,
    )


class TestNormalFormMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_shapes_and_moduli(self, seed):
        for m in random_corpus(seed):
            assert_same_normal_form(m)

    @pytest.mark.parametrize("ell", [2, 3, 6, 30])
    def test_grids(self, ell):
        for k in range(2, 11):
            assert_same_normal_form(grid_matrix(k, ell))

    @pytest.mark.parametrize("ell", [6, 30])
    def test_entries_without_one(self, ell):
        # No 1 anywhere, so every first pivot comes from the minimum scan;
        # few distinct values make ties across rows and columns common.
        rng = random.Random(ell)
        for _ in range(150):
            r, c = rng.randrange(1, 8), rng.randrange(1, 8)
            m = ZModMatrix(r, c, ell, [rng.choice((0, 2, 3, 4)) for _ in range(r * c)])
            assert_same_normal_form(m)

    def test_pivot_ties_in_one_row_and_one_column(self):
        # The smallest value 2 appears first in row 1 and first in column 0
        # at different places: the row-major tie-break picks (1, 1).
        m = ZModMatrix.from_rows([[0, 0, 3], [0, 2, 2], [2, 3, 0]], 30)
        assert_same_normal_form(m)
        m = ZModMatrix.from_rows([[3, 0, 1], [1, 3, 0], [0, 1, 3]], 30)
        assert_same_normal_form(m)

    @pytest.mark.parametrize(
        "rows, ell",
        [
            ([[2, 0], [0, 3]], 6),
            # gcd(2, 3) = 1 leaves 6 = 0 at index 1, which must move past 3.
            ([[2, 0, 0], [0, 3, 0], [0, 0, 3]], 6),
            ([[4, 0], [0, 6]], 12),
            ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], 30),
            ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 30),
            ([[2, 0, 0], [0, 3, 0]], 6),
        ],
    )
    def test_chain_fix(self, rows, ell):
        # A diagonal that breaks the divisibility chain, so fix_chain logs
        # the column addition (k, k + 1, 1) that opens a 2x2 block pass.
        m = ZModMatrix.from_rows(rows, ell)
        assert_same_normal_form(m)
        col_log = normal_form(m).col_log
        assert any(coef == 1 and j == i + 1 for i, j, coef in col_log), col_log


class TestSolveMatchesReference:
    @pytest.mark.parametrize("seed", [2])
    def test_random_corpus(self, seed):
        rng = random.Random(seed)
        for m in random_corpus(seed):
            ell = m.modulus
            if m.cols and rng.random() < 0.5:
                # A consistent right-hand side, so generators get compared.
                c = m.mul_vec([rng.randrange(ell) for _ in range(m.cols)])
            else:
                c = [rng.randrange(ell) for _ in range(m.rows)]
            assert_same_solution(m, c)

    @pytest.mark.parametrize("ell", [2, 3, 6, 30])
    def test_grids(self, ell):
        # The closed grids are singular in 18 of these 36 cases and the open
        # grids (adjacency) in all 36, so null generators get compared.
        rng = random.Random(100 + ell)
        for k in range(2, 11):
            n = k * k
            for m in (grid_matrix(k, ell), adjacency_matrix(grid_graph(k), ell)):
                assert_same_solution(m, m.mul_vec([rng.randrange(ell) for _ in range(n)]))
                assert_same_solution(m, [rng.randrange(ell) for _ in range(n)])

    def test_mul_vec_matches_reference(self):
        rng = random.Random(3)
        for m in random_corpus(3):
            x = [rng.randrange(-m.modulus, 2 * m.modulus) for _ in range(m.cols)]
            assert m.mul_vec(x) == ref_mul_vec(m, x)


def ref_null_generators(m: ZModMatrix) -> Tuple[Tuple[int, ...], ...]:
    """(ell / m_i) times column i of v_inv for each column i with m_i != 1,
    where m_i is d_i, or ell where d_i is 0 or i is past the diagonal."""
    nf = normal_form(m)
    ell = m.modulus
    diag = nf.D.diag()
    gens = []
    for i in range(m.cols):
        m_i = (diag[i] if i < len(diag) else 0) or ell
        if m_i != 1:
            gens.append(tuple(ell // m_i * v % ell for v in nf.v_inv.col(i)))
    return tuple(gens)


class TestCachedSolveData:
    """What solve reads from the normal form alone, computed once per form."""

    @pytest.mark.parametrize("ell", [2, 4, 6, 12, 30])
    def test_generators_are_scaled_v_inv_columns(self, ell):
        rng = random.Random(2950 + ell)
        for r in range(1, 7):
            for c in range(1, 7):
                m = ZModMatrix(r, c, ell, [rng.randrange(ell) for _ in range(r * c)])
                sol = solve(m, m.mul_vec([rng.randrange(ell) for _ in range(c)]))
                assert sol.null_generators == ref_null_generators(m), m

    @pytest.mark.parametrize("ell", [2, 3, 6, 30])
    def test_two_right_hand_sides_share_the_generators(self, ell):
        rng = random.Random(2960 + ell)
        for k in range(2, 6):
            for m in (grid_matrix(k, ell), adjacency_matrix(grid_graph(k), ell)):
                first, second = (
                    solve(m, m.mul_vec([rng.randrange(ell) for _ in range(k * k)]))
                    for _ in range(2)
                )
                # One tuple, kept on the form, serves every right-hand side.
                assert first.null_generators is second.null_generators
                assert first.null_generators == ref_null_generators(m)

    def test_divisors_are_padded(self):
        nf = normal_form(ZModMatrix.from_rows([[2, 0, 0], [0, 0, 0]], 6))
        assert nf.D.diag() == (2, 0)
        assert nf.divisors == (2, 6, 6)
        nf = normal_form(ZModMatrix.from_rows([[1], [0], [0]], 6))
        assert nf.divisors == (1, 6, 6)

    def test_a_diagonal_entry_that_does_not_divide_the_modulus_raises(
        self, monkeypatch
    ):
        m = ZModMatrix.from_rows([[2, 0], [0, 4]], 6)
        bad = modular_mod.NormalForm(D=m, row_log=(), col_log=())
        monkeypatch.setattr(modular_mod, "normal_form", lambda _: bad)
        with pytest.raises(ValueError, match="must divide the modulus"):
            solve(m, [0, 0])
        # Also when the coordinate before the bad entry has no solution.
        with pytest.raises(ValueError, match="must divide the modulus"):
            solve(m, [1, 0])


class TestLogReplay:
    """NormalForm's log replays against the reference kernel's carried P and Q."""

    @pytest.mark.parametrize("seed", [4])
    def test_vector_methods_match_the_matrices(self, seed):
        rng = random.Random(seed)
        for m in random_corpus(seed):
            nf = normal_form(m)
            _, u_ref, v_ref = ref_normal_form(m)
            ell = m.modulus
            x = [rng.randrange(-ell, 2 * ell) for _ in range(m.rows)]
            y = [rng.randrange(-ell, 2 * ell) for _ in range(m.cols)]
            assert nf.apply_u_inv(x) == u_ref.mul_vec(x), m
            assert nf.apply_v_inv(y) == v_ref.mul_vec(y), m

    def test_vector_length_checked(self):
        nf = normal_form(ZModMatrix(2, 3, 6, [1, 2, 3, 4, 5, 0]))
        with pytest.raises(ValueError):
            nf.apply_u_inv([1, 2, 3])
        with pytest.raises(ValueError):
            nf.apply_v_inv([1, 2])


class TestMemoMatchesReference:
    """solve and winnable through normal_form's memo of its last two
    matrices against ref_solve: on a cold memo, on the warm memo, with one
    other matrix asked for in between, after two others have replaced it,
    and on an equal copy that is another object."""

    @staticmethod
    def check_states(m: ZModMatrix, c, fresh_memo) -> None:
        # Same shape and modulus, one entry off, so only the entries tell
        # it from m; and m with one more zero row.
        rows = m.to_rows() or [[0]]
        rows[-1][-1] += 1
        other = ZModMatrix.from_rows(rows, m.modulus)
        taller = ZModMatrix(m.rows + 1, m.cols, m.modulus, m.entries + (0,) * m.cols)
        want = ref_solve(m, c)
        pi = [-x for x in c]
        copy = ZModMatrix.from_rows(m.to_rows(), m.modulus)

        def check(mat: ZModMatrix) -> None:
            got = solve(mat, c)
            assert (got and (got.particular, got.null_generators)) == want, (mat, c)
            assert winnable(mat, pi) == (want and want[0]), (mat, pi)

        def held():
            return [mat for mat, _ in modular_mod._last]

        fresh_memo()
        check(m)
        assert held() == [m] and held()[0] is m
        check(m)
        solve(other, [0] * other.rows)
        assert held()[0] is other
        check(m)
        # The second entry served m and moved it to the front.
        assert held()[0] is m and held()[1] is other
        solve(other, [0] * other.rows)
        solve(taller, [0] * taller.rows)
        assert held() == [taller, other]
        check(m)
        check(copy)
        # The equal copy was served the stored form of m.
        assert held()[0] is m

    @pytest.mark.parametrize("ell", DIFFERENTIAL_MODULI)
    def test_differential_corpus(self, ell, fresh_memo):
        rng = random.Random(500 + ell)
        for n in range(9):
            for m in differential_corpus(rng, n, ell):
                if rng.random() < 0.5:
                    # A consistent right-hand side, so generators get compared.
                    c = m.mul_vec([rng.randrange(ell) for _ in range(n)])
                else:
                    c = [rng.randrange(ell) for _ in range(n)]
                self.check_states(m, c, fresh_memo)

    @pytest.mark.parametrize("ell", [2, 3, 6, 30])
    def test_grids(self, ell, fresh_memo):
        rng = random.Random(600 + ell)
        for k in range(2, 11):
            n = k * k
            for m in (grid_matrix(k, ell), adjacency_matrix(grid_graph(k), ell)):
                c = m.mul_vec([rng.randrange(ell) for _ in range(n)])
                self.check_states(m, c, fresh_memo)


def test_labeling_sweep_diagonalises_once(reductions):
    # All 81 labelings of a 4x4 game mod 3, alternating between the matrix
    # and an equal copy, as a suite does when a helper rebuilds the matrix.
    m = grid_matrix(2, 3)
    copy = grid_matrix(2, 3)
    for i, pi in enumerate(itertools.product(range(3), repeat=4)):
        winnable(copy if i % 2 else m, pi)
    assert reductions == [m]
