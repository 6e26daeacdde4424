"""Tests for exact linear algebra over Z_ell.

Oracles used here are independent of the implementation under test:
cofactor (Laplace) expansion for determinants, and exhaustive enumeration
over Z_ell^n for solution sets and two-sided inverses.
"""

from __future__ import annotations

import itertools
import math
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

import lightsout.modular as modular_mod
from lightsout.graphs import Graph, neighborhood_matrix
from lightsout.modular import (
    MAX_MODULUS,
    AuditError,
    SolutionSet,
    ZModMatrix,
    check_modulus,
    det_int,
    is_invertible,
    normal_form,
    solve,
    unit_lift,
)

RINGS_TO_TEST = [2, 3, 4, 5, 6, 7, 9, 12]

# Small matrices the contract examples refer to, written out literally.
NBHD_P2 = [[1, 1], [1, 1]]
NBHD_P3 = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
ADJ_C3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def cofactor_det(rows: list) -> int:
    """Independent determinant oracle: Laplace expansion along row 0."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def random_square(rng: random.Random, n: int, ell: int) -> ZModMatrix:
    return ZModMatrix(n, n, ell, [rng.randrange(ell) for _ in range(n * n)])


def brute_solutions(m: ZModMatrix, c: tuple) -> set:
    """All x in Z_ell^cols with m x == c, by exhaustive enumeration."""
    ell = m.modulus
    target = tuple(v % ell for v in c)
    return {
        x
        for x in itertools.product(range(ell), repeat=m.cols)
        if m.mul_vec(x) == target
    }


def brute_two_sided_inverse(m: ZModMatrix) -> bool:
    """Search for X with m X == X m == I, one column at a time.

    Each column of X is found by scanning all ell^n vectors for a preimage of
    the corresponding standard basis vector, so this never consults solve().
    """
    n = m.rows
    ell = m.modulus
    cols = []
    for i in range(n):
        e_i = tuple(int(t == i) for t in range(n))
        for x in itertools.product(range(ell), repeat=n):
            if m.mul_vec(x) == e_i:
                cols.append(x)
                break
        else:
            return False
    x_mat = ZModMatrix(n, n, ell, [cols[j][i] for i in range(n) for j in range(n)])
    ident = ZModMatrix.identity(n, ell)
    return m @ x_mat == ident and x_mat @ m == ident


class TestModulusValidation:
    @pytest.mark.parametrize("bad", [1, 0, -3, MAX_MODULUS + 1])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            check_modulus(bad)

    @pytest.mark.parametrize("bad", [2.0, "4", None, True])
    def test_non_integer_rejected(self, bad):
        with pytest.raises(ValueError):
            check_modulus(bad)

    def test_bounds_accepted(self):
        assert check_modulus(2) == 2
        assert check_modulus(MAX_MODULUS) == MAX_MODULUS


class TestZModMatrix:
    def test_entries_reduced(self):
        m = ZModMatrix.from_rows([[5, -1], [7, 3]], modulus=4)
        assert m.to_rows() == [[1, 3], [3, 3]]

    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            ZModMatrix(2, 2, 5, [1, 2, 3])

    def test_immutable(self):
        m = ZModMatrix.identity(2, 3)
        with pytest.raises(AttributeError):
            m.modulus = 5

    def test_matmul_shapes(self):
        a = ZModMatrix(2, 3, 5, [1, 2, 3, 4, 0, 1])
        b = ZModMatrix(3, 2, 5, [1, 0, 0, 1, 1, 1])
        assert (a @ b).to_rows() == [[4, 0], [0, 1]]
        with pytest.raises(ValueError):
            _ = b @ ZModMatrix.identity(3, 5)

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _ = ZModMatrix.identity(2, 3) @ ZModMatrix.identity(2, 5)

    def test_accessors_and_flat_entries(self):
        m = ZModMatrix(2, 3, 7, [1, 2, 3, 4, 5, 13])
        assert m.rows == 2 and m.cols == 3
        assert type(m.entries) is tuple
        assert m.entries == (1, 2, 3, 4, 5, 6)
        assert m.row(1) == (4, 5, 6)
        assert m.col(2) == (3, 6)
        assert m.entry(1, 0) == 4
        assert m.diag() == (1, 5)
        assert repr(m) == "ZModMatrix([[1, 2, 3], [4, 5, 6]], modulus=7)"

    def test_value_semantics_across_constructors(self):
        a = ZModMatrix(2, 2, 5, [1, 2, 3, 4])
        b = ZModMatrix.from_rows([[6, 7], [-2, 9]], 5)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((2, 2, 5, (1, 2, 3, 4)))
        assert a != ZModMatrix(2, 2, 7, [1, 2, 3, 4])
        assert a != ZModMatrix(1, 4, 5, [1, 2, 3, 4])
        assert ZModMatrix.identity(2, 5) == ZModMatrix.diagonal([6, 1], 5)
        assert len({a, b, ZModMatrix.identity(2, 5)}) == 2

    def test_empty_dimensions(self):
        no_rows = ZModMatrix(0, 3, 5, [])
        no_cols = ZModMatrix(3, 0, 5, [])
        assert no_rows != ZModMatrix(0, 2, 5, [])
        assert no_cols != ZModMatrix(2, 0, 5, [])
        assert no_rows.entries == () and no_cols.entries == ()
        assert no_cols.row(2) == () and no_rows.col(0) == ()
        assert no_rows.mul_vec([1, 2, 3]) == ()
        assert no_cols.mul_vec([]) == (0, 0, 0)
        assert no_cols @ no_rows == ZModMatrix(3, 3, 5, [0] * 9)
        assert no_rows @ no_cols == ZModMatrix(0, 0, 5, [])
        assert (no_rows @ ZModMatrix.identity(3, 5)) == no_rows
        assert (ZModMatrix.identity(3, 5) @ no_cols) == no_cols
        assert ZModMatrix.from_rows([], 5) == ZModMatrix(0, 0, 5, [])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_normal_form_of_empty_dimensions(self, shape):
        r, c = shape
        m = ZModMatrix(r, c, 6, [])
        nf = normal_form(m)
        assert nf.D == m
        assert nf.u_inv == ZModMatrix.identity(r, 6)
        assert nf.v_inv == ZModMatrix.identity(c, 6)
        sol = solve(m, [0] * r)
        assert sol.particular == (0,) * c
        assert sol.null_generators == tuple(ZModMatrix.identity(c, 6).data)


def plain_mul_vec(m: ZModMatrix, x) -> tuple:
    """m x as one sum(a * b) per row: the slow path of mul_vec."""
    return tuple(sum(a * b for a, b in zip(row, x)) % m.modulus for row in m.data)


class TestSupportProduct:
    """mul_vec's row-support path on 0/1 matrices against plain_mul_vec."""

    @staticmethod
    def zero_one_matrix(rng: random.Random, r: int, c: int, ell: int) -> ZModMatrix:
        # Every row kind: no 1s, one 1, all 1s, and random density.
        rows = []
        for i in range(r):
            kind = rng.randrange(4)
            row = [0] * c
            if kind == 1 and c:
                row[rng.randrange(c)] = 1
            elif kind == 2:
                row = [1] * c
            elif kind == 3:
                row = [int(rng.random() < rng.random()) for _ in range(c)]
            rows.append(row)
        return ZModMatrix(r, c, ell, [e for row in rows for e in row])

    @staticmethod
    def vectors(rng: random.Random, c: int, ell: int) -> list:
        # Negative and unreduced entries, as a list, a tuple and ranges.
        x = [rng.randrange(-3 * ell, 3 * ell) for _ in range(c)]
        start = rng.randrange(-2 * ell, 2 * ell)
        up, down = range(start, start + 3 * c, 3), range(start, start - 2 * c, -2)
        return [x, tuple(x), up, down]

    @pytest.mark.parametrize("ell", [2, 3, 6, 30, MAX_MODULUS])
    def test_matches_plain_products(self, ell):
        rng = random.Random(2900 + ell)
        for r in range(7):
            for c in range(7):
                entries = [rng.randrange(ell) for _ in range(r * c)]
                general = ZModMatrix(r, c, ell, entries)
                for m in (self.zero_one_matrix(rng, r, c, ell), general):
                    for x in self.vectors(rng, c, ell):
                        assert m.mul_vec(x) == plain_mul_vec(m, x), (m, x)
                        assert type(m.mul_vec(x)) is tuple

    def test_edge_shapes_and_rows(self):
        for m, x in [
            (ZModMatrix(0, 4, 3, []), [1, -2, 7, 5]),
            (ZModMatrix(4, 0, 3, []), []),
            (ZModMatrix(1, 1, 3, [1]), [-4]),
            (ZModMatrix(1, 1, 3, [0]), [5]),
            (ZModMatrix(1, 1, 2, [3]), (9,)),
            # A row with one 1 at each end and in the middle, none, all.
            (ZModMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]], 5), [7, -8, 9]),
            (ZModMatrix.from_rows([[0, 0, 0], [1, 1, 1]], 5), range(-1, 2)),
        ]:
            assert m.mul_vec(x) == plain_mul_vec(m, x), (m, x)
        assert ZModMatrix(4, 0, 3, []).mul_vec([]) == (0, 0, 0, 0)
        assert ZModMatrix(1, 1, 3, [1]).mul_vec([-4]) == (2,)

    def test_path_taken(self):
        # Getters are built on the first product and only for 0/1 entries;
        # one entry of 2 or more sends the whole matrix to the dense path.
        built = [
            ZModMatrix(2, 2, 5, [1, 0, 1, 1]),
            ZModMatrix.from_rows([[0, 1], [1, 1]], 5),
            ZModMatrix.identity(3, 5),
            ZModMatrix.diagonal([1, 0], 5),
            ZModMatrix.from_rows([[1, 0], [0, 2]], 5),
            # Reduced mod 4 this is the identity, so it has getters.
            ZModMatrix.from_rows([[5, 4], [0, 1]], 4),
        ]
        assert all(m._support is None for m in built)
        for m in built:
            x = list(range(-1, m.cols - 1))
            assert m.mul_vec(x) == plain_mul_vec(m, x)
        assert [len(m._support) for m in built] == [2, 2, 3, 2, 0, 2]
        rng = random.Random(29)
        for ell in (3, 6, 30):
            for n in range(1, 6):
                entries = [rng.randrange(2) for _ in range(n * n)]
                entries[rng.randrange(n * n)] = rng.randrange(2, ell)
                m = ZModMatrix(n, n, ell, entries)
                x = [rng.randrange(-ell, ell) for _ in range(n)]
                assert m.mul_vec(x) == plain_mul_vec(m, x)
                assert m._support == (), m

    def test_mod_two_is_always_zero_one(self):
        rng = random.Random(2)
        for n in range(1, 8):
            m = ZModMatrix(n, n, 2, [rng.randrange(-5, 5) for _ in range(n * n)])
            x = [rng.randrange(-5, 5) for _ in range(n)]
            assert m.mul_vec(x) == plain_mul_vec(m, x)
            assert len(m._support) == n


class TestUnitLift:
    @pytest.mark.parametrize("ell", RINGS_TO_TEST)
    def test_lift_is_unit_and_consistent(self, ell):
        for d in range(1, ell):
            g = math.gcd(d, ell)
            u = unit_lift(d, g, ell)
            assert math.gcd(u, ell) == 1, f"lift {u} not a unit mod {ell}"
            assert (u * g) % ell == d % ell


class TestDeterminant:
    """det_int, the search's determinant kernel, reduced mod ell."""

    @pytest.mark.parametrize("ell", RINGS_TO_TEST)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_cofactor_oracle(self, ell, n):
        rng = random.Random(1000 * ell + n)
        for _ in range(25):
            m = random_square(rng, n, ell)
            expected = cofactor_det(m.to_rows()) % ell
            assert det_int(m.to_rows()) % ell == expected, f"det mismatch for {m!r}"

    @pytest.mark.parametrize("ell", RINGS_TO_TEST)
    def test_repeated_rows_give_zero(self, ell):
        assert det_int(NBHD_P2) % ell == 0

    def test_adjacency_triangle_mod_6(self):
        assert det_int(ADJ_C3) % 6 == 2

    @pytest.mark.parametrize("ell", RINGS_TO_TEST)
    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_identity(self, ell, n):
        assert det_int(ZModMatrix.identity(n, ell).to_rows()) % ell == 1 % ell

    def test_multiplicative_on_random_pairs(self):
        rng = random.Random(7)
        for ell in (5, 6, 12):
            for _ in range(20):
                a = random_square(rng, 4, ell)
                b = random_square(rng, 4, ell)
                det_a, det_b = det_int(a.to_rows()), det_int(b.to_rows())
                assert det_int((a @ b).to_rows()) % ell == det_a * det_b % ell

    def test_det_int_is_exact(self):
        rows = [[10, 3, 0], [2, 8, 7], [1, 1, 9]]
        assert det_int(rows) == cofactor_det(rows)


class TestInvertibility:
    def test_contract_examples(self):
        assert not is_invertible(ZModMatrix.from_rows(NBHD_P2, modulus=2))
        assert is_invertible(ZModMatrix.from_rows(ADJ_C3, modulus=5))
        assert not is_invertible(ZModMatrix.from_rows(ADJ_C3, modulus=6))
        for ell in range(2, 13):
            assert is_invertible(ZModMatrix.from_rows(NBHD_P3, modulus=ell))

    @pytest.mark.parametrize("ell", [2, 3])
    def test_exhaustive_two_sided_inverse_n2(self, ell):
        for entries in itertools.product(range(ell), repeat=4):
            m = ZModMatrix(2, 2, ell, entries)
            assert is_invertible(m) == brute_two_sided_inverse(m), (
                f"invertibility disagrees with exhaustive inverse search "
                f"for {m!r}"
            )

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sampled_two_sided_inverse(self, ell, n):
        rng = random.Random(100 * ell + n)
        for _ in range(8):
            m = random_square(rng, n, ell)
            assert is_invertible(m) == brute_two_sided_inverse(m)

    def test_agrees_with_normal_form_diagonal(self):
        rng = random.Random(42)
        for ell in RINGS_TO_TEST:
            for _ in range(15):
                m = random_square(rng, 4, ell)
                diag = normal_form(m).D.diag()
                via_diag = all(d != 0 and math.gcd(d, ell) == 1 for d in diag)
                assert is_invertible(m) == via_diag


# Moduli for the differential test: prime powers, squarefree composites,
# primes, and 2 * 1000003, whose largest prime exceeds isqrt(MAX_MODULUS), so
# trial division ends with that prime left over.
DIFFERENTIAL_MODULI = [
    4, 8, 9, 27, 2**16,
    6, 30, 210, 30030,
    2, 3, 5, 7, MAX_MODULUS,
    2 * 1_000_003,
]

# Always-winnable verdicts of the k x k Lights Out grid mod 2, 3, 6, 30.
GRID_MODULI = (2, 3, 6, 30)
GRID_AW = {
    5: (False, False, False, False),
    6: (True, True, True, True),
    7: (True, True, True, True),
    8: (True, False, False, False),
    9: (False, False, False, False),
    10: (True, True, True, True),
}


def differential_corpus(rng: random.Random, n: int, ell: int):
    """Uniform, sparse, singular-mod-one-prime and grid-like n x n matrices.

    The third kind replaces the last row by a combination of the others plus
    p times noise, for a prime p | ell, so it is singular mod p and often
    invertible mod the other primes.  The fourth is the neighborhood matrix
    of a random subgraph of a grid of width isqrt(n), so its rows end in long
    runs of zeros.
    """
    primes = sorted(factorint(ell))
    yield random_square(rng, n, ell)
    yield ZModMatrix(n, n, ell, [rng.randrange(ell) if rng.random() < 0.3 else 0
                                 for _ in range(n * n)])
    if n:
        p = rng.choice(primes)
        rows = random_square(rng, n, ell).to_rows()
        coefs = [rng.randrange(ell) for _ in range(n - 1)]
        rows[-1] = [
            sum(c * row[j] for c, row in zip(coefs, rows)) + p * rng.randrange(ell)
            for j in range(n)
        ]
        yield ZModMatrix.from_rows(rows, ell)
    width = max(1, math.isqrt(n))
    edges = [(i, j) for i in range(n) for j in (i + 1, i + width) if j < n]
    kept = [e for e in edges if rng.random() < 0.7]
    yield neighborhood_matrix(Graph.from_edges(n, kept), ell)


def grid_matrix(k: int, ell: int) -> ZModMatrix:
    edges = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    return neighborhood_matrix(Graph.from_edges(k * k, edges), ell)


class TestInvertibilityDifferential:
    """Elimination mod each prime of ell against the two other routes."""

    @pytest.mark.parametrize("ell", DIFFERENTIAL_MODULI)
    def test_matches_determinant_and_diagonal(self, ell):
        rng = random.Random(ell)
        verdicts = set()
        for n in list(range(13)) * 3:
            for m in differential_corpus(rng, n, ell):
                by_det = math.gcd(det_int(m.to_rows()) % ell, ell) == 1
                by_diag = all(
                    d != 0 and math.gcd(d, ell) == 1 for d in normal_form(m).D.diag()
                )
                assert is_invertible(m) == by_det == by_diag, m
                verdicts.add(by_det)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", sorted(GRID_AW))
    def test_grid_verdicts(self, k):
        for ell, aw in zip(GRID_MODULI, GRID_AW[k]):
            assert is_invertible(grid_matrix(k, ell)) == aw, (k, ell)

    def test_prime_divisors_match_factorint(self):
        near = [32749, 32771, 32779, 32783]
        cases = list(range(2, 5001)) + [MAX_MODULUS, MAX_MODULUS - 1]
        cases += [p * q for p in near for q in near if p <= q]
        for ell in cases:
            assert modular_mod._prime_divisors(ell) == tuple(sorted(factorint(ell))), ell


class TestNormalForm:
    def test_already_diagonal(self):
        nf = normal_form(ZModMatrix.diagonal([2, 2], modulus=4))
        assert nf.D.to_rows() == [[2, 0], [0, 2]]
        assert nf.u_inv == ZModMatrix.identity(2, 4)
        assert nf.v_inv == ZModMatrix.identity(2, 4)

    def test_identity_case(self):
        nf = normal_form(ZModMatrix.identity(3, 7))
        assert nf.D == ZModMatrix.identity(3, 7)

    def test_unit_diagonal_for_invertible_neighborhood(self):
        nf = normal_form(ZModMatrix.from_rows(NBHD_P3, modulus=6))
        assert all(math.gcd(d, 6) == 1 for d in nf.D.diag())

    @pytest.mark.parametrize("ell", RINGS_TO_TEST)
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
    def test_round_trip_and_invariants(self, ell, shape):
        rng = random.Random(ell * 31 + shape[0] * 7 + shape[1])
        r, c = shape
        for _ in range(20):
            m = ZModMatrix(r, c, ell, [rng.randrange(ell) for _ in range(r * c)])
            nf = normal_form(m)
            # Invertible P, Q with P m Q = D hold exactly when
            # m = P^-1 D Q^-1; invertibility goes through the determinant,
            # a route independent of normal_form.
            assert nf.u_inv @ m @ nf.v_inv == nf.D, f"round trip failed for {m!r}"
            assert is_invertible(nf.u_inv), f"u_inv not invertible for {m!r}"
            assert is_invertible(nf.v_inv), f"v_inv not invertible for {m!r}"
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert nf.D.entry(i, j) == 0, f"D not diagonal for {m!r}"
            diag = [d for d in nf.D.diag() if d != 0]
            for d in diag:
                assert ell % d == 0, f"diagonal {d} does not divide {ell}"
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0, f"chain broken: {a} does not divide {b}"
            tail = list(nf.D.diag())
            if 0 in tail:
                first_zero = tail.index(0)
                assert all(d == 0 for d in tail[first_zero:]), (
                    f"zero diagonal entries must trail: {tail}"
                )

    @pytest.mark.parametrize(
        "rows, ell",
        [([[2, 0], [0, 3]], 6), ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], 30)],
    )
    def test_faulty_chain_step_raises(self, monkeypatch, fresh_memo, rows, ell):
        """A chain step whose column addition skips row k + 1 leaves the
        block diagonal, so every pass repeats it; the pass bound turns
        that endless loop into AuditError."""

        def faulty_add_col(self, i, j, coef):
            for r in range(min(i, j), self.r):
                if r != i + 1:
                    self.d[r][i] = (self.d[r][i] + coef * self.d[r][j]) % self.ell
            self.col_log.append((i, j, coef))

        def hung(signum, frame):
            raise TimeoutError("fix_chain did not stop")

        monkeypatch.setattr(modular_mod._Reduction, "add_col", faulty_add_col)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            with pytest.raises(AuditError, match="chain fix still changing"):
                normal_form(ZModMatrix.from_rows(rows, ell))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_memo_keeps_the_last_two_matrices(self, reductions):
        a = ZModMatrix.identity(2, 6)
        b = ZModMatrix.diagonal([2, 3], 6)
        c = ZModMatrix.diagonal([3, 1], 6)
        for m in (a, b, a, b, ZModMatrix.diagonal([2, 3], 6), a):
            normal_form(m)
        assert reductions == [a, b]
        # c evicts b, the matrix asked for least recently.
        normal_form(c)
        normal_form(a)
        assert reductions == [a, b, c]
        normal_form(b)
        assert reductions == [a, b, c, b]

    def test_deterministic(self, fresh_memo):
        rng = random.Random(5)
        for _ in range(10):
            m = random_square(rng, 4, 12)
            a = normal_form(m)
            fresh_memo()
            b = normal_form(m)
            assert (a.u_inv, a.D, a.v_inv) == (b.u_inv, b.D, b.v_inv)


class TestSolve:
    def test_identity_system(self):
        sol = solve(ZModMatrix.identity(3, 5), [1, 2, 3])
        assert sol is not None
        assert sol.particular == (1, 2, 3)
        assert sol.null_generators == ()

    def test_forced_equal_coordinates(self):
        m = ZModMatrix.from_rows(NBHD_P2, modulus=2)
        assert solve(m, [1, 0]) is None

    def test_two_element_coset(self):
        m = ZModMatrix.from_rows(NBHD_P2, modulus=2)
        sol = solve(m, [1, 1])
        assert sol is not None
        assert set(sol.enumerate()) == {(1, 0), (0, 1)}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(ZModMatrix.identity(2, 3), [1, 2, 3])

    @pytest.mark.parametrize("ell", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_coset_matches_brute_force(self, ell, n):
        rng = random.Random(9000 + 10 * ell + n)
        for _ in range(12):
            m = random_square(rng, n, ell)
            c = tuple(rng.randrange(ell) for _ in range(n))
            expected = brute_solutions(m, c)
            sol = solve(m, c)
            if sol is None:
                assert expected == set(), (
                    f"solver said unsolvable but {m!r}, c={c} has {expected}"
                )
            else:
                assert set(sol.enumerate()) == expected

    @pytest.mark.parametrize("ell", [2, 3])
    def test_exhaustive_2x2_systems(self, ell):
        for entries in itertools.product(range(ell), repeat=4):
            m = ZModMatrix(2, 2, ell, entries)
            for c in itertools.product(range(ell), repeat=2):
                expected = brute_solutions(m, c)
                sol = solve(m, c)
                got = set() if sol is None else set(sol.enumerate())
                assert got == expected, f"m={m!r} c={c}"

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_rectangular_systems(self, shape):
        r, c = shape
        rng = random.Random(77 + r * 10 + c)
        for ell in (2, 3, 4):
            for _ in range(10):
                m = ZModMatrix(r, c, ell, [rng.randrange(ell) for _ in range(r * c)])
                rhs = tuple(rng.randrange(ell) for _ in range(r))
                expected = brute_solutions(m, rhs)
                sol = solve(m, rhs)
                got = set() if sol is None else set(sol.enumerate())
                assert got == expected

    def test_precomputed_normal_form_reuse(self, fresh_memo):
        # A solve on a cold memo against one that reuses the stored form.
        m = ZModMatrix.from_rows(ADJ_C3, modulus=6)
        for c in itertools.product(range(6), repeat=3):
            fresh_memo()
            fresh = solve(m, c)
            reused = solve(m, c)
            got_fresh = None if fresh is None else set(fresh.enumerate())
            got_reused = None if reused is None else set(reused.enumerate())
            assert got_fresh == got_reused


class TestEnumerationLimit:
    def test_default_limit(self):
        assert modular_mod.MAX_ENUMERATED_SOLUTIONS == 2**20

    @pytest.mark.parametrize(
        "gens, ell, size",
        [(((1, 0),), 4, 4), (((1, 0), (0, 1)), 3, 9), (((2, 2),), 6, 3)],
    )
    def test_limit_is_inclusive(self, monkeypatch, gens, ell, size):
        sol = SolutionSet(particular=(1, 1), null_generators=gens, modulus=ell)
        monkeypatch.setattr(modular_mod, "MAX_ENUMERATED_SOLUTIONS", size)
        assert len(list(sol.enumerate())) == sol.count() == size
        monkeypatch.setattr(modular_mod, "MAX_ENUMERATED_SOLUTIONS", size - 1)
        with pytest.raises(ValueError, match=f"limit of {size - 1} solutions"):
            sol.enumerate()
        with pytest.raises(ValueError, match="enumeration limit"):
            sol.count()

    def test_solver_output_is_bounded(self, monkeypatch):
        monkeypatch.setattr(modular_mod, "MAX_ENUMERATED_SOLUTIONS", 8)
        zero = ZModMatrix(4, 4, 2, [0] * 16)
        sol = solve(zero, [0, 0, 0, 0])
        with pytest.raises(ValueError, match="limit of 8 solutions"):
            sol.count()


class TestNullspace:
    """The homogeneous solutions, solve(m, 0).null_generators."""

    def test_invertible_gives_empty(self):
        m = ZModMatrix.from_rows(NBHD_P3, modulus=6)
        assert solve(m, [0, 0, 0]).null_generators == ()

    def test_repeated_rows_mod_2(self):
        sol = solve(ZModMatrix.from_rows(NBHD_P2, modulus=2), [0, 0])
        assert set(sol.enumerate()) == {(0, 0), (1, 1)}
        assert sol.null_generators == ((1, 1),)

    def test_diagonal_congruence(self):
        m = ZModMatrix.diagonal([2, 1], modulus=4)
        sol = solve(m, [0, 0])
        assert set(sol.enumerate()) == {(0, 0), (2, 0)}

    @pytest.mark.parametrize("ell", [2, 3, 4, 6])
    def test_generators_annihilated(self, ell):
        rng = random.Random(ell)
        for _ in range(10):
            m = random_square(rng, 4, ell)
            for g in solve(m, [0] * 4).null_generators:
                assert m.mul_vec(g) == (0, 0, 0, 0)
                assert any(g), "zero vectors must be filtered out"


@st.composite
def matrix_and_target(draw):
    ell = draw(st.sampled_from([2, 3, 4, 5, 6]))
    n = draw(st.integers(min_value=1, max_value=3))
    entries = draw(
        st.lists(st.integers(0, ell - 1), min_size=n * n, max_size=n * n)
    )
    c = draw(st.lists(st.integers(0, ell - 1), min_size=n, max_size=n))
    return ZModMatrix(n, n, ell, entries), tuple(c)


@given(matrix_and_target())
@settings(max_examples=150, deadline=None)
def test_solve_agrees_with_enumeration(case):
    m, c = case
    expected = brute_solutions(m, c)
    sol = solve(m, c)
    got = set() if sol is None else set(sol.enumerate())
    assert got == expected


@given(matrix_and_target())
@settings(max_examples=100, deadline=None)
def test_normal_form_round_trip_property(case):
    m, _ = case
    nf = normal_form(m)
    assert nf.u_inv @ m @ nf.v_inv == nf.D
    assert is_invertible(nf.u_inv) and is_invertible(nf.v_inv)
