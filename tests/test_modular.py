"""Tests for exact linear algebra over Z_ell.

Oracles used here are independent of the implementation under test:
cofactor (Laplace) expansion for determinants, and exhaustive enumeration
over Z_ell^n for solution sets and two-sided inverses.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightsout.modular as modular_mod
from lightsout.modular import (
    MAX_MODULUS,
    AuditError,
    ZModMatrix,
    check_modulus,
    det_int,
    det_mod,
    is_invertible,
    normal_form,
    nullspace,
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


class TestUnitLift:
    @pytest.mark.parametrize("ell", RINGS_TO_TEST)
    def test_lift_is_unit_and_consistent(self, ell):
        for d in range(1, ell):
            g = math.gcd(d, ell)
            u = unit_lift(d, g, ell)
            assert math.gcd(u, ell) == 1, f"lift {u} not a unit mod {ell}"
            assert (u * g) % ell == d % ell


class TestDeterminant:
    @pytest.mark.parametrize("ell", RINGS_TO_TEST)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_cofactor_oracle(self, ell, n):
        rng = random.Random(1000 * ell + n)
        for _ in range(25):
            m = random_square(rng, n, ell)
            expected = cofactor_det(m.to_rows()) % ell
            assert det_mod(m) == expected, f"det mismatch for {m!r}"

    @pytest.mark.parametrize("ell", RINGS_TO_TEST)
    def test_repeated_rows_give_zero(self, ell):
        m = ZModMatrix.from_rows(NBHD_P2, modulus=ell)
        assert det_mod(m) == 0

    def test_adjacency_triangle_mod_6(self):
        assert det_mod(ZModMatrix.from_rows(ADJ_C3, modulus=6)) == 2

    @pytest.mark.parametrize("ell", RINGS_TO_TEST)
    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_identity(self, ell, n):
        assert det_mod(ZModMatrix.identity(n, ell)) == 1 % ell

    def test_multiplicative_on_random_pairs(self):
        rng = random.Random(7)
        for ell in (5, 6, 12):
            for _ in range(20):
                a = random_square(rng, 4, ell)
                b = random_square(rng, 4, ell)
                assert det_mod(a @ b) == (det_mod(a) * det_mod(b)) % ell

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_mod(ZModMatrix(2, 3, 5, [0] * 6))

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

    def test_deterministic(self):
        rng = random.Random(5)
        for _ in range(10):
            m = random_square(rng, 4, 12)
            a = normal_form(m)
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

    def test_precomputed_normal_form_reuse(self):
        m = ZModMatrix.from_rows(ADJ_C3, modulus=6)
        nf = normal_form(m)
        for c in itertools.product(range(6), repeat=3):
            fresh = solve(m, c)
            reused = solve(m, c, nf=nf)
            got_fresh = None if fresh is None else set(fresh.enumerate())
            got_reused = None if reused is None else set(reused.enumerate())
            assert got_fresh == got_reused


class TestNullspace:
    def test_invertible_gives_empty(self):
        assert nullspace(ZModMatrix.from_rows(NBHD_P3, modulus=6)) == []

    def test_repeated_rows_mod_2(self):
        gens = nullspace(ZModMatrix.from_rows(NBHD_P2, modulus=2))
        sol = solve(ZModMatrix.from_rows(NBHD_P2, modulus=2), [0, 0])
        assert set(sol.enumerate()) == {(0, 0), (1, 1)}
        assert gens == [(1, 1)]

    def test_diagonal_congruence(self):
        m = ZModMatrix.diagonal([2, 1], modulus=4)
        sol = solve(m, [0, 0])
        assert set(sol.enumerate()) == {(0, 0), (2, 0)}

    @pytest.mark.parametrize("ell", [2, 3, 4, 6])
    def test_generators_annihilated(self, ell):
        rng = random.Random(ell)
        for _ in range(10):
            m = random_square(rng, 4, ell)
            for g in nullspace(m):
                assert m.mul_vec(g) == (0, 0, 0, 0)
                assert any(g), "zero vectors must be filtered out"

    def test_unsolvable_homogeneous_system_is_an_audit_error(self, monkeypatch):
        monkeypatch.setattr(modular_mod, "solve", lambda m, c: None)
        with pytest.raises(AuditError):
            nullspace(ZModMatrix.identity(2, 3))


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
