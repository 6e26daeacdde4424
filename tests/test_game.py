"""Tests for the game engine against exhaustive toggle enumeration."""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

import pytest

import lightsout.game as game_mod
import lightsout.modular as modular_mod
from lightsout.game import (
    apply_toggles,
    cycle_lambda_winnable,
    cycle_shift_canonical,
    exists_shift_winnable,
    is_AW,
    lambda_labeling,
    shift_labeling,
    winnable,
)
from lightsout.graphs import (
    Graph,
    adjacency_matrix,
    complement,
    cycle_graph,
    disjoint_union,
    named_graph,
    neighborhood_matrix,
)
from lightsout.modular import AuditError, ZModMatrix, normal_form


def brute_winnable(m: ZModMatrix, pi) -> bool:
    """Oracle: try all ell^n toggle vectors."""
    ell = m.modulus
    n = m.cols
    zero = (0,) * m.rows
    return any(
        apply_toggles(m, pi, x) == zero
        for x in itertools.product(range(ell), repeat=n)
    )


def all_graphs(n: int):
    pair_list = list(itertools.combinations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(pair_list)):
        yield Graph.from_edges(
            n, [e for e, take in zip(pair_list, picks) if take]
        )


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


class TestApplyToggles:
    def test_zero_toggles_identity(self):
        m = neighborhood_matrix(named_graph("path3"), 5)
        assert apply_toggles(m, (1, 2, 3), (0, 0, 0)) == (1, 2, 3)

    def test_dominating_middle_vertex(self):
        m = neighborhood_matrix(named_graph("path3"), 2)
        assert apply_toggles(m, (0, 0, 0), (0, 1, 0)) == (1, 1, 1)

    def test_linearity(self):
        rng = random.Random(5)
        for ell in (2, 3, 6):
            m = neighborhood_matrix(random_graph(rng, 5), ell)
            for _ in range(10):
                pi = tuple(rng.randrange(ell) for _ in range(5))
                x1 = tuple(rng.randrange(ell) for _ in range(5))
                x2 = tuple(rng.randrange(ell) for _ in range(5))
                x12 = tuple((a + b) % ell for a, b in zip(x1, x2))
                assert apply_toggles(m, pi, x12) == apply_toggles(
                    m, apply_toggles(m, pi, x1), x2
                )

    def test_length_checked(self):
        m = neighborhood_matrix(named_graph("path3"), 2)
        with pytest.raises(ValueError):
            apply_toggles(m, (0, 0), (0, 0, 0))


class TestWinnable:
    def test_zero_labeling_zero_witness(self):
        m = neighborhood_matrix(named_graph("cycle4"), 3)
        assert winnable(m, (0, 0, 0, 0)) == (0, 0, 0, 0)

    @pytest.mark.parametrize("ell", [2, 3, 4, 7])
    def test_locked_pair(self, ell):
        m = neighborhood_matrix(named_graph("path2"), ell)
        assert winnable(m, (1, 0)) is None

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_path4_every_labeling(self, ell):
        m = neighborhood_matrix(named_graph("path4"), ell)
        for pi in itertools.product(range(ell), repeat=4):
            assert winnable(m, pi) is not None

    @pytest.mark.parametrize("ell", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_brute_force_exhaustively(self, ell, n):
        for g in all_graphs(n):
            for m in (neighborhood_matrix(g, ell), adjacency_matrix(g, ell)):
                for pi in itertools.product(range(ell), repeat=n):
                    got = winnable(m, pi) is not None
                    assert got == brute_winnable(m, pi), f"{g!r} pi={pi}"

    def test_agrees_with_brute_force_sampled_n4(self):
        rng = random.Random(99)
        for _ in range(6):
            g = random_graph(rng, 4)
            ell = rng.choice([2, 3, 4])
            m = rng.choice(
                [neighborhood_matrix(g, ell), adjacency_matrix(g, ell)]
            )
            for pi in itertools.product(range(ell), repeat=4):
                got = winnable(m, pi) is not None
                assert got == brute_winnable(m, pi)

    def test_disconnected_iff_all_components(self):
        rng = random.Random(101)
        for _ in range(12):
            g1 = random_graph(rng, rng.randrange(1, 4))
            g2 = random_graph(rng, rng.randrange(1, 4))
            g = disjoint_union(g1, g2)
            ell = rng.choice([2, 3, 4])
            pi = tuple(rng.randrange(ell) for _ in range(g.n))
            whole = winnable(neighborhood_matrix(g, ell), pi) is not None
            left = winnable(neighborhood_matrix(g1, ell), pi[: g1.n]) is not None
            right = winnable(neighborhood_matrix(g2, ell), pi[g1.n :]) is not None
            assert whole == (left and right)

    def test_corrupted_normal_form_fails_solve_check(self, monkeypatch):
        # A zero scale of row 0 logged first makes u_inv drop the only
        # nonzero label, so the particular solution is 0, which does not
        # clear the labeling; solve's audit must catch it.
        m = neighborhood_matrix(named_graph("path4"), 3)
        nf = normal_form(m)
        bad = dataclasses.replace(nf, row_log=((0, 0, 0),) + nf.row_log)
        monkeypatch.setattr(modular_mod, "normal_form", lambda _: bad)
        with pytest.raises(AuditError, match="particular solution failed check"):
            winnable(m, (1, 0, 0, 0))


class TestIsAW:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("ell", [2, 3, 6])
    def test_complete_never(self, n, ell):
        assert not is_AW(neighborhood_matrix(named_graph(f"complete{n}"), ell))

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_matching5_complement(self, ell):
        g = complement(named_graph("matching5"))
        assert is_AW(neighborhood_matrix(g, ell))

    @pytest.mark.parametrize("ell", range(2, 10))
    def test_triangle_adjacency_parity(self, ell):
        assert is_AW(adjacency_matrix(named_graph("cycle3"), ell)) == (ell % 2 == 1)

    @pytest.mark.parametrize("ell", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_all_labelings_winnable(self, ell, n):
        for g in all_graphs(n):
            m = neighborhood_matrix(g, ell)
            brute = all(
                brute_winnable(m, pi)
                for pi in itertools.product(range(ell), repeat=n)
            )
            assert is_AW(m) == brute, f"{g!r}"


class TestShiftLabeling:
    def test_empty_set_identity(self):
        assert shift_labeling((1, 2, 0), (), 5, 6) == (1, 2, 0)

    def test_all_vertices(self):
        assert shift_labeling((0, 0, 0), range(3), 1, 4) == (1, 1, 1)

    def test_group_inverse(self):
        rng = random.Random(7)
        for _ in range(20):
            ell = rng.choice([2, 4, 9])
            pi = tuple(rng.randrange(ell) for _ in range(5))
            u = tuple(v for v in range(5) if rng.random() < 0.5)
            r = rng.randrange(ell)
            assert (
                shift_labeling(shift_labeling(pi, u, r, ell), u, ell - r, ell) == pi
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            shift_labeling((0, 0), (2,), 1, 2)


class TestLambdaLabeling:
    def test_zero(self):
        assert lambda_labeling(5, 0, 0, 4) == (0, 0, 0, 0, 0)

    def test_examples(self):
        assert lambda_labeling(4, 1, 0, 2) == (1, 0, 0, 0)
        assert lambda_labeling(5, 2, 3, 4) == (2, 3, 0, 0, 0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            lambda_labeling(2, 1, 0, 2)


class TestCycleLambdaWinnable:
    def test_contract_examples(self):
        assert cycle_lambda_winnable(4, 0, 0, 2)
        assert not cycle_lambda_winnable(4, 1, 0, 2)
        assert cycle_lambda_winnable(5, 1, 1, 2)
        assert cycle_lambda_winnable(6, 2, 0, 4)
        assert not cycle_lambda_winnable(6, 1, 1, 4)

    def test_odd_modulus_rejected(self):
        with pytest.raises(ValueError):
            cycle_lambda_winnable(4, 0, 0, 3)

    @pytest.mark.parametrize("ell", [2, 4, 6])
    @pytest.mark.parametrize("k", range(3, 10))
    def test_matches_generic_solver(self, k, ell):
        mat = adjacency_matrix(cycle_graph(k), ell)
        for a in range(ell):
            for b in range(ell):
                closed = cycle_lambda_winnable(k, a, b, ell)
                direct = winnable(mat, lambda_labeling(k, a, b, ell))
                assert closed == (direct is not None), f"k={k} a={a} b={b} ell={ell}"


class TestCycleShiftCanonical:
    def test_k_divisible_by_4_unchanged(self):
        for s in range(4):
            assert cycle_shift_canonical(8, 1, 3, s, 4) == (1, 3)

    def test_k6_example(self):
        for ell in (2, 4, 6):
            assert cycle_shift_canonical(6, 1, 1, 2, ell) == (
                (1 - 2) % ell,
                (1 - 2) % ell,
            )

    def test_zero_shift_identity(self):
        for k in range(3, 8):
            assert cycle_shift_canonical(k, 1, 0, 0, 4) == (1, 0)

    def test_odd_modulus_rejected(self):
        with pytest.raises(ValueError):
            cycle_shift_canonical(5, 1, 0, 1, 5)

    @pytest.mark.parametrize("ell", [2, 4])
    @pytest.mark.parametrize("k", range(3, 10))
    def test_winnability_transported(self, k, ell):
        """Shifted labeling and its reduction clear under the same toggles."""
        mat = adjacency_matrix(cycle_graph(k), ell)
        for a, b, s in itertools.product(range(ell), repeat=3):
            ap, bp = cycle_shift_canonical(k, a, b, s, ell)
            shifted = shift_labeling(
                lambda_labeling(k, a, b, ell), range(k), s, ell
            )
            lhs = winnable(mat, shifted) is not None
            rhs = winnable(mat, lambda_labeling(k, ap, bp, ell)) is not None
            assert lhs == rhs

    def test_unreachable_reduction_raises_audit_error(self, monkeypatch):
        monkeypatch.setattr(game_mod, "solve", lambda m, c: None)
        with pytest.raises(AuditError, match="not toggle-reachable"):
            cycle_shift_canonical(6, 1, 1, 2, 4)


def shift_loop(g: Graph, pi, ell: int):
    """Reference: the least s whose all-vertex shift clears, one solve each."""
    mat = adjacency_matrix(g, ell)
    for s in range(ell):
        if winnable(mat, shift_labeling(pi, range(g.n), s, ell)) is not None:
            return s
    return None


class TestExistsShiftWinnable:
    @pytest.mark.parametrize("ell", [2, 3, 4, 6])
    def test_matches_shift_loop_exhaustively(self, ell):
        for n in range(4):
            for g in all_graphs(n):
                for pi in itertools.product(range(ell), repeat=n):
                    assert exists_shift_winnable(g, pi, ell) == shift_loop(
                        g, pi, ell
                    ), f"{g!r} pi={pi} mod {ell}"

    def test_matches_shift_loop_on_random_graphs(self):
        rng = random.Random(14)
        for _ in range(300):
            n = rng.randrange(4, 8)
            g = random_graph(rng, n, 0.4)
            ell = rng.choice([2, 4, 6, 8, 9, 12, 30])
            pi = tuple(rng.randrange(ell) for _ in range(n))
            assert exists_shift_winnable(g, pi, ell) == shift_loop(g, pi, ell)

    def test_empty_graph_needs_no_shift(self):
        assert exists_shift_winnable(Graph(0, []), (), 5) == 0

    def test_labeling_length_checked(self):
        with pytest.raises(ValueError, match="labeling length"):
            exists_shift_winnable(cycle_graph(4), (1, 0, 0), 2)

    def test_huge_modulus_is_one_solve(self):
        # The shift loop would take hours here: about 11 us per shift.
        ell = 2**31 - 2
        c4_p2 = disjoint_union(cycle_graph(4), named_graph("path2"))
        started = time.perf_counter()
        blocked = exists_shift_winnable(c4_p2, (1, 0, 0, 0, 0, 0), ell)
        odd = exists_shift_winnable(cycle_graph(5), (1,) * 5, ell)
        assert time.perf_counter() - started < 1.0
        assert blocked is None
        # Even ell: the all-r labeling of C5 clears only for even r.
        mat = adjacency_matrix(cycle_graph(5), ell)
        assert odd == 1
        assert winnable(mat, (1,) * 5) is None
        assert winnable(mat, (2,) * 5) is not None

    def test_always_winnable_gives_zero(self):
        g = named_graph("path2")
        for ell in (2, 3, 4):
            for pi in itertools.product(range(ell), repeat=2):
                assert exists_shift_winnable(g, pi, ell) == 0

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_even_cycle_obstruction(self, ell):
        pi = lambda_labeling(4, 1, 0, ell)
        assert exists_shift_winnable(cycle_graph(4), pi, ell) is None

    def test_two_odd_cycles_obstruction(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(5))
        pi = lambda_labeling(3, 1, 0, 2) + (0,) * 5
        assert exists_shift_winnable(g, pi, 2) is None

    def test_scan_finds_smallest(self):
        # On one odd cycle with even modulus, the all-r labeling clears only
        # for even r, so the all-ones labeling needs the smallest odd shift.
        g = cycle_graph(5)
        pi = (1, 1, 1, 1, 1)
        s = exists_shift_winnable(g, pi, 4)
        assert s is not None
        mat = adjacency_matrix(g, 4)
        for earlier in range(s):
            assert winnable(mat, shift_labeling(pi, range(5), earlier, 4)) is None
