"""Tests for toggling-number cosets against exhaustive enumeration."""

from __future__ import annotations

import itertools
import math
import random

import pytest

import lightsout.modular as modular_mod
from lightsout.graphs import (
    Graph,
    adjacency_matrix,
    corona_pendant,
    disjoint_union,
    named_graph,
    neighborhood_matrix,
)
from lightsout.modular import ZModMatrix
from lightsout.toggling import (
    ToggleCoset,
    compose_components,
    minimal_nonempty_r,
    noU_transfer,
    toggling_numbers,
)


def brute_toggling(m: ZModMatrix, u, r) -> set:
    """Oracle: U-sums over all clearings of the (U, r) labeling."""
    ell = m.modulus
    u = set(u)
    target = tuple((-r) % ell if v in u else 0 for v in range(m.rows))
    sums = set()
    for x in itertools.product(range(ell), repeat=m.cols):
        if m.mul_vec(x) == target:
            sums.add(sum(x[v] for v in u) % ell)
    return sums


def reference_minimal_nonempty_r(m: ZModMatrix, u) -> int:
    """Least r in 1..ell-1 with a non-empty toggling set, found by trying
    each r in turn (the loop minimal_nonempty_r replaced); else 0."""
    for r in range(1, m.modulus):
        if not toggling_numbers(m, u, r).empty:
            return r
    return 0


def random_square_matrix(rng: random.Random, n: int, ell: int) -> ZModMatrix:
    """A random n x n matrix, often singular: a row may be scaled by a
    divisor of ell or replaced by a multiple of another row."""
    rows = [[rng.randrange(ell) for _ in range(n)] for _ in range(n)]
    divisors = [d for d in range(2, ell + 1) if ell % d == 0]
    for i in range(n):
        pick = rng.random()
        if pick < 0.3:
            scale = rng.choice(divisors)
            rows[i] = [x * scale % ell for x in rows[i]]
        elif pick < 0.45:
            scale = rng.randrange(ell)
            rows[i] = [x * scale % ell for x in rng.choice(rows)]
    return ZModMatrix(n, n, ell, [x for row in rows for x in row])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_pendant_graph(rng: random.Random, half: int) -> Graph:
    return corona_pendant(random_graph(rng, half))


class TestToggleCoset:
    def test_generator_normalized_to_divisor(self):
        c = ToggleCoset(modulus=12, empty=False, base=5, generator=8)
        assert c.generator == 4
        assert c.base == 1
        assert c.members() == (1, 5, 9)

    def test_full_group_generator(self):
        c = ToggleCoset(modulus=6, empty=False, base=4, generator=5)
        assert c.generator == 1
        assert c.members() == (0, 1, 2, 3, 4, 5)

    def test_trivial_generator(self):
        c = ToggleCoset(modulus=6, empty=False, base=10, generator=0)
        assert c.members() == (4,)
        assert ToggleCoset(modulus=6, empty=False, base=4, generator=6) == c

    def test_structural_equality_is_set_equality(self):
        a = ToggleCoset(modulus=4, empty=False, base=3, generator=2)
        b = ToggleCoset(modulus=4, empty=False, base=1, generator=2)
        assert a == b
        assert a.members() == (1, 3)

    def test_contains(self):
        c = ToggleCoset(modulus=8, empty=False, base=3, generator=2)
        for t in range(8):
            assert c.contains(t) == (t % 2 == 1)
        assert not ToggleCoset.empty_set(8).contains(0)

    def test_translate(self):
        c = ToggleCoset(modulus=6, empty=False, base=1, generator=3)
        assert c.translate(2).members() == (0, 3)
        assert ToggleCoset.empty_set(6).translate(2).empty

    def test_empty_canonical(self):
        c = ToggleCoset(modulus=5, empty=True, base=3, generator=2)
        assert (c.base, c.generator) == (0, 0)
        assert c.members() == ()


class TestTogglingNumbers:
    def test_invertible_all_vertices_r0(self):
        m = adjacency_matrix(named_graph("path4"), 6)
        assert toggling_numbers(m, range(4), 0).members() == (0,)

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7, 8])
    def test_pendant_graph_closed_form(self, ell):
        rng = random.Random(ell)
        for _ in range(8):
            g = random_pendant_graph(rng, rng.randrange(1, 7))
            m_edges, n_verts = g.num_edges(), g.n
            coset = toggling_numbers(adjacency_matrix(g, ell), range(g.n), 1)
            assert coset.members() == ((2 * (m_edges - n_verts)) % ell,)

    @pytest.mark.parametrize("components", [1, 2, 3])
    def test_pendant_forest_closed_form(self, components):
        # A forest of paths, one per component, then pendants everywhere.
        rng = random.Random(components)
        ell = 12
        for _ in range(5):
            forest = Graph(0, [])
            for _ in range(components):
                forest = disjoint_union(
                    forest, named_graph(f"path{rng.randrange(1, 4)}")
                )
            g = corona_pendant(forest)
            coset = toggling_numbers(adjacency_matrix(g, ell), range(g.n), 1)
            assert coset.members() == ((-2 * components) % ell,)

    def test_locked_pair_mod_4(self):
        # Every clearing of (1,1) satisfies x0 + x1 = -1, so the sum is
        # pinned to 3 and the set is a singleton (null sums are all 0).
        coset = toggling_numbers(neighborhood_matrix(named_graph("path2"), 4), (0, 1), 1)
        assert coset.members() == (3,)

    @pytest.mark.parametrize("ell", [2, 3, 4, 6])
    def test_agrees_with_brute_force(self, ell):
        rng = random.Random(50 + ell)
        for _ in range(10):
            n = rng.randrange(1, 5)
            g = random_graph(rng, n)
            m = rng.choice([adjacency_matrix(g, ell), neighborhood_matrix(g, ell)])
            u = [v for v in range(n) if rng.random() < 0.6]
            r = rng.randrange(ell)
            expected = brute_toggling(m, u, r)
            got = set(toggling_numbers(m, u, r).members())
            assert got == expected, f"{g!r} u={u} r={r} ell={ell}"

    def test_out_of_range_subset(self):
        with pytest.raises(ValueError):
            toggling_numbers(ZModMatrix.identity(2, 3), [5], 1)


class TestMinimalNonemptyR:
    def test_invertible_gives_one(self):
        assert minimal_nonempty_r(adjacency_matrix(named_graph("path4"), 6), range(4)) == 1

    def test_locked_pair_mod_4(self):
        m = neighborhood_matrix(named_graph("path2"), 4)
        assert minimal_nonempty_r(m, (0, 1)) == 1

    def test_degenerate_zero(self):
        # One vertex, adjacency game: the only winnable labeling is zero.
        m = adjacency_matrix(Graph(1, [0]), 4)
        assert minimal_nonempty_r(m, (0,)) == 0

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_divisibility_and_biconditional(self, ell):
        rng = random.Random(70 + ell)
        for _ in range(10):
            n = rng.randrange(1, 5)
            g = random_graph(rng, n)
            m = rng.choice([adjacency_matrix(g, ell), neighborhood_matrix(g, ell)])
            u = [v for v in range(n) if rng.random() < 0.6]
            r = minimal_nonempty_r(m, u)
            period = ell if r == 0 else r
            assert ell % period == 0, f"r={r} does not divide ell={ell}"
            for s in range(ell):
                nonempty = not toggling_numbers(m, u, s).empty
                assert nonempty == (s % period == 0), (
                    f"biconditional fails at s={s}, r={r} for {g!r} u={u}"
                )

    @pytest.mark.parametrize("ell", [2, 3, 4, 6, 8, 9, 12, 30])
    def test_precomputed_normal_form_gives_same_r(self, ell, fresh_memo):
        # A cold memo, then the form the first call stored for m.
        rng = random.Random(110 + ell)
        for _ in range(25):
            n = rng.randrange(1, 6)
            entries = [rng.randrange(ell) for _ in range(n * n)]
            m = ZModMatrix(n, n, ell, entries)
            u = [v for v in range(n) if rng.random() < 0.6]
            fresh_memo()
            cold = minimal_nonempty_r(m, u)
            assert modular_mod._last[0][0] is m
            assert minimal_nonempty_r(m, u) == cold

    @pytest.mark.parametrize("ell", [2, 3, 4, 6, 8, 9, 12, 30, 210])
    def test_order_matches_reference_on_every_subset(self, ell):
        rng = random.Random(300 + ell)
        for trial in range(15):
            n = rng.randrange(1, 6)
            m = random_square_matrix(rng, n, ell)
            for size in range(n + 1):
                for u in itertools.combinations(range(n), size):
                    assert minimal_nonempty_r(m, u) == (
                        reference_minimal_nonempty_r(m, u)
                    ), (trial, m.to_rows(), u)

    @pytest.mark.parametrize("ell", [2, 4, 6, 12])
    def test_order_matches_reference_on_graph_games(self, ell):
        rng = random.Random(400 + ell)
        for _ in range(6):
            g = random_graph(rng, rng.randrange(1, 6))
            for m in (adjacency_matrix(g, ell), neighborhood_matrix(g, ell)):
                for size in range(g.n + 1):
                    for u in itertools.combinations(range(g.n), size):
                        assert minimal_nonempty_r(m, u) == (
                            reference_minimal_nonempty_r(m, u)
                        ), (g, u)

    def test_input_checks(self):
        with pytest.raises(ValueError, match="square"):
            minimal_nonempty_r(ZModMatrix(2, 3, 4, [0] * 6), [0])
        with pytest.raises(ValueError, match="out of range"):
            minimal_nonempty_r(adjacency_matrix(named_graph("path4"), 4), [4])

    def test_zero_shift_always_absorbable(self):
        rng = random.Random(83)
        for _ in range(10):
            g = random_graph(rng, rng.randrange(1, 5))
            m = adjacency_matrix(g, 6)
            u = [v for v in range(g.n) if rng.random() < 0.5]
            assert not toggling_numbers(m, u, 0).empty


class TestCosetStructure:
    @pytest.mark.parametrize("ell", [2, 3, 4, 6])
    def test_nonempty_sets_are_cosets_of_t0(self, ell):
        rng = random.Random(90 + ell)
        for _ in range(10):
            n = rng.randrange(1, 5)
            g = random_graph(rng, n)
            m = adjacency_matrix(g, ell)
            u = [v for v in range(n) if rng.random() < 0.6]
            t0 = toggling_numbers(m, u, 0)
            assert t0.base == 0, "zero-shift set must be the subgroup itself"
            for r in range(ell):
                tr = toggling_numbers(m, u, r)
                if not tr.empty:
                    assert tr.generator == t0.generator

    @pytest.mark.parametrize("ell", [2, 4, 6, 8, 9, 12])
    def test_full_vertex_generator_is_shift_free(self, ell):
        # pendantremove_conditions reads g0 off the coset at shift r.
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [p for j, p in enumerate(pairs) if bits >> j & 1]
                m = adjacency_matrix(Graph.from_edges(n, edges), ell)
                g0 = toggling_numbers(m, range(n), 0).generator
                for r in range(1, ell):
                    tr = toggling_numbers(m, range(n), r)
                    assert tr.empty or tr.generator == g0, f"{edges} mod {ell}"

    def test_subgroup_closed_under_negation(self):
        rng = random.Random(97)
        for ell in (4, 6, 9):
            for _ in range(8):
                g = random_graph(rng, 4)
                t0 = toggling_numbers(adjacency_matrix(g, ell), range(4), 0)
                members = set(t0.members())
                assert {(-t) % ell for t in members} == members


class TestComposeComponents:
    def test_singleton_absorbs_zero(self):
        a = ToggleCoset.singleton(6, 4)
        z = ToggleCoset.singleton(6, 0)
        assert compose_components([a, z]) == a

    def test_pendant_components_add(self):
        ell = 12
        p4 = toggling_numbers(adjacency_matrix(named_graph("path4"), ell), range(4), 1)
        p2 = toggling_numbers(adjacency_matrix(named_graph("path2"), ell), range(2), 1)
        assert p4.members() == ((-2) % ell,)
        assert p2.members() == ((-2) % ell,)
        combined = compose_components([p4, p2])
        direct = toggling_numbers(
            adjacency_matrix(
                disjoint_union(named_graph("path4"), named_graph("path2")), ell
            ),
            range(6),
            1,
        )
        assert combined == direct
        assert combined.members() == ((-4) % ell,)

    def test_empty_component_poisons(self):
        a = ToggleCoset.singleton(4, 1)
        assert compose_components([a, ToggleCoset.empty_set(4)]).empty

    def test_matches_split_computation(self):
        rng = random.Random(111)
        for ell in (2, 4, 6):
            for _ in range(8):
                g1 = random_graph(rng, rng.randrange(1, 4))
                g2 = random_graph(rng, rng.randrange(1, 4))
                g = disjoint_union(g1, g2)
                r = rng.randrange(ell)
                left = toggling_numbers(adjacency_matrix(g1, ell), range(g1.n), r)
                right = toggling_numbers(adjacency_matrix(g2, ell), range(g2.n), r)
                whole = toggling_numbers(adjacency_matrix(g, ell), range(g.n), r)
                assert compose_components([left, right]) == whole

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            compose_components(
                [ToggleCoset.singleton(4, 1), ToggleCoset.singleton(6, 1)]
            )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compose_components([])


class TestNoUTransfer:
    def test_path4_example(self):
        result = noU_transfer(named_graph("path4"), 0, 1, 4)
        assert result.agree
        assert result.whole.members() == ((-2) % 4,)

    def test_single_edge_trivial(self):
        result = noU_transfer(named_graph("path2"), 0, 0, 4)
        assert result.agree
        assert result.whole.members() == (0,)

    def test_not_pendant_rejected(self):
        with pytest.raises(ValueError):
            noU_transfer(named_graph("cycle4"), 0, 1, 4)

    @pytest.mark.parametrize("ell", [2, 4])
    def test_random_pendant_vertices(self, ell):
        rng = random.Random(130 + ell)
        checked = 0
        while checked < 50:
            g = random_graph(rng, rng.randrange(2, 7), p=0.4)
            leaves = [v for v in range(g.n) if g.degree(v) == 1]
            if not leaves:
                continue
            p = rng.choice(leaves)
            s = rng.randrange(ell)
            result = noU_transfer(g, p, s, ell)
            assert result.agree, f"{g!r} p={p} s={s} ell={ell}"
            checked += 1
