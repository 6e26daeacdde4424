"""Tests for the extremal search: predictions, enumeration, dedup."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import types

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_scan
import lightsout
import lightsout.search as search_mod
from lightsout.game import is_AW
from lightsout.graphs import (
    Graph,
    complement,
    complete_graph,
    corona_pendant,
    cycle_graph,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    is_pendant_graph,
    matching_graph,
    named_graph,
    neighborhood_matrix,
    path_graph,
    star_graph,
)
from lightsout.modular import AuditError, ZModMatrix, det_int, is_invertible, normal_form
from lightsout.search import (
    LOWER_BOUND,
    PROVEN,
    ConjecturedMax,
    canonical_adjacency_bits,
    conjectured_max,
    dedup_isomorphism,
    max_size_search,
    minimal_coprime_k,
    pendant_lower_bound_witness,
    triangle_family_graph,
)
from test_modular import cofactor_det


def brute_max_naw(n: int, ell: int):
    """Maximum N-AW size by testing every labeled graph on n vertices.

    Returns (max_size, canonical representatives), entirely through the
    determinant route on explicitly built graphs.  Independent of the
    edge-count enumeration and pruning in max_size_search.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    best = -1
    winners = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[j] for j in range(len(pairs)) if bits >> j & 1]
        g = Graph.from_edges(n, edges)
        if not is_invertible(neighborhood_matrix(g, ell)):
            continue
        if g.num_edges() > best:
            best = g.num_edges()
            winners = [g]
        elif g.num_edges() == best:
            winners.append(g)
    reps = dedup_isomorphism(winners)
    return best, tuple(sorted(graph6_encode(g) for g in reps))


def canonical_g6(g: Graph) -> str:
    return graph6_encode(dedup_isomorphism([g])[0])


class TestConjecturedMax:
    def test_odd_order(self):
        got = conjectured_max(5, 4)
        assert got.size == 8, f"expected 8, got {got}"
        assert got.rule == "odd_n" and got.status == PROVEN

    @pytest.mark.parametrize("ell", [2, 3, 4, 7, 12])
    def test_odd_order_ignores_modulus(self, ell):
        assert conjectured_max(7, ell).size == 21 - 3

    def test_even_coprime(self):
        got = conjectured_max(6, 4)
        assert (got.size, got.rule, got.k) == (12, "even_n_coprime", 0)
        assert got.status == PROVEN

    def test_even_order_odd_modulus(self):
        got = conjectured_max(6, 5)
        assert (got.size, got.rule) == (11, "even_n_odd_ell")
        assert got.status == PROVEN

    def test_even_even_offset_two(self):
        got = conjectured_max(6, 30)
        assert (got.size, got.rule, got.k) == (10, "even_even", 2)
        assert got.status == PROVEN

    def test_even_even_offset_three(self):
        got = conjectured_max(8, 210)
        assert (got.size, got.k, got.status) == (21, 3, PROVEN)

    def test_even_even_offset_four_is_conjectural(self):
        # gcd(9,210)=3, gcd(7,210)=7, gcd(5,210)=5, gcd(3,210)=3, gcd(1,210)=1
        got = conjectured_max(10, 210)
        assert (got.size, got.k, got.status) == (36, 4, LOWER_BOUND)

    @pytest.mark.parametrize(
        "n, ell, base, edges, det",
        [
            # U8 + 2K2, where U8 is the 8-vertex graph GtOI?C.
            (12, 2310, disjoint_union(graph6_decode("GtOI?C"), matching_graph(4)), 56, -13),
            (14, 30030, disjoint_union(complete_graph(4), matching_graph(10)), 80, -31),
        ],
        ids=["12-2310", "14-30030"],
    )
    def test_offset_four_or_more_is_beaten(self, n, ell, base, edges, det):
        # The complement of base beats the pendant witness's size, and the
        # determinant, the diagonal and is_AW each certify it N-AW.
        got = conjectured_max(n, ell)
        assert got.k >= 4 and got.status == LOWER_BOUND
        g = complement(base)
        assert (g.n, g.num_edges()) == (n, edges) and edges > got.size
        m = neighborhood_matrix(g, ell)
        assert det_int(m.to_rows()) == det and math.gcd(det, ell) == 1
        assert all(math.gcd(d, ell) == 1 for d in normal_form(m).D.diag())
        assert is_AW(m)

    @pytest.mark.parametrize("n,ell", [(1, 2), (0, 3), (-2, 2)])
    def test_small_order_rejected(self, n, ell):
        with pytest.raises(ValueError):
            conjectured_max(n, ell)

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            conjectured_max(4, 1)

    def test_bool_order_rejected(self):
        with pytest.raises(TypeError):
            conjectured_max(True, 2)

    def test_minimal_coprime_k_requires_even_order(self):
        with pytest.raises(ValueError):
            minimal_coprime_k(5, 4)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("ell", [2, 4, 6, 12, 30])
    def test_minimal_coprime_k_is_minimal(self, n, ell):
        k = minimal_coprime_k(n, ell)
        assert math.gcd(n - 2 * k - 1, ell) == 1
        for smaller in range(k):
            assert math.gcd(n - 2 * smaller - 1, ell) != 1


def full_complement_det(n: int, edges) -> int:
    """det(J - B) by Bareiss on the whole n x n matrix."""
    rows = [[1] * n for _ in range(n)]
    for u, v in edges:
        rows[u][v] = rows[v][u] = 0
    return det_int(rows)


def assert_scan_matches(table, n: int, ell: int, e: int, prune: bool) -> None:
    """_scan_edge_count against the brute force's winners from table =
    brute_scan.complement_dets(n, e)."""
    got = np.array(search_mod._scan_edge_count(n, ell, e, prune), dtype=np.int64)
    want = brute_scan.winners(table, n, ell, e, prune)
    assert np.array_equal(got, want), (n, e, ell, prune, len(got), len(want))


class TestBareissKernel:
    """The brute force's batched determinant against independent ones."""

    def test_random_square_matrices(self):
        rng = np.random.default_rng(11)
        for n in range(1, 10):
            mats = rng.integers(0, 2, size=(60, n, n))
            mats[:10, 1:] = mats[:10, :1]  # equal rows: singular
            mats[10:20, 0, 0] = 0  # a row swap at the first step, if any pivot
            got = brute_scan.bareiss_dets(mats)
            want = [det_int(m.tolist()) for m in mats]
            assert got.tolist() == want, n
            if n <= 7:  # a Laplace expansion of order 9 takes about a second
                assert want == [cofactor_det(m.tolist()) for m in mats], n
            if n > 1:
                assert not got[:10].any() and got[10:20].any()

    @pytest.mark.parametrize("n", range(2, 10))
    def test_complement_table(self, n):
        """Sampled rows of complement_dets against the degrees and the
        full determinant of the complement their masks spell."""
        rng = random.Random(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for e in sorted({1, 2, 3, n // 2} & set(range(1, len(pairs) + 1))):
            masks, tops, dets = brute_scan.complement_dets(n, e)
            assert len(masks) == math.comb(len(pairs), e)
            assert len(set(masks.tolist())) == len(masks)
            for i in rng.sample(range(len(masks)), min(40, len(masks))):
                edges = [
                    pair for j, pair in enumerate(pairs)
                    if int(masks[i]) >> (len(pairs) - 1 - j) & 1
                ]
                degrees = [sum(x in pair for pair in edges) for x in range(n)]
                assert len(edges) == e and tops[i] == max(degrees)
                assert dets[i] == full_complement_det(n, edges), edges


class TestFactoredDeterminant:
    """Hand-computed det(J - B), and the scan against the brute force at
    n <= 7."""

    @pytest.mark.parametrize(
        "n, edges, det",
        [
            (2, [], 0),  # J_2
            (3, [(0, 1)], -1),  # an edge and an isolated vertex
            (4, [(0, 1), (2, 3)], -3),  # d = -1, s = 2 each: 1 - 2 - 2
            (4, [(0, 1), (1, 2), (2, 3)], -1),  # P_4 is spanning
            (5, [(0, 1), (0, 2)], 0),  # twin leaves 1 and 2 give equal rows
        ],
    )
    def test_small_cases(self, n, edges, det):
        assert full_complement_det(n, edges) == det
        m = np.ones((1, n, n), dtype=np.int64)
        for u, v in edges:
            m[0, u, v] = m[0, v, u] = 0
        assert brute_scan.bareiss_dets(m).tolist() == [det]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_scan_matches_reference(self, n):
        for e in range(n // 2, n):
            table = brute_scan.complement_dets(n, e)
            for ell in (2, 3, 4, 6, 30, 42, 210):
                for prune in (True, False):
                    assert_scan_matches(table, n, ell, e, prune)


class TestTypeScan:
    """The type scan against the brute force over every labeled complement."""

    @pytest.mark.parametrize(
        "n, e, prunes, moduli",
        [
            (8, 4, (True, False), (2, 6, 30, 42, 210)),
            (8, 5, (True, False), (2, 6, 30, 42, 210)),
            (8, 6, (True, False), (2, 6, 30, 42, 210)),
            (8, 7, (True, False), (2, 6, 30, 42, 210)),
            (9, 4, (True,), (30, 210)),
            (9, 5, (True,), (30, 210)),
        ],
    )
    def test_matches_the_labeled_walk(self, n, e, prunes, moduli):
        # The degree cap needs even n, so at n = 9 prune changes nothing.
        table = brute_scan.complement_dets(n, e)
        for prune in prunes:
            for ell in moduli:
                assert_scan_matches(table, n, ell, e, prune)

    @pytest.mark.parametrize(
        "n, ell, e, tested", [(8, 42, 5, {True: 5, False: 8}), (6, 30, 4, {True: 4, False: 6})]
    )
    def test_degree_cap_sets_the_multisets_tested(self, monkeypatch, n, ell, e, tested):
        """No winner has a degree above t + 1 (Lemma 4.6), so the cap never
        changes the winners; only the number of multisets it leaves to test
        shows a loosened cap (t + 2 tests 8 and 6 here with prune on)."""
        calls = []
        union_det = search_mod._union_det

        def counted(terms, j):
            calls.append(j)
            return union_det(terms, j)

        monkeypatch.setattr(search_mod, "_union_det", counted)
        for prune, want in tested.items():
            calls.clear()
            search_mod._scan_edge_count(n, ell, e, prune)
            assert len(calls) == want, prune

    @pytest.mark.parametrize("n", range(2, 6))
    def test_every_edge_count_of_small_orders(self, n):
        for e in range(1, math.comb(n, 2) + 1):
            table = brute_scan.complement_dets(n, e)
            for ell in (2, 3, 4, 6, 30, 42, 210):
                for prune in (True, False):
                    assert_scan_matches(table, n, ell, e, prune)


def cell_graph(k: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(k))
    g.add_edges_from(edges)
    return g


def cell_invariant(g: nx.Graph):
    """Sorted degrees and triangle counts, equal on isomorphic graphs."""
    return tuple(sorted(d for _, d in g.degree())), tuple(sorted(nx.triangles(g).values()))


class TestTypeTable:
    def test_free_tree_counts(self):
        counts = [len(search_mod._free_trees(k)) for k in range(1, 11)]
        assert counts == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]

    @pytest.mark.parametrize("k", range(1, 10))
    def test_free_trees_are_distinct_trees(self, k):
        trees = [cell_graph(k, edges) for edges in search_mod._free_trees(k)]
        assert all(nx.is_tree(t) for t in trees)
        for a, b in itertools.combinations(trees, 2):
            assert not nx.is_isomorphic(a, b)

    def test_single_vertex_and_edge(self):
        assert search_mod._cell(1, 0) == {(0, 1): [((), 0)]}
        assert search_mod._cell(2, 1) == {(-1, 2): [(((0, 1),), 1)]}

    @pytest.mark.parametrize("k", range(3, 7))
    def test_cells_hold_every_connected_class(self, k):
        """Each cell meets exactly the connected graphs of the atlas with
        k vertices and m edges, and each member has its stated degree."""
        atlas = [
            g for g in nx.graph_atlas_g()
            if g.number_of_nodes() == k and nx.is_connected(g)
        ]
        for m in range(k - 1, math.comb(k, 2) + 1):
            classes = {}  # degree and triangle counts -> one graph per class
            for types in search_mod._cell(k, m).values():
                for edges, degree in types:
                    g = cell_graph(k, edges)
                    assert g.number_of_edges() == m and nx.is_connected(g)
                    assert degree == max(d for _, d in g.degree())
                    bucket = classes.setdefault(cell_invariant(g), [])
                    if not any(nx.is_isomorphic(g, h) for h in bucket):
                        bucket.append(g)
            wanted = [g for g in atlas if g.number_of_edges() == m]
            assert sum(map(len, classes.values())) == len(wanted), m
            for g in wanted:
                bucket = classes.get(cell_invariant(g), [])
                assert any(nx.is_isomorphic(g, h) for h in bucket), m

    def test_terms_survive_relabeling(self):
        rng = random.Random(7)
        for k in range(1, 8):
            for m in range(k - 1, min(math.comb(k, 2), k + 1) + 1):
                for terms, types in search_mod._cell(k, m).items():
                    for edges, _ in types:
                        perm = list(range(k))
                        rng.shuffle(perm)
                        moved = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
                        assert search_mod._component_terms(k, moved) == terms

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_union_det_matches_full_determinant(self, data):
        """(-1)^j (D + S - 2jD) against det(J - B) on the laid-out union."""
        n = data.draw(st.integers(1, 9), label="n")
        terms, edges, base = [], [], 0
        while base < n:
            k = data.draw(st.integers(1, n - base), label="k")
            # Cells grow fast with the added pairs, so k >= 7 stays sparse.
            top = math.comb(k, 2) if k <= 6 else k
            m = data.draw(st.integers(k - 1, top), label="m")
            cell = search_mod._cell(k, m)
            key = data.draw(st.sampled_from(sorted(cell)), label="terms")
            part = data.draw(st.sampled_from(cell[key]), label="type")[0]
            if data.draw(st.booleans(), label="shuffle"):
                order = data.draw(st.permutations(range(k)), label="order")
                part = [tuple(sorted((order[u], order[v]))) for u, v in part]
            terms.append(key)
            edges += [(base + u, base + v) for u, v in part]
            base += k
        j = data.draw(st.integers(0, (9 - n) // 2), label="j")
        edges += [(n + 2 * i, n + 2 * i + 1) for i in range(j)]
        assert search_mod._union_det(terms, j) == full_complement_det(n + 2 * j, edges)


class TestDedup:
    def test_relabelings_collapse(self):
        p4 = path_graph(4)
        relabeled = p4.relabel([2, 0, 3, 1])
        reps = dedup_isomorphism([p4, relabeled])
        assert len(reps) == 1

    def test_equal_graphs_collapse(self):
        c4 = cycle_graph(4)
        m4_bar = complement(matching_graph(4))
        assert dedup_isomorphism([c4, m4_bar]) == dedup_isomorphism([c4])

    def test_nonisomorphic_fixed_graphs_stay_apart(self):
        reps = dedup_isomorphism([named_graph("G2"), named_graph("G3")])
        assert len(reps) == 2, "G2 and G3 differ in triangle count"

    def test_representative_is_isomorphism_invariant(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 7)
            g = Graph.from_edges(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.5
                ],
            )
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_adjacency_bits(g) == canonical_adjacency_bits(
                g.relabel(perm)
            )

    def test_canonical_bits_minimal_over_small_orbit(self):
        # Brute force over all n! permutations is the oracle for _orbit.
        # _orbit reads its masks a byte at a time, so the cases include the
        # empty and the full mask and the pairs of the top, partial byte.
        rng = random.Random(3)
        graphs = [path_graph(4)]
        for n in range(0, 9):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            top = len(pairs) % 8 or 8  # pairs (0, 1), (0, 2), ... lead the mask
            graphs.append(Graph.from_edges(n, pairs[:top]))
            if n < 8:  # each graph on 8 vertices costs 8! relabelings
                graphs += [
                    Graph.from_edges(n, []),
                    Graph.from_edges(n, pairs),
                    Graph.from_edges(n, pairs[top - 1 : top]),
                ]
            for _ in range(1 if n == 8 else 3 if n == 7 else 6):
                density = rng.random()
                graphs.append(
                    Graph.from_edges(
                        n,
                        [
                            (u, v)
                            for u in range(n)
                            for v in range(u + 1, n)
                            if rng.random() < density
                        ],
                    )
                )
        for g in graphs:
            bits = {
                g.relabel(list(p)).adjacency_bits()
                for p in itertools.permutations(range(g.n))
            }
            assert search_mod._orbit(g.n, g.adjacency_bits()) == bits
            assert canonical_adjacency_bits(g) == min(bits)

    def test_orbit_of_one_edge_on_twelve_vertices(self):
        assert search_mod._orbit(12, 1) == {1 << j for j in range(66)}

    def test_import_builds_no_orbit_table(self):
        """The benchmark's setup_s covers the import, so the pair layouts
        and their orbit tables wait for the first search."""
        script = "import lightsout, lightsout.search as s; print(len(s._LAYOUTS))"
        src = os.path.dirname(os.path.dirname(lightsout.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]

    def test_large_order_rejected(self):
        with pytest.raises(ValueError):
            canonical_adjacency_bits(Graph(11, [0] * 11))


class TestClosedSetReps:
    @staticmethod
    def path4_orbit():
        g = path_graph(4)
        return sorted(
            {
                g.relabel(list(p)).adjacency_bits()
                for p in itertools.permutations(range(4))
            }
        )

    def test_single_edges_on_twelve_vertices(self):
        masks = [1 << j for j in range(66)]
        assert search_mod._canonical_reps_of_closed_set(12, masks) == [1]

    def test_missing_relabeling_raises(self):
        masks = self.path4_orbit()
        del masks[-1]
        with pytest.raises(AuditError, match="not closed under relabeling"):
            search_mod._canonical_reps_of_closed_set(4, masks)

    def test_missing_minimum_raises(self):
        masks = self.path4_orbit()
        del masks[0]
        with pytest.raises(AuditError, match="not canonical"):
            search_mod._canonical_reps_of_closed_set(4, masks)


class TestSearchAgainstBruteForce:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ell", [2, 3, 6])
    def test_small_orders_match_exhaustive_scan(self, n, ell):
        want_max, want_reps = brute_max_naw(n, ell)
        report = max_size_search(n, ell)
        assert report.max_size == want_max, f"n={n} ell={ell}"
        assert report.extremal_graphs == want_reps

    @pytest.mark.parametrize("ell", [2, 5, 6])
    def test_order_five_matches_exhaustive_scan(self, ell):
        want_max, want_reps = brute_max_naw(5, ell)
        report = max_size_search(5, ell)
        assert (report.max_size, report.extremal_graphs) == (want_max, want_reps)


class TestSearchClosedForms:
    @pytest.mark.parametrize("n,ell", [(3, 2), (5, 3), (7, 4)])
    def test_odd_order_unique_extremal(self, n, ell):
        report = max_size_search(n, ell)
        assert report.max_size == math.comb(n, 2) - n // 2
        assert report.extremal_graphs == (
            canonical_g6(complement(matching_graph(n))),
        )
        assert report.agree

    def test_even_coprime_unique_extremal(self):
        report = max_size_search(6, 4)
        assert report.max_size == 12
        assert report.extremal_graphs == (
            canonical_g6(complement(matching_graph(6))),
        )

    def test_even_order_odd_modulus_includes_triangle_family(self):
        report = max_size_search(6, 5)
        assert report.max_size == 11
        assert canonical_g6(triangle_family_graph(6)) in report.extremal_graphs

    def test_offset_one_unique_extremal(self):
        report = max_size_search(6, 10)
        pendant = disjoint_union(path_graph(4), path_graph(2))
        assert report.max_size == 11
        assert report.extremal_graphs == (canonical_g6(complement(pendant)),)

    def test_offset_two_unique_extremal(self):
        report = max_size_search(6, 30)
        pendant = corona_pendant(path_graph(3))
        assert report.max_size == 10
        assert report.extremal_graphs == (canonical_g6(complement(pendant)),)

    def test_path_four_is_self_complementary_extremal(self):
        report = max_size_search(4, 6)
        assert report.max_size == 3
        assert report.extremal_graphs == (canonical_g6(path_graph(4)),)

    @pytest.mark.parametrize(
        "n,ell", [(4, 2), (5, 2), (6, 4), (6, 5), (6, 10), (6, 30)]
    )
    def test_size_window_holds(self, n, ell):
        report = max_size_search(n, ell)
        pairs = math.comb(n, 2)
        assert pairs - (n - 1) <= report.max_size <= pairs - n // 2

    @pytest.mark.parametrize("n,ell", [(6, 4), (6, 10), (6, 30)])
    def test_low_degree_extremal_complements_split_into_short_paths(
        self, n, ell
    ):
        # For even n and ell, extremal complements with max degree <= 2
        # must decompose into 2-vertex and 4-vertex path components.
        report = max_size_search(n, ell)
        for g6 in report.extremal_graphs:
            comp = complement(graph6_decode(g6))
            if comp.max_degree() > 2:
                continue
            for vertices in comp.components():
                part = comp.induced(vertices)
                assert part.num_edges() == part.n - 1
                assert part.n in (2, 4)
                assert part.max_degree() <= 2


class TestWitness:
    @pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (6, 2), (8, 3), (12, 4)])
    def test_witness_order_size_pendant(self, n, k):
        w = pendant_lower_bound_witness(n, k)
        assert w.n == n
        assert w.num_edges() == n // 2 + k
        assert is_pendant_graph(w)[0]

    @pytest.mark.parametrize("ell", [2, 4, 6, 10, 30])
    def test_witness_complement_winnability_criterion(self, ell):
        n = 8
        for k in range(3):
            w = pendant_lower_bound_witness(n, k)
            naw = is_invertible(neighborhood_matrix(complement(w), ell))
            assert naw == (math.gcd(n - 2 * k - 1, ell) == 1), f"k={k}"

    def test_witness_without_matching_part(self):
        assert pendant_lower_bound_witness(6, 2) == corona_pendant(
            path_graph(3)
        )

    @pytest.mark.parametrize("n,k", [(5, 1), (4, 2), (6, -1)])
    def test_witness_shape_validated(self, n, k):
        with pytest.raises(ValueError):
            pendant_lower_bound_witness(n, k)


class TestSearchModes:
    def test_bounded_matches_full_when_cap_reaches_winners(self):
        full = max_size_search(6, 10)
        capped = max_size_search(6, 10, bounded_cap=4)
        assert capped.search_method == "bounded(4)"
        assert (capped.max_size, capped.extremal_graphs) == (
            full.max_size,
            full.extremal_graphs,
        )

    def test_bounded_below_first_winner_raises(self):
        with pytest.raises(RuntimeError):
            max_size_search(6, 10, bounded_cap=3)

    def test_prune_audit_identical_findings(self):
        pruned = max_size_search(6, 30, prune=True)
        unpruned = max_size_search(6, 30, prune=False)
        assert pruned.search_method == "pruned"
        assert unpruned.search_method == "full"
        assert (
            pruned.max_size,
            pruned.extremal_graphs,
            pruned.agree,
            pruned.conjectured,
        ) == (
            unpruned.max_size,
            unpruned.extremal_graphs,
            unpruned.agree,
            unpruned.conjectured,
        )

    def test_large_order_needs_cap(self):
        with pytest.raises(ValueError):
            max_size_search(11, 2)

    @pytest.mark.parametrize("bad", [-1, "7"])
    def test_cap_validated(self, bad):
        with pytest.raises((TypeError, ValueError)):
            max_size_search(6, 2, bounded_cap=bad)

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            max_size_search(4, 2, jobs=0)

    @pytest.mark.parametrize(
        "n, ell, error, message",
        [
            (True, 2, TypeError, "n must be an int, got bool"),
            (6.0, 2, TypeError, "n must be an int, got float"),
            (1, 2, ValueError, "n must be at least 2, got 1"),
            (6, 1, ValueError, "modulus"),
        ],
    )
    def test_order_and_modulus_checked_once(self, n, ell, error, message):
        with pytest.raises(error, match=message):
            conjectured_max(n, ell)
        with pytest.raises(error, match=message):
            max_size_search(n, ell, jobs=0)


class TestScanLimit:
    @staticmethod
    def record_scans(monkeypatch, scan):
        seen = []

        def recording(n, ell, e, prune):
            seen.append(e)
            return scan(n, ell, e, prune)

        monkeypatch.setattr(search_mod, "_scan_edge_count", recording)
        return seen

    def test_limit_at_the_largest_scanned_count_passes(self, monkeypatch):
        # (6, 10) scans e = 3 (C(15, 3) = 455) and wins at e = 4 (1,365).
        seen = self.record_scans(monkeypatch, search_mod._scan_edge_count)
        monkeypatch.setattr(search_mod, "MAX_SCAN_CANDIDATES", math.comb(15, 4))
        assert max_size_search(6, 10).max_size == 11
        assert seen == [3, 4]

    def test_limit_below_it_stops_before_that_count(self, monkeypatch):
        seen = self.record_scans(monkeypatch, search_mod._scan_edge_count)
        monkeypatch.setattr(
            search_mod, "MAX_SCAN_CANDIDATES", math.comb(15, 4) - 1
        )
        with pytest.raises(ValueError, match=r"C\(15, 4\) candidates"):
            max_size_search(6, 10)
        assert seen == [3]

    def test_largest_documented_case_is_admitted(self):
        # maxsize (8, 210) --bounded 7 in the acceptance tests and README.
        assert math.comb(28, 7) == 1_184_040 <= search_mod.MAX_SCAN_CANDIDATES

    def test_order_ten_stops_at_the_first_count_over_the_limit(self, monkeypatch):
        seen = self.record_scans(monkeypatch, lambda n, ell, e, prune: [])
        with pytest.raises(ValueError, match="scan limit"):
            max_size_search(10, 210)
        assert seen == [
            e for e in range(5, 10) if math.comb(45, e) <= search_mod.MAX_SCAN_CANDIDATES
        ]
        assert seen and seen[-1] < 9


class TestDeterminism:
    def test_worker_count_does_not_change_report(self):
        lone = max_size_search(6, 5, jobs=1)
        fanned = max_size_search(6, 5, jobs=3)
        assert json.dumps(lone.to_json()) == json.dumps(fanned.to_json())

    def test_timing_left_out_of_default_payload(self):
        report = max_size_search(4, 2)
        assert "elapsed_ms" not in report.to_json()
        assert report.elapsed_ms > 0


class TestAudits:
    def test_audit_error_is_an_assertion_error(self):
        assert issubclass(AuditError, AssertionError)
        assert lightsout.AuditError is AuditError

    def test_missing_coprime_k_raises(self, monkeypatch):
        never_coprime = types.SimpleNamespace(gcd=lambda a, b: 2)
        monkeypatch.setattr(search_mod, "math", never_coprime)
        with pytest.raises(AuditError, match="no k below"):
            minimal_coprime_k(6, 2)

    def test_diagonal_disagreement_raises(self, monkeypatch):
        real = search_mod.normal_form

        def broken(m):
            # A zero diagonal makes every determinant survivor look non-N-AW.
            zero = ZModMatrix(m.rows, m.cols, m.modulus, [0] * (m.rows * m.cols))
            return dataclasses.replace(real(m), D=zero)

        monkeypatch.setattr(search_mod, "normal_form", broken)
        with pytest.raises(AuditError, match="disagree on a winner"):
            max_size_search(6, 5)

    def test_diagonal_disagreement_raises_under_optimize(self):
        script = textwrap.dedent(
            """
            import dataclasses, sys
            import lightsout.search as search_mod
            from lightsout.modular import AuditError, ZModMatrix

            assert False, "asserts must be stripped under -O"
            real = search_mod.normal_form

            def broken(m):
                zero = ZModMatrix(m.rows, m.cols, m.modulus, [0] * (m.rows * m.cols))
                return dataclasses.replace(real(m), D=zero)

            search_mod.normal_form = broken
            try:
                search_mod.max_size_search(6, 5)
            except AuditError as exc:
                print(exc)
                sys.exit(0)
            sys.exit(1)
            """
        )
        src = os.path.dirname(os.path.dirname(lightsout.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "disagree on a winner" in done.stdout


def pendant_complement(g6: str) -> bool:
    return is_pendant_graph(complement(graph6_decode(g6)))[0]


class TestVerifyConjecture:
    """The conjecture's pendant classes, read off max_size_search: every
    extremal complement is a pendant graph, except the triangle family at
    odd modulus and the matching complement at odd order."""

    def test_even_even_all_pendant(self):
        report = max_size_search(6, 30)
        assert report.agree
        assert all(pendant_complement(g6) for g6 in report.extremal_graphs)

    def test_odd_modulus_triangle_family_recognized(self):
        report = max_size_search(6, 5)
        triangle = canonical_g6(triangle_family_graph(6))
        assert report.agree
        assert triangle in report.extremal_graphs
        assert not pendant_complement(triangle)
        others = [g6 for g6 in report.extremal_graphs if g6 != triangle]
        assert others and all(pendant_complement(g6) for g6 in others)

    def test_odd_order_matching_complement_is_not_pendant(self):
        # The near-perfect matching leaves an isolated vertex, so the
        # unique extremal graph at odd order is not a pendant complement.
        report = max_size_search(5, 3)
        assert report.agree
        assert len(report.extremal_graphs) == 1
        assert not pendant_complement(report.extremal_graphs[0])

    def test_json_round_trip(self):
        back = json.loads(json.dumps(max_size_search(4, 6).to_json()))
        assert back["max_size"] == 3
        assert back["conjectured"]["rule"] == "even_even"
        assert back["extremal_graphs"] == ["CL"]


class TestTriangleFamilyGraph:
    def test_order_six_instance(self):
        g = triangle_family_graph(6)
        base = disjoint_union(
            disjoint_union(cycle_graph(3), matching_graph(2)), Graph(1, [0])
        )
        assert g == complement(base)

    def test_complement_is_not_pendant(self):
        ok, _ = is_pendant_graph(complement(triangle_family_graph(8)))
        assert not ok

    @pytest.mark.parametrize("n", [3, 5, 2])
    def test_shape_validated(self, n):
        with pytest.raises(ValueError):
            triangle_family_graph(n)
