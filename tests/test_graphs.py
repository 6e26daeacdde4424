"""Tests for the graph kernel: constructors, predicates, graph6."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

import lightsout.graphs as graphs_mod
from lightsout.graphs import (
    GRAPH6_MAX_N,
    Graph,
    adjacency_matrix,
    complement,
    corona_pendant,
    disjoint_union,
    find_M_twins,
    graph6_decode,
    graph6_encode,
    is_pendant_graph,
    named_graph,
    neighborhood_matrix,
)

# Order and size of every fixed named graph, straight from the figures.
FIXED_CENSUS = {
    "G1": (4, 4),
    "G2": (6, 6),
    "G3": (6, 6),
    "G4": (6, 6),
    "G5": (8, 7),
    "G6": (6, 6),
    "G7": (6, 6),
    "G8": (8, 7),
    "bowtie": (5, 6),
    "house": (5, 6),
    "K23": (5, 6),
    "Gd9": (6, 6),
    "Gd9prime": (4, 5),
    "figure_d9_2": (8, 7),
}


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


class TestGraphBasics:
    def test_from_edges_validation(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges() == 1

    def test_immutable(self):
        g = named_graph("path3")
        with pytest.raises(AttributeError):
            g.n = 5

    def test_edges_and_degrees(self):
        g = named_graph("path4")
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.degrees() == [1, 2, 2, 1]
        assert g.degree_sequence() == (2, 2, 1, 1)
        assert g.max_degree() == 2

    def test_components(self):
        g = disjoint_union(named_graph("path3"), named_graph("path2"))
        assert g.components() == [[0, 1, 2], [3, 4]]

    def test_induced_relabels_in_sorted_order(self):
        g = named_graph("cycle5")
        sub = g.induced([0, 1, 3, 4])
        assert sub.edges() == [(0, 1), (0, 3), (2, 3)]

    def test_relabel_is_isomorphic(self):
        g = named_graph("G1")
        h = g.relabel([2, 0, 3, 1])
        assert h.degree_sequence() == g.degree_sequence()
        assert h.num_edges() == g.num_edges()

    def test_degree_sequence_invariants(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 9))
            seq = g.degree_sequence()
            assert len(seq) == g.n
            assert sum(seq) == 2 * g.num_edges()
            assert all(a >= b for a, b in zip(seq, seq[1:]))


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(named_graph("complete4")).num_edges() == 0

    def test_two_disjoint_edges_to_cycle(self):
        g = complement(named_graph("matching4"))
        assert g.n == 4
        assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert g.degree_sequence() == (2, 2, 2, 2)

    def test_involution_and_edge_count(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(0, 9))
            gb = complement(g)
            assert complement(gb) == g
            assert g.num_edges() + gb.num_edges() == g.n * (g.n - 1) // 2


class TestDisjointUnion:
    def test_matching_from_two_edges(self):
        g = disjoint_union(named_graph("path2"), named_graph("path2"))
        assert g == named_graph("matching4")

    def test_identity_with_empty(self):
        g = named_graph("house")
        assert disjoint_union(g, Graph(0, [])) == g

    def test_edge_counts_add(self):
        rng = random.Random(13)
        for _ in range(15):
            g = random_graph(rng, rng.randrange(0, 6))
            h = random_graph(rng, rng.randrange(0, 6))
            assert disjoint_union(g, h).num_edges() == g.num_edges() + h.num_edges()


class TestCoronaPendant:
    def test_single_vertex(self):
        assert corona_pendant(Graph(1, [0])) == named_graph("path2")

    def test_edge_gives_path4(self):
        g = corona_pendant(named_graph("path2"))
        # Vertices 0,1 are the original edge; 2,3 their pendants: a labeled
        # copy of the 4-path 2-0-1-3.
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3)]
        assert g.degree_sequence() == (2, 2, 1, 1)

    def test_triangle(self):
        g = corona_pendant(named_graph("cycle3"))
        assert (g.n, g.num_edges()) == (6, 6)
        assert sorted(g.degrees()) == [1, 1, 1, 3, 3, 3]

    def test_always_pendant_graph(self):
        rng = random.Random(17)
        for _ in range(20):
            h = random_graph(rng, rng.randrange(0, 6))
            ok, witness = is_pendant_graph(corona_pendant(h))
            assert ok, f"corona of {h!r} not recognized"
            assert witness is not None and len(witness) == h.n


class TestNamedGraphs:
    @pytest.mark.parametrize("name,expected", sorted(FIXED_CENSUS.items()))
    def test_fixed_census(self, name, expected):
        g = named_graph(name)
        assert (g.n, g.num_edges()) == expected

    def test_g1_exact_edges(self):
        assert sorted(named_graph("G1").edges()) == [(0, 1), (0, 3), (1, 2), (1, 3)]

    def test_bowtie_degree_sequence(self):
        assert named_graph("bowtie").degree_sequence() == (4, 2, 2, 2, 2)

    def test_house_degree_sequence(self):
        assert named_graph("house").degree_sequence() == (3, 3, 2, 2, 2)

    def test_k23_parts(self):
        g = named_graph("K23")
        assert g.degrees() == [3, 3, 2, 2, 2]
        assert not g.has_edge(0, 1)

    def test_star(self):
        g = named_graph("star13")
        assert g.degree_sequence() == (3, 1, 1, 1)
        assert named_graph("star(1,3)") == g

    def test_parameterized_forms(self):
        assert named_graph("path(4)") == named_graph("path4")
        assert named_graph("cycle5").degree_sequence() == (2, 2, 2, 2, 2)
        assert named_graph("matching6").num_edges() == 3
        assert named_graph("matching5").degrees() == [1, 1, 1, 1, 0]
        assert named_graph("complete1").n == 1

    def test_bad_names(self):
        for bad in ("pathzero", "nope", "path0", "cycle2", "matching0"):
            with pytest.raises(ValueError):
                named_graph(bad)

    @pytest.mark.parametrize(
        "family, builder",
        [
            ("path", "path_graph"),
            ("cycle", "cycle_graph"),
            ("matching", "matching_graph"),
            ("complete", "complete_graph"),
        ],
    )
    def test_family_order_bounded_before_building(self, monkeypatch, family, builder):
        assert named_graph(f"{family}{GRAPH6_MAX_N}").n == GRAPH6_MAX_N

        def refuse(k):
            raise AssertionError(f"built a {family} on {k} vertices")

        monkeypatch.setattr(graphs_mod, builder, refuse)
        for order in (GRAPH6_MAX_N + 1, 3000, 100000):
            for name in (f"{family}{order}", f"{family}({order})"):
                with pytest.raises(ValueError, match=f"limited to {GRAPH6_MAX_N}"):
                    named_graph(name)


class TestMatrices:
    def test_neighborhood_single_vertex(self):
        assert neighborhood_matrix(Graph(1, [0]), 5).to_rows() == [[1]]

    def test_neighborhood_path3(self):
        m = neighborhood_matrix(named_graph("path3"), 7)
        assert m.to_rows() == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_neighborhood_complete_all_ones(self, n):
        m = neighborhood_matrix(named_graph(f"complete{n}"), 4)
        assert all(e == 1 for e in m.entries)

    def test_adjacency_examples(self):
        assert adjacency_matrix(named_graph("path2"), 3).to_rows() == [[0, 1], [1, 0]]
        assert adjacency_matrix(named_graph("cycle3"), 5).to_rows() == [
            [0, 1, 1],
            [1, 0, 1],
            [1, 1, 0],
        ]
        empty = Graph(3, [0, 0, 0])
        assert all(e == 0 for e in adjacency_matrix(empty, 2).entries)

    def test_neighborhood_is_adjacency_plus_identity(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_graph(rng, 6)
            n_mat = neighborhood_matrix(g, 6)
            a_mat = adjacency_matrix(g, 6)
            for i in range(6):
                for j in range(6):
                    expected = a_mat.entry(i, j) + (i == j)
                    assert n_mat.entry(i, j) == expected


class TestTwins:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complete_all_pairs(self, n):
        m = neighborhood_matrix(named_graph(f"complete{n}"), 5)
        assert find_M_twins(m) == list(itertools.combinations(range(n), 2))

    def test_matching_complement_has_none(self):
        m = neighborhood_matrix(complement(named_graph("matching6")), 5)
        assert find_M_twins(m) == []

    def test_k23_adjacency_twins(self):
        pairs = find_M_twins(adjacency_matrix(named_graph("K23"), 4))
        assert (0, 1) in pairs

    def test_closed_and_open_neighborhood_twins(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_graph(rng, 6)
            n_twins = find_M_twins(neighborhood_matrix(g, 7))
            a_twins = find_M_twins(adjacency_matrix(g, 7))
            for u in range(6):
                for v in range(u + 1, 6):
                    closed_u = g.adj[u] | (1 << u)
                    closed_v = g.adj[v] | (1 << v)
                    if g.has_edge(u, v) and closed_u == closed_v:
                        assert (u, v) in n_twins
                    if not g.has_edge(u, v) and g.adj[u] == g.adj[v]:
                        assert (u, v) in a_twins


class TestPendantRecognition:
    def test_path4_with_witness(self):
        ok, witness = is_pendant_graph(named_graph("path4"))
        assert ok and witness == (0, 3)

    def test_path3_rejected(self):
        assert is_pendant_graph(named_graph("path3")) == (False, None)

    def test_corona_triangle_accepted(self):
        ok, _ = is_pendant_graph(corona_pendant(named_graph("cycle3")))
        assert ok

    def test_cycle6_rejected(self):
        assert is_pendant_graph(named_graph("cycle6")) == (False, None)

    def test_two_vertex_component_uses_lower_index(self):
        ok, witness = is_pendant_graph(named_graph("matching6"))
        assert ok and witness == (0, 2, 4)

    def test_isolated_vertex_rejected(self):
        assert is_pendant_graph(named_graph("matching5"))[0] is False

    def test_empty_graph_accepted(self):
        ok, witness = is_pendant_graph(Graph(0, []))
        assert ok and witness == ()

    def test_witness_really_is_pendant_partition(self):
        rng = random.Random(31)
        found = 0
        for _ in range(300):
            g = random_graph(rng, rng.randrange(2, 9), p=0.25)
            ok, witness = is_pendant_graph(g)
            if not ok:
                continue
            found += 1
            pend = set(witness)
            assert len(pend) * 2 == g.n
            for p in pend:
                assert g.degree(p) == 1
                assert g.neighbors(p)[0] not in pend
            for q in range(g.n):
                if q not in pend:
                    assert sum(1 for u in g.neighbors(q) if u in pend) == 1
        assert found > 0, "sweep never hit a pendant graph; weak test"


class TestGraph6:
    def test_single_vertex(self):
        assert graph6_encode(Graph(1, [0])) == "@"
        assert graph6_decode("@") == Graph(1, [0])

    def test_single_edge(self):
        assert graph6_encode(named_graph("path2")) == "A_"
        assert graph6_decode("A_") == named_graph("path2")

    def test_round_trip_random(self):
        rng = random.Random(37)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(0, 11))
            assert graph6_decode(graph6_encode(g)) == g

    def test_agrees_with_networkx(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(1, 11))
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert graph6_encode(g) == expected
            back = nx.from_graph6_bytes(graph6_encode(g).encode())
            assert set(back.edges()) == {tuple(e) for e in g.edges()}

    @pytest.mark.parametrize("bad", ["", "A", "A_extra", "\x1f@", "~~~"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            graph6_decode(bad)

    def test_nonzero_padding_rejected(self):
        # n = 2 leaves five padding bits; set one of them.
        bad = chr(2 + 63) + chr(0b100001 + 63)
        with pytest.raises(ValueError):
            graph6_decode(bad)
