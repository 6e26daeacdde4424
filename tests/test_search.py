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

import pytest

import lightsout
import lightsout.search as search_mod
from lightsout.graphs import (
    Graph,
    complement,
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
from lightsout.modular import AuditError, ZModMatrix, is_invertible
from lightsout.search import (
    CONJECTURED,
    PROVEN,
    ConjecturedMax,
    canonical_adjacency_bits,
    conjectured_max,
    dedup_isomorphism,
    max_size_search,
    minimal_coprime_k,
    next_combination,
    pendant_lower_bound_witness,
    triangle_family_graph,
    unrank_combination,
    verify_conjecture,
)


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
        assert (got.size, got.k, got.status) == (36, 4, CONJECTURED)

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


class TestCombinationOrder:
    @pytest.mark.parametrize("n_items,k", [(6, 3), (5, 0), (4, 4), (7, 2)])
    def test_unrank_matches_lexicographic_enumeration(self, n_items, k):
        combos = list(itertools.combinations(range(n_items), k))
        for rank, combo in enumerate(combos):
            got = unrank_combination(rank, n_items, k)
            assert got == list(combo), f"rank {rank}: {got} != {combo}"

    @pytest.mark.parametrize("n_items,k", [(6, 3), (5, 1), (4, 4), (6, 0)])
    def test_successor_walks_the_whole_sequence(self, n_items, k):
        combos = list(itertools.combinations(range(n_items), k))
        cur = unrank_combination(0, n_items, k)
        seen = [tuple(cur)]
        while next_combination(cur, n_items):
            seen.append(tuple(cur))
        assert seen == combos

    def test_unrank_range_checked(self):
        with pytest.raises(ValueError):
            unrank_combination(20, 6, 3)
        with pytest.raises(ValueError):
            unrank_combination(-1, 6, 3)

    def test_last_combination_has_no_successor(self):
        cur = [3, 4, 5]
        assert not next_combination(cur, 6)
        assert cur == [3, 4, 5], "failed advance must not mutate"


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
        rng = random.Random(3)
        graphs = [path_graph(4)]
        for n in range(1, 8):
            for _ in range(3 if n == 7 else 6):
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


class TestDeterminism:
    def test_worker_count_does_not_change_report(self):
        lone = max_size_search(6, 5, jobs=1)
        fanned = max_size_search(6, 5, jobs=3)
        assert json.dumps(lone.to_json()) == json.dumps(fanned.to_json())

    def test_chunk_size_does_not_change_report(self, monkeypatch):
        import lightsout.search as search_mod

        base = max_size_search(6, 5)
        monkeypatch.setattr(search_mod, "CHUNK_RANKS", 97)
        sliced = max_size_search(6, 5, jobs=2)
        assert json.dumps(base.to_json()) == json.dumps(sliced.to_json())

    @pytest.mark.parametrize(
        "cpus, expected", [(4, [4]), (16, [5]), (1, []), (None, [])]
    )
    def test_pool_capped_by_cpus_and_chunks(self, monkeypatch, cpus, expected):
        requested = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor; runs chunks in-process."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        serial = search_mod._scan_edge_count(6, 5, 3, True, 1)
        monkeypatch.setattr(search_mod, "CHUNK_RANKS", 97)  # C(15, 3) = 455: 5 chunks
        monkeypatch.setattr(search_mod, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(search_mod.os, "cpu_count", lambda: cpus)
        assert search_mod._scan_edge_count(6, 5, 3, True, 1000) == serial
        assert requested == expected

    def test_timing_left_out_of_default_payload(self):
        report = max_size_search(4, 2)
        assert "elapsed_ms" not in report.to_json()
        assert "elapsed_ms" in report.to_json(include_timing=True)
        assert report.elapsed_ms > 0


class TestAudits:
    def test_audit_error_is_an_assertion_error(self):
        assert issubclass(AuditError, AssertionError)
        assert lightsout.AuditError is AuditError

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


class TestVerifyConjecture:
    def test_even_even_all_pendant(self):
        check = verify_conjecture(6, 30)
        assert check.agree
        assert check.all_pendant_complements
        assert check.unexplained == ()
        assert check.triangle_family == ()

    def test_odd_modulus_triangle_family_recognized(self):
        check = verify_conjecture(6, 5)
        assert check.agree
        assert not check.all_pendant_complements
        assert check.triangle_family == (canonical_g6(triangle_family_graph(6)),)
        assert check.unexplained == ()

    def test_odd_order_matching_complement_is_not_pendant(self):
        # The near-perfect matching leaves an isolated vertex, so the
        # unique extremal graph at odd order is not a pendant complement.
        check = verify_conjecture(5, 3)
        assert check.agree
        assert not check.all_pendant_complements
        assert len(check.unexplained) == 1

    def test_supplied_report_reused(self):
        report = max_size_search(6, 10)
        check = verify_conjecture(6, 10, report=report)
        assert check.report is report
        assert check.max_size == 11

    def test_supplied_report_must_match_parameters(self):
        report = max_size_search(6, 10)
        with pytest.raises(ValueError):
            verify_conjecture(6, 4, report=report)

    def test_json_round_trip(self):
        check = verify_conjecture(4, 6)
        blob = json.dumps(check.to_json())
        back = json.loads(blob)
        assert back["max_size"] == 3
        assert back["conjectured"]["rule"] == "even_even"
        assert back["report"]["extremal_graphs"] == ["CL"]


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
