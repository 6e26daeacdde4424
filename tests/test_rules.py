"""Tests for reduction rules; every rule self-audits against direct
computation, so sweeps here double as theorem checks at desk scale."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap

import pytest

import lightsout
import lightsout.rules as rules_mod
from lightsout.game import is_AW
from lightsout.graphs import (
    Graph,
    adjacency_matrix,
    complement,
    corona_pendant,
    cycle_graph,
    disjoint_union,
    named_graph,
    neighborhood_matrix,
    path_graph,
)
from lightsout.modular import AuditError
from lightsout.rules import (
    PathViolation,
    ReductionOutcome,
    RuleDisagreement,
    dominating_reduction,
    dominating_vertices,
    extdom_filter,
    extswitch_valid,
    notswin_witness,
    p4_replacement_equiv,
    path_restriction_violations,
    pendant_graph_naw,
    pendantremove_conditions,
    pendantremove_dompen,
    subsetjoinaw_check,
)
from lightsout.toggling import ToggleCoset


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def all_graphs(n: int):
    pair_list = list(itertools.combinations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(pair_list)):
        yield Graph.from_edges(n, [e for e, t in zip(pair_list, picks) if t])


class TestDominatingReduction:
    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_matching_always(self, ell):
        out = dominating_reduction(named_graph("matching4"), ell)
        assert out.predicted and out.agree

    def test_triangle_even_modulus(self):
        out = dominating_reduction(named_graph("cycle3"), 6)
        assert not out.predicted and out.agree

    def test_single_vertex(self):
        out = dominating_reduction(Graph(1, [0]), 2)
        assert not out.predicted and out.agree

    @pytest.mark.parametrize("ell", [2, 3, 4, 6])
    def test_sweep_small(self, ell):
        for n in (1, 2, 3):
            for g in all_graphs(n):
                assert dominating_reduction(g, ell).agree

    def test_sweep_random(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 6))
            ell = rng.choice([2, 3, 4, 5, 6, 9, 12])
            assert dominating_reduction(g, ell).agree


class TestP4Replacement:
    def test_empty_subset_trivial(self):
        g = named_graph("path2")
        left, right = p4_replacement_equiv(g, (), 2)
        assert left == right

    def test_contract_example(self):
        left, right = p4_replacement_equiv(named_graph("path2"), (0, 1), 2)
        assert left == right

    def test_property_sweep(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randrange(1, 5)
            g = random_graph(rng, n)
            u = [v for v in range(n) if rng.random() < 0.5]
            ell = rng.choice([2, 3, 4])
            left, right = p4_replacement_equiv(g, u, ell)
            assert left == right


class TestPathRestrictions:
    def test_order3_component_flagged(self):
        gbar = disjoint_union(path_graph(3), path_graph(2))
        rules = [v.rule for v in path_restriction_violations(gbar)]
        assert rules == [1]

    def test_two_singletons_flagged(self):
        gbar = disjoint_union(
            disjoint_union(Graph(1, [0]), Graph(1, [0])), path_graph(2)
        )
        rules = [v.rule for v in path_restriction_violations(gbar)]
        assert rules == [2]

    def test_clean_complement(self):
        gbar = disjoint_union(path_graph(4), path_graph(2))
        assert path_restriction_violations(gbar) == []

    def test_long_path_extremality_flag(self):
        out = path_restriction_violations(path_graph(6))
        assert [v.rule for v in out] == [3]

    def test_order5_counts_toward_rule2(self):
        gbar = disjoint_union(path_graph(5), Graph(1, [0]))
        rules = sorted(v.rule for v in path_restriction_violations(gbar))
        assert rules == [2, 3]

    def test_non_path_components_ignored(self):
        gbar = disjoint_union(cycle_graph(3), cycle_graph(5))
        assert path_restriction_violations(gbar) == []

    @pytest.mark.parametrize("ell", [2, 3, 4, 6])
    def test_violations_certify_not_naw(self, ell):
        """Rules 1 and 2 must imply the complement fails directly."""
        rng = random.Random(43)
        hits = 0
        for _ in range(200):
            parts = [
                path_graph(rng.randrange(1, 6))
                for _ in range(rng.randrange(1, 4))
            ]
            gbar = parts[0]
            for part in parts[1:]:
                gbar = disjoint_union(gbar, part)
            hard = [v for v in path_restriction_violations(gbar) if v.rule in (1, 2)]
            if hard:
                hits += 1
                assert not is_AW(neighborhood_matrix(complement(gbar), ell))
        assert hits > 0


class TestPendantGraphNaw:
    @pytest.mark.parametrize("ell", range(2, 9))
    def test_matching_criterion(self, ell):
        for half in (1, 2, 3):
            g = named_graph(f"matching{2 * half}")
            out = pendant_graph_naw(g, ell)
            assert out.agree
            assert out.predicted == (math.gcd(2 * half - 1, ell) == 1)

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7, 8])
    def test_random_pendant_graphs(self, ell):
        rng = random.Random(ell * 3)
        for _ in range(10):
            g = corona_pendant(random_graph(rng, rng.randrange(1, 6)))
            assert pendant_graph_naw(g, ell).agree

    def test_forest_component_count(self):
        for c, ell in ((1, 2), (2, 3), (3, 4), (2, 6)):
            forest = path_graph(2)
            for _ in range(c - 1):
                forest = disjoint_union(forest, path_graph(2))
            g = corona_pendant(forest)
            out = pendant_graph_naw(g, ell)
            # Pendant forest with c components: criterion gcd(2c - 1, ell).
            assert out.predicted == (math.gcd(2 * c - 1, ell) == 1)

    def test_non_pendant_rejected(self):
        with pytest.raises(ValueError):
            pendant_graph_naw(named_graph("cycle4"), 2)


class TestSubsetjoinaw:
    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_path4(self, ell):
        out = subsetjoinaw_check(named_graph("path4"), ell)
        assert out.agree
        assert out.context["t"] == (-2) % ell
        assert out.predicted == (math.gcd(-1, ell) == 1)

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7, 9, 12])
    def test_appendix_union_edge(self, ell):
        g = disjoint_union(named_graph("G1"), path_graph(2))
        out = subsetjoinaw_check(g, ell)
        assert out.agree
        assert out.context["t"] == (-4) % ell
        assert out.predicted == (math.gcd(-3, ell) == 1)

    @pytest.mark.parametrize("ell", [2, 4, 6, 8])
    def test_consistent_with_pendant_closed_form(self, ell):
        rng = random.Random(ell)
        for _ in range(8):
            g = corona_pendant(random_graph(rng, rng.randrange(1, 5)))
            out = subsetjoinaw_check(g, ell)
            n, m = g.n, g.num_edges()
            assert out.predicted == (math.gcd(2 * (m - n) + 1, ell) == 1)

    def test_requires_aw(self):
        with pytest.raises(ValueError):
            subsetjoinaw_check(named_graph("path3"), 2)

    def test_requires_pendant(self):
        with pytest.raises(ValueError):
            subsetjoinaw_check(named_graph("cycle5"), 5)


class TestPendantRemoveDompen:
    @pytest.mark.parametrize("ell", [2, 3, 4, 6])
    def test_path_chain(self, ell):
        assert pendantremove_dompen(named_graph("path2"), 0, ell).predicted
        assert pendantremove_dompen(named_graph("path4"), 0, ell).predicted
        assert not pendantremove_dompen(named_graph("path3"), 0, ell).predicted

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_sweep_all_pendant_graphs_n5(self, ell):
        for g in all_graphs(5):
            for p in range(5):
                if g.degree(p) == 1:
                    assert pendantremove_dompen(g, p, ell).agree
                    break

    def test_not_pendant_rejected(self):
        with pytest.raises(ValueError):
            pendantremove_dompen(named_graph("cycle3"), 0, 2)


class TestPendantRemoveConditions:
    @pytest.mark.parametrize("ell", [2, 4])
    def test_exhaustive_sweep_n_le_4(self, ell):
        for n in (2, 3, 4):
            for g in all_graphs(n):
                leaves = [v for v in range(n) if g.degree(v) == 1]
                if not leaves:
                    continue
                res = pendantremove_conditions(g, leaves[0], ell)
                assert res.exhaustive
                assert res.agree, f"{g!r} ell={ell}"

    def test_aw_graph_reduces_to_gcd_criterion(self):
        for ell in (2, 3, 4, 5, 6):
            g = named_graph("path4")
            res = pendantremove_conditions(g, 0, ell)
            assert res.shifts_cover_all_labelings
            assert res.r == 1 and res.t == (-2) % ell
            assert res.predicted == (math.gcd(ell - 1, ell) == 1)

    def test_two_cycle_components_fail_condition_a(self):
        g = disjoint_union(
            disjoint_union(cycle_graph(3), cycle_graph(5)), path_graph(2)
        )
        res = pendantremove_conditions(g, g.n - 2, 2)
        assert not res.shifts_cover_all_labelings
        assert not res.direct

    def test_gate_requires_sample(self):
        g = corona_pendant(path_graph(4))
        with pytest.raises(ValueError):
            pendantremove_conditions(g, 4, 7, max_exhaustive=10)

    def test_sampled_mode_flags_incomplete(self):
        g = corona_pendant(path_graph(4))
        res = pendantremove_conditions(
            g, 4, 7, max_exhaustive=10, sample=25, seed=1
        )
        assert not res.exhaustive
        assert res.agree

    def test_empty_toggling_set_raises(self, monkeypatch):
        def empty(m, u_set, r, nf=None):
            return ToggleCoset.empty_set(m.modulus)

        monkeypatch.setattr(rules_mod, "toggling_numbers", empty)
        with pytest.raises(AuditError, match="toggling set"):
            pendantremove_conditions(named_graph("path4"), 0, 5)


class TestExtdomFilter:
    def test_p3_plus_isolated_excluded(self):
        gbar = disjoint_union(path_graph(3), Graph(1, [0]))
        g = complement(gbar)
        assert dominating_vertices(g)
        assert extdom_filter(g)

    def test_p2_plus_isolated_kept(self):
        gbar = disjoint_union(path_graph(2), Graph(1, [0]))
        g = complement(gbar)
        assert not extdom_filter(g)

    def test_requires_dominating_vertex(self):
        with pytest.raises(ValueError):
            extdom_filter(named_graph("matching4"))

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_excluded_graphs_are_beaten(self, ell):
        """Anything excluded is never the densest always-winnable graph."""
        for n in (4, 5):
            best = -1
            winners = []
            for g in all_graphs(n):
                if is_AW(neighborhood_matrix(g, ell)):
                    m = g.num_edges()
                    if m > best:
                        best, winners = m, [g]
                    elif m == best:
                        winners.append(g)
            for g in winners:
                if dominating_vertices(g):
                    assert not extdom_filter(g), f"{g!r} ell={ell}"


class TestExtswitch:
    @pytest.mark.parametrize("ell", [2, 3, 4, 6, 30])
    def test_g1_to_path4(self, ell):
        g = disjoint_union(named_graph("G1"), path_graph(2))
        assert extswitch_valid(g, [0, 1, 2, 3], path_graph(4), ell)

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_g4_to_path4_plus_edge(self, ell):
        g = disjoint_union(named_graph("G4"), path_graph(2))
        replacement = disjoint_union(path_graph(4), path_graph(2))
        assert extswitch_valid(g, list(range(6)), replacement, ell)

    def test_identical_replacement_rejected(self):
        g = disjoint_union(named_graph("G1"), path_graph(2))
        assert not extswitch_valid(g, [0, 1, 2, 3], named_graph("G1"), 4)

    def test_wrong_component_rejected(self):
        g = disjoint_union(named_graph("G1"), path_graph(2))
        with pytest.raises(ValueError):
            extswitch_valid(g, [0, 1], path_graph(2), 4)

    def test_requires_host_pendant(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(4))
        with pytest.raises(ValueError):
            extswitch_valid(g, [0, 1, 2, 3], cycle_graph(4), 4)

    def test_unchanged_complement_size_raises(self, monkeypatch):
        # A switch that hands back the host leaves the complement size
        # unchanged while both direct verdicts still agree.
        g = disjoint_union(named_graph("G1"), path_graph(2))
        monkeypatch.setattr(rules_mod, "disjoint_union", lambda rest, rep: g)
        with pytest.raises(AuditError, match="not strictly larger"):
            extswitch_valid(g, [0, 1, 2, 3], path_graph(4), 4)

    def test_unchanged_complement_size_raises_under_optimize(self):
        script = textwrap.dedent(
            """
            import sys
            import lightsout.rules as rules_mod
            from lightsout.graphs import disjoint_union, named_graph, path_graph
            from lightsout.modular import AuditError

            assert False, "asserts must be stripped under -O"
            g = disjoint_union(named_graph("G1"), path_graph(2))
            rules_mod.disjoint_union = lambda rest, rep: g
            try:
                rules_mod.extswitch_valid(g, [0, 1, 2, 3], path_graph(4), 4)
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
        assert "not strictly larger" in done.stdout


class TestNotswin:
    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_even_cycle_component(self, ell):
        g = disjoint_union(cycle_graph(4), path_graph(2))
        witness = notswin_witness(g, ell)
        assert witness == (1, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("ell", [2, 4])
    def test_two_odd_cycles(self, ell):
        g = disjoint_union(cycle_graph(3), cycle_graph(5))
        assert notswin_witness(g, ell) is not None

    def test_single_odd_cycle_silent(self):
        g = disjoint_union(cycle_graph(5), path_graph(2))
        assert notswin_witness(g, 4) is None

    def test_odd_modulus_rejected(self):
        with pytest.raises(ValueError):
            notswin_witness(cycle_graph(4), 3)

    @pytest.mark.parametrize("k", range(3, 10))
    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_no_cycle_adjacency_aw_for_even_modulus(self, k, ell):
        assert not is_AW(adjacency_matrix(cycle_graph(k), ell))


class TestOutcomePlumbing:
    def test_outcome_json_round_trip(self):
        out = dominating_reduction(named_graph("path2"), 3)
        payload = out.to_json()
        assert payload["rule"] == "dominating_reduction"
        assert payload["agree"] is True

    def test_disagreement_carries_outcome(self):
        bad = ReductionOutcome(
            rule="demo", context={}, predicted=True, direct=False
        )
        err = RuleDisagreement(bad)
        assert err.outcome is bad
        assert '"agree": false' in str(err)
