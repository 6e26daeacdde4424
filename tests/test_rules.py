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
import time
from functools import lru_cache

import pytest

import lightsout
import lightsout.rules as rules_mod
import lightsout.toggling as toggling_mod
from lightsout.game import exists_shift_winnable, is_AW
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
from lightsout.modular import AuditError, normal_form
from lightsout.rules import (
    PathViolation,
    ReductionOutcome,
    RuleDisagreement,
    dominating_reduction,
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

    def test_non_singleton_toggling_set_raises(self, monkeypatch):
        def two_members(m, u_set, r):
            return ToggleCoset(modulus=m.modulus, empty=False, base=0, generator=2)

        monkeypatch.setattr(rules_mod, "toggling_numbers", two_members)
        with pytest.raises(AuditError, match="singleton"):
            subsetjoinaw_check(named_graph("path4"), 4)


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

    def test_corona_p4_mod_7_is_exact(self):
        # 7^8 labelings: beyond any labeling sweep, decided in closed form.
        res = pendantremove_conditions(corona_pendant(path_graph(4)), 4, 7)
        assert res.agree
        assert res.shifts_cover_all_labelings
        assert res.counterexample is None

    @pytest.mark.parametrize(
        "name, ell, covered",
        [
            ("corona-p4", 2**31 - 1, True),
            # Both cycles are adjacency-invertible mod the prime 2^31 - 1;
            # an even modulus lets the two odd cycles block condition one.
            ("c3-c5-p2", 2**31 - 1, True),
            ("c3-c5-p2", 2**31 - 2, False),
        ],
    )
    def test_largest_moduli_finish_fast(self, name, ell, covered):
        if name == "corona-p4":
            g, p = corona_pendant(path_graph(4)), 4
        else:
            g = disjoint_union(
                disjoint_union(cycle_graph(3), cycle_graph(5)), path_graph(2)
            )
            p = g.n - 2
        started = time.perf_counter()
        res = pendantremove_conditions(g, p, ell)
        assert time.perf_counter() - started < 1.0
        assert res.agree
        assert res.shifts_cover_all_labelings == covered
        assert (res.counterexample is None) == covered

    def test_empty_toggling_set_raises(self, monkeypatch):
        def empty(m, u_set, r):
            return ToggleCoset.empty_set(m.modulus)

        monkeypatch.setattr(rules_mod, "toggling_numbers", empty)
        with pytest.raises(AuditError, match="toggling set"):
            pendantremove_conditions(named_graph("path4"), 0, 5)


def reference_shift_sweep(nf, ell):
    """Oracle: the per-labeling sweep the shift-subgroup criterion replaced.

    Every labeling is moved by u_inv and tested against each of the ell
    shifts coordinate-wise on the diagonal, in itertools.product order.
    """
    diag = nf.D.diag()
    n = nf.u_inv.rows
    w_one = nf.u_inv.mul_vec([1] * n)

    def some_shift_clears(pi):
        w_pi = nf.u_inv.mul_vec(pi)
        for s in range(ell):
            for i in range(n):
                val = (w_pi[i] + s * w_one[i]) % ell
                d = diag[i]
                if (val != 0) if d == 0 else (val % d != 0):
                    break
            else:
                return True
        return False

    for pi in itertools.product(range(ell), repeat=n):
        if not some_shift_clears(pi):
            return pi
    return None


def reference_congruence(mat, r, t):
    """Oracle: condition two by the sweep over z and the null-sum members."""
    ell = mat.modulus
    null_sums = toggling_mod.toggling_numbers(mat, range(mat.rows), 0).members()
    coeff_gcd = math.gcd(r + t, ell)
    return all(
        any((z + q) % coeff_gcd == 0 for q in null_sums) for z in range(ell)
    )


def shift_cover(g, ell):
    """(mat, nf, r, t, counterexample) as pendantremove_conditions has them,
    with nf the normal form of mat for the reference sweep."""
    mat = adjacency_matrix(g, ell)
    r = toggling_mod.minimal_nonempty_r(mat, range(g.n)) or ell
    t = toggling_mod.toggling_numbers(mat, range(g.n), r % ell).base
    return mat, normal_form(mat), r, t, rules_mod._unshiftable_labeling(mat, r)


@lru_cache(maxsize=None)
def labeled_graphs_with_class(n):
    """Every labeled graph on n vertices with its isomorphism class.

    A class is named by the edge set of its first member; that member's
    whole relabeling orbit is marked when it is first seen.
    """
    perms = list(itertools.permutations(range(n)))
    class_of = {}
    out = []
    for g in all_graphs(n):
        edges = frozenset(g.edges())
        if edges not in class_of:
            for p in perms:
                image = frozenset(
                    (min(p[u], p[v]), max(p[u], p[v])) for u, v in edges
                )
                class_of[image] = edges
        out.append((g, (n, class_of[edges])))
    return tuple(out)


class TestShiftSubgroupSweep:
    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_matches_reference_sweep(self, ell):
        # Whether every labeling has a clearing shift does not depend on
        # the vertex labels, so the reference runs in full once per
        # isomorphism class; a False class is re-run on every labeled copy,
        # since the first counterexample depends on the labels.  Graphs
        # with a pendant vertex also go through pendantremove_conditions,
        # whose congruence is compared against the z-sweep.
        class_answer = {}
        compared = failing = pendant = 0
        for n in range(1, 6):
            if ell**n > 8000:
                continue
            for g, key in labeled_graphs_with_class(n):
                mat, nf, r, t, got = shift_cover(g, ell)
                if class_answer.get(key) is True:
                    expected = None
                else:
                    expected = reference_shift_sweep(nf, ell)
                    class_answer[key] = expected is None
                assert got == expected, f"{g!r} mod {ell}"
                compared += 1
                failing += expected is not None
                leaves = [v for v in range(n) if g.degree(v) == 1]
                if leaves:
                    res = pendantremove_conditions(g, leaves[0], ell)
                    assert (res.r, res.t, res.counterexample) == (r, t, got)
                    assert res.coefficient_congruence_solvable == (
                        reference_congruence(mat, r, t)
                    ), f"{g!r} mod {ell}"
                    pendant += 1
        assert compared == 1 + 2 + 8 + 64 + 1024
        assert 0 < failing < compared
        assert 0 < pendant < compared

    def test_counterexample_is_first_in_product_order(self):
        g = disjoint_union(cycle_graph(4), path_graph(2))
        witness = shift_cover(g, 2)[-1]
        assert witness is not None
        labelings = list(itertools.product(range(2), repeat=g.n))
        earlier = labelings[: labelings.index(witness)]
        assert all(
            exists_shift_winnable(g, pi, 2) is not None
            for pi in earlier
        )
        assert exists_shift_winnable(g, witness, 2) is None

    def test_audit_when_subgroup_and_walk_disagree(self, monkeypatch):
        # A wrong shift order on an adjacency-AW game claims a proper shift
        # subgroup, but every labeling is clearable, so no unit vector can
        # back the verdict.
        monkeypatch.setattr(
            rules_mod, "minimal_nonempty_r", lambda m, u_set: 2
        )
        with pytest.raises(AuditError, match="shift subgroup"):
            pendantremove_conditions(named_graph("path4"), 0, 4)

    def test_conditions_diagonalise_the_game_once(self, reductions):
        res = pendantremove_conditions(named_graph("path4"), 0, 6)
        assert res.agree and res.shifts_cover_all_labelings
        assert reductions == [adjacency_matrix(named_graph("path4"), 6)]


def complement_has_long_pendant(g: Graph) -> bool:
    """Whether complement(g) has a pendant vertex outside a 2-vertex component."""
    gbar = complement(g)
    return any(
        gbar.degree(v) == 1 and len(comp) != 2
        for comp in gbar.components()
        for v in comp
    )


class TestExtdomFilter:
    """The extdom rule: a graph with a dominating vertex whose complement
    has a pendant vertex outside any two-vertex component is never the
    densest always-winnable graph of its order."""

    def test_p3_plus_isolated_excluded(self):
        g = complement(disjoint_union(path_graph(3), Graph(1, [0])))
        assert g.degree(3) == g.n - 1
        assert complement_has_long_pendant(g)

    def test_p2_plus_isolated_kept(self):
        g = complement(disjoint_union(path_graph(2), Graph(1, [0])))
        assert not complement_has_long_pendant(g)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_excluded_graphs_are_beaten(self, ell):
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
                if any(g.degree(v) == n - 1 for v in range(n)):
                    assert not complement_has_long_pendant(g), f"{g!r} ell={ell}"


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

    def test_clearable_witness_raises(self, monkeypatch):
        monkeypatch.setattr(rules_mod, "exists_shift_winnable", lambda g, pi, ell: 0)
        with pytest.raises(AuditError, match="cycle obstruction failed"):
            notswin_witness(cycle_graph(4), 2)

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
