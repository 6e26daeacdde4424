"""Reduction rules and closed-form winnability criteria.

Each rule computes a cheap prediction (the closed form or the reduced
instance) and, where stated, the direct matrix answer it must match.  A
mismatch is a bug in exactly one of the two routes, so it raises
RuleDisagreement with a JSON counterexample instead of returning quietly.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .game import exists_shift_winnable, is_AW
from .graphs import (
    Graph,
    adjacency_matrix,
    complement,
    disjoint_union,
    graph6_encode,
    is_pendant_graph,
    neighborhood_matrix,
    path_graph,
)
from .modular import AuditError, check_modulus, normal_form
from .toggling import ToggleCoset, minimal_nonempty_r, toggling_numbers


@dataclass(frozen=True)
class ReductionOutcome:
    """A rule's prediction next to the direct matrix computation."""

    rule: str
    context: Dict[str, object]
    predicted: bool
    direct: bool

    @property
    def agree(self) -> bool:
        return self.predicted == self.direct

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "context": self.context,
            "predicted": self.predicted,
            "direct": self.direct,
            "agree": self.agree,
        }


class RuleDisagreement(AssertionError):
    """Raised when a rule's prediction contradicts direct computation."""

    def __init__(self, outcome: ReductionOutcome):
        self.outcome = outcome
        super().__init__(json.dumps(outcome.to_json(), sort_keys=True))


def _audited(outcome: ReductionOutcome) -> ReductionOutcome:
    if not outcome.agree:
        raise RuleDisagreement(outcome)
    return outcome


def add_universal_vertex(g: Graph) -> Graph:
    """g plus one new vertex adjacent to everything (the complement of
    adding an isolated vertex before complementing)."""
    edges = g.edges() + [(v, g.n) for v in range(g.n)]
    return Graph.from_edges(g.n + 1, edges)


def dominating_reduction(g: Graph, ell: int) -> ReductionOutcome:
    """Complement-with-dominating-vertex rule.

    The neighborhood game on the complement of (g plus an isolated vertex)
    is always-winnable exactly when the adjacency game on g is.
    """
    check_modulus(ell)
    predicted = is_AW(adjacency_matrix(g, ell))
    extended = complement(disjoint_union(g, Graph(1, [0])))
    direct = is_AW(neighborhood_matrix(extended, ell))
    return _audited(
        ReductionOutcome(
            rule="dominating_reduction",
            context={"graph6": graph6_encode(g), "ell": ell},
            predicted=predicted,
            direct=direct,
        )
    )


def p4_replacement_equiv(
    g: Graph, u_set: Sequence[int], ell: int
) -> Tuple[bool, bool]:
    """Join a 4-path's end vertex to a subset and compare complements.

    Returns the two neighborhood-game booleans (joined, plain union); the
    rule asserts they are equal.
    """
    check_modulus(ell)
    u = sorted(set(u_set))
    if u and not (0 <= u[0] and u[-1] < g.n):
        raise ValueError("subset out of range")
    plain = disjoint_union(g, path_graph(4))
    joined = Graph.from_edges(
        plain.n, plain.edges() + [(w, g.n) for w in u]
    )
    left = is_AW(neighborhood_matrix(complement(joined), ell))
    right = is_AW(neighborhood_matrix(complement(plain), ell))
    _audited(
        ReductionOutcome(
            rule="p4_replacement_equiv",
            context={"graph6": graph6_encode(g), "subset": u, "ell": ell},
            predicted=left,
            direct=right,
        )
    )
    return left, right


class PathViolation(NamedTuple):
    rule: int
    vertices: Tuple[int, ...]
    note: str


def _is_path_component(g: Graph, comp: Sequence[int]) -> bool:
    sub = g.induced(comp)
    return sub.num_edges() == sub.n - 1 and sub.max_degree() <= 2


def _is_cycle_component(g: Graph, comp: Sequence[int]) -> bool:
    sub = g.induced(comp)
    return sub.n >= 3 and all(d == 2 for d in sub.degrees())


def path_restriction_violations(gbar: Graph) -> List[PathViolation]:
    """Path-component obstructions in a complement.

    Rules 1 and 2 certify the complement is not always-winnable in the
    neighborhood game: (1) any path component of order 3 mod 4; (2) two or
    more path components of order 1 mod 4.  Rule 3 flags path components of
    order above 4, which only matter under an extremality claim.
    """
    violations: List[PathViolation] = []
    one_mod_four: List[Tuple[int, ...]] = []
    for comp in gbar.components():
        if not _is_path_component(gbar, comp):
            continue
        k = len(comp)
        if k % 4 == 3:
            violations.append(
                PathViolation(1, tuple(comp), f"path component of order {k}")
            )
        if k % 4 == 1:
            one_mod_four.append(tuple(comp))
        if k > 4:
            violations.append(
                PathViolation(
                    3, tuple(comp), f"path component of order {k} > 4"
                )
            )
    if len(one_mod_four) >= 2:
        flat = tuple(v for comp in one_mod_four for v in comp)
        violations.append(
            PathViolation(
                2,
                flat,
                f"{len(one_mod_four)} path components of order 1 mod 4",
            )
        )
    return violations


def pendant_graph_naw(g: Graph, ell: int) -> ReductionOutcome:
    """Closed form for the complement of a pendant graph.

    With order n and size m, the complement is always-winnable in the
    neighborhood game exactly when gcd(2(n - m) - 1, ell) = 1.
    """
    check_modulus(ell)
    ok, _ = is_pendant_graph(g)
    if not ok:
        raise ValueError("input graph is not a pendant graph")
    n, m = g.n, g.num_edges()
    predicted = math.gcd(2 * (n - m) - 1, ell) == 1
    direct = is_AW(neighborhood_matrix(complement(g), ell))
    return _audited(
        ReductionOutcome(
            rule="pendant_graph_naw",
            context={"graph6": graph6_encode(g), "ell": ell, "n": n, "m": m},
            predicted=predicted,
            direct=direct,
        )
    )


def subsetjoinaw_check(g: Graph, ell: int) -> ReductionOutcome:
    """Single-toggling-number criterion for adjacency-AW graphs.

    For an adjacency-AW graph with a pendant vertex and unique full-vertex
    toggling number t at shift 1, the complement is neighborhood-AW exactly
    when gcd(1 + t, ell) = 1.
    """
    check_modulus(ell)
    mat = adjacency_matrix(g, ell)
    if not is_AW(mat):
        raise ValueError("rule requires an adjacency-AW input graph")
    if not any(g.degree(v) == 1 for v in range(g.n)):
        raise ValueError("rule requires a pendant vertex")
    coset = toggling_numbers(mat, range(g.n), 1)
    members = coset.members()
    if len(members) != 1:
        raise AssertionError(
            "toggling set of an invertible game must be a singleton"
        )
    t = members[0]
    predicted = math.gcd(1 + t, ell) == 1
    direct = is_AW(neighborhood_matrix(complement(g), ell))
    return _audited(
        ReductionOutcome(
            rule="subsetjoinaw_check",
            context={"graph6": graph6_encode(g), "ell": ell, "t": t},
            predicted=predicted,
            direct=direct,
        )
    )


def _pendant_neighbor(g: Graph, p: int) -> int:
    if g.degree(p) != 1:
        raise ValueError(f"vertex {p} is not pendant (degree {g.degree(p)})")
    return g.neighbors(p)[0]


def pendantremove_dompen(g: Graph, p: int, ell: int) -> ReductionOutcome:
    """Adjacency-AW is preserved by deleting a pendant and its neighbor."""
    check_modulus(ell)
    v = _pendant_neighbor(g, p)
    reduced = g.induced(sorted(set(range(g.n)) - {p, v}))
    predicted = is_AW(adjacency_matrix(reduced, ell))
    direct = is_AW(adjacency_matrix(g, ell))
    return _audited(
        ReductionOutcome(
            rule="pendantremove_dompen",
            context={"graph6": graph6_encode(g), "pendant": p, "ell": ell},
            predicted=predicted,
            direct=direct,
        )
    )


@dataclass(frozen=True)
class PendantConditions:
    """Evaluation of the two pendant-removal winnability conditions."""

    shifts_cover_all_labelings: bool
    coefficient_congruence_solvable: bool
    predicted: bool
    direct: bool
    exhaustive: bool
    r: int
    t: int
    counterexample: Optional[Tuple[int, ...]]

    @property
    def agree(self) -> bool:
        return self.predicted == self.direct


def _all_labelings_shift_winnable(
    g: Graph,
    ell: int,
    max_exhaustive: int,
    sample: Optional[int],
    seed: int,
) -> Tuple[bool, bool, Optional[Tuple[int, ...]]]:
    """Does every labeling admit a winnable all-vertex shift?

    Returns (answer, exhaustive, counterexample).  Membership of a shifted
    labeling in the toggle image is tested coordinate-wise against the
    diagonalized game matrix, so each labeling costs O(ell * n) after one
    O(n^2) transform.
    """
    mat = adjacency_matrix(g, ell)
    nf = normal_form(mat)
    diag = nf.D.diag()
    n = g.n
    w_one = nf.u_inv.mul_vec([1] * n)

    def some_shift_clears(pi: Tuple[int, ...]) -> bool:
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

    total = ell**n
    if total <= max_exhaustive:
        for pi in itertools.product(range(ell), repeat=n):
            if not some_shift_clears(pi):
                return False, True, pi
        return True, True, None
    if sample is None:
        raise ValueError(
            f"{ell}^{n} labelings exceed the exhaustive gate "
            f"({max_exhaustive}); pass a sample size"
        )
    rng = random.Random(seed)
    for _ in range(sample):
        pi = tuple(rng.randrange(ell) for _ in range(n))
        if not some_shift_clears(pi):
            return False, False, pi
    return True, False, None


def pendantremove_conditions(
    g: Graph,
    p: int,
    ell: int,
    *,
    max_exhaustive: int = 2**20,
    sample: Optional[int] = None,
    seed: int = 0,
) -> PendantConditions:
    """Both pendant-removal conditions against the direct complement check.

    Condition one: every labeling has some all-vertex shift that is
    adjacency-winnable.  Condition two: with r the minimal positive shift
    whose toggling set is non-empty and t any of its members, every z admits
    q in the null-sum subgroup with (r + t) x = z + q solvable.  Their
    conjunction must equal direct neighborhood-AW of the complement; the
    equality is only guaranteed (and enforced) in exhaustive mode.
    """
    check_modulus(ell)
    _pendant_neighbor(g, p)
    mat = adjacency_matrix(g, ell)
    nf = normal_form(mat)
    scan = minimal_nonempty_r(mat, range(g.n))
    r = scan if scan else ell
    t_coset = toggling_numbers(mat, range(g.n), r % ell, nf=nf)
    if t_coset.empty:
        raise AuditError("toggling set at the minimal non-empty shift is empty")
    t = t_coset.base
    zero_coset = toggling_numbers(mat, range(g.n), 0, nf=nf)
    null_sums = zero_coset.members()
    coeff_gcd = math.gcd(r + t, ell)
    cond_b = all(
        any((z + q) % coeff_gcd == 0 for q in null_sums) for z in range(ell)
    )
    cond_a, exhaustive, witness = _all_labelings_shift_winnable(
        g, ell, max_exhaustive, sample, seed
    )
    predicted = cond_a and cond_b
    direct = is_AW(neighborhood_matrix(complement(g), ell))
    result = PendantConditions(
        shifts_cover_all_labelings=cond_a,
        coefficient_congruence_solvable=cond_b,
        predicted=predicted,
        direct=direct,
        exhaustive=exhaustive,
        r=r,
        t=t,
        counterexample=witness,
    )
    # A sampled run can only certify the negative direction, so mismatches
    # with predicted True are inconclusive there rather than fatal.
    if not result.agree and (exhaustive or not predicted):
        raise RuleDisagreement(
            ReductionOutcome(
                rule="pendantremove_conditions",
                context={
                    "graph6": graph6_encode(g),
                    "pendant": p,
                    "ell": ell,
                    "r": r,
                    "t": t,
                    "cond_a": cond_a,
                    "cond_b": cond_b,
                    "counterexample": witness,
                },
                predicted=predicted,
                direct=direct,
            )
        )
    return result


def dominating_vertices(g: Graph) -> List[int]:
    return [v for v in range(g.n) if g.degree(v) == g.n - 1]


def extdom_filter(g: Graph) -> bool:
    """Exclude a dominating-vertex graph from extremal candidacy.

    True when the complement has a pendant vertex outside any two-vertex
    component; such graphs are beaten by a denser always-winnable graph.
    """
    if not dominating_vertices(g):
        raise ValueError("rule requires a dominating vertex")
    gbar = complement(g)
    comp_of = {}
    for comp in gbar.components():
        for v in comp:
            comp_of[v] = len(comp)
    return any(
        gbar.degree(v) == 1 and comp_of[v] != 2 for v in range(gbar.n)
    )


def extswitch_valid(
    g: Graph, component: Sequence[int], replacement: Graph, ell: int
) -> bool:
    """Component-replacement test showing a complement is not extremal.

    Requires g to have a pendant vertex and component to be one of its
    connected components.  Checks: the component and the replacement are
    both adjacency-AW, share the full-vertex toggling set at shift 1, have
    equal order, and the replacement is strictly smaller.  On success the
    claimed invariance is re-verified directly on both complements.
    """
    check_modulus(ell)
    comp = sorted(set(component))
    if comp not in [sorted(c) for c in g.components()]:
        raise ValueError("given vertex set is not a connected component")
    if not any(g.degree(v) == 1 for v in range(g.n)):
        raise ValueError("rule requires a pendant vertex in the host graph")
    sub = g.induced(comp)
    if not is_AW(adjacency_matrix(sub, ell)):
        return False
    if not is_AW(adjacency_matrix(replacement, ell)):
        return False
    t_old = toggling_numbers(adjacency_matrix(sub, ell), range(sub.n), 1)
    t_new = toggling_numbers(
        adjacency_matrix(replacement, ell), range(replacement.n), 1
    )
    if t_old != t_new:
        return False
    if sub.n != replacement.n or replacement.num_edges() >= sub.num_edges():
        return False
    rest = g.induced(sorted(set(range(g.n)) - set(comp)))
    switched = disjoint_union(rest, replacement)
    direct_before = is_AW(neighborhood_matrix(complement(g), ell))
    direct_after = is_AW(neighborhood_matrix(complement(switched), ell))
    _audited(
        ReductionOutcome(
            rule="extswitch_valid",
            context={
                "graph6": graph6_encode(g),
                "component": comp,
                "replacement6": graph6_encode(replacement),
                "ell": ell,
            },
            predicted=direct_before,
            direct=direct_after,
        )
    )
    if complement(switched).num_edges() <= complement(g).num_edges():
        raise AuditError("switched complement is not strictly larger")
    return True


def notswin_witness(g: Graph, ell: int) -> Optional[Tuple[int, ...]]:
    """A labeling no all-vertex shift of which clears, when cycles force one.

    With even modulus, an even-cycle component, or any two cycle components,
    admit the labeling that is 1 on a single vertex of a chosen cycle and 0
    everywhere else.  The obstruction is re-verified before returning.
    """
    check_modulus(ell)
    if ell % 2:
        raise ValueError(f"rule requires an even modulus, got {ell}")
    cycles = [
        comp for comp in g.components() if _is_cycle_component(g, comp)
    ]
    even_cycles = [comp for comp in cycles if len(comp) % 2 == 0]
    if even_cycles:
        chosen = even_cycles[0]
    elif len(cycles) >= 2:
        chosen = cycles[0]
    else:
        return None
    witness = [0] * g.n
    witness[min(chosen)] = 1
    witness_t = tuple(witness)
    if exists_shift_winnable(g, witness_t, ell) is not None:
        raise AssertionError(
            f"cycle obstruction failed for {graph6_encode(g)} mod {ell}"
        )
    return witness_t
