"""Registry-level tests for the verification suites: naming, determinism,
failure reporting, and a spot check that the fast suites actually pass."""

from __future__ import annotations

import itertools
import json

import pytest

import lightsout.rules as rules_mod
import lightsout.verify as verify_mod
from lightsout.cli import main
from lightsout.game import is_AW
from lightsout.graphs import Graph, complement, neighborhood_matrix
from lightsout.modular import AuditError
from lightsout.rules import ReductionOutcome, RuleDisagreement
from lightsout.toggling import ToggleCoset, TransferCheck
from lightsout.verify import (
    APPENDIX_MODULI,
    APPENDIX_TABLES,
    MAX_RECORDED_FAILURES,
    SuiteResult,
    _Recorder,
    run_suite,
    suite_names,
)

EXPECTED_SUITES = (
    "oracle",
    "twins",
    "thm-2-4",
    "thm-3-1",
    "cor-3-2",
    "lemma-3-4",
    "lemma-3-5",
    "thm-3-6",
    "cor-3-7",
    "lemma-3-9",
    "lemma-3-10",
    "cor-3-11",
    "cor-3-12",
    "lemma-4-6",
    "lemma-4-7",
    "lemma-4-8",
    "lemma-4-9",
    "thm-4-10",
    "props-4-x",
    "appendix",
    "all",
)

FAST_SUITES = [
    "twins",
    "thm-3-1",
    "lemma-3-5",
    "lemma-3-9",
    "lemma-3-10",
    "cor-3-11",
    "cor-3-12",
    "lemma-4-9",
    "appendix",
]


class TestRegistry:
    def test_registered_names(self):
        assert suite_names() == EXPECTED_SUITES

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("lemma-9-9")

    def test_single_suite_returns_one_result(self):
        results = run_suite("twins")
        assert len(results) == 1 and results[0].name == "twins"

    @pytest.mark.parametrize("name", FAST_SUITES)
    def test_fast_suite_passes(self, name):
        (res,) = run_suite(name)
        assert res.passed, f"{name} failed: {res.failures[:3]}"
        assert res.checks > 0, f"{name} ran no checks"

    def test_seed_determinism(self):
        first = run_suite("thm-3-1", seed=7)[0]
        second = run_suite("thm-3-1", seed=7)[0]
        assert (first.checks, first.failures) == (
            second.checks,
            second.failures,
        )


class TestLemma46:
    def test_one_check_per_aw_complement_and_modulus(self):
        """The suite's single determinant per complement must pick out the
        same (complement, modulus) pairs as is_AW on each built graph."""
        want = 1  # the pruned-versus-unpruned search comparison
        for n in (4, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for e in range(n // 2 + 1, n):
                for edges in itertools.combinations(pairs, e):
                    g = complement(Graph.from_edges(n, edges))
                    for ell in (2, 3, 4, 5):
                        want += is_AW(neighborhood_matrix(g, ell))
        (res,) = run_suite("lemma-4-6")
        assert res.passed, res.failures
        assert res.checks == want == 4641


class TestThm36:
    def test_each_game_is_diagonalised_once(self, reductions):
        """The witness check replays shifts on the adjacency matrix just
        after [A | 1] was diagonalised; the memo's second entry still holds
        A, so no matrix is diagonalised twice."""
        (res,) = run_suite("thm-3-6")
        assert res.passed, res.failures
        assert len(set(reductions)) == len(reductions) == 2352


class TestSuiteResult:
    def test_passed_property(self):
        ok = SuiteResult("x", "d", 3, (), 1.0)
        bad = SuiteResult("x", "d", 3, ("boom",), 1.0)
        assert ok.passed and not bad.passed

    def test_to_json_shape(self):
        res = SuiteResult("x", "d", 3, ("boom",), 1.5)
        blob = res.to_json()
        assert blob == {
            "suite": "x",
            "description": "d",
            "checks": 3,
            "passed": False,
            "failures": ["boom"],
            "elapsed_ms": 1.5,
        }


class TestRecorder:
    def test_check_counts_and_records(self):
        rec = _Recorder()
        rec.check(True, "fine")
        rec.check(False, "broken")
        assert rec.checks == 2 and rec.failures == ["broken"]

    def test_run_catches_assertions(self):
        rec = _Recorder()

        def blow_up():
            raise AssertionError("inner detail")

        rec.run(blow_up, "context")
        rec.run(lambda: None, "quiet")
        assert rec.checks == 2
        assert rec.failures == ["context: inner detail"]

    def test_failure_cap(self):
        rec = _Recorder()
        for i in range(MAX_RECORDED_FAILURES + 10):
            rec.check(False, f"failure {i}")
        assert rec.checks == MAX_RECORDED_FAILURES + 10
        assert len(rec.failures) == MAX_RECORDED_FAILURES

    def test_callable_messages_built_only_on_failure(self):
        def never():
            raise AssertionError("message built for a passing check")

        def blow_up():
            raise AssertionError("inner detail")

        rec = _Recorder()
        rec.check(True, never)
        rec.run(lambda: None, never)
        rec.check(False, lambda: "broken")
        rec.run(blow_up, lambda: "context")
        assert rec.checks == 4
        assert rec.failures == ["broken", "context: inner detail"]

    def test_passing_suite_formats_no_graph(self, monkeypatch):
        def refuse_repr(g):
            raise AssertionError("Graph repr on a passing check")

        monkeypatch.setattr(Graph, "__repr__", refuse_repr)
        (result,) = run_suite("lemma-3-5", seed=0)
        assert result.passed and result.checks == 60

    def test_forced_failure_keeps_message_text(self, monkeypatch):
        seen = []

        def mismatch(host, p, s, ell):
            seen.append((host, s, ell))
            return TransferCheck(
                whole=ToggleCoset.singleton(ell, 0),
                reduced=ToggleCoset.singleton(ell, 1),
            )

        monkeypatch.setattr(verify_mod, "noU_transfer", mismatch)
        (result,) = run_suite("lemma-3-5", seed=0)
        assert result.checks == len(seen) == 60
        assert list(result.failures) == [
            f"transfer mismatch on {host!r} s={s} mod {ell}:"
            f" ToggleCoset({{0}}, mod {ell}) vs ToggleCoset({{1}}, mod {ell})"
            for host, s, ell in seen[:MAX_RECORDED_FAILURES]
        ]


def fire_on_call(fn, nth, exc):
    """fn, except that its nth call raises exc instead."""
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] == nth:
            raise exc
        return fn(*args, **kwargs)

    return wrapper


class TestOneFailurePath:
    """A self-check raised inside a suite becomes one recorded failure."""

    def test_stop_message_is_truncated(self, monkeypatch):
        def explode(*args):
            raise AssertionError("x" * 1000)

        monkeypatch.setattr(verify_mod, "notswin_witness", explode)
        (result,) = run_suite("lemma-4-9")
        assert result.checks == 1
        (failure,) = result.failures
        assert len(failure) == 400
        assert failure.startswith("lemma-4-9 stopped: xxx")

    def test_other_exceptions_still_propagate(self, monkeypatch):
        def explode(*args):
            raise ZeroDivisionError("not a self-check")

        monkeypatch.setattr(verify_mod, "notswin_witness", explode)
        with pytest.raises(ZeroDivisionError):
            run_suite("lemma-4-9")

    def test_verify_all_reports_every_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(
            verify_mod,
            "pendantremove_conditions",
            fire_on_call(
                verify_mod.pendantremove_conditions,
                50,
                AuditError("forced self-check failure"),
            ),
        )
        disagreement = RuleDisagreement(
            ReductionOutcome("extswitch_valid", {}, True, False)
        )
        monkeypatch.setattr(
            verify_mod,
            "extswitch_valid",
            fire_on_call(verify_mod.extswitch_valid, 3, disagreement),
        )
        # A clearing shift for every witness makes notswin_witness's own
        # audit fire on its first call.
        monkeypatch.setattr(rules_mod, "exists_shift_winnable", lambda g, pi, ell: 0)
        code = main(["verify", "--suite", "all"])
        out, err = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in err
        report = json.loads(out)
        assert report["schema"] == 1 and report["result"]["passed"] is False
        suites = {entry["suite"]: entry for entry in report["result"]["suites"]}
        assert list(suites) == list(EXPECTED_SUITES[:-1])
        failed = {name for name, entry in suites.items() if not entry["passed"]}
        assert failed == {"thm-3-6", "cor-3-12", "lemma-4-9"}
        # 49 hosts of three checks each, the 50th host's rec.run, the stop.
        assert suites["thm-3-6"]["checks"] == 49 * 3 + 1 + 1
        assert suites["thm-3-6"]["failures"] == [
            "thm-3-6 stopped: forced self-check failure"
        ]
        assert suites["cor-3-12"]["checks"] == 2 + 1
        assert suites["cor-3-12"]["failures"] == [
            f"cor-3-12 stopped: {disagreement}"
        ]
        assert suites["lemma-4-9"]["checks"] == 1
        (failure,) = suites["lemma-4-9"]["failures"]
        assert failure.startswith("lemma-4-9 stopped: cycle obstruction failed")
        assert suites["oracle"]["checks"] == 46902 and suites["oracle"]["passed"]


class TestFrozenTables:
    def test_every_fixed_graph_has_a_row(self):
        assert sorted(APPENDIX_TABLES) == [f"G{i}" for i in range(1, 9)]

    def test_totals_match_vector_sums(self):
        for name, (toggles, total) in APPENDIX_TABLES.items():
            assert sum(toggles) == total, f"{name} row is inconsistent"

    def test_moduli(self):
        assert APPENDIX_MODULI == (2, 3, 5, 6)
