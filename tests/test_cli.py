"""End-to-end command-line tests: parsing, exit codes, JSON schema, and
report determinism across worker counts."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import lightsout
import lightsout.cli as cli_mod
import lightsout.search as search_mod

from lightsout.cli import (
    MAX_MATRIX_DIM,
    main,
    parse_graph,
    parse_int_list,
    parse_matrix_file,
)
from lightsout.graphs import (
    GRAPH6_MAX_N,
    graph6_encode,
    named_graph,
    neighborhood_matrix,
    path_graph,
)


def run_cli(capsys, argv):
    """Invoke the CLI in-process; returns (exit code, JSON or None, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


class TestParsing:
    def test_named(self):
        assert parse_graph("path4") == path_graph(4)

    def test_g6_round_trip(self):
        encoded = graph6_encode(named_graph("G3"))
        assert parse_graph(f"g6:{encoded}") == named_graph("G3")

    def test_edge_list(self):
        g = parse_graph("edges:4:0-1,1-2,2-3")
        assert g == path_graph(4)

    def test_empty_edge_list(self):
        g = parse_graph("edges:3:")
        assert g.n == 3 and g.num_edges() == 0

    def test_bad_edge_chunk(self):
        with pytest.raises(ValueError, match="u-v"):
            parse_graph("edges:3:01")

    def test_largest_edge_list_accepted(self):
        g = parse_graph(f"edges:{GRAPH6_MAX_N}:0-{GRAPH6_MAX_N - 1}")
        assert g.n == GRAPH6_MAX_N == 62 and g.num_edges() == 1

    def test_oversized_edge_list_rejected(self, capsys):
        code, report, err = run_cli(
            capsys, ["winnable", "--graph", "edges:63:", "--modulus", "2"]
        )
        assert code == 2 and report is None
        assert "edge lists are limited to 62 vertices, got 63" in err

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown graph name"):
            parse_graph("dodecahedron")

    def test_int_list(self):
        assert parse_int_list("3,0,-1") == [3, 0, -1]
        assert parse_int_list("  ") == []

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# comment\n1, 2\n3 4\n")
        m = parse_matrix_file(str(path), 5)
        assert (m.rows, m.cols) == (2, 2)
        assert m.entries == (1, 2, 3, 4)

    def test_matrix_file_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n# nothing\n")
        with pytest.raises(ValueError, match="no rows"):
            parse_matrix_file(str(path), 5)


class TestWinnableCommand:
    def test_twins_blocked_with_witness(self, capsys):
        code, report, _ = run_cli(
            capsys,
            ["winnable", "--graph", "edges:2:0-1", "--modulus", "2"],
        )
        assert code == 1
        assert report["schema"] == 1
        assert report["result"]["always_winnable"] is False
        assert report["result"]["twin_witness"] == [0, 1]

    def test_path4_always_winnable(self, capsys):
        code, report, _ = run_cli(
            capsys, ["winnable", "--graph", "path4", "--modulus", "6"]
        )
        assert code == 0
        assert report["result"]["always_winnable"] is True
        assert report["result"]["twin_witness"] is None
        assert report["inputs"]["graph6"] == graph6_encode(path_graph(4))

    @pytest.mark.parametrize(
        "ell,expected", [(3, 0), (5, 0), (2, 1), (4, 1), (6, 1)]
    )
    def test_triangle_adjacency_odd_moduli_only(self, capsys, ell, expected):
        code, report, _ = run_cli(
            capsys,
            [
                "winnable",
                "--graph",
                "cycle3",
                "--modulus",
                str(ell),
                "--game",
                "adjacency",
            ],
        )
        assert code == expected, f"C3 adjacency mod {ell}"
        assert report["result"]["always_winnable"] is (expected == 0)

    def test_labeling_certificate_clears(self, capsys):
        code, report, _ = run_cli(
            capsys,
            [
                "winnable",
                "--graph",
                "path4",
                "--modulus",
                "6",
                "--labels",
                "5,1,0,2",
            ],
        )
        assert code == 0
        toggles = report["result"]["toggles"]
        matrix = neighborhood_matrix(path_graph(4), 6)
        moved = matrix.mul_vec(toggles)
        cleared = [(p + m) % 6 for p, m in zip([5, 1, 0, 2], moved)]
        assert cleared == [0, 0, 0, 0], "certificate must clear the labeling"

    def test_unwinnable_labeling(self, capsys):
        code, report, _ = run_cli(
            capsys,
            [
                "winnable",
                "--graph",
                "edges:2:0-1",
                "--modulus",
                "2",
                "--labels",
                "1,0",
            ],
        )
        assert code == 1
        assert report["result"]["winnable"] is False
        assert report["result"]["toggles"] is None

    def test_matrix_game(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1 0\n1 1 1\n0 1 1\n")
        code, report, _ = run_cli(
            capsys,
            [
                "winnable",
                "--game",
                f"matrix:{path}",
                "--modulus",
                "2",
                "--labels",
                "1,0,1",
            ],
        )
        assert code == 0
        assert report["inputs"]["graph6"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["winnable", "--graph", "path4", "--modulus", "1"],
            ["winnable", "--graph", "path4", "--modulus", "6", "--labels", "1"],
            ["winnable", "--graph", "g6:!!", "--modulus", "2"],
            ["winnable", "--graph", "nosuch", "--modulus", "2"],
            ["winnable", "--modulus", "2"],
            ["winnable", "--graph", "path4", "--modulus", "2", "--game", "x"],
            ["winnable", "--graph", "path4", "--modulus", "2", "--game",
             "matrix:"],
            ["winnable", "--game", "matrix:/nonexistent", "--modulus", "2"],
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2, f"{argv} should be a usage error, stderr: {err}"
        assert "error:" in err

    def test_nonsquare_matrix_rejected(self, capsys, tmp_path):
        path = tmp_path / "rect.txt"
        path.write_text("1 2 3\n4 5 6\n")
        code, _, err = run_cli(
            capsys,
            ["winnable", "--game", f"matrix:{path}", "--modulus", "7"],
        )
        assert code == 2 and "square" in err

    @pytest.mark.parametrize(
        "text",
        [
            "1\n" * (MAX_MATRIX_DIM + 1),
            " ".join(["1"] * (MAX_MATRIX_DIM + 1)) + "\n",
        ],
        ids=["rows", "columns"],
    )
    def test_oversized_matrix_rejected(self, capsys, tmp_path, text):
        path = tmp_path / "big.txt"
        path.write_text(text)
        code, report, err = run_cli(
            capsys,
            ["winnable", "--game", f"matrix:{path}", "--modulus", "7"],
        )
        assert code == 2 and report is None
        assert f"exceeds {MAX_MATRIX_DIM} rows or columns" in err

    def test_largest_matrix_accepted(self, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("1\n" * MAX_MATRIX_DIM)
        assert parse_matrix_file(str(path), 7).rows == MAX_MATRIX_DIM


class TestTogglingCommand:
    def test_edge_all_vertices_shift_one(self, capsys):
        code, report, _ = run_cli(
            capsys,
            [
                "toggling",
                "--graph",
                "edges:2:0-1",
                "--modulus",
                "4",
                "--r",
                "1",
            ],
        )
        assert code == 0
        result = report["result"]
        assert result["empty"] is False
        assert result["base"] == 3 and result["generator"] == 0
        assert result["members"] == [3]
        assert result["minimal_nonempty_r"] == 1

    def test_invertible_zero_shift_is_zero(self, capsys):
        code, report, _ = run_cli(
            capsys,
            [
                "toggling",
                "--graph",
                "path4",
                "--modulus",
                "2",
                "--game",
                "adjacency",
                "--r",
                "0",
            ],
        )
        assert code == 0
        assert report["result"]["members"] == [0]

    def test_pendant_graph_total(self, capsys):
        code, report, _ = run_cli(
            capsys,
            [
                "toggling",
                "--graph",
                "edges:6:0-1,1-2,0-3,1-4,2-5",
                "--modulus",
                "6",
                "--game",
                "adjacency",
                "--r",
                "1",
            ],
        )
        assert code == 0
        assert report["result"]["members"] == [4], "2(m - n) = -2 mod 6"

    def test_empty_coset(self, capsys):
        code, report, _ = run_cli(
            capsys,
            [
                "toggling",
                "--graph",
                "edges:2:0-1",
                "--modulus",
                "2",
                "--subset",
                "0",
                "--r",
                "1",
            ],
        )
        assert code == 0
        result = report["result"]
        assert result["empty"] is True
        assert result["base"] is None and result["members"] == []

    def test_subset_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "toggling",
                "--graph",
                "path4",
                "--modulus",
                "2",
                "--subset",
                "0,9",
            ],
        )
        assert code == 2 and "out of range" in err

    @staticmethod
    def _whole_group_argv(ell):
        # The adjacency game of one vertex absorbs every toggle, so its
        # zero-shift toggling set is all of Z_ell.
        return [
            "toggling",
            "--graph",
            "edges:1:",
            "--game",
            "adjacency",
            "--modulus",
            str(ell),
            "--subset",
            "all",
            "--r",
            "0",
        ]

    def test_member_list_over_limit_exits_two(self, capsys):
        code, report, err = run_cli(
            capsys, self._whole_group_argv(2147483647)
        )
        assert code == 2 and report is None
        assert "listing limit" in err

    def test_member_list_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "MAX_ENUMERATED_SOLUTIONS", 12)
        code, report, _ = run_cli(capsys, self._whole_group_argv(12))
        assert code == 0
        assert report["result"]["members"] == list(range(12))
        code, report, err = run_cli(capsys, self._whole_group_argv(13))
        assert code == 2 and report is None
        assert "13 members" in err


class TestMaxsizeCommand:
    def test_order_five_modulus_four(self, capsys):
        code, report, _ = run_cli(
            capsys, ["maxsize", "--n", "5", "--modulus", "4"]
        )
        assert code == 0
        result = report["result"]
        assert result["max_size"] == 8
        assert len(result["extremal_graphs"]) == 1
        assert result["agree"] is True

    def test_jobs_do_not_change_bytes(self, capsys):
        main(["maxsize", "--n", "6", "--modulus", "10", "--jobs", "1"])
        first = capsys.readouterr().out
        main(["maxsize", "--n", "6", "--modulus", "10", "--jobs", "8"])
        second = capsys.readouterr().out
        assert first == second, "reports must not depend on --jobs"

    def test_env_var_jobs(self, capsys, monkeypatch):
        main(["maxsize", "--n", "4", "--modulus", "6"])
        first = capsys.readouterr().out
        monkeypatch.setenv("LIGHTSOUT_JOBS", "2")
        main(["maxsize", "--n", "4", "--modulus", "6"])
        second = capsys.readouterr().out
        assert first == second

    def test_env_var_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("LIGHTSOUT_JOBS", "many")
        code, _, err = run_cli(capsys, ["maxsize", "--n", "4", "--modulus", "6"])
        assert code == 2 and "LIGHTSOUT_JOBS" in err

    def test_csv_accumulates(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        run_cli(
            capsys,
            ["maxsize", "--n", "4", "--modulus", "6", "--csv", str(path)],
        )
        run_cli(
            capsys,
            ["maxsize", "--n", "5", "--modulus", "4", "--csv", str(path)],
        )
        lines = path.read_text().strip().splitlines()
        assert lines == [
            "n,modulus,max_size,extremal_count",
            "4,6,3,1",
            "5,4,8,1",
        ]

    def test_exhausted_cap_exits_one(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, payload, err = run_cli(
            capsys,
            ["maxsize", "--n", "6", "--modulus", "30", "--bounded", "3",
             "--csv", str(path)],
        )
        assert code == 1
        assert payload["schema"] == 1 and payload["command"] == "maxsize"
        assert payload["inputs"]["bounded"] == 3
        assert payload["result"] == {"exhausted": True, "max_size": None}
        assert "raise the cap" in err
        assert not path.exists()

    @pytest.mark.parametrize("bounded", [None, "3", "5", "25", "n"])
    @pytest.mark.parametrize("n", ["11", "40", "63", "2000000"])
    def test_orders_past_the_wall_exit_two_before_any_scan(
        self, capsys, monkeypatch, n, bounded
    ):
        """Orders past GRAPH6_MAX_N exit 2 before any scan, capped or not.
        11 and 40, past the old wall at 10, now answer, or exit 1 when the
        cap is below their first winning complement size."""
        argv = ["maxsize", "--n", n, "--modulus", "30"]
        if bounded is not None:
            argv += ["--bounded", n if bounded == "n" else bounded]
        if int(n) <= GRAPH6_MAX_N:
            first = {"11": 5, "40": 21}[n]
            code, payload, err = run_cli(capsys, argv)
            if bounded is not None and int(argv[-1]) < first:
                assert code == 1 and "raise the cap" in err
                assert payload["result"] == {"exhausted": True, "max_size": None}
            else:
                assert code == 0
                assert payload["result"]["max_size"] == int(n) * (int(n) - 1) // 2 - first
            return

        def refuse(*args):
            raise AssertionError("scanned past the order bound")

        monkeypatch.setattr(search_mod, "_scan_edge_count", refuse)
        code, payload, err = run_cli(capsys, argv)
        assert code == 2 and payload is None
        assert f"error: the search is limited to n <= {GRAPH6_MAX_N}" in err
        assert "cap" not in err

    def test_n_help_names_the_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["maxsize", "--help"])
        assert f"number of vertices, at most {GRAPH6_MAX_N}" in capsys.readouterr().out


class TestVerifyCommand:
    def test_appendix_suite(self, capsys):
        code, report, err = run_cli(
            capsys, ["verify", "--suite", "appendix"]
        )
        assert code == 0
        assert report["result"]["passed"] is True
        (suite,) = report["result"]["suites"]
        assert suite["suite"] == "appendix"
        assert suite["checks"] == 96
        assert "elapsed_ms" not in suite, "stdout reports carry no timing"
        assert "PASS" in err

    def test_seed_echoed(self, capsys):
        _, report, _ = run_cli(
            capsys, ["verify", "--suite", "twins", "--seed", "9"]
        )
        assert report["provenance"]["seed"] == 9

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--suite", "nope"])
        assert code == 2 and "unknown suite" in err

    def test_report_round_trips(self, capsys):
        _, report, _ = run_cli(capsys, ["verify", "--suite", "twins"])
        assert json.loads(json.dumps(report)) == report


def test_module_entry_point_matches_main(capsys):
    argv = ["maxsize", "--n", "6", "--modulus", "30"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(lightsout.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "lightsout", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
