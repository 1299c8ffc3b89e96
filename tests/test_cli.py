from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import linkscope
from linkscope import cli, identifiability, witness
from linkscope.cli import main
from linkscope.decomposition import biconnected_components, triconnected_components
from linkscope.graph import parse_graph, serialize

from .conftest import G11_LINKS, STALL_EDGES, k_n, random_connected_graph


K4_TEXT = "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(K4_TEXT)
    return str(p)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text("1 2\n2 3\n3 4\n1 4\n")
    return str(p)


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("1 2\n1 3\n2 3\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


class TestCheck:
    def test_k4(self, capsys, k4_file):
        code, report = run(capsys, ["check", k4_file, "--monitors", "1,2"])
        assert code == 0
        assert report["condition1"] is True
        assert report["condition2"] is True
        assert report["prop2"] is True
        assert report["bridges"] == []
        assert report["vertex_connectivity"] == 3

    def test_c4_opposite(self, capsys, c4_file):
        code, report = run(capsys, ["check", c4_file, "--monitors", "1,3"])
        assert code == 0
        assert report["condition2"] is False

    def test_three_monitors_get_extended_checks(self, capsys, k4_file):
        code, report = run(capsys, ["check", k4_file, "--monitors", "1,2,3"])
        assert code == 0
        assert report["prop5"] == {"lhs": True, "rhs": True}
        assert report["prop6"] == {"lhs": True, "rhs": True}
        assert "condition1" not in report

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/g.txt", "--monitors", "1,2"]) == 2

    def test_bad_monitor_id(self, capsys, k4_file):
        assert main(["check", k4_file, "--monitors", "1,9"]) == 3

    def test_malformed_graph(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 1\n")
        assert main(["check", str(p), "--monitors", "1,2"]) == 2


class TestPlace:
    def test_k4(self, capsys, k4_file):
        code, report = run(capsys, ["place", k4_file])
        assert code == 0
        assert report["monitors"] == [1, 2, 3]
        assert report["k_min"] == 3
        assert report["verified"] is True
        assert report["tiebreak"] == {"policy": "lowest", "seed": None}

    def test_c4(self, capsys, c4_file):
        code, report = run(capsys, ["place", c4_file])
        assert code == 0
        assert report["monitors"] == [1, 2, 3, 4]

    def test_decomposition_payload(self, capsys, k4_file):
        _, report = run(capsys, ["place", k4_file])
        blocks = report["decomposition"]["blocks"]
        assert len(blocks) == 1
        comp = blocks[0]["triconnected_components"][0]
        assert comp["nodes"] == [1, 2, 3, 4]
        assert comp["s_t"] == 0
        assert comp["virtual_edges"] == []

    def test_seeded_tiebreak_recorded(self, capsys, k4_file):
        code, report = run(capsys, ["place", k4_file, "--seed", "7"])
        assert code == 0
        assert report["tiebreak"] == {"policy": "seeded", "seed": 7}
        assert len(report["monitors"]) == 3

    def test_too_small(self, capsys, tmp_path):
        p = tmp_path / "edge.txt"
        p.write_text("1 2\n")
        assert main(["place", str(p)]) == 3

    def test_disconnected(self, capsys, tmp_path):
        p = tmp_path / "two.txt"
        p.write_text("1 2\n2 3\n1 3\n4 5\n")
        assert main(["place", str(p)]) == 3
        assert capsys.readouterr().err == "error: graph must be connected\n"

    def test_verified_null_when_cap_stops_rank_oracle(self, capsys, k4_file, monkeypatch):
        _, report = run(capsys, ["place", k4_file])
        assert (report["verified"], report["evidence"]) == (True, "constructed paths")
        monkeypatch.setenv("LINKSCOPE_PATH_CAP", "1")
        code, report = run(capsys, ["place", k4_file])
        assert code == 0
        assert (report["verified"], report["evidence"]) == (None, None)

    def test_evidence_null_when_cap_stops_rank_oracle(self, capsys, k4_file, monkeypatch):
        _, report = run(capsys, ["place", k4_file])
        assert report["evidence"] == "constructed paths"
        monkeypatch.setenv("LINKSCOPE_PATH_CAP", "1")
        _, report = run(capsys, ["place", k4_file])
        assert report["evidence"] is None

    @pytest.mark.parametrize(
        "verdict, evidence",
        [(True, "constructed paths"), (False, "extended graph"), (None, None)],
        ids=["true", "false", "none"],
    )
    def test_evidence_names_each_verdict(self, capsys, k4_file, monkeypatch, verdict, evidence):
        # no real input reaches "extended graph": mmp's placements pass that test
        monkeypatch.setattr(cli, "verify_placement", lambda *args, **kwargs: verdict)
        code, report = run(capsys, ["place", k4_file])
        assert code == 0
        assert (report["verified"], report["evidence"]) == (verdict, evidence)

    def test_stalled_input_verified_by_constructed_paths(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "stall.txt"
        p.write_text("".join(f"{u} {v}\n" for u, v in STALL_EDGES))
        monkeypatch.setenv("LINKSCOPE_PATH_CAP", "2000")
        code, report = run(capsys, ["place", str(p)])
        assert code == 0
        assert report["verified"] is True
        assert report["evidence"] == "constructed paths"

    def test_constructed_rows_settle_g11(self, capsys, tmp_path, monkeypatch, no_path_search):
        # mmp places 1, 5 and 8; the least cap that settles G11 is 38: 5
        # rounds, round 0's 13 rows, 16 guided scans and the 4 rows they fed
        p = tmp_path / "g11.txt"
        p.write_text("nodes: 11\n" + "".join(f"{u} {v}\n" for u, v in G11_LINKS))
        for cap in (None, "38", "37"):
            if cap is None:
                monkeypatch.delenv("LINKSCOPE_PATH_CAP", raising=False)
            else:
                monkeypatch.setenv("LINKSCOPE_PATH_CAP", cap)
            code, report = run(capsys, ["place", str(p)])
            assert code == 0
            assert report["monitors"] == [1, 5, 8]
            if cap == "37":
                assert (report["verified"], report["evidence"]) == (None, None)
            else:
                assert (report["verified"], report["evidence"]) == (True, "constructed paths")

    def test_decomposition_matches_fresh_decomposition(self, capsys, tmp_path):
        for seed in range(4):
            g = random_connected_graph(10, 0.3, 300 + seed)
            blocks = biconnected_components(g)
            assert len(blocks) > 1
            p = tmp_path / f"g{seed}.txt"
            p.write_text(serialize(g))
            _, report = run(capsys, ["place", str(p)])
            want = [
                {
                    "nodes": sorted(b.nodes),
                    "edges": [f"{u}-{v}" for u, v in sorted(b.edges)],
                    "cut_vertices": sorted(b.cut_vertices),
                    "c_b": b.c_b,
                    "triconnected_components": [
                        {
                            "nodes": sorted(t.nodes),
                            "real_edges": [f"{u}-{v}" for u, v in sorted(t.real_edges)],
                            "virtual_edges": [f"{u}-{v}" for u, v in sorted(t.virtual_edges)],
                            "separation_vertices": sorted(t.separation_vertices),
                            "s_t": t.s_t,
                        }
                        for t in (triconnected_components(b) if len(b.nodes) >= 3 else [])
                    ],
                }
                for b in blocks
            ]
            assert report["decomposition"] == {"blocks": want}


class TestIdentify:
    def test_k4(self, capsys, k4_file):
        code, report = run(capsys, ["identify", k4_file, "--monitors", "1,2"])
        assert code == 0
        assert report["rank"] == 5
        assert report["identifiable"] == ["1-2", "3-4"]
        assert report["fully_identifiable"] is False
        assert report["paths"] == 5

    def test_weights_and_recovery(self, capsys, tri_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1 2 1\n1 3 2\n2 3 3\n")
        code, report = run(capsys, ["identify", tri_file, "--monitors", "1,2", "--weights", str(w)])
        assert code == 0
        assert report["measurements"] == ["1", "5"]
        assert report["recovered"] == {"1-2": "1"}

    def test_rational_weights(self, capsys, tri_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1 2 3/2\n1 3 1/3\n2 3 2\n")
        code, report = run(capsys, ["identify", tri_file, "--monitors", "1,2", "--weights", str(w)])
        assert code == 0
        assert report["measurements"] == ["3/2", "7/3"]
        assert report["recovered"] == {"1-2": "3/2"}

    def test_weights_give_the_same_verdict(self, capsys, tmp_path):
        keys = ("paths", "rank", "identifiable", "unidentifiable", "fully_identifiable")
        full = set()
        for seed in range(6):
            g = random_connected_graph(8, 0.45, 700 + seed)
            p, w = tmp_path / f"g{seed}.txt", tmp_path / f"w{seed}.txt"
            p.write_text(serialize(g))
            w.write_text("".join(f"{u} {v} {(u * v) % 7 + 1}/{u % 3 + 1}\n" for u, v in sorted(g.edges)))
            monitors = ",".join(str(m) for m in sorted(g.nodes)[: 2 + seed % 3])
            _, plain = run(capsys, ["identify", str(p), "--monitors", monitors])
            code, weighted = run(capsys, ["identify", str(p), "--monitors", monitors, "--weights", str(w)])
            assert code == 0
            assert {k: weighted[k] for k in keys} == {k: plain[k] for k in keys}
            full.add(plain["fully_identifiable"])
        assert full == {True, False}

    def test_weights_reduce_once(self, capsys, tri_file, tmp_path, monkeypatch):
        built = []

        class Counting(identifiability._Reducer):
            def __init__(self, ncols):
                built.append(ncols)
                super().__init__(ncols)

        monkeypatch.setattr(identifiability, "_Reducer", Counting)
        w = tmp_path / "w.txt"
        w.write_text("1 2 1\n1 3 2\n2 3 3\n")
        code, report = run(capsys, ["identify", tri_file, "--monitors", "1,2", "--weights", str(w)])
        assert code == 0
        assert report["rank"] == 2
        assert built == [3]

    def test_weights_comments_and_blank_lines_skipped(self, capsys, tri_file, tmp_path):
        plain, annotated = tmp_path / "plain.txt", tmp_path / "annotated.txt"
        plain.write_text("1 2 1\n1 3 2\n2 3 3\n")
        annotated.write_text("# link weights\n1 2 1\n\n1 3 2  # the long way\n2 3 3\n")
        reports = [run(capsys, ["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]) for w in (plain, annotated)]
        assert reports[0][0] == 0
        assert reports[1] == reports[0]

    def test_cap_exceeded(self, capsys, tri_file, monkeypatch):
        monkeypatch.setenv("LINKSCOPE_PATH_CAP", "1")
        assert main(["identify", tri_file, "--monitors", "1,2"]) == 4
        assert capsys.readouterr().err == "error: number of measurement paths exceeds cap 1\n"

    def test_env_cap(self, capsys, tri_file, monkeypatch):
        monkeypatch.setenv("LINKSCOPE_PATH_CAP", "1")
        assert main(["identify", tri_file, "--monitors", "1,2"]) == 4

    @pytest.mark.parametrize("second", ["1 2 5", "2 1 5"])
    def test_duplicate_weight_rejected(self, capsys, tri_file, tmp_path, second):
        w = tmp_path / "w.txt"
        w.write_text(f"1 2 3\n1 3 2\n2 3 1\n{second}\n")
        assert main(["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_self_loop_weight_rejected(self, capsys, tri_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1 2 3\n1 1 5\n")
        assert main(["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_incomplete_weights(self, capsys, tri_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1 2 1\n")
        assert main(["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]) == 3

    def test_matrix_dump(self, capsys, tri_file, tmp_path):
        out = tmp_path / "matrix.txt"
        code, _ = run(
            capsys,
            ["identify", tri_file, "--monitors", "1,2", "--dump-matrix", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "1,2 ; 100 ; "
        assert lines[1] == "1,3,2 ; 011 ; "

    def test_weighted_matrix_dump(self, capsys, k4_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1 2 1\n1 3 2\n1 4 3\n2 3 1/2\n2 4 5\n3 4 7/3\n")
        out = tmp_path / "matrix.txt"
        argv = ["identify", k4_file, "--monitors", "1,2", "--weights", str(w), "--dump-matrix", str(out)]
        code, report = run(capsys, argv)
        assert code == 0
        assert report["recovered"] == {"1-2": "1", "3-4": "7/3"}
        assert out.read_text() == (
            "1,2 ; 100000 ; 1\n"
            "1,3,2 ; 010100 ; 5/2\n"
            "1,4,2 ; 001010 ; 8\n"
            "1,3,4,2 ; 010011 ; 28/3\n"
            "1,4,3,2 ; 001101 ; 35/6\n"
        )


class TestHostileInput:
    def test_non_utf8_graph_file(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"1 2\n\xff\xfe 3\n")
        assert main(["check", str(p), "--monitors", "1,2"]) == 2

    def test_non_utf8_weights_file(self, capsys, tri_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_bytes(b"1 2 1\n1 3 \xff\n")
        assert main(["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]) == 2

    @pytest.mark.parametrize("text", [K4_TEXT, "nodes: 4\n" + K4_TEXT], ids=["edges", "header"])
    def test_bom_graph_file(self, capsys, tmp_path, text):
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            p = tmp_path / "g.txt"
            p.write_bytes(prefix + text.encode())
            assert main(["check", str(p), "--monitors", "1,2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_bom_weights_file(self, capsys, tri_file, tmp_path):
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            w = tmp_path / "w.txt"
            w.write_bytes(prefix + b"1 2 1\n1 3 5/2\n2 3 1\n")
            assert main(["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["1e5000", "2E-3", "1.5e2"])
    def test_exponent_weight_rejected(self, capsys, tri_file, tmp_path, value):
        w = tmp_path / "w.txt"
        w.write_text(f"1 2 1\n1 3 {value}\n2 3 1\n")
        assert main(["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, err",
        [
            ("1 3", "error: line 2: expected 'u v value', got '1 3'\n"),
            ("1 3 x/y", "error: line 2: malformed weight line '1 3 x/y'\n"),
            ("1 3 1/0", "error: line 2: malformed weight line '1 3 1/0'\n"),
            ("-1 3 1", "error: line 2: node ids must be non-negative\n"),
            ("1_0 3 1", "error: line 2: malformed weight line '1_0 3 1'\n"),
            ("\u0661 3 1", "error: line 2: malformed weight line '\u0661 3 1'\n"),
            ("1 3 1_0", "error: line 2: malformed weight line '1 3 1_0'\n"),
            ("1 3 \u0661", "error: line 2: malformed weight line '1 3 \u0661'\n"),
            ("1 3 1/\u0662", "error: line 2: malformed weight line '1 3 1/\u0662'\n"),
        ],
        ids=[
            "two-fields",
            "malformed-value",
            "zero-denominator",
            "negative-id",
            "underscore-id",
            "non-ascii-id",
            "underscore-value",
            "non-ascii-value",
            "non-ascii-denominator",
        ],
    )
    def test_bad_weight_line(self, capsys, tri_file, tmp_path, line, err):
        w = tmp_path / "w.txt"
        w.write_text(f"1 2 1\n{line}\n2 3 1\n")
        assert main(["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command", [["place"], ["identify", "--monitors", "1,2"]], ids=["place", "identify"])
    def test_bad_env_cap(self, capsys, k4_file, monkeypatch, command):
        monkeypatch.setenv("LINKSCOPE_PATH_CAP", "abc")
        assert main([command[0], k4_file, *command[1:]]) == 2
        assert capsys.readouterr().err == "error: bad LINKSCOPE_PATH_CAP value 'abc'\n"

    def test_nonpositive_env_cap_before_weights(self, capsys, tri_file, tmp_path, monkeypatch):
        # the cap is checked before the weights file is read
        w = tmp_path / "w.txt"
        w.write_text("not a weight line\n")
        monkeypatch.setenv("LINKSCOPE_PATH_CAP", "0")
        assert main(["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]) == 3
        assert capsys.readouterr().err == "error: cap must be positive\n"

    @pytest.mark.parametrize(
        "cap, code, err",
        [
            ("abc", 2, "bad LINKSCOPE_PATH_CAP value 'abc'"),
            ("\u0661\u0660", 2, "bad LINKSCOPE_PATH_CAP value '\u0661\u0660'"),
            ("1_0", 2, "bad LINKSCOPE_PATH_CAP value '1_0'"),
            ("0", 3, "cap must be positive"),
            ("-1", 3, "cap must be positive"),
        ],
        ids=["abc", "arabic-indic", "underscore", "0", "-1"],
    )
    def test_bad_env_cap_exits_before_placement(self, capsys, k4_file, monkeypatch, cap, code, err):
        def no_placement(*args):
            raise AssertionError("mmp ran before the path cap was read")

        monkeypatch.setattr(cli, "mmp", no_placement)
        monkeypatch.setenv("LINKSCOPE_PATH_CAP", cap)
        assert main(["place", k4_file]) == code
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "link, err",
        [
            ("3--4", "malformed link '3--4', expected 'u-v'"),
            ("a-b", "malformed link 'a-b'"),
            ("\u0663-4", "malformed link '\u0663-4'"),
            ("3-4_0", "malformed link '3-4_0'"),
        ],
        ids=["three-parts", "not-numbers", "arabic-indic", "underscore"],
    )
    def test_bad_link(self, capsys, k4_file, link, err):
        argv = ["witness", k4_file, "--monitors", "1,2", "--link", link, "--kind", "lemma3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "header, err",
        [
            ("nodes: x", "malformed node-count header"),
            ("nodes: -1", "node count must be non-negative"),
            ("nodes: 1_0", "malformed node-count header"),
        ],
        ids=["not-a-number", "negative", "underscore"],
    )
    def test_bad_node_count_header(self, capsys, tmp_path, header, err):
        p = tmp_path / "g.txt"
        p.write_text(f"{header}\n1 2\n")
        assert main(["check", str(p), "--monitors", "1,2"]) == 2
        assert capsys.readouterr().err == f"error: line 1: {err}\n"

    @pytest.mark.parametrize(
        "text, err",
        [("1_0 2\n", "malformed token in '1_0 2'"), ("-1 2\n", "node ids must be non-negative")],
        ids=["underscore", "negative"],
    )
    def test_bad_edge_token(self, capsys, tmp_path, text, err):
        p = tmp_path / "g.txt"
        p.write_text(text)
        assert main(["check", str(p), "--monitors", "1,2"]) == 2
        assert capsys.readouterr().err == f"error: line 1: {err}\n"

    # int() would read "1_0" as 10 and the Arabic-Indic digit one as 1
    @pytest.mark.parametrize("monitors", ["1_0,2", "\u0661,2"], ids=["underscore", "arabic-indic"])
    def test_bad_monitor_token(self, capsys, k4_file, monitors):
        assert main(["check", k4_file, "--monitors", monitors]) == 2
        assert capsys.readouterr().err == f"error: malformed monitor list {monitors!r}\n"

    @pytest.mark.parametrize("seed", ["abc", "1_0", "\u0661"], ids=["not-a-number", "underscore", "arabic-indic"])
    def test_bad_seed_token(self, capsys, k4_file, seed):
        with pytest.raises(SystemExit) as exc:
            main(["place", k4_file, "--seed", seed])
        assert exc.value.code == 2
        assert f"--seed: invalid int value: {seed!r}" in capsys.readouterr().err

    def test_decimal_weight_accepted(self, capsys, tri_file, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1 2 0.5\n1 3 1\n2 3 2\n")
        code, report = run(capsys, ["identify", tri_file, "--monitors", "1,2", "--weights", str(w)])
        assert code == 0
        assert report["measurements"] == ["1/2", "3"]

    # each weight prints, but the path 1-3-2 sums to a fraction whose
    # denominator has about 5,000 digits, beyond the default limit of 4,300
    LONG_A, LONG_B = 10**2500 + 1, 3 * 10**2500 + 7

    def _long_sum_argv(self, tri_file, tmp_path) -> list[str]:
        w = tmp_path / "w.txt"
        w.write_text(f"1 2 1\n1 3 1/{self.LONG_A}\n2 3 1/{self.LONG_B}\n")
        return ["identify", tri_file, "--monitors", "1,2", "--weights", str(w)]

    def test_measurement_too_long_to_print_is_a_cap(self, capsys, tri_file, tmp_path):
        code = main(self._long_sum_argv(tri_file, tmp_path))
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert str(sys.get_int_max_str_digits()) in captured.err

    def test_no_print_limit_prints_long_measurements(self, capsys, tri_file, tmp_path):
        a, b = self.LONG_A, self.LONG_B
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # 0 lifts the limit
        try:
            code, report = run(capsys, self._long_sum_argv(tri_file, tmp_path))
            assert code == 0
            assert report["measurements"][1] == f"{a + b}/{a * b}"
        finally:
            sys.set_int_max_str_digits(limit)


@st.composite
def _cli_inputs(draw):
    """Random bytes, or text shaped like the input formats so that some
    draws get past parsing and run the whole command."""
    pairs = st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda e: e[0] < e[1])
    edges = sorted(draw(st.sets(pairs, min_size=1, max_size=12)))
    values = st.sampled_from(["1", "7", "2/3", "0.5", "3/2", "12", "1e9", "0"])
    graph = draw(
        st.one_of(
            st.binary(max_size=40),
            st.text(alphabet="0123456789 \n#:,-./nodes", max_size=40).map(str.encode),
            st.just("".join(f"{u} {v}\n" for u, v in edges).encode()),
        )
    )
    monitor_ids = st.lists(st.integers(1, 6), min_size=2, max_size=4, unique=True)
    monitors = draw(
        st.one_of(st.binary(max_size=8), monitor_ids.map(lambda ms: ",".join(map(str, ms)).encode()))
    )
    weights = draw(
        st.one_of(
            st.binary(max_size=40),
            st.lists(values, min_size=len(edges), max_size=len(edges)).map(
                lambda vs: "".join(f"{u} {v} {x}\n" for (u, v), x in zip(edges, vs)).encode()
            ),
        )
    )
    return graph, monitors, weights


class TestFuzz:
    @given(command=st.sampled_from(["check", "place", "identify", "witness"]), inputs=_cli_inputs())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_random_inputs_end_in_documented_exit_codes(self, command, inputs):
        graph, monitors, weights = inputs
        with tempfile.TemporaryDirectory() as tmp:
            gpath, wpath = os.path.join(tmp, "g.txt"), os.path.join(tmp, "w.txt")
            with open(gpath, "wb") as fh:
                fh.write(graph)
            with open(wpath, "wb") as fh:
                fh.write(weights)
            argv = [command, gpath]
            if command != "place":
                argv += ["--monitors", monitors.decode("latin-1")]
            if command == "identify":
                argv += ["--weights", wpath]
            if command == "witness":
                argv += ["--link", "1-2", "--kind", "lemma3"]
            cap = {"LINKSCOPE_PATH_CAP": "500"} if command == "identify" else {}
            with mock.patch.dict(os.environ, cap), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
        assert code in (0, 2, 3, 4)
        try:
            g = parse_graph(graph.decode("utf-8"))
            text = serialize(g)
        except ValueError:  # not a graph, or isolated nodes with no header form
            return
        assert parse_graph(text) == g


class TestWitness:
    def test_lemma3(self, capsys, k4_file):
        code, report = run(
            capsys, ["witness", k4_file, "--monitors", "1,2", "--link", "3-4", "--kind", "lemma3"]
        )
        assert code == 0
        assert report == {
            "kind": "lemma3",
            "found": True,
            "link": "3-4",
            "cycle_f": [1, 3, 4],
            "cycle_c": [2, 3, 4],
            "path_1": [1],
            "path_2": [2],
        }

    def test_nonsep_found(self, capsys, k4_file):
        code, report = run(
            capsys, ["witness", k4_file, "--monitors", "1,2", "--link", "3-4", "--kind", "nonsep"]
        )
        assert code == 0
        assert report == {"kind": "nonsep", "found": True, "cycle": [1, 3, 4]}

    def test_cycle_guard(self, capsys, tmp_path, monkeypatch):
        # K7 has 1,172 cycles
        monkeypatch.setattr(witness, "CYCLE_GUARD", 1000)
        p = tmp_path / "k7.txt"
        p.write_text(serialize(k_n(7)))
        assert main(["witness", str(p), "--monitors", "1,2", "--link", "3-4", "--kind", "nonsep"]) == 3
        assert capsys.readouterr().err == "error: cycle table limited to 1000 cycles, graph has more\n"

    def test_nonsep_not_found(self, capsys, tri_file):
        code, report = run(
            capsys,
            ["witness", tri_file, "--monitors", "1,2", "--link", "1-3", "--kind", "nonsep", "--exclude-monitors"],
        )
        assert code == 0
        assert report == {"kind": "nonsep", "found": False}

    def test_lemma4_kind_tagged(self, capsys, tmp_path):
        p = tmp_path / "caseb.txt"
        p.write_text("1 2\n1 3\n1 4\n1 5\n2 3\n2 5\n3 4\n")
        code, report = run(
            capsys, ["witness", str(p), "--monitors", "4,5", "--link", "2-3", "--kind", "lemma4"]
        )
        assert code == 0
        assert report == {
            "kind": "lemma4",
            "found": True,
            "link": "2-3",
            "cycle": [1, 2, 3],
            "path_to_v": [5, 2],
            "path_to_w": [4, 3],
        }

    @pytest.mark.parametrize("kind", ["lemma3", "lemma4"])
    def test_exclude_monitors_only_for_nonsep(self, capsys, k4_file, kind):
        argv = ["witness", k4_file, "--monitors", "1,2", "--link", "3-4", "--kind", kind]
        assert main([*argv, "--exclude-monitors"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --exclude-monitors applies only to --kind nonsep\n"

    def test_too_large(self, capsys, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text("\n".join(f"{i} {i + 1}" for i in range(1, 20)) + "\n20 1\n")
        assert main(["witness", str(p), "--monitors", "1,2", "--link", "1-2", "--kind", "nonsep"]) == 3

    def test_exterior_link(self, capsys, k4_file):
        assert main(["witness", k4_file, "--monitors", "1,2", "--link", "1-3", "--kind", "lemma3"]) == 3


class TestGoldenReport:
    @pytest.mark.parametrize("obj, name", [(object(), "object"), (b"1-2", "bytes"), (1j, "complex")])
    def test_plain_rejects_a_type_it_has_no_form_for(self, obj, name):
        with pytest.raises(TypeError, match=f"^no report form for {name}$"):
            cli._plain(obj)

    def test_place_bowtie_full_json(self, capsys, tmp_path):
        p = tmp_path / "bowtie.txt"
        p.write_text("1 2\n1 5\n2 5\n3 4\n3 5\n4 5\n")
        code = main(["place", str(p)])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got == {
            "monitors": [1, 2, 3, 4],
            "k_min": 4,
            "verified": True,
            "evidence": "constructed paths",
            "tiebreak": {"policy": "lowest", "seed": None},
            "stage1_degree_monitors": [1, 2, 3, 4],
            "per_triconnected": [
                {"block": 0, "component": 0, "nodes": [1, 2, 5], "s_t": 1, "m_t": 2, "added": []},
                {"block": 1, "component": 0, "nodes": [3, 4, 5], "s_t": 1, "m_t": 2, "added": []},
            ],
            "per_biconnected": [
                {"block": 0, "nodes": [1, 2, 5], "c_b": 1, "m_b": 2, "added": []},
                {"block": 1, "nodes": [3, 4, 5], "c_b": 1, "m_b": 2, "added": []},
            ],
            "topup": [],
            "decomposition": {
                "blocks": [
                    {
                        "nodes": [1, 2, 5],
                        "edges": ["1-2", "1-5", "2-5"],
                        "cut_vertices": [5],
                        "c_b": 1,
                        "triconnected_components": [
                            {
                                "nodes": [1, 2, 5],
                                "real_edges": ["1-2", "1-5", "2-5"],
                                "virtual_edges": [],
                                "separation_vertices": [5],
                                "s_t": 1,
                            }
                        ],
                    },
                    {
                        "nodes": [3, 4, 5],
                        "edges": ["3-4", "3-5", "4-5"],
                        "cut_vertices": [5],
                        "c_b": 1,
                        "triconnected_components": [
                            {
                                "nodes": [3, 4, 5],
                                "real_edges": ["3-4", "3-5", "4-5"],
                                "virtual_edges": [],
                                "separation_vertices": [5],
                                "s_t": 1,
                            }
                        ],
                    },
                ]
            },
        }


# node ids from 9 up: the link "10-11" sorts after "9-10" by its ends but
# before it as a string, and a set of links iterates in neither order
K4_HI = "9 10\n9 11\n9 12\n10 11\n10 12\n11 12\n"
FIVE_HI = "9 10\n9 11\n9 12\n9 13\n10 11\n10 13\n11 12\n"
# a triangle with a two-link tail: two bridges and two cut vertices
TAIL_HI = "9 10\n9 11\n10 11\n11 12\n12 13\n"
K4_HI_WEIGHTS = "9 10 1\n9 11 2/3\n9 12 5\n10 11 7/2\n10 12 1/4\n11 12 3\n"


class TestGoldenStdout:
    """The whole stdout of each report, byte for byte: the key order, the
    indentation, the sort of every set and the rendering of links and
    rationals."""

    CASES = {
        "check-two": (
            FIVE_HI,
            ["check", "--monitors", "12,13"],
            """\
{
  "bridges": [],
  "condition1": true,
  "condition2": true,
  "cut_vertices": [],
  "exterior_links": [
    "9-12",
    "9-13",
    "10-13",
    "11-12"
  ],
  "graph": {
    "edges": [
      "9-10",
      "9-11",
      "9-12",
      "9-13",
      "10-11",
      "10-13",
      "11-12"
    ],
    "nodes": [
      9,
      10,
      11,
      12,
      13
    ]
  },
  "interior_connected": true,
  "monitors": [
    12,
    13
  ],
  "prop2": true,
  "vertex_connectivity": 2
}
""",
        ),
        "check-two-bridges": (
            TAIL_HI,
            ["check", "--monitors", "9,13"],
            """\
{
  "bridges": [
    "11-12",
    "12-13"
  ],
  "condition1": false,
  "condition2": false,
  "cut_vertices": [
    11,
    12
  ],
  "exterior_links": [
    "9-10",
    "9-11",
    "12-13"
  ],
  "graph": {
    "edges": [
      "9-10",
      "9-11",
      "10-11",
      "11-12",
      "12-13"
    ],
    "nodes": [
      9,
      10,
      11,
      12,
      13
    ]
  },
  "interior_connected": true,
  "monitors": [
    9,
    13
  ],
  "prop2": false,
  "vertex_connectivity": 1
}
""",
        ),
        "check-three": (
            K4_HI,
            ["check", "--monitors", "9,10,11"],
            """\
{
  "bridges": [],
  "cut_vertices": [],
  "graph": {
    "edges": [
      "9-10",
      "9-11",
      "9-12",
      "10-11",
      "10-12",
      "11-12"
    ],
    "nodes": [
      9,
      10,
      11,
      12
    ]
  },
  "monitors": [
    9,
    10,
    11
  ],
  "prop5": {
    "lhs": true,
    "rhs": true
  },
  "prop6": {
    "lhs": true,
    "rhs": true
  },
  "vertex_connectivity": 3
}
""",
        ),
        "identify": (
            K4_HI,
            ["identify", "--monitors", "9,10"],
            """\
{
  "fully_identifiable": false,
  "identifiable": [
    "9-10",
    "11-12"
  ],
  "monitors": [
    9,
    10
  ],
  "paths": 5,
  "rank": 5,
  "unidentifiable": [
    "9-11",
    "9-12",
    "10-11",
    "10-12"
  ]
}
""",
        ),
        "identify-weights": (
            K4_HI,
            ["identify", "--monitors", "9,10", "--weights", "w.txt"],
            """\
{
  "fully_identifiable": false,
  "identifiable": [
    "9-10",
    "11-12"
  ],
  "measurements": [
    "1",
    "25/6",
    "21/4",
    "47/12",
    "23/2"
  ],
  "monitors": [
    9,
    10
  ],
  "paths": 5,
  "rank": 5,
  "recovered": {
    "11-12": "3",
    "9-10": "1"
  },
  "unidentifiable": [
    "9-11",
    "9-12",
    "10-11",
    "10-12"
  ]
}
""",
        ),
        "lemma3-found": (
            FIVE_HI,
            ["witness", "--monitors", "12,13", "--link", "10-11", "--kind", "lemma3"],
            """\
{
  "cycle_c": [
    9,
    10,
    11,
    12
  ],
  "cycle_f": [
    9,
    10,
    11
  ],
  "found": true,
  "kind": "lemma3",
  "link": "10-11",
  "path_1": [
    13,
    9
  ],
  "path_2": [
    12
  ]
}
""",
        ),
        "lemma3-not-found": (
            TAIL_HI,
            ["witness", "--monitors", "9,13", "--link", "10-11", "--kind", "lemma3"],
            """\
{
  "found": false,
  "kind": "lemma3"
}
""",
        ),
        "lemma4-found": (
            FIVE_HI,
            ["witness", "--monitors", "12,13", "--link", "10-11", "--kind", "lemma4"],
            """\
{
  "cycle": [
    9,
    10,
    11
  ],
  "found": true,
  "kind": "lemma4",
  "link": "10-11",
  "path_to_v": [
    13,
    10
  ],
  "path_to_w": [
    12,
    11
  ]
}
""",
        ),
        "lemma4-not-found": (
            K4_HI,
            ["witness", "--monitors", "9,10", "--link", "11-12", "--kind", "lemma4"],
            """\
{
  "found": false,
  "kind": "lemma4"
}
""",
        ),
        "nonsep-found": (
            FIVE_HI,
            ["witness", "--monitors", "12,13", "--link", "10-11", "--kind", "nonsep"],
            """\
{
  "cycle": [
    9,
    10,
    11
  ],
  "found": true,
  "kind": "nonsep"
}
""",
        ),
        "nonsep-not-found": (
            TAIL_HI,
            ["witness", "--monitors", "9,13", "--link", "11-12", "--kind", "nonsep"],
            """\
{
  "found": false,
  "kind": "nonsep"
}
""",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_stdout(self, capsys, tmp_path, monkeypatch, case):
        graph, args, expected = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text(graph)
        (tmp_path / "w.txt").write_text(K4_HI_WEIGHTS)
        assert main([args[0], "g.txt", *args[1:]]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")


class TestStartup:
    def test_cli_import_skips_dataclasses_and_inspect(self):
        # every run of the CLI pays for what importing it loads
        src = os.path.dirname(os.path.dirname(linkscope.__file__))
        probe = "import sys, linkscope.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cli_import_skips_witness_and_corpus(self):
        # only the witness and corpus commands use them; they import them
        src = os.path.dirname(os.path.dirname(linkscope.__file__))
        probe = "import sys, linkscope.cli; print(sorted({'linkscope.witness', 'linkscope.corpus'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cli_import_skips_fractions_and_decimal(self):
        # only identify reads and prints rationals; the modules that use
        # them import fractions, and with it decimal, when they run
        src = os.path.dirname(os.path.dirname(linkscope.__file__))
        probe = "import sys, linkscope.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestLayering:
    # monitor sets are checked in the graph layer, so the rank oracle and
    # the witness searches load no connectivity conditions
    @pytest.mark.parametrize(
        "module, absent",
        [
            ("linkscope.identifiability", ("linkscope.tomography", "linkscope.connectivity")),
            ("linkscope.witness", ("linkscope.tomography",)),
        ],
        ids=["identifiability", "witness"],
    )
    def test_import_skips(self, module, absent):
        src = os.path.dirname(os.path.dirname(linkscope.__file__))
        probe = f"import sys, {module}; print(sorted({set(absent)!r} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestCorpusDump:
    def test_round_trips(self, capsys):
        code = main(["corpus", "dump", "fig1a_bridge"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# monitors: 1,8\n")
        g = parse_graph(out)
        assert g.node_count == 8

    def test_to_file(self, capsys, tmp_path):
        out = tmp_path / "fixture.txt"
        assert main(["corpus", "dump", "k4_m12", "--out", str(out)]) == 0
        assert len(parse_graph(out.read_text()).edges) == 6

    def test_unknown_fixture(self, capsys):
        assert main(["corpus", "dump", "no_such_fixture"]) == 3


class TestReadme:
    """The README's CLI block names exactly the options of each command."""

    @staticmethod
    def _help(argv: list[str]) -> str:
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit):
            main([*argv, "--help"])
        return out.getvalue()

    def test_cli_block_flags_match_the_parser(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        documented = {}
        for line in block.splitlines():
            if line.startswith("linkscope "):
                words = line.split()
                command = words[1:3] if words[1] == "corpus" else words[1:2]
                documented[" ".join(command)] = (command, set(re.findall(r"--[a-z][a-z-]*", line)))
        commands = re.search(r"\{([a-z,]+)\}", self._help([])).group(1).split(",")
        assert {name.split()[0] for name in documented} == set(commands)
        for command, flags in documented.values():
            options = set(re.findall(r"--[a-z][a-z-]*", self._help(command))) - {"--help"}
            assert flags == options, command
