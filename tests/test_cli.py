import hashlib
import io
import json
import random
import sys
import time
from collections import Counter

import pytest

from madcycle.cli import run_cli
from madcycle.graph import build_graph
from madcycle.solver import solve


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write_k4(tmp_path):
    f = tmp_path / "k4.el"
    f.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return str(f)


def write_bowtie(tmp_path):
    f = tmp_path / "bowtie.el"
    f.write_text("0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n")
    return str(f)


def write_c5(tmp_path):
    f = tmp_path / "c5.el"
    f.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    return str(f)


class TestSolve:
    def test_k4_k0_json(self, tmp_path):
        code, out, _ = run(["solve", write_k4(tmp_path), "-k", "0", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["answer"] == "yes"
        assert len(obj["cycle"]) == 4
        assert obj["mad"] == {"num": 3, "den": 1}

    def test_k4_k2_exit_no(self, tmp_path):
        code, out, _ = run(["solve", write_k4(tmp_path), "-k", "2"])
        assert code == 1 and "answer no" in out

    def test_solve_verify_pipeline(self, tmp_path):
        path = write_k4(tmp_path)
        code, out, _ = run(["solve", path, "-k", "1", "--json"])
        assert code == 0
        cyc = json.loads(out)["cycle"]
        code, out, _ = run(
            ["verify", path, "--cycle", ",".join(map(str, cyc)), "--min-len", "4"]
        )
        assert code == 0 and out.strip() == "ok"

    def test_deterministic_stdout(self, tmp_path):
        path = write_k4(tmp_path)
        a = run(["solve", path, "-k", "1", "--json"])
        b = run(["solve", path, "-k", "1", "--json"])
        assert a == b


    def test_trace_included(self, tmp_path):
        # 2-connected host whose densest core is a bowtie: rule 2 fires
        f = tmp_path / "bowtie_ring.el"
        f.write_text(
            "0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n"
            "0 5\n5 6\n6 7\n7 8\n8 9\n9 10\n10 3\n"
        )
        code, out, _ = run(["solve", str(f), "-k", "0", "--json", "--trace"])
        assert code == 0
        obj = json.loads(out)
        assert len(obj["trace"]) >= 1
        assert all(
            {"rule", "removed", "eg_before", "eg_after"} <= set(s)
            for s in obj["trace"]
        )

    def test_small_side_a_is_unknown_not_usage_error(self, tmp_path):
        # K8 joined to 80 independent vertices at k=10: case (iii) is reached
        # with |A| = 8 < 3k'/2, which is valid input with no decided answer
        code, graph, _ = run(["gen", "lemma7_trace", "--param", "branch=bip_dense"])
        assert code == 0
        f = tmp_path / "bip.el"
        f.write_text(graph)
        code, out, err = run(["solve", str(f), "-k", "10", "--json"])
        assert code == 2 and err == ""
        obj = json.loads(out)
        assert obj["answer"] == "unknown" and obj["branch"] == "case_iii"
        assert "3k'/2" in obj["stats"]["reason"]

    def test_path_mode(self, tmp_path):
        code, out, _ = run(["solve", write_k4(tmp_path), "-k", "1", "--path", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["answer"] == "yes" and len(obj["path"]) >= obj["threshold_len"]


    def test_path_mode_k0_keeps_the_trace(self, tmp_path):
        # a triangle with the tail 2-0-1: path mode decides k=0 by the k=0
        # cycle of G plus a universal vertex, whose reduction peels the tail
        edges = [(0, 1), (0, 2), (2, 3), (2, 4), (3, 4)]
        f = tmp_path / "tail.el"
        f.write_text("".join(f"{u} {v}\n" for u, v in edges))
        code, out, _ = run(["solve", str(f), "-k", "0", "--path", "--json", "--trace"])
        assert code == 0
        obj = json.loads(out)
        assert obj["branch"] == "path_k0"
        plus_u = build_graph(edges + [(v, 5) for v in range(5)], 6)
        assert obj["trace"] == solve(plus_u, 0, with_trace=True).trace
        assert [step["rule"] for step in obj["trace"]] == [3, 3]

class TestVerify:
    def test_short_cycle_rejected(self, tmp_path):
        code, out, _ = run(
            ["verify", write_k4(tmp_path), "--cycle", "0,1,2", "--min-len", "4"]
        )
        assert code == 1 and "below claimed minimum" in out


class TestMad:
    def test_bowtie(self, tmp_path):
        code, out, _ = run(["mad", write_bowtie(tmp_path)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "12/5"
        assert lines[1] == "witness 0 1 2 3 4"


class TestGenOracleGadget:
    def test_gen_parses_back(self, tmp_path):
        code, out, _ = run(["gen", "gnp2c", "--seed", "3", "--param", "n=8"])
        assert code == 0
        from madcycle.instances import parse_graph

        g = parse_graph(out)
        assert g.n == 8

    @pytest.mark.parametrize(
        "family, params, meta",
        [
            ("gnp2c", ["n=9", "prob=0.6"], ["# n 9", "# prob 0.6"]),
            (
                "near_complete",
                ["n=30", "min_degree=20", "removals=5"],
                ["# n 30", "# min_degree 20", "# removed 5"],
            ),
            (
                "bipartite_dense",
                ["p=4", "k=1", "q=9", "prob=0.5"],
                ["# p 4", "# k 1", "# q 9"],
            ),
            ("lemma7_trace", ["branch=small_dense"], ["# branch small_dense"]),
        ],
        ids=["gnp2c", "near_complete", "bipartite_dense", "lemma7_trace"],
    )
    def test_gen_accepts_every_key_its_family_reads(self, family, params, meta):
        argv = ["gen", family, "--seed", "2"]
        for item in params:
            argv += ["--param", item]
        code, out, err = run(argv)
        assert code == 0 and err == ""
        assert set(meta) <= set(out.splitlines())

    @pytest.mark.parametrize("family, prob", [
        ("gnp2c", "0"), ("gnp2c", "-0.5"), ("gnp2c", "1.5"), ("gnp2c", "nan"),
        ("bipartite_dense", "-0.1"), ("bipartite_dense", "1.5"),
        ("bipartite_dense", "nan"),
    ])
    def test_gen_rejects_impossible_edge_probabilities(self, family, prob):
        # n=200 at prob 0 would reject-sample 5,000 empty graphs first
        size = ["--param", "n=200"] if family == "gnp2c" else []
        code, out, err = run(["gen", family, *size, "--param", f"prob={prob}"])
        assert code == 64 and out == ""
        assert "prob" in err

    def test_gnp2c_rejects_a_hopeless_prob_up_front(self):
        # about 20 expected edges where a 2-connected graph needs 200: the
        # 5,000 draws took seconds before the tail bound ruled them out
        start = time.perf_counter()
        code, out, err = run(["gen", "gnp2c", "--param", "n=200", "--param", "prob=0.001"])
        assert time.perf_counter() - start < 1
        assert code == 64 and out == ""
        assert "about 19.9 expected edges" in err and "at least 200" in err

    def test_gnp2c_samples_where_the_bound_does_not_rule_out(self):
        # 1.2 expected edges of the 3 needed: unlikely per draw, not hopeless
        code, out, err = run(["gen", "gnp2c", "--param", "n=3", "--param", "prob=0.4",
                              "--seed", "1"])
        assert code == 0 and err == ""
        assert out.splitlines()[-3:] == ["0 1", "0 2", "1 2"]

    def test_gnp2c_draws_the_same_bytes(self):
        # the edgelist the CI's parser step generates
        code, out, _ = run(["gen", "gnp2c", "--param", "n=40", "--param", "prob=0.2",
                            "--seed", "1"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "001ef956ff140de5ec89639c41f5b25c27a4d90fef5f5e31d0658ca06dfc947f"
        )

    @pytest.mark.parametrize("family, prob", [
        ("gnp2c", "1"), ("bipartite_dense", "0"), ("bipartite_dense", "1"),
    ])
    def test_gen_accepts_edge_probabilities_at_the_bounds(self, family, prob):
        code, out, err = run(["gen", family, "--param", "prob=" + prob])
        assert code == 0 and err == ""

    def test_oracle_cycle(self, tmp_path):
        code, out, _ = run(["oracle", "cycle", write_k4(tmp_path)])
        assert code == 0 and "circumference 4" in out

    def test_oracle_mad(self, tmp_path):
        code, out, _ = run(["oracle", "mad", write_bowtie(tmp_path)])
        assert code == 0 and out.strip() == "12/5"

    def test_gadget(self, tmp_path):
        f = tmp_path / "c4.el"
        f.write_text("0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run(["gadget", str(f)])
        assert code == 0
        from madcycle.instances import parse_graph

        g = parse_graph(out)
        assert g.n == 12 and g.m == 16


class TestErrors:
    def test_usage_error(self):
        code, _, err = run(["solve"])
        assert code == 64 and "usage error" in err

    def test_data_error(self, tmp_path):
        f = tmp_path / "bad.el"
        f.write_text("0 0\n")
        code, _, err = run(["solve", str(f), "-k", "0"])
        assert code == 65 and "data error" in err

    def test_oracle_segments_vertex_out_of_range(self, tmp_path):
        code, _, err = run(["oracle", "segments", write_c5(tmp_path), "--T", "0,99"])
        assert code == 64 and "vertex 99" in err

    @pytest.mark.parametrize("r, p", [("-1", "-1"), ("0", "0")])
    def test_oracle_segments_counts_below_one_are_usage_errors(self, tmp_path, r, p):
        f = tmp_path / "c4chord.el"
        f.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
        code, out, err = run(
            ["oracle", "segments", str(f), "--T", "0,2", "--r", r, "--p", p]
        )
        assert code == 64 and out == "" and "need r >= 1 and p >= 1" in err

    def test_oracle_stpath_vertex_out_of_range(self, tmp_path):
        code, _, err = run(
            ["oracle", "stpath", write_c5(tmp_path), "--s", "0", "--t", "9"]
        )
        assert code == 64 and "vertex 9" in err

    def test_missing_file(self):
        code, _, err = run(["mad", "/nonexistent/graph.el"])
        assert code == 65

    def test_unreadable_input_is_data_error(self, tmp_path):
        code, _, err = run(["solve", str(tmp_path), "-k", "1"])
        assert code == 65 and "data error" in err

    @pytest.mark.parametrize(
        "exc",
        [RuntimeError("boom"), IndexError("list index"),
         ValueError("max() arg is an empty sequence")],
    )
    def test_internal_failure_exits_70(self, tmp_path, monkeypatch, exc):
        from madcycle import cli

        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve", broken)
        code, out, err = run(["solve", write_k4(tmp_path), "-k", "0"])
        assert code == cli.EXIT_INTERNAL == 70
        assert out == ""
        assert err.startswith("internal error: ") and str(exc) in err

    def test_oracle_stpath_equal_ends_is_usage_error(self, tmp_path):
        code, _, err = run(
            ["oracle", "stpath", write_c5(tmp_path), "--s", "1", "--t", "1"]
        )
        assert code == 64 and "s and t must differ" in err

    @pytest.mark.parametrize("which, cap, code, first", [
        ("cycle", "0", 64, None), ("stpath", "2", 64, None), ("mad", "2", 64, None),
        ("cycle", "3", 0, "circumference 3"), ("stpath", "3", 0, "max_vertices 3"),
        ("mad", "3", 0, "2"), ("segments", "2", 64, None), ("segments", "3", 0, "yes"),
    ])
    def test_oracle_cap_is_used_whenever_given(self, tmp_path, which, cap, code, first):
        f = tmp_path / "c3.el"
        f.write_text("0 1\n1 2\n2 0\n")
        got, out, err = run(["oracle", which, str(f), "--cap", cap, "--T", "0,1"])
        assert got == code
        if code:
            assert out == "" and f"<= {cap}, got 3" in err
        else:
            assert out.splitlines()[0] == first

    def test_oracle_mad_of_empty_graph_is_usage_error(self, tmp_path):
        f = tmp_path / "empty.el"
        f.write_text("n 0\n")
        code, _, err = run(["oracle", "mad", str(f)])
        assert code == 64 and "empty graph" in err

    def test_non_integer_dimacs_is_data_error(self, tmp_path):
        f = tmp_path / "bad.dimacs"
        f.write_text("p edge 3 1\ne 1 x\n")
        code, _, err = run(["mad", str(f), "--format", "dimacs"])
        assert code == 65 and "non-integer" in err

    def test_dimacs_comment_is_the_token_c(self, tmp_path):
        f = tmp_path / "cat.dimacs"
        f.write_text("c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 3 1\ncat 1 2\n")
        code, out, err = run(["mad", str(f), "--format", "dimacs"])
        assert code == 65 and out == "" and "line 6: unrecognized line 'cat 1 2'" in err

    def test_negative_dimacs_count_is_data_error(self, tmp_path):
        f = tmp_path / "neg.dimacs"
        f.write_text("p edge -2 0\n")
        code, out, err = run(["mad", str(f), "--format", "dimacs"])
        assert code == 65 and out == "" and "negative vertex count -2" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 3 foo\ne 1 2\ne 2 3\ne 3 1\n", "line 1: non-integer 'foo'"),
            ("p edge 3 -1\ne 1 2\ne 2 3\ne 3 1\n", "line 1: negative edge count -1"),
            (
                "c a triangle\np edge 3 7\ne 1 2\ne 2 3\ne 3 1\n",
                "line 2: problem line declares 7 edges, found 3",
            ),
            ("p edge 2 0\np edge 3 3\ne 1 2\ne 2 3\ne 3 1\n", "line 2: second problem line"),
        ],
        ids=["non-integer-m", "negative-m", "m-not-edge-lines", "second-header"],
    )
    def test_dimacs_header_is_checked(self, tmp_path, text, message):
        f = tmp_path / "bad.dimacs"
        f.write_text(text)
        code, out, err = run(["mad", str(f), "--format", "dimacs"])
        assert code == 65 and out == "" and message in err

    def test_second_edgelist_header_is_data_error(self, tmp_path):
        f = tmp_path / "twice.el"
        f.write_text("n 3\n0 1\n1 2\n2 0\n# more\nn 4\n")
        code, out, err = run(["mad", str(f)])
        assert code == 65 and out == "" and "line 6: second vertex count header" in err

    def test_negative_edgelist_count_is_data_error(self, tmp_path):
        f = tmp_path / "neg.el"
        f.write_text("n -3\n")
        code, out, err = run(["mad", str(f)])
        assert code == 65 and out == "" and "negative vertex count -3" in err

    def test_bad_generator_parameter_is_usage_error(self):
        code, _, err = run(["gen", "gnp2c", "--param", "n=abc"])
        assert code == 64 and "bad parameter n='abc'" in err

    def test_bad_segment_list_is_usage_error(self, tmp_path):
        code, out, err = run(["oracle", "segments", write_c5(tmp_path), "--T", "0,x"])
        assert code == 64 and out == "" and "--T: bad integer list '0,x'" in err

    def test_bad_cycle_list_is_usage_error(self, tmp_path):
        code, out, err = run(["verify", write_c5(tmp_path), "--cycle", "0,x,2"])
        assert code == 64 and out == "" and "--cycle: bad integer list '0,x,2'" in err

    def test_negative_near_complete_size_is_usage_error(self):
        code, out, err = run(["gen", "near_complete", "--param", "n=-1"])
        assert code == 64 and out == "" and "near_complete needs n >= 0" in err

    @pytest.mark.parametrize(
        "params, message",
        [
            (["n=5", "removals=-3"], "near_complete needs removals >= 0"),
            (["n=6", "min_degree=-1", "removals=20"], "near_complete needs min_degree >= 0"),
        ],
        ids=["removals", "min_degree"],
    )
    def test_negative_near_complete_counts_are_usage_errors(self, params, message):
        args = ["gen", "near_complete"]
        for param in params:
            args += ["--param", param]
        code, out, err = run(args)
        assert code == 64 and out == "" and message in err

    def test_negative_bipartite_dense_size_is_usage_error(self):
        code, out, err = run(
            ["gen", "bipartite_dense", "--param", "p=-1", "--param", "q=5"]
        )
        assert code == 64 and out == "" and "bipartite_dense needs p >= 0" in err

    def test_unread_generator_key_is_usage_error(self):
        code, out, err = run(["gen", "gnp2c", "--param", "nn=5"])
        assert code == 64 and out == "" and "gnp2c reads no parameter 'nn'" in err

    def test_key_of_another_family_is_usage_error(self):
        code, out, err = run(["gen", "lemma7_trace", "--param", "k=-1"])
        assert code == 64 and out == ""
        assert "lemma7_trace reads no parameter 'k'" in err

    def test_jobs_flag_is_gone(self, tmp_path):
        code, _, err = run(["solve", write_k4(tmp_path), "-k", "0", "--jobs", "2"])
        assert code == 64 and "usage error" in err

    def test_seed_flag_is_gone_from_solve(self, tmp_path):
        code, out, err = run(["solve", write_k4(tmp_path), "-k", "0", "--seed", "1"])
        assert code == 64 and out == "" and "usage error" in err

    def test_budget_flag_is_gone_from_solve(self, tmp_path):
        code, out, err = run(["solve", write_k4(tmp_path), "-k", "1", "--budget", "1"])
        assert code == 64 and out == ""
        assert "usage error: unrecognized arguments: --budget 1" in err

    @pytest.mark.parametrize("value", ["strict", "relaxed"])
    def test_mode_flag_is_gone_from_solve(self, tmp_path, value):
        code, out, err = run(["solve", write_k4(tmp_path), "-k", "1", "--mode", value])
        assert code == 64 and out == ""
        assert f"usage error: unrecognized arguments: --mode {value}" in err

    @pytest.mark.parametrize("family, key", [
        ("gnp2c", "n"), ("near_complete", "n"), ("near_complete", "min_degree"),
        ("near_complete", "removals"), ("bipartite_dense", "p"),
        ("bipartite_dense", "k"), ("bipartite_dense", "q"),
    ])
    @pytest.mark.parametrize("value", ["1e400", "-inf", "inf", "nan", "3.7"])
    def test_integer_generator_parameter_must_be_a_finite_integer(self, family, key,
                                                                  value):
        code, out, err = run(["gen", family, "--param", f"{key}={value}"])
        assert code == 64 and out == "" and f"error: bad parameter {key}=" in err

    def test_integral_float_generator_parameter_is_an_integer(self):
        assert run(["gen", "gnp2c", "--param", "n=5.0"]) == run(
            ["gen", "gnp2c", "--param", "n=5"])


def run_stdin(argv, data: bytes, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    return run(argv)


EDGELIST = b"n 12\n# a wheel with two chords\n" + b"".join(
    b"%d %d\n" % e
    for e in [(i, (i + 1) % 11) for i in range(11)] + [(11, i) for i in range(0, 11, 2)]
    + [(1, 6), (3, 9)]
)
DIMACS = b"c the same graph\np edge 12 19\n" + b"".join(
    b"e %d %d\n" % (int(u) + 1, int(v) + 1)
    for u, v in (line.split() for line in EDGELIST.splitlines()[2:])
)


class TestMalformedInput:
    """Malformed input is a data (65) or usage (64) error with nothing on
    stdout, never an internal error (70)."""

    COMMANDS = (["solve", "-k", "0"], ["solve", "-k", "1"], ["mad"],
                ["verify", "--cycle", "0,1,2,3,4,5,6,7,8,9,10"])

    @pytest.mark.parametrize("fmt, data", [
        ("edgelist", EDGELIST.replace(b"\n2 3\n", b"\n\xff\n2 3\n")),
        ("dimacs", DIMACS.replace(b"c the", b"c th\xe9")),
    ], ids=["edgelist", "dimacs"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_bytes_are_a_data_error(self, tmp_path, monkeypatch, fmt, data,
                                                 source):
        at = next(i for i, b in enumerate(data) if b >= 0x80)
        f = tmp_path / "g.txt"
        f.write_bytes(data)
        for cmd in self.COMMANDS:
            argv = [cmd[0], str(f) if source == "file" else "-", "--format", fmt, *cmd[1:]]
            code, out, err = (run(argv) if source == "file"
                              else run_stdin(argv, data, monkeypatch))
            assert (code, out) == (65, ""), (argv, err)
            assert err == f"data error: byte {at}: not UTF-8\n"

    def test_the_unmutated_inputs_solve(self, monkeypatch):
        for fmt, data in (("edgelist", EDGELIST), ("dimacs", DIMACS)):
            code, out, _ = run_stdin(["solve", "-", "--format", fmt, "-k", "1"], data,
                                     monkeypatch)
            assert code == 0 and "answer yes" in out

    def test_mutated_inputs_never_exit_70(self, monkeypatch):
        # single-byte flips (4 in 10 to a byte 0x80-0xff), dropped and doubled
        # lines; every vertex id stays below 1,000
        rng = random.Random(2929)
        codes = Counter()
        for fmt, base in (("edgelist", EDGELIST), ("dimacs", DIMACS)):
            for _ in range(200):
                data, lines = base, base.splitlines(keepends=True)
                i, roll = rng.randrange(len(lines)), rng.random()
                if roll < 0.6:
                    i = rng.randrange(len(data))
                    high = rng.random() < 0.4
                    byte = rng.randrange(0x80, 0x100) if high else rng.randrange(0x80)
                    data = data[:i] + bytes([byte]) + data[i + 1 :]
                elif roll < 0.8:
                    data = b"".join(lines[:i] + lines[i + 1 :])
                else:
                    data = b"".join(lines[: i + 1] + lines[i:])
                for cmd in self.COMMANDS:
                    argv = [cmd[0], "-", "--format", fmt, *cmd[1:]]
                    code, out, err = run_stdin(argv, data, monkeypatch)
                    assert code in (0, 1, 2, 64, 65), (argv, data, err)
                    assert code not in (64, 65) or out == "", (argv, data)
                    codes[code] += 1
        assert codes[0] and codes[1] and codes[64] and codes[65], codes
