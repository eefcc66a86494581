import io
import json

import pytest

from madcycle.cli import run_cli


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
        a = run(["solve", path, "-k", "1", "--json", "--seed", "7"])
        b = run(["solve", path, "-k", "1", "--json", "--seed", "7"])
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
        code, out, err = run(
            ["solve", str(f), "-k", "10", "--mode", "relaxed", "--json"]
        )
        assert code == 2 and err == ""
        obj = json.loads(out)
        assert obj["answer"] == "unknown" and obj["branch"] == "case_iii"
        assert "3k'/2" in obj["stats"]["reason"]

    def test_path_mode(self, tmp_path):
        code, out, _ = run(["solve", write_k4(tmp_path), "-k", "1", "--path", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["answer"] == "yes" and len(obj["path"]) >= obj["threshold_len"]


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

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_usage_error(self, tmp_path, budget):
        code, out, err = run(["solve", write_k4(tmp_path), "-k", "1", "--budget", budget])
        assert code == 64 and out == "" and "budget" in err

    def test_oracle_segments_vertex_out_of_range(self, tmp_path):
        code, _, err = run(["oracle", "segments", write_c5(tmp_path), "--T", "0,99"])
        assert code == 64 and "vertex 99" in err

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

    def test_negative_dimacs_count_is_data_error(self, tmp_path):
        f = tmp_path / "neg.dimacs"
        f.write_text("p edge -2 0\n")
        code, out, err = run(["mad", str(f), "--format", "dimacs"])
        assert code == 65 and out == "" and "negative vertex count -2" in err

    def test_negative_edgelist_count_is_data_error(self, tmp_path):
        f = tmp_path / "neg.el"
        f.write_text("n -3\n")
        code, out, err = run(["mad", str(f)])
        assert code == 65 and out == "" and "negative vertex count -3" in err

    def test_bad_generator_parameter_is_usage_error(self):
        code, _, err = run(["gen", "gnp2c", "--param", "n=abc"])
        assert code == 64 and "bad parameter n='abc'" in err

    def test_jobs_flag_is_gone(self, tmp_path):
        code, _, err = run(["solve", write_k4(tmp_path), "-k", "0", "--jobs", "2"])
        assert code == 64 and "usage error" in err
