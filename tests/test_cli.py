import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crownfree
from crownfree import parse_l3g, validate_linear, crown_oracle
from crownfree.cli import run

from conftest import CROWN_EDGES, FANO_EDGES, ag23


def write_graph(tmp_path, edges, n, name="g.l3g"):
    p = tmp_path / name
    p.write_text(validate_linear(edges, n).to_l3g())
    return str(p)


class TestCheck:
    def test_crown_free_exit_0(self, tmp_path, capsys):
        path = write_graph(tmp_path, FANO_EDGES, 7)
        assert run(["check", path]) == 0
        assert "crown-free" in capsys.readouterr().out

    def test_crown_found_exit_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, CROWN_EDGES, 9)
        assert run(["check", path]) == 2
        out = capsys.readouterr().out
        w = json.loads(out)
        assert w["base"] == [0, 1, 2]

    def test_text_witness_is_json_witness(self, tmp_path, capsys):
        path = write_graph(tmp_path, CROWN_EDGES, 9)
        assert run(["check", path]) == 2
        text = json.loads(capsys.readouterr().out)
        assert run(["check", path, "--json"]) == 2
        assert text == json.loads(capsys.readouterr().out)["witness"]

    def test_json_mode(self, tmp_path, capsys):
        path = write_graph(tmp_path, FANO_EDGES, 7)
        assert run(["check", path, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["crown_free"] is True

    def test_missing_file(self, tmp_path):
        assert run(["check", str(tmp_path / "absent.l3g")]) == 1

    def test_directory_usage_error(self, tmp_path, capsys):
        assert run(["check", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_graph(self, tmp_path, capsys):
        p = tmp_path / "bad.l3g"
        p.write_text("4 2\n0 1 2\n0 1 3\n")
        assert run(["check", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: edges #0 [0, 1, 2] and #1 [0, 1, 3] share pair {0, 1}\n")

    def test_json_input_autodetected(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text(validate_linear(FANO_EDGES, 7).to_json())
        assert run(["check", str(p)]) == 0

    @pytest.mark.parametrize("text,message", [pytest.param(t, m, id=t) for t, m in [
        # a bad n is reported by validate_linear, after the edges are read
        ('{"n": "5", "edges": []}', "n must be an integer, got '5'"),
        ('{"n": true, "edges": []}', "n must be an integer, got True"),
        ('{"n": 5.0, "edges": []}', "n must be an integer, got 5.0"),
        ('{"n": 5, "edges": "012"}', "JSON 'edges' must be a list of 3-integer lists"),
        ('{"n": 5, "edges": {"0": [0, 1, 2]}}', "JSON 'edges' must be a list of 3-integer lists"),
        ('{"n": 5, "edges": [[0, 1]]}', "JSON edge [0, 1] is not a list of 3 integers"),
        ('{"n": 5, "edges": [[0, 1, "2"]]}', "JSON edge [0, 1, '2'] is not a list of 3 integers"),
        ('{"n": 5, "edges": [[0, 1, false]]}', "JSON edge [0, 1, False] is not a list of 3 integers"),
        ('{"n": 5, "edges": [7]}', "JSON edge 7 is not a list of 3 integers"),
    ]])
    def test_json_wrong_types_exit_1(self, tmp_path, capsys, text, message):
        p = tmp_path / "g.json"
        p.write_text(text)
        assert run(["check", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 15) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
_graph_like = st.fixed_dictionaries({
    "n": st.integers(-3, 15) | _json_values,
    "edges": st.lists(st.lists(st.integers(-3, 15), max_size=4), max_size=12) | _json_values,
})
_l3g_line = st.lists(st.integers(-3, 15), max_size=4).map(lambda xs: " ".join(map(str, xs)))
_l3g_text = st.lists(_l3g_line | st.text(max_size=8), min_size=1, max_size=14).map("\n".join)
# sub-graphs of AG(2,3): valid input, with or without a crown
_sub_ag23 = st.lists(st.sampled_from(ag23().edges), unique=True).map(
    lambda es: validate_linear(es, 9)
)
_inputs = st.one_of(
    st.tuples(st.just("g.json"), (_graph_like | _json_values).map(json.dumps)),
    st.tuples(st.just("g.json"), _sub_ag23.map(lambda g: g.to_json())),
    st.tuples(st.just("g.l3g"), _sub_ag23.map(lambda g: g.to_l3g())),
    st.tuples(st.sampled_from(["g.json", "g.l3g"]), _l3g_text | st.text(max_size=40)),
)


@pytest.mark.parametrize("argv", [["check"], ["link", "--edge", "0"], ["discharge"]])
def test_deeply_nested_json_exit_1(tmp_path, argv):
    """A JSON file nested 100,000 deep is an input error, not a traceback."""
    p = tmp_path / "deep.json"
    p.write_text('{"n": 3, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    src = str(Path(crownfree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "crownfree.cli", argv[0], str(p), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "error: invalid JSON: nesting too deep" in proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr


def test_import_loads_no_dataclasses_or_typing():
    """The package imports only light stdlib modules: a fresh interpreter
    that imports it and its CLI loads none of these."""
    src = str(Path(crownfree.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import crownfree, crownfree.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCheckFuzz:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_inputs, st.booleans())
    def test_exit_code_contract(self, named_text, as_json):
        name, text = named_text
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, name)
            with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
                fh.write(text)
            code = run(["check", path] + (["--json"] if as_json else []))
        assert code in (0, 1, 2, 3)


class TestRandomRoundTrip:
    def test_round_trip(self, tmp_path, capsys):
        assert run(["random", "--n", "9", "--m", "8", "--seed", "5"]) == 0
        text = capsys.readouterr().out
        g = parse_l3g(text)
        assert g.to_l3g() == text

    def test_seed_determinism(self, capsys):
        run(["random", "--n", "10", "--m", "9", "--seed", "7"])
        a = capsys.readouterr().out
        run(["random", "--n", "10", "--m", "9", "--seed", "7"])
        assert capsys.readouterr().out == a

    def test_bad_m(self):
        assert run(["random", "--n", "4", "--m", "99", "--seed", "0"]) == 1

    @pytest.mark.parametrize("n,m", [("-5", "0"), ("3", "-1"), ("0", "0")])
    def test_negative_n_or_m_usage_error(self, capsys, n, m):
        assert run(["random", "--n", n, "--m", m, "--seed", "1"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")


class TestExact:
    def test_n7(self, capsys):
        assert run(["exact", "--n", "7", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] == 7 and obj["exhaustive"] is True

    def test_certificate_schema(self, capsys):
        assert run(["exact", "--n", "7", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["schema"] == "crownfree/certificate-v2"
        assert set(obj["params"]) == {"threads", "max_seconds", "max_nodes"}

    def test_budget_exit_3(self, capsys):
        assert run(["exact", "--n", "9", "--max-nodes", "5", "--json"]) == 3
        obj = json.loads(capsys.readouterr().out)
        assert obj["exhaustive"] is False

    def test_text_mode(self, capsys):
        assert run(["exact", "--n", "6"]) == 0
        assert "ex(6, crown) = 4" in capsys.readouterr().out

    def test_max_seconds_within_one_node(self, capsys):
        t0 = time.monotonic()
        assert run(["exact", "--n", "13", "--max-seconds", "0.5"]) == 3
        assert time.monotonic() - t0 < 1.5
        assert "INCOMPLETE" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [
        ("--max-seconds", "nan"), ("--max-seconds", "-1"), ("--max-seconds", "inf"),
        ("--max-nodes", "-1"),
    ])
    def test_bad_budget_usage_error(self, capsys, flag, value):
        assert run(["exact", "--n", "9", flag, value]) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_n_below_3_usage_error(self, capsys):
        assert run(["exact", "--n", "2"]) == 1
        assert capsys.readouterr().err == "error: need n >= 3\n"


class TestConstruct:
    def test_n11(self, capsys):
        assert run(["construct", "--n", "11"]) == 0
        g = parse_l3g(capsys.readouterr().out)
        assert len(g.edges) == 12
        assert crown_oracle(g) is None


class TestLink:
    def test_json(self, tmp_path, capsys):
        path = write_graph(tmp_path, CROWN_EDGES, 9)
        assert run(["link", path, "--edge", "0"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["base"] == [0, 1, 2]
        assert len(obj["colored_edges"]) == 3

    def test_dot(self, tmp_path, capsys):
        path = write_graph(tmp_path, CROWN_EDGES, 9)
        assert run(["link", path, "--edge", "0", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("graph link {")

    def test_edge_out_of_range(self, tmp_path, capsys):
        # an input error like any other: one error: line on stderr
        path = write_graph(tmp_path, CROWN_EDGES, 9)
        assert run(["link", path, "--edge", "99"]) == 1
        assert capsys.readouterr().err == "error: edge id 99 out of range (m=4)\n"
        assert run(["link", path, "--edge", "-1"]) == 1
        assert capsys.readouterr().err == "error: edge id -1 out of range (m=4)\n"


class TestDischarge:
    def test_json_fields(self, tmp_path, capsys):
        path = write_graph(tmp_path, FANO_EDGES, 7)
        assert run(["discharge", path, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["t_star"] == 63
        assert obj["large_vertices"] == []
        # Fano: sum d = 21 = 5*7 - 14, no valid residue -> trace skipped
        assert obj["trace"] is None
        assert "trace_skipped_reason" in obj

    def test_trace_present_when_sum_matches(self, tmp_path, capsys):
        # the cyclic STS(13) less four edges through 0: n = 13, m = 22 and
        # degree sum 66 = 5n + 1, with min degree 2 and max degree 6
        sts = {tuple(sorted((i, (i + a) % 13, (i + b) % 13)))
               for i in range(13) for a, b in ((1, 4), (2, 7))}
        gone = [(0, 1, 4), (0, 2, 7), (0, 3, 12), (0, 5, 11)]
        path = write_graph(tmp_path, sorted(sts - set(gone)), 13)
        assert run(["discharge", path, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["n"], obj["m"], sum(obj["degrees"])) == (13, 22, 66)
        assert obj["trace"] is not None
        assert "trace_skipped_reason" not in obj
        assert obj["trace"]["residue"] == 1
        assert run(["discharge", path]) == 0
        assert "trace: k=3 residue=1" in capsys.readouterr().out.splitlines()

    def test_per_edge_entries_match_edge_queries(self, tmp_path, capsys):
        from crownfree.discharging import s_of, s_star
        from conftest import spoke_wheel

        H = spoke_wheel(14)  # hub edges have s = 18 > 15, so s* clamps
        path = tmp_path / "w.l3g"
        path.write_text(H.to_l3g())
        assert run(["discharge", str(path), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["edges"] == [
            {
                "edge": list(H.edge(e)),
                "degree_vector": list(H.degree_vector(e)),
                "s": s_of(H, e),
                "s_star": s_star(H, e),
            }
            for e in range(len(H.edges))
        ]
        assert any(x["s"] != x["s_star"] for x in obj["edges"])

    def test_n_too_large_for_a_degree_list(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 10**30, "edges": []}))
        assert run(["check", str(p)]) == 0
        capsys.readouterr()
        assert run(["discharge", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_n_too_large_to_allocate_a_degree_list(self, tmp_path, capsys):
        # 10**18 indexes a list, but its 8 EB fail at once; a smaller n
        # could really allocate
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 10**18, "edges": []}))
        assert run(["discharge", str(p)]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"


class TestLemmas:
    def test_order11_text(self, capsys):
        assert run(["lemmas", "--suite", "order11"]) == 0
        assert "11" in capsys.readouterr().out

    def test_lemma1_small_count(self, capsys):
        assert run(["lemmas", "--suite", "lemma1", "--seed", "3",
                    "--count", "50", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["reports"][0]["passed"] is True

    def test_unknown_suite_usage_error(self):
        assert run(["lemmas", "--suite", "bogus"]) == 1

    @pytest.mark.parametrize("count", ["-3", "0", "x"])
    def test_count_below_one_usage_error(self, capsys, count):
        assert run(["lemmas", "--suite", "lemma1", "--count", count]) == 1
        assert "--count" in capsys.readouterr().err


class TestUsage:
    def test_no_command(self):
        assert run([]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_exact_missing_n(self):
        assert run(["exact"]) == 1
