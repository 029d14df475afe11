import json
import os
import subprocess
import sys

import pytest

import wsatlab
from wsatlab.cli import main
from wsatlab.graphs import (
    complete_graph,
    cycle_graph,
    empty_graph,
    graph6_to_graph,
    star_graph,
    write_graph_file,
)
from wsatlab.percolation import activation_partition, closure, enumerate_a_matchings


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, g, fmt in [
        ("k3", complete_graph(3), "graph6"),
        ("k4", complete_graph(4), "graph6"),
        ("star5", star_graph(5), "graph6"),
        ("c4", cycle_graph(4), "edgelist"),
        ("e4", empty_graph(4), "graph6"),
    ]:
        p = tmp_path / f"{name}.{'g6' if fmt == 'graph6' else 'txt'}"
        write_graph_file(g, str(p), fmt=fmt)
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def child_env():
    src = os.path.dirname(os.path.dirname(wsatlab.__file__))
    return {**os.environ, "PYTHONPATH": src}


def run_main_fresh(argvs):
    """Run main on each argv in one new interpreter; returns the exit codes
    and which of numpy and mpmath that interpreter loaded."""
    code = (
        "import contextlib, io, json, sys\n"
        "from wsatlab.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, sorted({'numpy', 'mpmath'} & set(sys.modules))]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], env=child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return tuple(json.loads(out))


def test_gamma_both_methods(files, capsys):
    for method in ("brute", "ratio"):
        code, rep = run(capsys, ["gamma", files["k4"], "--method", method])
        assert code == 0
        assert rep["results"]["value"] == "5/4"
        assert rep["results"]["method"] == method
        assert sorted(rep["results"]["witness"]) == [0, 1, 2, 3]


def test_closure_with_trace(files, capsys):
    trace_path = str(files["tmp"] / "trace.json")
    code, rep = run(
        capsys,
        ["closure", files["star5"], "--pattern", files["k3"], "--trace", trace_path],
    )
    assert code == 0
    assert rep["results"]["steps"] == 6 and rep["results"]["complete"]
    steps = json.loads(open(trace_path).read())
    assert len(steps) == 6
    assert all(set(s) == {"edge", "witness"} for s in steps)
    assert graph6_to_graph(rep["results"]["closure"]).is_complete()


def test_is_wsat_exit_codes(files, capsys):
    code, rep = run(capsys, ["is-wsat", files["star5"], "--pattern", files["k3"]])
    assert code == 0 and rep["results"]["weakly_saturated"]
    code, rep = run(capsys, ["is-wsat", files["e4"], "--pattern", files["k3"]])
    assert code == 2 and not rep["results"]["weakly_saturated"]


def test_wsat_value_and_budget(files, capsys):
    code, rep = run(capsys, ["wsat", "--n", "5", "--pattern", files["k3"]])
    assert code == 0 and rep["results"]["value"] == 4
    code, rep = run(
        capsys, ["wsat", "--n", "6", "--pattern", files["k3"], "--budget", "10"]
    )
    assert code == 3
    assert rep["results"]["inconclusive"]


def test_construct_families_roundtrip(capsys):
    code, rep = run(
        capsys, ["construct", "--family", "delta3", "--ratio", "3/2", "--k", "8"]
    )
    assert code == 0
    res = rep["results"]
    assert res["predicted_gamma"] == "3/2"
    assert res["params"]["t"] == 2
    g = graph6_to_graph(res["graph"])
    assert g.min_degree == 3

    code, rep = run(capsys, ["construct", "--family", "counterexample"])
    assert code == 0
    res = rep["results"]
    g = graph6_to_graph(res["graph"])
    assert g.n == 114
    assert res["params"]["predicted_limit"] == "15/7"

    code, rep = run(
        capsys, ["construct", "--family", "sparse", "--delta", "2", "--k", "5"]
    )
    assert rep["results"]["predicted_gamma"] == "4/5"


def test_construct_determinism(capsys):
    argv = [
        "construct", "--family", "high-delta", "--delta", "6", "--ratio", "3",
        "--k", "16", "--seed", "99", "--max-attempts", "200000",
    ]
    code1, rep1 = run(capsys, argv)
    code2, rep2 = run(capsys, argv)
    assert code1 == code2 == 0
    rep1.pop("wall_time_ms")
    rep2.pop("wall_time_ms")
    assert rep1 == rep2


def test_rotate(files, capsys):
    ap = activation_partition(closure(star_graph(5), complete_graph(3)))
    for i, matching in enumerate(enumerate_a_matchings(ap)):
        code, rep = run(
            capsys,
            ["rotate", files["star5"], "--pattern", files["k3"], "--matching", str(i)],
        )
        assert code == 0
        res = rep["results"]
        assert res["parts"] == 3 and res["matchings"] == 12
        assert res["edge_count"] == 4
        assert res["removed"] == [list(e) for e in matching]
    assert i == 11
    assert main(
        ["rotate", files["star5"], "--pattern", files["k3"], "--matching", "99"]
    ) == 1
    capsys.readouterr()


def test_ftilde(files, capsys):
    code, rep = run(capsys, ["ftilde", files["c4"], "--pad", "0"])
    assert code == 0
    res = rep["results"]
    assert res["vertices"] == 16 and res["semantics"] == "literal"
    code, rep = run(capsys, ["ftilde", files["c4"], "--pad", "0", "--dedup"])
    assert rep["results"]["vertices"] == 12
    assert rep["results"]["semantics"] == "isomorphism-reduced"
    # a cap of 0 admits K3, which has no non-edge
    code, rep = run(capsys, ["ftilde", files["k3"], "--pad", "0", "--max-nonedges", "0"])
    assert code == 0 and rep["results"]["vertices"] == 3
    code, rep = run(capsys, ["ftilde", files["c4"], "--pad", "0", "--max-nonedges", "1"])
    assert code == 3 and rep["results"]["inconclusive"]
    assert rep["results"]["message"] == "2 non-edges would give 2^2 components (cap 1)"
    # a pattern with no vertex has no non-edge at any pad; the pad is capped
    empty = files["tmp"] / "empty.txt"
    empty.write_text("0 0\n")
    code, rep = run(capsys, ["ftilde", str(empty), "--pad", "15"])
    assert code == 3 and rep["results"]["message"] == "pad 15 exceeds the cap 14"


def test_expander_subcommands(capsys):
    code, rep = run(capsys, ["expander", "check", "--alpha", "1/2", "--eta", "0"])
    assert code == 0 and rep["results"]["satisfied"] is False
    code, rep = run(capsys, ["expander", "check", "--alpha", "1/2"])
    assert code == 0
    assert float(rep["results"]["expansion_float"]) >= 1.0437
    code, rep = run(
        capsys,
        ["expander", "sample", "--r", "3", "--n", "10", "--alpha", "1/2", "--seed", "4"],
    )
    assert code == 0 and "i_alpha" in rep["results"]
    g = graph6_to_graph(rep["results"]["graph"])
    assert set(g.degrees) == {3}


def test_expander_table(capsys):
    code, rep = run(capsys, ["expander", "table"])
    assert code == 0
    assert rep["results"]["all_pass"] and len(rep["results"]["rows"]) == 12
    assert rep["results"]["r"] == 6 and rep["inputs"] == {"expander_command": "table"}


def test_out_file(files, capsys):
    out = str(files["tmp"] / "report.json")
    code = main(["gamma", files["k3"], "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["results"]["value"] == "2/3"


def test_usage_errors(files, capsys):
    assert main(["nonsense"]) == 1
    assert main(["gamma", files["k3"], "--method", "magic"]) == 1
    assert main(["construct", "--family", "sparse"]) == 1  # missing delta/k


def test_bad_input_exits_with_one_line(files, capsys):
    tmp = files["tmp"]
    bad_edges = tmp / "bad.txt"
    bad_edges.write_text("3 1\n0 5\n")  # vertex outside 0..n-1
    (tmp / "empty.g6").write_text("?\n")  # graph6 for the 0-vertex graph
    (tmp / "latin1.g6").write_bytes(b"C\xe9\n")
    empty, latin1 = str(tmp / "empty.g6"), str(tmp / "latin1.g6")
    # the closure's second copy reaches vertex 3 only as the image of
    # K3+K1's isolated vertex, so part 1, which is {3}, owns no edge
    (tmp / "host.txt").write_text("5 4\n0 1\n0 2\n0 3\n1 4\n")
    (tmp / "k3k1.txt").write_text("4 3\n0 1\n0 2\n1 2\n")
    unwritable = str(tmp / "no-such-dir" / "out.json")
    cases = [
        (["gamma", str(bad_edges)], "bad edge list"),
        (["expander", "check", "--alpha", "3/4"], "alpha"),
        (["gamma", files["k3"], "--method", "magic"], "--method"),
        (["gamma", str(tmp / "missing.g6")], "cannot read"),
        (["construct", "--family", "sparse"], "--delta"),
        (["rotate", files["star5"], "--pattern", files["k3"], "--matching", "99"],
         "out of range"),
        (["rotate", str(tmp / "host.txt"), "--pattern", str(tmp / "k3k1.txt")],
         "error: parts [1] own no edge"),
        (["gamma", files["k3"], "--out", unwritable], "cannot write"),
        (["closure", files["star5"], "--pattern", files["k3"], "--trace", unwritable],
         "cannot write"),
        (["gamma", empty], "empty graph"),
        (["gamma", empty, "--method", "brute"], "empty graph"),
        (["wsat", "--n", "0", "--pattern", files["k3"]], "host vertex"),
        (["wsat", "--n", "3", "--pattern", empty], "pattern"),
        (["ftilde", files["c4"], "--pad", "-1"], "clique_pad"),
        (["gamma", latin1], "non-ASCII"),
        (["construct", "--family", "counterexample", "--clique-size", "0"], "clique"),
        (["construct", "--family", "high-delta", "--delta", "6", "--ratio", "3",
          "--k", "0"], "k > delta"),
        # --seed only where the command samples; expander table has no --r
        (["gamma", files["k3"], "--seed", "1"], "--seed"),
        (["expander", "table", "--r", "6"], "--r"),
        # a work cap below 1 is a caller mistake, not an inconclusive run
        (["wsat", "--n", "3", "--pattern", files["k3"], "--budget", "-1"], "budget"),
        (["wsat", "--n", "3", "--pattern", files["k3"], "--budget", "0"], "budget"),
        (["ftilde", files["c4"], "--pad", "0", "--max-nonedges", "-1"],
         "max_nonedges must be nonnegative"),
        (["expander", "sample", "--r", "3", "--n", "10", "--attempts", "0"],
         "max_attempts"),
        (["construct", "--family", "high-delta", "--delta", "6", "--ratio", "3",
          "--k", "16", "--max-attempts", "0"], "max_attempts"),
        # construct takes only the options its family reads
        (["construct", "--family", "sparse", "--delta", "2", "--k", "5", "--ratio",
          "3/2", "--expander-check", "--clique-size", "9"],
         "--ratio, --clique-size, --expander-check"),
        (["construct", "--family", "counterexample", "--seed", "3"], "--seed"),
        # a rational is "a/b" or an integer, with b nonzero
        (["construct", "--family", "delta3", "--ratio", "1/0"], "bad rational"),
        (["construct", "--family", "delta3", "--ratio", "1.5"], "bad rational"),
        (["construct", "--family", "delta3", "--ratio", "1/2/3"], "bad rational"),
    ]
    for argv, needle in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert needle in captured.err, (argv, captured.err)
    assert not (tmp / "no-such-dir").exists()


def test_seed_falls_back_to_environment(capsys, monkeypatch):
    monkeypatch.setenv("WSATLAB_SEED", "4")
    argv = ["expander", "sample", "--r", "3", "--n", "10"]
    code, from_env = run(capsys, argv)
    code2, explicit = run(capsys, argv + ["--seed", "4"])
    assert code == code2 == 0
    assert from_env["results"] == explicit["results"]
    assert from_env["provenance"]["seed"] is None
    assert explicit["provenance"]["seed"] == explicit["inputs"]["seed"] == 4


def test_bad_environment_seed_exits_with_one_line(capsys, monkeypatch):
    monkeypatch.setenv("WSATLAB_SEED", "abc")
    for argv in (
        ["expander", "sample", "--r", "3", "--n", "4"],
        ["construct", "--family", "high-delta", "--delta", "6", "--ratio", "3",
         "--k", "16"],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: WSATLAB_SEED is not an integer: 'abc'\n"


def test_only_expander_commands_load_numpy_or_mpmath(files):
    exact = [
        ["closure", files["star5"], "--pattern", files["k3"]],
        ["gamma", files["k4"]],
        ["wsat", "--n", "4", "--pattern", files["k3"]],
        ["construct", "--family", "sparse", "--delta", "2", "--k", "5"],
    ]
    assert run_main_fresh(exact) == ([0, 0, 0, 0], [])
    check = ["expander", "check", "--alpha", "1/2", "--eta", "7/10"]
    assert run_main_fresh([check]) == ([0], ["mpmath"])
    sample = ["expander", "sample", "--r", "3", "--n", "10", "--alpha", "1/2"]
    assert run_main_fresh([sample]) == ([0], ["numpy"])


def test_closed_stdout_exits_quietly():
    # the report (about 200 kB) outgrows the pipe's buffer, so the child is
    # still writing when the pipe closes
    argv = ["construct", "--family", "sparse", "--delta", "2", "--k", "1500"]
    child = subprocess.Popen(
        [sys.executable, "-m", "wsatlab.cli", *argv], env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.read(50).startswith(b"{")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert err == b""
