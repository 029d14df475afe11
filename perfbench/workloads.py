"""The four benchmark workloads: seeded inputs, jobs, and output checks.

Each workload builds its inputs from the seed when it is constructed (the
set-up), then yields the same list of jobs on every pass. A job is one call
into wsatlab; its output gets an independent check on the first pass and a
digest on every pass. Digests cover only the outputs wsatlab promises to
keep byte-identical (closure traces, gamma values and witnesses, wsat values
and witness counts, CLI results without work counts); wsat witness graphs
are certified instead, since enumeration order may relabel them.

Library calls go through module attributes (``perc.closure``), never through
names imported into this module, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import wsatlab.cli
import wsatlab.constructions as cons
import wsatlab.expander as expander
import wsatlab.extremal as ext
import wsatlab.graphs as graphs
import wsatlab.percolation as perc
from wsatlab.graphs import Graph


class CheckError(Exception):
    """A job's output failed its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], str] | None = None


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# Random graphs take their edges from one fixed stream and their labels from
# the run's seed. Every seed then sees the same graph shapes, so job costs
# stay comparable across seeds, while traces and witnesses still change;
# drawing fresh shapes per seed moved a pass by up to 25%.
SHAPE_SEED = 2025


def random_graph(shapes: random.Random, rng: random.Random, n: int, p: float) -> Graph:
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                  if shapes.random() < p])
    return relabel(g, shuffled(rng, n))


def k4_minus_e() -> Graph:
    return graphs.complete_graph(4).without_edge(0, 1)


def triangle_oracle(g: Graph) -> Graph:
    """Closure under K3, computed without the embedding search: every
    connected component with an edge path of length two becomes complete,
    so each component ends as a clique."""
    edges = []
    for comp in g.components():
        edges.extend((u, v) for i, u in enumerate(comp) for v in comp[i + 1:])
    return Graph(g.n, edges)


def check_gamma(g: Graph, res, expected: Fraction | None = None) -> None:
    require(res.witness and ext.gamma_of_set(g, res.witness) == res.value,
            "gamma witness does not attain the value")
    if expected is not None:
        require(res.value == expected, f"gamma {res.value} != {expected}")


def gamma_digest(res) -> str:
    return f"{res.value} {sorted(res.witness)}"


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def jobs(self, in_process: bool = True) -> Iterator[Job]:
        raise NotImplementedError

    def baseline(self) -> list[tuple[str, Callable[[], object], dict[str, int]]]:
        """Calls whose traced counts must match the ROADMAP baseline:
        (label, call, expected per-layer counts)."""
        return []


# -- percolate -----------------------------------------------------------------

# (clique_small, clique_big, i): counterexample hosts shrunk so that one
# closure stays under 1.5 s; (7, 7, 1) keeps the full-size gadget
COUNTEREXAMPLE_HOSTS = [(3, 3, 1), (3, 3, 2), (3, 5, 1), (4, 4, 1), (7, 7, 1)]
RANDOM_PATTERNS = [
    ("K3", graphs.complete_graph(3)),
    ("K4", graphs.complete_graph(4)),
    ("C4", graphs.cycle_graph(4)),
    ("K4-e", k4_minus_e()),
    ("C5", graphs.cycle_graph(5)),
]


class Percolate(Workload):
    """Closures: embedding and percolation do nearly all the work."""

    name = "percolate"
    # two rounds of every (pattern, size, density) cell, so that the mix of
    # job sizes is the same for every seed and only the edges are random
    random_hosts = 210

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng, shapes = random.Random(seed), random.Random(SHAPE_SEED)
        cases = []
        for cs, cb, i in COUNTEREXAMPLE_HOSTS:
            pattern = cons.counterexample_15_7(clique_small=cs, clique_big=cb).graph
            host = cons.counterexample_host(i, clique_small=cs, clique_big=cb)
            cases.append((f"counterexample {cs}/{cb} i={i}", host, pattern, None))
        for f, s in [(graphs.path_graph(3), {0}), (graphs.star_graph(4), {1})]:
            tilde = ext.build_f_tilde(f, clique_pad=0)
            for i in (1, 2, 3, 4):
                host = ext.lemma23_sequence(f, s, i)
                cases.append((f"lemma23 n={f.n} i={i}", host, tilde, True))
        for j in range(self.random_hosts):
            pname, pattern = RANDOM_PATTERNS[j % 5]
            host = random_graph(shapes, rng, 10 + j // 5 % 7, (0.2, 0.3, 0.45)[j // 35 % 3])
            cases.append((f"random {pname} #{j}", host, pattern, None))
        self.cases = cases

    def jobs(self, in_process=True):
        for label, host, pattern, must_complete in self.cases:
            yield Job(label, lambda h=host, f=pattern: perc.closure(h, f),
                      self._checker(host, pattern, must_complete),
                      lambda tr: sha(tr.to_json()))

    @staticmethod
    def _checker(host, pattern, must_complete):
        def check(tr):
            require(tr.host == host and tr.pattern == pattern, "trace inputs differ")
            try:
                tr.validate()
            except AssertionError as exc:
                raise CheckError(f"trace replay failed: {exc}") from exc
            if pattern == graphs.complete_graph(3):
                require(tr.terminal() == triangle_oracle(host),
                        "closure differs from the triangle oracle")
            if must_complete:
                require(tr.is_complete(), "block host does not percolate")
        return check

    def baseline(self):
        host = cons.counterexample_host(1)
        pattern = cons.counterexample_15_7().graph
        return [("closure(counterexample_host(1), counterexample_15_7())",
                 lambda: perc.closure(host, pattern),
                 {"embedding.find_new_copy.calls": 6004,
                  "embedding.find_new_copy.hits": 755})]


# -- gamma ---------------------------------------------------------------------


class Gamma(Workload):
    """Exact gamma: the extremal ratio solver and mincut dominate."""

    name = "gamma"
    random_graphs = 168  # three rounds of every (size, density) cell

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng, shapes = random.Random(seed), random.Random(SHAPE_SEED)
        built = []
        for delta, k in [(2, 5), (2, 9), (2, 13), (3, 6), (3, 10), (3, 14),
                         (4, 5), (4, 9), (4, 13), (5, 8), (5, 12)]:
            built.append((f"sparse d={delta} k={k}", cons.sparse_family(delta, k)))
        for delta, ratios, build in [
            (3, ("3/2", "8/5", "5/3"), cons.build_delta3),
            (4, ("2", "7/3", "5/2"), cons.build_delta4),
        ]:
            for r in ratios:
                con = build(cons.solve_params(delta, Fraction(r)))
                built.append((f"delta{delta} {r}", con))
        for big in (7, 10, 20, 40):
            built.append((f"15/7 pattern big={big}",
                          cons.counterexample_15_7(clique_big=big)))
        cases = []
        for label, con in built:
            perm = shuffled(rng, con.graph.n)
            cases.append((label, relabel(con.graph, perm), con.predicted_gamma))
        for name, f in [("C4", graphs.cycle_graph(4)), ("C5", graphs.cycle_graph(5)),
                        ("K4-e", k4_minus_e())]:
            # the brute-force solver gives the expected value independently
            base = ext.gamma_min_brute(f).value
            cases.append((f"ftilde {name}", ext.build_f_tilde(f, clique_pad=0), base))
        self.cases = cases
        self.random = []
        for j in range(self.random_graphs):
            n, p = 1 + j % 14, (0.15, 0.3, 0.5, 0.75)[j // 14 % 4]
            self.random.append(random_graph(shapes, rng, n, p))

    def jobs(self, in_process=True):
        for label, g, expected in self.cases:
            yield Job(label, lambda g=g: ext.gamma_min_ratio(g),
                      lambda res, g=g, e=expected: check_gamma(g, res, e),
                      gamma_digest)
        for j, g in enumerate(self.random):
            # one job solves both ways, so the timed jobs form one population
            yield Job(f"random #{j} brute+ratio",
                      lambda g=g: (ext.gamma_min_brute(g), ext.gamma_min_ratio(g)),
                      lambda out, g=g: (check_gamma(g, out[0]),
                                        check_gamma(g, out[1], out[0].value)),
                      lambda out: f"{gamma_digest(out[0])} {gamma_digest(out[1])}")

    def baseline(self):
        pattern = cons.counterexample_15_7().graph
        return [("gamma_min_ratio(counterexample_15_7())",
                 lambda: ext.gamma_min_ratio(pattern),
                 {"mincut.max_flow.calls": 117})]


# -- wsat ----------------------------------------------------------------------

# wsat(7, K4), wsat(7, C4) and wsat(7, K4-e) each take 8-36 s and stay out
WSAT_CASES = [
    ("K3", graphs.complete_graph(3), range(3, 8)),
    ("K4", graphs.complete_graph(4), range(4, 7)),
    ("K5", graphs.complete_graph(5), range(5, 7)),
    ("C4", graphs.cycle_graph(4), range(4, 7)),
    ("K4-e", k4_minus_e(), range(4, 7)),
    ("P3", graphs.path_graph(3), range(3, 10)),
]


def known_wsat(f: Graph, n: int) -> int | None:
    """wsat(n, f) where a closed form is known, else None."""
    if f.is_complete():
        s = f.n  # Lovasz: wsat(n, K_s) = (s-2)n - C(s-1, 2)
        return (s - 2) * n - (s - 1) * (s - 2) // 2
    if (f.n, f.num_edges) == (3, 2):  # P3: one edge percolates
        return 1
    return None


def rotations(host: Graph, f: Graph) -> list[tuple[int, bool]]:
    """Closure, activation partition, then every rotation re-certified."""
    ap = perc.activation_partition(perc.closure(host, f))
    out = []
    for matching in perc.enumerate_a_matchings(ap):
        g = perc.rotate(ap, matching)
        out.append((g.num_edges, perc.is_weakly_saturated(g, f)))
    return out


class Wsat(Workload):
    """Exact wsat numbers and rotations: isomorphism dedup dominates, and
    percolation runs thousands of closures on hosts of at most 9 vertices."""

    name = "wsat"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.cases = [(name, relabel(f, shuffled(rng, f.n)), n)
                      for name, f, ns in WSAT_CASES for n in ns]

    def jobs(self, in_process=True):
        rng = random.Random(self.seed)
        for name, f, n in self.cases:
            box = {}

            def solve(f=f, n=n, box=box):
                box["res"] = res = ext.wsat_exact(n, f)
                return res

            yield Job(f"wsat {name} n={n}", solve,
                      lambda res, f=f, n=n: self._check(res, f, n),
                      lambda res: f"{res.value} {len(res.witnesses)}")
            for j, w in enumerate(box["res"].witnesses if "res" in box else ()):
                host = relabel(w, shuffled(rng, w.n))
                yield Job(f"rotations {name} n={n} #{j}",
                          lambda h=host, f=f: rotations(h, f),
                          lambda out, e=host.num_edges: require(
                              out and all(m == e and ok for m, ok in out),
                              "a rotation changed the edge count or stopped "
                              "percolating"))

    @staticmethod
    def _check(res, f, n):
        expect = known_wsat(f, n)
        if expect is not None:
            require(res.value == expect, f"wsat {res.value} != {expect}")
        require(res.witnesses and res.witness == res.witnesses[0], "no witness")
        for w in res.witnesses:
            require(w.n == n and w.num_edges == res.value,
                    "witness has the wrong edge count")
            require(perc.is_weakly_saturated(w, f), "witness does not percolate")


# -- cli -----------------------------------------------------------------------

# Sampler seeds whose r=6 pairing is simple, each more than 500 seeds after
# the previous simple one. `expander sample` tries seed, seed+1, ..., so a
# call started 499 seeds early makes exactly 500 attempts. The attempt cap
# stays generous so that a different seeding scheme still finds a sample.
SIMPLE_SEEDS = {
    22: [34611, 54444, 62376, 65567, 90990, 98536, 100158, 102047, 122531,
         129915, 134049, 139574, 142754, 179244, 186186, 226408],
    24: [6356, 7476, 10877, 12730, 23443, 29654, 41620, 66471, 91307,
         110643, 111317, 116729, 139386, 145641, 159316, 161235],
}
SAMPLE_ATTEMPTS = 500
ATTEMPT_CAP = 100_000

# report fields left out of digests: work counts, which ROADMAP Direction 1
# renames (the wsat witness graph is left out too, and certified instead)
UNSTABLE_FIELDS = {"nodes_explored"}


def cli_env() -> dict:
    """The environment for `python -m wsatlab.cli`: the sources this
    benchmark imported, not an installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(wsatlab.cli.__file__))
    return env


def run_cli_child(argv: list[str], cwd: str, env: dict) -> tuple[int, str, int]:
    """Run ``python -m wsatlab.cli`` once; return (exit code, stdout,
    peak RSS of the child in KiB)."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen([sys.executable, "-m", "wsatlab.cli", *argv],
                                cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=err)
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 2):
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return proc.returncode, out, usage.ru_maxrss


def run_cli_inproc(argv: list[str]) -> tuple[int, str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wsatlab.cli.main(argv)
    return code, buf.getvalue(), 0


class Cli(Workload):
    """One `wsatlab` child process per job: start-up, graph I/O, JSON
    reports and the expander layer."""

    name = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.env = cli_env()
        self.peak_rss_kb = 0
        rng, shapes = random.Random(seed), random.Random(SHAPE_SEED)
        files: dict[str, Graph] = {}

        def put(name: str, g: Graph, fmt: str) -> str:
            path = os.path.join(workdir, name)
            graphs.write_graph_file(g, path, fmt)
            files[path] = g
            return path

        def fmt(j):
            return "graph6" if j % 2 == 0 else "edgelist"

        pat = {
            "K3": put("k3.txt", graphs.complete_graph(3), "edgelist"),
            "K4": put("k4.g6", graphs.complete_graph(4), "graph6"),
            "C4": put("c4.g6", graphs.cycle_graph(4), "graph6"),
            "K4-e": put("k4e.txt", k4_minus_e(), "edgelist"),
            "P3": put("p3.g6", graphs.path_graph(3), "graph6"),
        }
        calls: list[tuple[str, list[str], Callable]] = []
        for j in range(4):
            g = random_graph(shapes, rng, 8 + j, (0.25, 0.4, 0.6, 0.4)[j])
            path = put(f"gamma{j}.{'g6' if j % 2 == 0 else 'txt'}", g, fmt(j))
            for method in (["ratio", "brute"] if j < 2 else ["ratio"]):
                calls.append((f"gamma {method} #{j}",
                              ["gamma", path, "--method", method],
                              self._check_gamma(g)))
        for j, pname in enumerate(["K3", "C4", "K4-e", "K4", "K3"]):
            g = random_graph(shapes, rng, 10 + j, (0.25, 0.35, 0.5, 0.35, 0.25)[j])
            path = put(f"host{j}.{'g6' if j % 2 == 0 else 'txt'}", g, fmt(j))
            trace = os.path.join(workdir, f"trace{j}.json")
            calls.append((f"closure {pname} #{j}",
                          ["closure", path, "--pattern", pat[pname], "--trace", trace],
                          self._check_closure(g, files[pat[pname]], pname, trace)))
        for j in range(3):
            g = random_graph(shapes, rng, 8 + 2 * j, (0.3, 0.2, 0.12)[j])
            path = put(f"wsat{j}.g6", g, "graph6")
            saturated = triangle_oracle(g).is_complete()
            calls.append((f"is-wsat #{j}", ["is-wsat", path, "--pattern", pat["K3"]],
                          self._check_is_wsat(saturated)))
        for pname, n in [("K4", 5), ("K3", 6), ("P3", 6)]:
            f = files[pat[pname]]
            calls.append((f"wsat {pname} n={n}",
                          ["wsat", "--n", str(n), "--pattern", pat[pname]],
                          self._check_wsat(f, n, known_wsat(f, n))))
        delta, k = rng.choice([(2, 7), (3, 8), (4, 9), (5, 10)])
        for argv in (["--family", "sparse", "--delta", str(delta), "--k", str(k)],
                     ["--family", "delta3", "--ratio", rng.choice(["3/2", "8/5"])],
                     ["--family", "delta4", "--ratio", rng.choice(["2", "7/3"])],
                     ["--family", "counterexample"]):
            calls.append((f"construct {argv[1]}", ["construct", *argv],
                          self._check_construct))
        for j in range(3):
            # a spanning tree is a minimum weakly saturated host for K3
            n = 6 + j
            tree = Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
            path = put(f"tree{j}.txt", tree, "edgelist")
            ap = perc.activation_partition(perc.closure(tree, graphs.complete_graph(3)))
            index = rng.randrange(perc.count_a_matchings(ap))
            calls.append((f"rotate #{j}", ["rotate", path, "--pattern", pat["K3"],
                                            "--matching", str(index)],
                          self._check_rotate(tree)))
        for pname, extra in [("C4", []), ("P3", []), ("K4-e", ["--dedup"])]:
            f = files[pat[pname]]
            calls.append((f"ftilde {pname}", ["ftilde", pat[pname], "--pad", "0", *extra],
                          self._check_ftilde(f, bool(extra))))
        calls.append(("expander table", ["expander", "table"], self._check_table))
        for alpha in rng.sample(["1/2", "2/5", "1/3", "1/4"], 2):
            calls.append((f"expander check {alpha}",
                          ["expander", "check", "--alpha", alpha],
                          self._check_eta(Fraction(alpha))))
        for r, n in [(6, 22), (6, 24)]:
            start = rng.choice(SIMPLE_SEEDS[n]) - (SAMPLE_ATTEMPTS - 1)
            calls.append((f"expander sample r={r} n={n}",
                          ["expander", "sample", "--r", str(r), "--n", str(n),
                           "--alpha", "1/2", "--seed", str(start),
                           "--attempts", str(ATTEMPT_CAP)],
                          self._check_sample(r, n)))
        for r, n in [(3, 12), (4, 14)]:
            calls.append((f"expander sample r={r} n={n}",
                          ["expander", "sample", "--r", str(r), "--n", str(n),
                           "--alpha", "1/2", "--seed", str(rng.randrange(10**6))],
                          self._check_sample(r, n)))
        self.calls = calls

    def jobs(self, in_process=False):
        for label, argv, check in self.calls:
            if in_process:
                run = lambda argv=argv: run_cli_inproc(argv)
            else:
                run = lambda argv=argv: self._child(argv)
            yield Job(label, run, self._checked(check), self._digest(argv))

    def _child(self, argv):
        out = run_cli_child(argv, self.workdir, self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, out[2])
        return out

    @staticmethod
    def _checked(check):
        def run_check(out):
            code, text, _ = out
            report = json.loads(text)
            check(code, report["results"])
        return run_check

    @staticmethod
    def _digest(argv):
        trace = argv[argv.index("--trace") + 1] if "--trace" in argv else None

        def digest(out):
            code, text, _ = out
            results = json.loads(text)["results"]
            kept = {k: v for k, v in results.items() if k not in UNSTABLE_FIELDS}
            if argv[0] == "wsat":
                kept.pop("witness", None)
            payload = f"{code} {json.dumps(kept, sort_keys=True)}"
            if trace:
                with open(trace, encoding="ascii") as fh:
                    payload += fh.read()
            return sha(payload)
        return digest

    # -- checks on CLI reports ----------------------------------------------

    @staticmethod
    def _check_gamma(g):
        def check(code, res):
            require(code == 0, f"exit code {code}")
            value = Fraction(res["value"])
            require(ext.gamma_of_set(g, res["witness"]) == value,
                    "witness does not attain the value")
            require(value == ext.gamma_min_brute(g).value, "brute solver disagrees")
        return check

    @staticmethod
    def _check_closure(host, pattern, pname, trace_path):
        def check(code, res):
            require(code == 0, f"exit code {code}")
            with open(trace_path, encoding="ascii") as fh:
                tr = perc.PercolationTrace.from_json(fh.read(), host, pattern)
            try:
                tr.validate()
            except AssertionError as exc:
                raise CheckError(f"trace replay failed: {exc}") from exc
            require(res["steps"] == len(tr.steps), "step count differs from trace")
            terminal = graphs.graph6_to_graph(res["closure"])
            require(terminal == tr.terminal(), "closure differs from trace")
            require(res["complete"] == terminal.is_complete(), "complete flag wrong")
            if pname == "K3":
                require(terminal == triangle_oracle(host), "triangle oracle disagrees")
        return check

    @staticmethod
    def _check_is_wsat(saturated):
        def check(code, res):
            require(res["weakly_saturated"] is saturated, "triangle oracle disagrees")
            require(code == (0 if saturated else 2), f"exit code {code}")
        return check

    @staticmethod
    def _check_wsat(f, n, expect):
        def check(code, res):
            require(code == 0, f"exit code {code}")
            if expect is not None:
                require(res["value"] == expect, f"wsat {res['value']} != {expect}")
            w = graphs.graph6_to_graph(res["witness"])
            require(w.n == n and w.num_edges == res["value"], "witness edge count")
            require(perc.is_weakly_saturated(w, f), "witness does not percolate")
        return check

    @staticmethod
    def _check_construct(code, res):
        require(code == 0, f"exit code {code}")
        g = graphs.graph6_to_graph(res["graph"])
        require(ext.gamma_of_set(g, res["witness_set"])
                == Fraction(res["predicted_gamma"]),
                "witness set does not attain the predicted gamma")

    @staticmethod
    def _check_rotate(host):
        def check(code, res):
            require(code == 0, f"exit code {code}")
            g = graphs.graph6_to_graph(res["rotation"])
            require(res["edge_count"] == g.num_edges == host.num_edges,
                    "rotation changed the edge count")
            require(triangle_oracle(g).is_complete(), "rotation does not percolate")
        return check

    @staticmethod
    def _check_ftilde(f, dedup):
        q = f.n * (f.n - 1) // 2 - f.num_edges

        def check(code, res):
            require(code == 0, f"exit code {code}")
            g = graphs.graph6_to_graph(res["graph"])
            require((g.n, g.num_edges) == (res["vertices"], res["edges"]),
                    "reported size differs from the graph")
            if not dedup:
                # 2^q components; the subsets add q * 2^(q-1) edges in total
                require(g.n == f.n << q, "vertex count")
                require(g.num_edges == (f.num_edges << q) + (q << q >> 1), "edge count")
            else:
                require(g.n % f.n == 0 and g.n <= f.n << q, "dedup size")
        return check

    @staticmethod
    def _check_table(code, res):
        require(code == 0 and res["all_pass"], "expander table does not verify")
        require(len(res["rows"]) == 12, "table rows")

    @staticmethod
    def _check_eta(alpha):
        def check(code, res):
            require(code == 0, f"exit code {code}")
            eta = Fraction(res["best_eta"])
            require(0 < eta <= 1, "eta outside (0, 1]")
            require(Fraction(res["guaranteed_expansion"])
                    == (1 - eta) * 6 * (1 - alpha), "expansion formula")
        return check

    @staticmethod
    def _check_sample(r, n):
        def check(code, res):
            require(code == 0, f"exit code {code}")
            g = graphs.graph6_to_graph(res["graph"])
            require(g.n == n and set(g.degrees) == {r}, "sample is not r-regular")
            w = res["witness"]
            require(0 < len(w) <= n // 2, "witness size outside alpha*n")
            require(Fraction(res["i_alpha"])
                    == Fraction(expander.boundary_count(g, w), len(w)),
                    "boundary count recheck failed")
        return check


WORKLOADS = {w.name: w for w in (Percolate, Gamma, Wsat, Cli)}
