"""Spans around the public entry points of each wsatlab layer.

The tracer wraps a function at every name a wsatlab module looks it up
by, so calls made from inside the library are seen as well as calls the
benchmark makes through module attributes. Nothing under
``src/`` changes: the wrappers are installed on module attributes and class
attributes for the duration of a traced pass and removed afterwards.

Each span keeps (name, start, end, parent span, job id, tag), where the tag
is a small integer read from the call's arguments or result (a hit, a
novel class, a step count). Spans stay in memory and are written out when
the run ends; every per-layer figure is derived from them.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from contextlib import contextmanager

import wsatlab.cli
import wsatlab.constructions as constructions
import wsatlab.embedding as embedding
import wsatlab.expander as expander
import wsatlab.extremal as extremal
import wsatlab.graphs as graphs
import wsatlab.isomorphism as isomorphism
import wsatlab.mincut as mincut
import wsatlab.percolation as percolation


def _found(args, result) -> int:
    return int(result is not None)


# (span name, owner object, attribute, tag function or None). Several
# functions may share one span name; nested spans of the same name are
# counted once, at the outermost call.
ENTRY_POINTS = [
    ("graphs.io", graphs, "graph_to_graph6", None),
    ("graphs.io", graphs, "graph6_to_graph", None),
    ("graphs.io", graphs, "graph_to_edge_list", None),
    ("graphs.io", graphs, "edge_list_to_graph", None),
    ("graphs.io", graphs, "read_graph_file", None),
    ("graphs.io", graphs, "write_graph_file", None),
    ("graphs.with_edge", graphs.Graph, "with_edge", None),
    ("embedding.find_new_copy", embedding, "find_new_copy", _found),
    ("percolation.closure", percolation, "closure",
     lambda a, r: len(r.steps)),
    ("percolation.activation_partition", percolation,
     "activation_partition", None),
    ("percolation.rotate", percolation, "rotate", None),
    ("extremal.gamma_min_ratio", extremal, "gamma_min_ratio", None),
    ("extremal.gamma_min_brute", extremal, "gamma_min_brute",
     # the brute solver's search-node count; the ratio solver's cut solves
     # are counted from mincut spans instead
     lambda a, r: r.nodes_explored),
    ("extremal.wsat_exact", extremal, "wsat_exact", None),
    ("mincut.max_flow", mincut.MaxFlow, "max_flow", None),
    ("isomorphism.add", isomorphism.IsoClassRegistry, "add",
     lambda a, r: int(r)),
    ("isomorphism.are_isomorphic", isomorphism, "are_isomorphic", None),
    ("constructions.build", constructions, "sparse_family", None),
    ("constructions.build", constructions, "build_delta3", None),
    ("constructions.build", constructions, "build_delta4", None),
    ("constructions.build", constructions, "build_high_delta", None),
    ("constructions.build", constructions, "counterexample_15_7", None),
    ("constructions.build", constructions, "counterexample_host", None),
    ("expander.sample_configuration", expander, "sample_configuration",
     lambda a, r: int(r[1] is not None)),
    ("expander.i_alpha_exact", expander, "i_alpha_exact",
     lambda a, r: 1 << a[0].n),
    ("expander.best_eta", expander, "best_eta", None),
    ("cli.main", wsatlab.cli, "main", None),
]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[str] = []
        self.tag: list[int] = []
        self._stack: list[int] = []
        self.current_job = "setup"

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, name: str, fn, tag_fn):
        names, start, end, parent = self.names, self.start, self.end, self.parent
        jobs, tags, stack = self.job, self.tag, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            tags.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if tag_fn is not None:
                tags[idx] = tag_fn(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point at each name a wsatlab module binds it
        to, then restore the originals."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "wsatlab" or k.startswith("wsatlab.")]
        patches = []
        for name, owner, attr, tag_fn in ENTRY_POINTS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, tag_fn)
            patches.append((owner, attr, original, wrapper))
            if isinstance(owner, type):
                continue
            for mod in modules:
                if mod is not owner and getattr(mod, attr, None) is original:
                    patches.append((mod, attr, original, wrapper))
        for target, attr, _, wrapper in patches:
            setattr(target, attr, wrapper)
        try:
            yield self
        finally:
            for target, attr, original, _ in reversed(patches):
                setattr(target, attr, original)

    def write(self, path: str) -> None:
        """Dump spans as gzipped TSV: index, name, start and end in
        microseconds from the first span, parent index, job id, tag."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\tjob\ttag\n")
            for i in range(len(self.names)):
                fh.write(
                    f"{i}\t{self.names[i]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\t"
                    f"{self.job[i]}\t{self.tag[i]}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(tr: Tracer, jobs: set[str]) -> dict[str, float]:
    """Per-layer counts and busy times over the spans of the given jobs.

    Busy time (``.ms``) is the total duration of the outermost spans of a
    name; self time (``.self_ms``) subtracts the time covered by direct
    child spans.
    """
    names, start, end, parent, tags = tr.names, tr.start, tr.end, tr.parent, tr.tag
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    tag_sum: dict[str, int] = {}
    hit_ms = miss_ms = 0.0
    child_ms = [0.0] * len(names)
    selected = [tr.job[i] in jobs for i in range(len(names))]
    for i in range(len(names)):
        p = parent[i]
        if p >= 0:
            child_ms[p] += end[i] - start[i]
    under = {"extremal.gamma_min_ratio": 0, "extremal.wsat_exact": 0}
    for i in range(len(names)):
        if not selected[i]:
            continue
        name = names[i]
        p = parent[i]
        if p >= 0 and names[p] == name:
            continue
        dur = (end[i] - start[i]) * 1e3
        calls[name] = calls.get(name, 0) + 1
        ms[name] = ms.get(name, 0.0) + dur
        self_ms[name] = self_ms.get(name, 0.0) + dur - child_ms[i] * 1e3
        tag_sum[name] = tag_sum.get(name, 0) + tags[i]
        if name == "embedding.find_new_copy":
            if tags[i]:
                hit_ms += dur
            else:
                miss_ms += dur
        if name in ("mincut.max_flow", "percolation.closure"):
            a = p
            while a >= 0:
                if names[a] in under:
                    under[names[a]] += 1
                    break
                a = parent[a]

    def c(name):
        return calls.get(name, 0)

    fnc, steps = c("embedding.find_new_copy"), tag_sum.get("percolation.closure", 0)
    hits = tag_sum.get("embedding.find_new_copy", 0)
    novel, adds = tag_sum.get("isomorphism.add", 0), c("isomorphism.add")
    return {
        "graphs.io.calls": c("graphs.io"),
        "graphs.io.ms": ms.get("graphs.io", 0.0),
        "graphs.with_edge.calls": c("graphs.with_edge"),
        "graphs.with_edge.ms": ms.get("graphs.with_edge", 0.0),
        "embedding.find_new_copy.calls": fnc,
        "embedding.find_new_copy.hits": hits,
        "embedding.find_new_copy.hit_ratio": _ratio(hits, fnc),
        "embedding.find_new_copy.hit_ms": hit_ms,
        "embedding.find_new_copy.miss_ms": miss_ms,
        "percolation.closure.calls": c("percolation.closure"),
        "percolation.closure.steps": steps,
        "percolation.closure.probes_per_step": _ratio(fnc, steps),
        "percolation.closure.self_ms": self_ms.get("percolation.closure", 0.0),
        "percolation.activation_partition.ms":
            ms.get("percolation.activation_partition", 0.0),
        "percolation.rotate.calls": c("percolation.rotate"),
        "percolation.rotate.ms": ms.get("percolation.rotate", 0.0),
        "extremal.gamma_min_ratio.calls": c("extremal.gamma_min_ratio"),
        "extremal.gamma_min_ratio.self_ms":
            self_ms.get("extremal.gamma_min_ratio", 0.0),
        "extremal.gamma_min_ratio.cut_solves": under["extremal.gamma_min_ratio"],
        "extremal.gamma_min_brute.calls": c("extremal.gamma_min_brute"),
        "extremal.gamma_min_brute.ms": ms.get("extremal.gamma_min_brute", 0.0),
        "extremal.gamma_min_brute.nodes": tag_sum.get("extremal.gamma_min_brute", 0),
        "extremal.wsat_exact.calls": c("extremal.wsat_exact"),
        "extremal.wsat_exact.self_ms": self_ms.get("extremal.wsat_exact", 0.0),
        "extremal.wsat_exact.closures": under["extremal.wsat_exact"],
        "mincut.max_flow.calls": c("mincut.max_flow"),
        "mincut.max_flow.ms": ms.get("mincut.max_flow", 0.0),
        "isomorphism.add.calls": adds,
        "isomorphism.add.novel": novel,
        "isomorphism.add.novel_ratio": _ratio(novel, adds),
        "isomorphism.add.ms": ms.get("isomorphism.add", 0.0),
        "isomorphism.are_isomorphic.calls": c("isomorphism.are_isomorphic"),
        "isomorphism.are_isomorphic.ms": ms.get("isomorphism.are_isomorphic", 0.0),
        "constructions.build.calls": c("constructions.build"),
        "constructions.build.ms": ms.get("constructions.build", 0.0),
        "expander.sample_configuration.calls": c("expander.sample_configuration"),
        "expander.sample_configuration.simple":
            tag_sum.get("expander.sample_configuration", 0),
        "expander.sample_configuration.ms":
            ms.get("expander.sample_configuration", 0.0),
        "expander.i_alpha_exact.calls": c("expander.i_alpha_exact"),
        "expander.i_alpha_exact.subsets": tag_sum.get("expander.i_alpha_exact", 0),
        "expander.i_alpha_exact.ms": ms.get("expander.i_alpha_exact", 0.0),
        "expander.best_eta.calls": c("expander.best_eta"),
        "expander.best_eta.ms": ms.get("expander.best_eta", 0.0),
        "cli.main.ms": ms.get("cli.main", 0.0),
    }


def count_names(figures: dict[str, float]) -> list[str]:
    """The figures that are work counts, which must repeat exactly."""
    suffixes = (".calls", ".hits", ".steps", ".cut_solves", ".nodes",
                ".closures", ".novel", ".simple", ".subsets")
    return [k for k in figures if k.endswith(suffixes)]


def median_figures(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
