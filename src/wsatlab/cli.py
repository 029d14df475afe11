"""Batch command-line front end.

Every subcommand parses its inputs, runs the exact computation, and emits a
JSON report to stdout (or --out). Exact rationals appear as "p/q" strings.
Exit codes: 0 success, 1 usage error, 2 verification failure, 3 budget or
cap exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import BudgetExceededError, CapExceededError, WsatlabError
from .expander import (
    evaluate_condition,
    best_eta,
    i_alpha_exact,
    sample_random_regular,
    verify_table,
)
from .extremal import (
    build_f_tilde,
    gamma_min_brute,
    gamma_min_ratio,
    wsat_exact,
)
from .constructions import (
    build_delta3,
    build_delta4,
    build_high_delta,
    counterexample_15_7,
    solve_params,
    sparse_family,
)
from .graphs import Graph, graph_to_graph6, read_graph_file
from .percolation import (
    a_matching,
    activation_partition,
    closure,
    count_a_matchings,
    rotate,
)

USAGE_ERROR, VERIFY_ERROR, BUDGET_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _fraction(text: str) -> Fraction:
    # rationals arrive as "a/b" or integer strings, never floats
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("WSATLAB_SEED")
    return int(env) if env else 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="wsatlab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report to this path")
        sp.add_argument("--seed", type=int, default=None)

    g = sub.add_parser("gamma", help="exact minimum of (m(S)-1)/|S|")
    g.add_argument("graph")
    g.add_argument("--method", choices=["brute", "ratio"], default="ratio")
    common(g)

    c = sub.add_parser("closure", help="bootstrap percolation closure")
    c.add_argument("host")
    c.add_argument("--pattern", required=True)
    c.add_argument("--trace", help="write the step trace JSON here")
    common(c)

    w = sub.add_parser("is-wsat", help="does the host percolate to complete?")
    w.add_argument("host")
    w.add_argument("--pattern", required=True)
    common(w)

    ws = sub.add_parser("wsat", help="exact weak saturation number")
    ws.add_argument("--n", type=int, required=True)
    ws.add_argument("--pattern", required=True)
    ws.add_argument("--budget", type=int, default=2_000_000)
    common(ws)

    co = sub.add_parser("construct", help="pattern families with target gamma")
    co.add_argument(
        "--family",
        required=True,
        choices=["sparse", "delta3", "delta4", "high-delta", "counterexample"],
    )
    co.add_argument("--ratio", type=_fraction, default=None)
    co.add_argument("--k", type=int, default=None)
    co.add_argument("--delta", type=int, default=None)
    co.add_argument("--clique-size", type=int, default=None)
    co.add_argument("--expander-check", action="store_true")
    co.add_argument("--max-attempts", type=int, default=10**4)
    common(co)

    r = sub.add_parser("rotate", help="rotate a minimum weakly saturated host")
    r.add_argument("host")
    r.add_argument("--pattern", required=True)
    r.add_argument("--matching", type=int, default=0,
                   help="index into the lexicographic A-matching list")
    common(r)

    f = sub.add_parser("ftilde", help="disjoint union of all spanning supergraphs")
    f.add_argument("pattern")
    f.add_argument("--pad", type=int, default=None)
    f.add_argument("--dedup", action="store_true")
    f.add_argument("--max-nonedges", type=int, default=14)
    common(f)

    e = sub.add_parser("expander", help="expansion condition numerics")
    esub = e.add_subparsers(dest="expander_command", required=True)
    et = esub.add_parser("table", help="recompute the degree-6 bound table")
    et.add_argument("--r", type=int, default=6)
    common(et)
    ec = esub.add_parser("check", help="evaluate the condition at one point")
    ec.add_argument("--alpha", type=_fraction, required=True)
    ec.add_argument("--r", type=int, default=6)
    ec.add_argument("--eta", type=_fraction, default=None)
    ec.add_argument("--tol", type=_fraction, default=Fraction(1, 10**7))
    common(ec)
    es = esub.add_parser("sample", help="configuration-model sample")
    es.add_argument("--r", type=int, required=True)
    es.add_argument("--n", type=int, required=True)
    es.add_argument("--alpha", type=_fraction, default=None,
                    help="also report the exact isoperimetric value")
    es.add_argument("--attempts", type=int, default=10**4)
    common(es)
    return p


def _load(path: str) -> Graph:
    try:
        return read_graph_file(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _run(args) -> tuple[dict, int]:
    cmd = args.command
    if cmd == "gamma":
        g = _load(args.graph)
        res = gamma_min_brute(g) if args.method == "brute" else gamma_min_ratio(g)
        return res.as_report(), 0

    if cmd == "closure":
        host, pattern = _load(args.host), _load(args.pattern)
        tr = closure(host, pattern)
        if args.trace:
            with open(args.trace, "w", encoding="ascii") as fh:
                fh.write(tr.to_json())
        return {
            "steps": len(tr.steps),
            "complete": tr.is_complete(),
            "closure": graph_to_graph6(tr.terminal()),
        }, 0

    if cmd == "is-wsat":
        host, pattern = _load(args.host), _load(args.pattern)
        ok = closure(host, pattern).is_complete()
        return {"weakly_saturated": ok}, 0 if ok else VERIFY_ERROR

    if cmd == "wsat":
        pattern = _load(args.pattern)
        res = wsat_exact(args.n, pattern, budget=args.budget)
        return res.as_report(), 0

    if cmd == "construct":
        return _run_construct(args)

    if cmd == "rotate":
        host, pattern = _load(args.host), _load(args.pattern)
        tr = closure(host, pattern)
        ap = activation_partition(tr)
        total = count_a_matchings(ap)
        if not 0 <= args.matching < total:
            print(f"matching index out of range [0, {total})", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        m = a_matching(ap, args.matching)
        rotated = rotate(ap, m)
        return {
            "parts": len(ap.parts),
            "matchings": total,
            "matching_index": args.matching,
            "removed": [list(e) for e in m],
            "rotation": graph_to_graph6(rotated),
            "edge_count": rotated.num_edges,
        }, 0

    if cmd == "ftilde":
        f = _load(args.pattern)
        ft = build_f_tilde(
            f, clique_pad=args.pad, dedup=args.dedup,
            max_nonedges=args.max_nonedges,
        )
        return {
            "vertices": ft.n,
            "edges": ft.num_edges,
            "dedup": args.dedup,
            "semantics": "isomorphism-reduced" if args.dedup else "literal",
            "graph": graph_to_graph6(ft),
        }, 0

    if cmd == "expander":
        return _run_expander(args)

    raise AssertionError(f"unhandled command {cmd}")


def _run_construct(args) -> tuple[dict, int]:
    fam = args.family
    if fam == "sparse":
        if args.delta is None or args.k is None:
            print("sparse needs --delta and --k", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        con = sparse_family(args.delta, args.k)
    elif fam in ("delta3", "delta4"):
        if args.ratio is None:
            print(f"{fam} needs --ratio", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        params = solve_params(3 if fam == "delta3" else 4, args.ratio, args.k)
        builder = build_delta3 if fam == "delta3" else build_delta4
        con = builder(params, clique_size=args.clique_size)
    elif fam == "high-delta":
        if args.delta is None or args.ratio is None or args.k is None:
            print("high-delta needs --delta, --ratio, --k", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        con = build_high_delta(
            args.delta, args.ratio, args.k, seed=_seed(args),
            expander_check=args.expander_check,
            clique_size=args.clique_size,
            max_attempts=args.max_attempts,
        )
    else:
        con = counterexample_15_7(
            clique_big=args.clique_size if args.clique_size else 100
        )
    return con.as_report(), 0


def _run_expander(args) -> tuple[dict, int]:
    sub = args.expander_command
    if sub == "table":
        rep = verify_table(args.r)
        return rep, 0 if rep["all_pass"] else VERIFY_ERROR
    if sub == "check":
        if args.eta is not None:
            cv = evaluate_condition(args.alpha, args.r, args.eta)
            return {
                "alpha": str(cv.alpha),
                "r": cv.r,
                "eta": str(cv.eta),
                "lhs": [cv.lhs_inf, cv.lhs_sup],
                "rhs": [cv.rhs_inf, cv.rhs_sup],
                "satisfied": cv.satisfied,
            }, 0
        eta, expansion = best_eta(args.alpha, args.r, args.tol)
        return {
            "alpha": str(args.alpha),
            "r": args.r,
            "best_eta": str(eta),
            "guaranteed_expansion": str(expansion),
            "expansion_float": float(expansion),
        }, 0
    # sample
    seed = _seed(args)
    g, attempts = sample_random_regular(args.r, args.n, seed, args.attempts)
    rep = {
        "r": args.r,
        "n": args.n,
        "seed_used": seed + attempts - 1,
        "attempts": attempts,
        "graph": graph_to_graph6(g),
    }
    if args.alpha is not None:
        val = i_alpha_exact(g, args.alpha)
        rep["i_alpha"] = str(val.value)
        rep["witness"] = sorted(val.witness)
    return rep, 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        results, code = _run(args)
    except (BudgetExceededError, CapExceededError) as exc:
        results, code = {
            "error": type(exc).__name__,
            "message": str(exc),
            "inconclusive": True,
            "partial": getattr(exc, "partial", None),
        }, BUDGET_ERROR
    except WsatlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = {
        "command": args.command,
        "inputs": {
            k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in sorted(vars(args).items())
            if k not in ("command", "out") and v is not None
        },
        "results": results,
        "provenance": {"version": __version__, "seed": getattr(args, "seed", None)},
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
    }
    text = json.dumps(report, indent=2, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
