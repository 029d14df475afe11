"""Batch command-line front end.

Every subcommand parses its inputs, runs the exact computation, and emits a
JSON report to stdout (or --out). Exact rationals appear as "p/q" strings.
Only the commands that sample, construct and expander sample, take --seed;
it falls back to the WSATLAB_SEED environment variable, then to 0.
construct takes only the options its family reads: sparse needs --delta
and --k; delta3 and delta4 need --ratio and read --k and --clique-size;
high-delta needs --delta, --ratio and --k and reads --clique-size, --seed,
--expander-check and --max-attempts; counterexample reads --clique-size.
Exit codes: 0 success; 1 usage error, malformed input, a work cap below 1,
or a file that cannot be read or written, with nothing on stdout and one
"error: " line on stderr; 2 verification failure; 3 budget or cap exhausted.
A reader that closes stdout early also gets exit 1, with nothing on stderr.
Each subcommand imports only the layers it runs, and wall_time_ms includes
that import.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import (BudgetExceededError, CapExceededError, GraphFormatError,
                     InfeasibleParamsError, ParameterRangeError, WsatlabError)
from .graphs import Graph, graph_to_graph6, read_graph_file

USAGE_ERROR, VERIFY_ERROR, BUDGET_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # a parse error leaves by main's one error exit, with argparse's message
    def error(self, message):
        raise WsatlabError(message)


def _fraction(text: str) -> Fraction:
    # rationals arrive as "a/b" or integer strings, never floats
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("WSATLAB_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise WsatlabError(f"WSATLAB_SEED is not an integer: {env!r}") from None


def _load(path: str) -> Graph:
    try:
        return read_graph_file(path)
    except OSError as exc:
        raise WsatlabError(f"cannot read {path}: {exc.strerror}") from None
    except GraphFormatError as exc:
        # a command may read two files; say which one is malformed
        raise GraphFormatError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise WsatlabError(f"cannot write {path}: {exc.strerror}") from None


# -- one handler per subcommand: args -> (results, exit code) -----------------
# Each handler imports the layers it runs, so that a call loads only those.


def _gamma(args) -> tuple[dict, int]:
    from .extremal import gamma_min_brute, gamma_min_ratio

    g = _load(args.graph)
    res = gamma_min_brute(g) if args.method == "brute" else gamma_min_ratio(g)
    return res.as_report(), 0


def _closure(args) -> tuple[dict, int]:
    from .percolation import closure

    tr = closure(_load(args.host), _load(args.pattern))
    if args.trace:
        _write(args.trace, tr.to_json())
    terminal = tr.terminal()
    return {
        "steps": len(tr.steps),
        "complete": terminal.is_complete(),
        "closure": graph_to_graph6(terminal),
    }, 0


def _is_wsat(args) -> tuple[dict, int]:
    from .percolation import is_weakly_saturated

    ok = is_weakly_saturated(_load(args.host), _load(args.pattern))
    return {"weakly_saturated": ok}, 0 if ok else VERIFY_ERROR


def _wsat(args) -> tuple[dict, int]:
    from .extremal import wsat_exact

    res = wsat_exact(args.n, _load(args.pattern), budget=args.budget)
    return res.as_report(), 0


# family -> (options it requires, other options it reads, builder called
# with the constructions module and the options given, by name)
_FAMILIES = {
    "sparse": (("delta", "k"), (), lambda c, **kw: c.sparse_family(**kw)),
    "delta3": (("ratio",), ("k", "clique_size"), lambda c, ratio, k=None, **kw:
               c.build_delta3(c.solve_params(3, ratio, k), **kw)),
    "delta4": (("ratio",), ("k", "clique_size"), lambda c, ratio, k=None, **kw:
               c.build_delta4(c.solve_params(4, ratio, k), **kw)),
    "high-delta": (("delta", "ratio", "k"),
                   ("clique_size", "seed", "expander_check", "max_attempts"),
                   lambda c, seed=None, **kw: c.build_high_delta(seed=_seed(seed), **kw)),
    "counterexample": ((), ("clique_size",), lambda c, clique_size=100:
                       c.counterexample_15_7(clique_big=clique_size)),
}
# every option some family reads
_CONSTRUCT_OPTIONS = {o for need, read, _ in _FAMILIES.values() for o in need + read}


def _flags(options) -> str:
    return ", ".join("--" + o.replace("_", "-") for o in options)


def _construct(args) -> tuple[dict, int]:
    needs, reads, build = _FAMILIES[args.family]
    given = {o: v for o, v in vars(args).items()
             if o in _CONSTRUCT_OPTIONS and v is not None and v is not False}
    missing = [o for o in needs if o not in given]
    if missing:
        raise InfeasibleParamsError(f"{args.family} needs {_flags(missing)}")
    unread = [o for o in given if o not in needs + reads]
    if unread:
        raise WsatlabError(f"{args.family} does not read {_flags(unread)}")
    from . import constructions

    return build(constructions, **given).as_report(), 0


def _rotate(args) -> tuple[dict, int]:
    from .percolation import (a_matching, activation_partition, closure,
                              count_a_matchings, rotate)

    ap = activation_partition(closure(_load(args.host), _load(args.pattern)))
    total = count_a_matchings(ap)
    if not 0 <= args.matching < total:
        raise ParameterRangeError(f"matching index out of range [0, {total})")
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


def _ftilde(args) -> tuple[dict, int]:
    from .extremal import MAX_NONEDGES, build_f_tilde

    if args.max_nonedges is None:
        # set before anything can raise, so that every report shows the cap
        args.max_nonedges = MAX_NONEDGES
    ft = build_f_tilde(
        _load(args.pattern), clique_pad=args.pad, dedup=args.dedup,
        max_nonedges=args.max_nonedges,
    )
    return {
        "vertices": ft.n,
        "edges": ft.num_edges,
        "dedup": args.dedup,
        "semantics": "isomorphism-reduced" if args.dedup else "literal",
        "graph": graph_to_graph6(ft),
    }, 0


def _expander_table(args) -> tuple[dict, int]:
    from .expander import verify_table

    rep = verify_table()
    return rep, 0 if rep["all_pass"] else VERIFY_ERROR


def _expander_check(args) -> tuple[dict, int]:
    from .expander import best_eta, evaluate_condition

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


def _expander_sample(args) -> tuple[dict, int]:
    from .expander import i_alpha_exact, sample_random_regular

    seed = _seed(args.seed)
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


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="wsatlab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(parent, name, run, help, samples=False):
        sp = parent.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--out", help="write the JSON report to this path")
        if samples:
            sp.add_argument("--seed", type=int, default=None,
                            help="sampler seed (default: $WSATLAB_SEED, else 0)")
        return sp

    g = command(sub, "gamma", _gamma, "exact minimum of (m(S)-1)/|S|")
    g.add_argument("graph")
    g.add_argument("--method", choices=["brute", "ratio"], default="ratio")

    c = command(sub, "closure", _closure, "bootstrap percolation closure")
    c.add_argument("host")
    c.add_argument("--pattern", required=True)
    c.add_argument("--trace", help="write the step trace JSON here")

    w = command(sub, "is-wsat", _is_wsat, "does the host percolate to complete?")
    w.add_argument("host")
    w.add_argument("--pattern", required=True)

    ws = command(sub, "wsat", _wsat, "exact weak saturation number")
    ws.add_argument("--n", type=int, required=True)
    ws.add_argument("--pattern", required=True)
    ws.add_argument("--budget", type=int, default=2_000_000,
                    help="cap on one-edge extensions of the hosts searched")

    co = command(sub, "construct", _construct, "pattern families with target gamma",
                 samples=True)
    co.add_argument("--family", required=True, choices=list(_FAMILIES))
    co.add_argument("--ratio", type=_fraction, default=None)
    co.add_argument("--k", type=int, default=None)
    co.add_argument("--delta", type=int, default=None)
    co.add_argument("--clique-size", type=int, default=None)
    co.add_argument("--expander-check", action="store_true")
    co.add_argument("--max-attempts", type=int, default=None)

    r = command(sub, "rotate", _rotate, "rotate a minimum weakly saturated host")
    r.add_argument("host")
    r.add_argument("--pattern", required=True)
    r.add_argument("--matching", type=int, default=0,
                   help="index into the lexicographic A-matching list")

    f = command(sub, "ftilde", _ftilde, "disjoint union of all spanning supergraphs")
    f.add_argument("pattern")
    f.add_argument("--pad", type=int, default=None)
    f.add_argument("--dedup", action="store_true")
    # None stands for extremal.MAX_NONEDGES, which _ftilde fills in
    f.add_argument("--max-nonedges", type=int, default=None)

    e = sub.add_parser("expander", help="expansion condition numerics")
    esub = e.add_subparsers(dest="expander_command", required=True)
    command(esub, "table", _expander_table, "recompute the degree-6 bound table")
    ec = command(esub, "check", _expander_check, "evaluate the condition at one point")
    ec.add_argument("--alpha", type=_fraction, required=True)
    ec.add_argument("--r", type=int, default=6)
    ec.add_argument("--eta", type=_fraction, default=None)
    ec.add_argument("--tol", type=_fraction, default=Fraction(1, 10**7))
    es = command(esub, "sample", _expander_sample, "configuration-model sample",
                 samples=True)
    es.add_argument("--r", type=int, required=True)
    es.add_argument("--n", type=int, required=True)
    es.add_argument("--alpha", type=_fraction, default=None,
                    help="also report the exact isoperimetric value")
    es.add_argument("--attempts", type=int, default=10**4)
    return p


def _report(args) -> tuple[str, int]:
    started = time.perf_counter()
    try:
        results, code = args.run(args)
    except (BudgetExceededError, CapExceededError) as exc:
        results, code = {
            "error": type(exc).__name__,
            "message": str(exc),
            "inconclusive": True,
            "partial": getattr(exc, "partial", None),
        }, BUDGET_ERROR
    report = {
        "command": args.command,
        "inputs": {
            k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in sorted(vars(args).items())
            if k not in ("command", "out", "run") and v is not None
        },
        "results": results,
        "provenance": {"version": __version__, "seed": getattr(args, "seed", None)},
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
    }
    return json.dumps(report, indent=2, default=str), code


def main(argv=None) -> int:
    # every caller mistake leaves here: exit 1, one "error: " line
    try:
        args = build_parser().parse_args(argv)
        text, code = _report(args)
        if args.out:
            _write(args.out, text + "\n")
        else:
            print(text, flush=True)
        return code
    except WsatlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
