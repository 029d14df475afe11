"""wsatlab benchmark: four seeded workloads run as a closed loop.

One caller submits one job at a time, in a single process with no threads;
the ``cli`` workload runs one ``wsatlab`` child process at a time. Every
job's output is checked, so every figure comes from a run whose answers
are correct.

Two kinds of run:

* ``--trace 0`` (untraced) measures the end-to-end metrics with no
  instrumentation: wall_s, job_ms_p50, job_ms_p90, peak_rss_mb, setup_s.
* ``--trace 1`` (traced) measures the per-layer metrics: spans around each
  layer's public entry points, plus the tracing overhead against an
  untraced pass, the ROADMAP baseline counts and a determinism check.

Usage, from the repository root:

    python3 perfbench/run.py --workload percolate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                    # every workload, both runs
    python3 perfbench/run.py --self-check       # adds repeat and held-out seeds

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it name every
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
OUT = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_REPEATS = 3
MIN_JOBS = 100  # so that ten samples lie beyond job_ms_p90
HELD_OUT_SEED = 7919

UNITS_E2E = {"wall_s": "s", "job_ms_p50": "ms", "job_ms_p90": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_wsatlab():
    if not (SRC / "wsatlab" / "__init__.py").is_file():
        fail(f"no wsatlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wsatlab

    if Path(wsatlab.__file__).resolve().parent != (SRC / "wsatlab").resolve():
        fail(f"imported wsatlab from {wsatlab.__file__}, not from {SRC}")


@contextmanager
def scratch_dir():
    """A fresh directory for input files, removed when the run ends."""
    WORK.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def make_workload(name: str, seed: int, workdir: str):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir)


class Pass:
    """One pass over a workload's job list."""

    def __init__(self):
        self.times: list[float] = []
        self.digests: list[tuple[str, str]] = []
        self.failed = 0
        self.wall = 0.0

    @property
    def busy(self) -> float:
        return sum(self.times)


def run_pass(wl, check: bool, in_process: bool, tracer=None, tag="") -> Pass:
    p = Pass()
    started = time.perf_counter()
    for job in wl.jobs(in_process=in_process):
        if tracer is not None:
            tracer.current_job = f"{tag}{job.label}"
        t0 = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # a raising job counts as failed, run goes on
            out, error = None, exc
        p.times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.current_job = "between jobs"
        try:
            if error is not None:
                raise error
            if check:
                job.check(out)
            if job.digest is not None:
                p.digests.append((job.label, job.digest(out)))
        except Exception as exc:  # reported, counted, run goes on
            p.failed += 1
            print(f"FAILED {wl.name} [{job.label}]: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    p.wall = time.perf_counter() - started
    return p


def digest_of(p: Pass) -> str:
    from workloads import sha

    return sha("\n".join(f"{label}\t{d}" for label, d in p.digests))


def recorded_digest(name: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def time_setups(name: str, seed: int) -> list[float]:
    """Process start to inputs ready, in fresh processes."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up of {name} exited with {proc.returncode}")
    return out


def check_passes(name: str, seed: int, passes: list[Pass]) -> list[str]:
    problems = []
    first = digest_of(passes[0])
    if any(digest_of(p) != first for p in passes[1:]):
        problems.append("outputs differ between passes")
    recorded = recorded_digest(name, seed)
    if recorded is not None and recorded != first:
        problems.append(f"outputs differ from the digest recorded for seed {seed}")
    return problems


def report(rows: list[tuple[str, float, str, str]]) -> None:
    for key, value, unit, samples in rows:
        print(f"  {key:42s} {value:14.6g} {unit:6s} {samples}")


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    setups = time_setups(name, seed)
    with scratch_dir() as workdir:
        wl = make_workload(name, seed, workdir)
        passes: list[Pass] = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(wl, check=not passes, in_process=False))
            elapsed = time.perf_counter() - t0
            jobs = sum(len(p.times) for p in passes)
            typical = statistics.median(p.wall for p in passes)
            if (len(passes) >= 2 and jobs >= MIN_JOBS
                    and elapsed + typical / 2 >= seconds):
                break
    problems = check_passes(name, seed, passes)
    times = [t for p in passes for t in p.times]
    if name == "cli":
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(times)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": statistics.median(p.busy for p in passes),
        "job_ms_p50": statistics.median(times) * 1e3,
        "job_ms_p90": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    samples = {"wall_s": f"median of {len(passes)} passes",
               "job_ms_p50": f"{attempted} jobs", "job_ms_p90": f"{attempted} jobs",
               "peak_rss_mb": "largest child process" if name == "cli" else "1 process",
               "setup_s": f"median of {len(setups)} set-ups"}
    print(f"{name} seed={seed} untraced run: {len(passes)} passes, "
          f"{attempted} jobs, {failed} failed, fail_ratio {failed / attempted:g}, "
          f"digest {digest_of(passes[0])[:16]}")
    report([(k, v, UNITS_E2E[k], samples[k]) for k, v in metrics.items()])
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS_E2E[k]} for k, v in metrics.items()},
    }


def time_cli_import() -> list[float]:
    from workloads import cli_env

    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wsatlab.cli"], cwd=ROOT,
                       env=cli_env(), check=True)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def traced(name: str, seed: int) -> dict:
    """Traced run: the per-layer metrics."""
    import tracer as tracing

    tr = tracing.Tracer()
    with scratch_dir() as workdir:
        with tr.installed():
            wl = make_workload(name, seed, workdir)
        checked = run_pass(wl, check=True, in_process=True)
        runs, plain, traced_passes = [], [], []
        for k in (1, 2):
            plain.append(run_pass(wl, check=False, in_process=True))
            with tr.installed():
                p = run_pass(wl, check=False, in_process=True, tracer=tr, tag=f"{k}/")
            traced_passes.append(p)
            prefix = f"{k}/"
            runs.append(tracing.layer_figures(
                tr, {j for j in set(tr.job) if j == "setup" or j.startswith(prefix)}))
        problems = []
        for i, (label, call, expected) in enumerate(wl.baseline()):
            tr.current_job = job = f"baseline {i}"
            with tr.installed():
                call()
            base = tracing.layer_figures(tr, {job})
            print(f"{name} baseline {label}: "
                  + ", ".join(f"{k}={base[k]} (ROADMAP {v})" for k, v in expected.items()))
            problems += [f"baseline {k} = {base[k]}, ROADMAP says {v}"
                         for k, v in expected.items() if base[k] != v]
    OUT.mkdir(exist_ok=True)
    tr.write(str(OUT / f"spans-{name}-seed{seed}.tsv.gz"))

    passes = [checked, *plain, *traced_passes]
    problems += check_passes(name, seed, passes)
    counts = tracing.count_names(runs[0])
    if any(runs[0][k] != runs[1][k] for k in counts):
        problems.append("per-layer counts differ between two traced passes")
    figures = tracing.median_figures(runs)
    figures["cli.import_ms"] = (statistics.median(time_cli_import())
                                if name == "cli" else 0.0)
    untraced_wall = statistics.median(p.busy for p in plain)
    figures["trace.overhead_frac"] = (
        statistics.median(p.busy for p in traced_passes) - untraced_wall
    ) / untraced_wall
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{name} seed={seed} traced run: 1 checked pass, then 2 untraced "
          f"and 2 traced passes in turn, {attempted} jobs, {failed} failed, {len(tr)} spans")
    units = {k: unit_of(k) for k in figures}
    samples = dict.fromkeys(figures, "set-up + 1 traced pass (median of 2)")
    samples["cli.import_ms"] = (f"median of {SETUP_REPEATS} processes"
                                if name == "cli" else "cli workload only")
    samples["trace.overhead_frac"] = "median of 2 traced vs 2 untraced passes"
    report([(k, v, units[k], samples[k]) for k, v in figures.items()])
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in figures.items()},
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_ms") or metric.endswith(".ms"):
        return "ms"
    if metric.endswith(("ratio", "_frac", "per_step")):
        return "1"
    return "count"


def setup_only(name: str, seed: int) -> None:
    with scratch_dir() as workdir:
        make_workload(name, seed, workdir)


def digest_only(name: str, seed: int) -> None:
    with scratch_dir() as workdir:
        p = run_pass(make_workload(name, seed, workdir), check=True, in_process=False)
    if p.failed:
        fail(f"{p.failed} jobs failed; no digest recorded")
    print(digest_of(p))


def child(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def run_all(names: list[str], seed: int, seconds: int, self_check: bool) -> int:
    """Every workload in its own process, untraced then traced."""
    import tracer as tracing

    ok = True
    for name in names:
        base = ["--workload", name, "--seconds", str(seconds)]
        results = [child(base + ["--seed", str(seed), "--trace", t]) for t in "01"]
        if self_check:
            again = child(base + ["--seed", str(seed), "--trace", "1"])
            counts = tracing.count_names({k: 0 for k in results[1]["metrics"]})
            same = all(results[1]["metrics"][k] == again["metrics"].get(k)
                       for k in counts)
            print(f"{name}: per-layer counts of two traced runs "
                  f"{'identical' if same else 'DIFFER'}")
            held = child(base + ["--seed", str(HELD_OUT_SEED), "--trace", "0"])
            results += [again, held]
            ok = ok and same
        ok = ok and all(r["correct"] for r in results)
        print()
    print("all outputs correct" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                            help="percolate, gamma, wsat, cli, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                            help="with all: repeat the traced run and add a "
                                 "held-out seed")
    parser.add_argument("--record-digests", metavar="SEEDS",
                            help="record output digests for seeds a-b")
    parser.add_argument("--setup-only", action="store_true",
                            help=argparse.SUPPRESS)
    parser.add_argument("--digest-only", action="store_true",
                            help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_wsatlab()
    names = ["percolate", "gamma", "wsat", "cli"]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")
    if args.record_digests:
        lo, hi = map(int, args.record_digests.split("-"))
        recorded = {}
        for name in names:
            recorded[name] = {}
            for seed in range(lo, hi + 1):
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload",
                     name, "--seed", str(seed), "--digest-only"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
                recorded[name][str(seed)] = proc.stdout.split()[-1]
                print(name, seed, recorded[name][str(seed)], flush=True)
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload == "all":
        return run_all(names, args.seed, int(args.seconds), args.self_check)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.digest_only:
        digest_only(args.workload, args.seed)
        return 0
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
