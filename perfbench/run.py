"""Pipeline benchmark: generated programs through `praline solve`.

    python3 perfbench/run.py --workload small_batch --seed 0 --seconds 10 --trace 0

Builds the workload's programs from --seed, then solves them in-process
through `praline.cli.run(["solve", file, "--mode", m, "--json", out])`,
one after another (a closed loop with one client), pass after pass until
--seconds have gone by.  Delta mode keeps the CLI's default --jobs, the CPU
count.  Every report is checked (see checks.py) after its solve is timed.

With --trace 0 the last line is the end-to-end metrics; with --trace 1 a
traced and then an untraced pass run, and the last line is the per-layer
metrics of the traced pass (see spans.py).  The exit code is non-zero when
any output check fails.  Working files go to .bench_work/ at the repository
root.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from checks import Solve, check_case, read_report, sample_probs
from spans import Tracer, layer_metrics
from workloads import SETUP_PROGRAM, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_RUNS = 3
ORACLE_SAMPLES = 20

# A fresh interpreter: import praline and solve through the CLI.
SETUP_CODE = ("import sys\nfrom praline.cli import run\n"
              "sys.exit(run(sys.argv[1:]))\n")


def _import_praline():
    if not os.path.isfile(os.path.join(SRC, "praline", "cli.py")):
        sys.exit(f"error: no praline sources under {SRC}")
    sys.path.insert(0, SRC)
    import praline
    if not os.path.abspath(praline.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported praline from {praline.__file__}")


def environment():
    import numpy
    import scipy
    from praline.kernels import HAS_NUMBA, active_lane
    return {
        "lane": active_lane(),
        "numba": "installed" if HAS_NUMBA
        else "absent, numba lane unmeasured",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


class GraphProbe:
    """Counts the derived nodes of each graph `praline.cli` grounds.

    A pass-through around one call per pipeline.  It keeps the count, not
    the graph, so the graph is freed inside the timed solve as usual.
    """

    def __init__(self):
        self.counts = []

    def __enter__(self):
        import praline.cli as cli
        self._fn = fn = cli.solve_standard

        def probe(program):
            graph = fn(program)
            self.counts.append(len(graph.derived_nodes))
            return graph

        cli.solve_standard = probe
        return self

    def __exit__(self, *exc):
        import praline.cli as cli
        cli.solve_standard = self._fn

    def derived_nodes(self):
        counts = set(self.counts)
        return counts.pop() if len(counts) == 1 else sorted(counts)


def solve_once(path, mode, delta, out, runner):
    """One timed CLI solve; the report is read after the clock stops."""
    if os.path.exists(out):
        os.remove(out)
    argv = ["solve", path, "--mode", mode, "--json", out]
    if mode == "delta":
        argv += ["--delta", repr(delta)]
    buf = io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = runner(argv)
        except Exception as exc:  # a crash is a failed solve, not a stop
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    facts = read_report(out) if code == 0 and os.path.exists(out) else None
    return Solve(code, buf.getvalue(), facts, seconds, error)


def run_pass(cases, paths, runner):
    """Every case in every one of its modes, in order.

    Returns case -> mode -> Solve, and case -> derived-node count for the
    cases that pin one.
    """
    results, derived = {}, {}
    for case in cases:
        solves = {}
        with contextlib.ExitStack() as stack:
            probe = stack.enter_context(GraphProbe()) \
                if case.derived_nodes is not None else None
            for mode in case.modes:
                out = os.path.join(WORK, f"{case.name}.{mode}.json")
                solves[mode] = solve_once(paths[case.name], mode, case.delta,
                                          out, runner)
        if probe is not None:
            derived[case.name] = probe.derived_nodes()
        results[case.name] = solves
    return results, derived


def check_passes(cases, seed, passes):
    """Check every report of every pass: (pass, case, modes, message)."""
    failures = []
    for k, case in enumerate(cases):
        samples = sample_probs(case.source, ORACLE_SAMPLES, [seed, k]) \
            if case.oracle else None
        for p, (results, derived) in enumerate(passes, 1):
            for modes, msg in check_case(case, results[case.name], samples,
                                         derived.get(case.name)):
                failures.append((p, case.name, modes, msg))
    return failures


def failed_solves(failures):
    return len({(p, c, m) for p, c, modes, _ in failures for m in modes})


def write_programs(cases):
    os.makedirs(WORK, exist_ok=True)
    paths = {}
    for case in cases:
        paths[case.name] = os.path.join(WORK, f"{case.name}.pl")
        with open(paths[case.name], "w") as fh:
            fh.write(case.source)
    return paths


def measure_setup():
    """Seconds for a fresh interpreter to import praline and solve."""
    path = os.path.join(WORK, "setup.pl")
    out = os.path.join(WORK, "setup.json")
    with open(path, "w") as fh:
        fh.write(SETUP_PROGRAM)
    env = dict(os.environ, PYTHONPATH=SRC)
    times, bad = [], 0
    for _ in range(SETUP_RUNS):
        if os.path.exists(out):
            os.remove(out)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, "solve", path, "--json", out],
            cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        ok = proc.returncode == 0 and os.path.exists(out)
        if ok:
            q = read_report(out).get("q")
            ok = q is not None and abs(q["lower"] - 0.5) < 1e-9 \
                and abs(q["upper"] - 0.5) < 1e-9
        bad += not ok
    return statistics.median(times), bad


def p95(values):
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def mean_width(results, mode):
    widths = [f["upper"] - f["lower"]
              for solves in results.values() if mode in solves
              and solves[mode].facts for f in solves[mode].facts.values()]
    return statistics.mean(widths) if widths else None


def end_to_end(cases, paths, seed, seconds, cli_run):
    setup_s, setup_bad = measure_setup()
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(cases, paths, cli_run))
        if len(passes) == 1:
            # after the first pass, so it does not grow with the pass count,
            # and before the checks, whose world tables are not praline's
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_passes(cases, seed, passes)
    results = [r for r, _ in passes]
    modes = [m for m in ("approx", "exact", "delta")
             if any(m in c.modes for c in cases)]
    per_pass = {m: [sum(s[m].seconds for s in r.values() if m in s)
                    for r in results] for m in modes}
    pass_s = [sum(s.seconds for solves in r.values() for s in solves.values())
              for r in results]
    delta_ms = [s["delta"].seconds * 1000.0 for r in results
                for s in r.values() if "delta" in s]
    attempted = SETUP_RUNS + sum(len(c.modes) for c in cases) * len(passes)
    failed = setup_bad + failed_solves(failures)
    gated = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(pass_s), "s"),
        "delta_s": (statistics.median(per_pass["delta"]), "s"),
        "delta_ms_p50": (statistics.median(delta_ms), "ms"),
        "delta_ms_p95": (p95(delta_ms), "ms"),
        "delta_width": (mean_width(results[0], "delta"), "prob"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shown = dict(gated)
    for m in modes:
        shown[f"{m}_s"] = (statistics.median(per_pass[m]), "s")
        shown[f"{m}_width"] = (mean_width(results[0], m), "prob")
    shown["failed_share"] = (failed / attempted, "share")
    notes = [f"passes {len(passes)}, delta solves {len(delta_ms)}"]
    return gated, shown, attempted, failed, failures, notes


def per_layer(cases, paths, seed, cli_run, spans_path):
    """A traced pass, then an untraced one for the overhead.

    The traced pass runs first, in the same state of the process as the
    end-to-end runs.
    """
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cases, paths, tracer.root(cli_run))
    finally:
        tracer.uninstall()
    base = run_pass(cases, paths, cli_run)
    tracer.dump(spans_path)
    failures = check_passes(cases, seed, [traced, base])
    wall = [sum(s.seconds for r in p[0].values() for s in r.values())
            for p in (traced, base)]
    solves = sum(len(c.modes) for c in cases)
    metrics = layer_metrics(tracer, solves, wall[0], wall[1])
    notes = [f"spans {len(tracer.spans)} written to {spans_path}, "
             f"solves per pass {solves}"]
    return metrics, dict(metrics), 2 * solves, failed_solves(failures), \
        failures, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_praline()
    import praline.cli as cli

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    cases = WORKLOADS[args.workload](args.seed)
    paths = write_programs(cases)

    if args.trace:
        spans_path = os.path.join(
            WORK, f"spans.{args.workload}.{args.seed}.jsonl")
        gated, shown, attempted, failed, failures, notes = per_layer(
            cases, paths, args.seed, cli.run, spans_path)
    else:
        gated, shown, attempted, failed, failures, notes = end_to_end(
            cases, paths, args.seed, args.seconds, cli.run)

    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(cases)} programs")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for note in notes:
        print(note)
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    for p, case, modes, msg in failures:
        print(f"FAILED pass {p} {case} [{','.join(modes)}]: {msg}")
    print(f"attempted {attempted}, failed {failed}, "
          f"failed_share {failed / attempted:.6f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
