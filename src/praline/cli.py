"""Command line interface: parse, ground, infer, and report bounds.

Two subcommands.  `praline solve` runs the inference pipeline in one of
three modes (exact, approx, delta) and prints one interval per queried
fact, optionally as JSON.  `praline oracle` brute-forces the same program
through possible-world enumeration for desk-scale cross-checking.
"""

import argparse
import fnmatch
import functools
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .approx import approx_bounds
from .constraints import check_feasible, gen_constraints
from .corrtypes import build_env, infer_input_pair, node_pair
from .frontend import (
    DimensionCapExceeded,
    InfeasibleError,
    ParseError,
    PralineError,
    parse,
)
from .grounder import break_cycles, solve_standard
from .optimizer import optimize_exact  # noqa: F401  perfbench/spans.py patches it
from .oracle import (
    build_world_space,
    exact_interval_oracle,
    sample_feasible_mu,
    world_probs,
)
from .refine import exact_or_approx, make_delta_precise
from .symexpr import context_from_program, expr_str, gen_objective


@dataclass
class FactBounds:
    atom: str
    lower: float
    upper: float
    mode: str
    flags: list
    # why a soundness_only fact lost its delta guarantee
    reason: Optional[str] = None


@dataclass
class BoundsReport:
    facts: list
    mode: str
    delta: object
    elapsed_ms: int

    def to_json(self) -> str:
        facts = []
        for f in self.facts:
            fact = {"atom": f.atom, "lower": f.lower, "upper": f.upper,
                    "mode": f.mode, "flags": list(f.flags)}
            if f.reason is not None:
                fact["reason"] = f.reason
            facts.append(fact)
        doc = {
            "facts": facts,
            "meta": {"delta": self.delta, "elapsed_ms": self.elapsed_ms},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def render(self) -> str:
        lines = []
        for f in self.facts:
            note = [fl for fl in f.flags if fl in
                    ("soundness_only", "underivable")]
            suffix = f"  ({', '.join(n.replace('_', ' ') for n in note)})" \
                if note else ""
            lines.append(
                f"{f.atom}: [{f.lower:.6g}, {f.upper:.6g}]{suffix}")
        return "\n".join(lines)


def _pipeline(program, queries=None):
    """Ground, slice, unfold and constrain a program; raises InfeasibleError
    on conflicting declarations.

    Returns (env, outputs, absent): the correlation environment, which
    holds the unfolded cone, its context and its constraints, and the
    `_select_outputs` of queries on that cone.

    The ground graph is cut to its cone (`DerivationGraph.cone`): the edges
    that the outputs `_select_outputs` picks for queries reach backwards.
    Every later layer reads only the cone.  A node's interval, objective
    and verdicts depend only on its in-edges, so no answer changes; the
    shared `EXPR_PAIR_BUDGET` only counts fewer lookups.  The cone reuses
    the components of the full graph's one cycle search.  Events keep the
    full graph's numbers, so expressions name the same variables, and the
    constraints come from the program's declarations, so a conflict
    outside the cone is still infeasible.
    """
    graph = solve_standard(replace(program, queries=[]) if queries else program)
    graph = graph.cone(_select_outputs(program, graph, queries)[0])
    work = graph if graph.acyclic else break_cycles(graph)
    ctx = context_from_program(program, work)
    system = gen_constraints(program, ctx)
    if not check_feasible(system):
        raise InfeasibleError("No solution")
    return (build_env(work, ctx, system),
            *_select_outputs(program, work, queries))


def _select_outputs(program, graph, patterns):
    """Queried nodes present in the graph, plus query atoms that are not."""
    nodes = [n for n in graph.nodes if "@" not in n.functor]
    if patterns:
        sel = [n for n in nodes
               if any(fnmatch.fnmatch(str(n), p) or str(n) == p
                      for p in patterns)]
        return sel, []
    if program.queries:
        present = set(nodes)
        sel, absent = [], []
        for q in program.queries:
            if q in present:
                if q not in sel:
                    sel.append(q)
            elif q not in absent:
                absent.append(q)
        return sel, absent
    return [n for n in nodes if graph.in_edges.get(n)], []


def solve_program(program, mode="delta", delta=0.01,
                  queries=None) -> BoundsReport:
    """Bounds for every queried fact; raises InfeasibleError on conflict."""
    t0 = time.perf_counter()
    env, outputs, absent = _pipeline(program, queries)
    facts = []
    if mode == "exact":
        # the approx pass runs only if some output's exact range is out of reach
        approx_map = functools.cache(lambda: approx_bounds(env))
        for out in outputs:
            (lo, hi), reason = exact_or_approx(env, out, approx_map, "exact")
            if reason is None:
                facts.append(FactBounds(str(out), lo, hi, "exact", []))
            else:
                facts.append(FactBounds(str(out), lo, hi, "soundness_only",
                                        ["soundness_only"], reason))
    elif mode == "approx":
        m = approx_bounds(env)
        for out in outputs:
            iv = m[out]
            facts.append(FactBounds(str(out), iv.lo, iv.hi, "approx", []))
    elif mode == "delta":
        m = approx_bounds(env)
        refined = make_delta_precise(env, m, outputs, delta)
        for out in outputs:
            r = refined[out]
            fact_mode = "soundness_only" if "soundness_only" in r.flags \
                else "delta"
            facts.append(FactBounds(str(out), r.interval.lo, r.interval.hi,
                                    fact_mode, list(r.flags), r.reason))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for q in absent:
        facts.append(FactBounds(str(q), 0.0, 0.0, mode, ["underivable"]))
    facts.sort(key=lambda f: f.atom)
    elapsed = int(round((time.perf_counter() - t0) * 1000))
    return BoundsReport(facts, mode, delta if mode == "delta" else None,
                        elapsed)


def solve_source(src: str, **kwargs) -> BoundsReport:
    return solve_program(parse(src), **kwargs)


def _dump(args, program):
    """Print what the --dump-* flags ask for, from a pipeline of its own.

    solve_program builds its pipeline separately, so only a dumping solve
    grounds the program twice.  An infeasible program dumps nothing.  The
    graph printed is the one the later layers read: the cone, unfolded.
    """
    env, outputs, _ = _pipeline(program, args.query)
    if args.dump_graph:
        print("derivation graph:")
        for e in env.graph.edges:
            body = [str(a) for a in e.pos] + [f"\\+{a}" for a in e.neg]
            prob = f"  [p={e.prob:.6g}]" if e.prob < 1.0 else ""
            print(f"  {e.head} <- {', '.join(body) or 'true'}{prob}")
    if args.dump_constraints:
        print("constraint system:")
        print(env.system.describe())
    if args.dump_correlations:
        print("correlation classes:")
        for cs in env.system.classes:
            members = ", ".join(str(m) for m in cs.members)
            print(f"  {cs.label}: {members}")
            if len(cs.members) > 8:
                print("    (too many members for pairwise analysis)")
                continue
            for i in range(len(cs.members)):
                for j in range(i + 1, len(cs.members)):
                    t = infer_input_pair(env, cs.members[i], cs.members[j])
                    print(f"    {cs.members[i]} ~ {cs.members[j]}: {t.value}")
        for i in range(len(outputs)):
            for j in range(i + 1, len(outputs)):
                t = node_pair(env, outputs[i], outputs[j])
                print(f"  {outputs[i]} ~ {outputs[j]}: {t.value}")
    if args.dump_exprs:
        print("probability expressions:")
        for out in outputs:
            try:
                print(f"  {out} = "
                      f"{expr_str(gen_objective(env.graph, env.ctx, out))}")
            except DimensionCapExceeded:
                print(f"  {out} = (expression template too large)")


def _cmd_solve(args, program) -> int:
    if any((args.dump_graph, args.dump_constraints, args.dump_correlations,
            args.dump_exprs)):
        _dump(args, program)
    report = solve_program(program, mode=args.mode, delta=args.delta,
                           queries=args.query)
    out = report.render()
    if out:
        print(out)
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    return 0


def _cmd_oracle(args, program) -> int:
    env, outputs, absent = _pipeline(program, args.query)
    rng = np.random.default_rng(args.seed)
    sampled = None
    if outputs:
        ws = build_world_space(program, env.graph)
        mus = sample_feasible_mu(env.system, rng, args.samples)
        sampled = world_probs(outputs, mus, ws)
    for j, out in enumerate(outputs):
        try:
            lo, hi = exact_interval_oracle(out, env)
            exact = f"exact [{lo:.6g}, {hi:.6g}]"
        except DimensionCapExceeded as exc:
            exact = f"exact unavailable ({exc})"
        col = sampled[:, j]
        print(f"{out}: {exact}, {args.samples} sampled mu in "
              f"[{col.min():.6g}, {col.max():.6g}]")
    for q in absent:
        print(f"{q}: exact [0, 0]  (underivable)")
    return 0


def _delta(text: str) -> float:
    """A `--delta` value: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number above 0, got {text!r}")
    return value


def _int_at_least(least: int):
    """An argparse type for an integer of at least `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {least}, got {text!r}")
        return value
    return parse


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves it unchanged: every call starts from a fresh namespace.
    """
    p = argparse.ArgumentParser(
        prog="praline",
        description="Probability bounds for Datalog programs with "
                    "partially known input correlations.")
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("solve", help="infer probability bounds")
    ps.add_argument("file", help="program file")
    ps.add_argument("--mode", choices=["exact", "approx", "delta"],
                    default="delta")
    ps.add_argument("--delta", type=_delta, default=0.01,
                    help="precision target for delta mode (default 0.01)")
    ps.add_argument("--query", action="append", metavar="PAT",
                    help="only report atoms matching this pattern "
                         "(repeatable, glob syntax)")
    ps.add_argument("--json", metavar="PATH", help="also write a JSON report")
    ps.add_argument("--dump-exprs", action="store_true")
    ps.add_argument("--dump-constraints", action="store_true")
    ps.add_argument("--dump-correlations", action="store_true")
    ps.add_argument("--dump-graph", action="store_true",
                    help="print the derivation graph the inference reads: "
                         "the reported atoms' cone, cycles unfolded")

    po = sub.add_parser("oracle",
                        help="brute-force possible-world cross-check")
    po.add_argument("file", help="program file")
    po.add_argument("--query", action="append", metavar="PAT")
    po.add_argument("--samples", type=_int_at_least(1), default=50,
                    help="feasible distributions to sample (default 50)")
    po.add_argument("--seed", type=_int_at_least(0), default=0)
    return p


def _setup_logging():
    level = os.environ.get("PRALINE_LOG", "").strip().upper()
    if level:
        logging.basicConfig(
            level=getattr(logging, level, logging.INFO),
            format="%(name)s %(levelname)s %(message)s")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging()
    try:
        with open(args.file, encoding="utf-8") as fh:
            src = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        program = parse(src)
        if args.cmd == "solve":
            return _cmd_solve(args, program)
        return _cmd_oracle(args, program)
    except InfeasibleError:
        print("No solution")
        return 1
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except PralineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
