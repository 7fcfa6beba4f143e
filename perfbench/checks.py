"""Output checks for the pipeline benchmark.

None of these compare the engine against itself: goldens are hand-derived,
sampled probabilities come from possible-world enumeration under random
feasible distributions, and the cross-mode checks only use the containment
and precision promises each mode makes.  Nothing here is timed.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

TOL = 1e-7
GOLDEN_TOL = 1e-6


@dataclass
class Solve:
    """What one `praline solve` call left behind."""

    code: Optional[int]
    stdout: str
    facts: Optional[dict]  # atom -> fact dict from the JSON report
    seconds: float
    error: Optional[str] = None


def read_report(path):
    with open(path) as fh:
        doc = json.load(fh)
    return {f["atom"]: f for f in doc["facts"]}


def sample_probs(source, count, seed):
    """P(q) per queried atom under `count` sampled feasible distributions."""
    from praline import parse
    from praline.constraints import gen_constraints
    from praline.grounder import break_cycles, solve_standard
    from praline.oracle import (build_world_space, sample_feasible_mu,
                                world_probs)
    from praline.symexpr import context_from_program

    program = parse(source)
    graph = solve_standard(program)
    work = graph if graph.acyclic else break_cycles(graph)
    system = gen_constraints(program, context_from_program(program, work))
    present = set(work.nodes)
    outputs = [q for q in dict.fromkeys(program.queries) if q in present]
    if not outputs:
        return {}
    mus = sample_feasible_mu(system, np.random.default_rng(seed), count)
    table = world_probs(outputs, mus, build_world_space(program, work))
    return {str(q): table[:, j] for j, q in enumerate(outputs)}


def _inside(inner, outer):
    return outer["lower"] - TOL <= inner["lower"] and \
        inner["upper"] <= outer["upper"] + TOL


def check_case(case, solves, samples=None, derived_nodes=None):
    """Failures of one case as (modes, message); empty when all pass.

    solves: mode -> Solve.  samples: atom -> sampled P(q), for cases with
    an oracle.  derived_nodes: the grounder's count, for cases that pin it.
    """
    bad = []
    for mode, s in solves.items():
        if s.error is not None:
            bad.append(((mode,), f"raised {s.error}"))
            continue
        if case.infeasible:
            if s.code != 1 or "No solution" not in s.stdout:
                bad.append(((mode,), f"exit {s.code} without 'No solution' "
                                     "on an infeasible program"))
            continue
        if s.code != 0 or s.facts is None:
            bad.append(((mode,), f"exit {s.code}"))
            continue
        for atom, f in s.facts.items():
            if not (-TOL <= f["lower"] <= f["upper"] + TOL
                    and f["upper"] <= 1.0 + TOL):
                bad.append(((mode,), f"{atom}: [{f['lower']}, {f['upper']}] "
                                     "is not inside [0, 1]"))
            if case.must_flag and case.must_flag not in f["flags"]:
                bad.append(((mode,), f"{atom}: not flagged {case.must_flag}"))
        for atom, (lo, hi) in case.golden.get(mode, {}).items():
            f = s.facts.get(atom)
            if f is None or abs(f["lower"] - lo) > GOLDEN_TOL \
                    or abs(f["upper"] - hi) > GOLDEN_TOL:
                got = None if f is None else (f["lower"], f["upper"])
                bad.append(((mode,), f"{atom}: {got} is not the golden "
                                     f"{(lo, hi)}"))
        for atom, probs in (samples or {}).items():
            f = s.facts.get(atom)
            if f is None:
                bad.append(((mode,), f"{atom}: missing from the report"))
            elif probs.min() < f["lower"] - TOL or \
                    probs.max() > f["upper"] + TOL:
                bad.append(((mode,), f"{atom}: sampled P in "
                                     f"[{probs.min()}, {probs.max()}] leaves "
                                     f"[{f['lower']}, {f['upper']}]"))
    if case.derived_nodes is not None and derived_nodes != case.derived_nodes:
        bad.append((tuple(solves), f"{derived_nodes} derived nodes, expected "
                                   f"{case.derived_nodes}"))
    if bad or case.infeasible or not {"approx", "exact", "delta"} <= set(solves):
        return bad
    approx, exact, delta = (solves[m].facts for m in ("approx", "exact",
                                                       "delta"))
    for atom, d in delta.items():
        a, e = approx.get(atom), exact.get(atom)
        if a is None or e is None:
            bad.append((("approx", "exact", "delta"),
                        f"{atom}: not reported in every mode"))
            continue
        if not _inside(d, a):
            bad.append((("approx", "delta"), f"{atom}: delta not inside approx"))
        if "soundness_only" in e["flags"]:
            continue  # no exact range to compare with
        if not _inside(e, d):
            bad.append((("exact", "delta"), f"{atom}: exact not inside delta"))
        if "soundness_only" not in d["flags"] and (
                d["lower"] < e["lower"] - case.delta - TOL
                or d["upper"] > e["upper"] + case.delta + TOL):
            bad.append((("exact", "delta"),
                        f"{atom}: delta endpoint beyond {case.delta} of exact"))
    return bad
