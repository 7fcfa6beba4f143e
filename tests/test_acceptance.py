"""End-to-end gate: one test per promised behavior, at pinned tolerances.

Every test prints a single checklist line on success, so a verbose run
reads as the acceptance report.  Reference values are recomputed here by
independent oracles (a hand-built LP for the road network, full world
enumeration for the random suites) rather than trusted from the engine.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from praline import Atom, parse
from praline.approx import approx_bounds
from praline.cli import run, solve_program, solve_source
from praline.constraints import check_feasible, gen_constraints
from praline.corrtypes import CorrType, build_env, infer_input_pair, node_pair
from praline.frontend import DimensionCapExceeded
from praline.grounder import break_cycles, solve_standard
from praline.optimizer import optimize_exact
from praline.oracle import (
    build_world_space,
    pair_probs,
    sample_feasible_mu,
    world_probs,
)
from praline.refine import make_delta_precise
from praline.symexpr import (
    context_from_program,
    eval_expr,
    expr_of_input,
    expr_str,
    gen_objective,
    neg,
)

from conftest import (
    CONFLICT,
    ROADS,
    SIXPACK,
    layered_source,
    random_program_source,
)


def pipeline(src):
    program = parse(src)
    graph = solve_standard(program)
    work = graph if graph.acyclic else break_cycles(graph)
    ctx = context_from_program(program, work)
    system = gen_constraints(program, ctx)
    return program, work, ctx, system


def by_name(nodes):
    return {str(n): n for n in nodes}


def roads_truth():
    """Exact bounds for path(1,7), rebuilt from scratch as a small LP.

    The three correlated edges around node 2 span an 8-point joint; the
    remaining edges are independent point marginals, so the path probability
    is linear in that joint with closed-form coefficients.
    """
    idx = np.arange(8)
    b25 = (idx >> 0) & 1
    b14 = (idx >> 1) & 1
    b26 = (idx >> 2) & 1
    rows = np.array([np.ones(8), b25, b14, b26, b25 * b14, b26 * b14],
                    dtype=float)
    rhs = np.array([1.0, 0.6, 0.6, 0.6, 0.8 * 0.6, 0.83 * 0.6])
    either = 1.0 - (1.0 - 0.7) * (1.0 - 0.8)
    coef = 0.6 * np.where(b25 & b26, either,
                          np.where(b25, 0.7, np.where(b26, 0.8, 0.0)))
    lo = linprog(coef, A_eq=rows, b_eq=rhs, bounds=(0, 1), method="highs")
    hi = linprog(-coef, A_eq=rows, b_eq=rhs, bounds=(0, 1), method="highs")
    assert lo.success and hi.success
    return float(lo.fun), float(-hi.fun)


def test_criterion_1_running_example_exactness():
    truth = roads_truth()
    assert truth[0] == pytest.approx(0.344448, abs=1e-9)
    assert truth[1] == pytest.approx(0.412992, abs=1e-9)

    t0 = time.perf_counter()
    rep = solve_source(ROADS, mode="exact")
    elapsed = time.perf_counter() - t0
    by = {f.atom: f for f in rep.facts}

    main = by["path(1,7)"]
    assert main.lower == pytest.approx(truth[0], abs=0.005)
    assert main.upper == pytest.approx(truth[1], abs=0.005)
    # the interval printed in the docs is the outward 2-decimal rounding
    assert math.floor(main.lower * 100) / 100 == pytest.approx(0.34)
    assert math.ceil(main.upper * 100) / 100 == pytest.approx(0.42)
    for atom in ("path(1,5)", "path(1,6)"):
        assert by[atom].lower == pytest.approx(0.36, abs=1e-6)
        assert by[atom].upper == pytest.approx(0.36, abs=1e-6)
    assert elapsed < 1.0
    print(f"criterion 1 (running example exactness, {elapsed:.2f}s): PASS")


def test_criterion_2_approximate_mode_fidelity():
    rep = solve_source(ROADS, mode="approx", queries=["path(1,7)"])
    fact = rep.facts[0]
    assert fact.lower == pytest.approx(0.288, abs=1e-3)
    assert fact.upper == pytest.approx(0.467, abs=1e-3)

    # with the sign analysis disabled every pair falls back to the
    # worst-case combinator, whose union bound is min(1, 0.252 + 0.288)
    program, work, ctx, system = pipeline(ROADS)
    env = build_env(work, ctx, system)
    worst = approx_bounds(env, assume_unknown=True)
    node = by_name(work.nodes)["path(1,7)"]
    assert worst[node].hi == pytest.approx(0.54, abs=1e-9)
    print("criterion 2 (approximate-mode fidelity): PASS")


def test_criterion_3_delta_refinement_fidelity():
    truth = roads_truth()

    rep = solve_source(ROADS, mode="delta", delta=0.05,
                       queries=["path(1,7)"])
    fact = rep.facts[0]
    assert fact.lower == pytest.approx(0.338, abs=0.005)
    assert fact.upper == pytest.approx(0.417, abs=0.005)
    assert truth[0] - 0.05 - 1e-9 <= fact.lower <= truth[0] + 1e-9
    assert truth[1] - 1e-9 <= fact.upper <= truth[1] + 0.05 + 1e-9

    rep = solve_source(ROADS, mode="delta", delta=0.01,
                       queries=["path(1,7)"])
    fact = rep.facts[0]
    assert truth[0] - 0.01 - 1e-9 <= fact.lower <= truth[0] + 1e-9
    assert truth[1] - 1e-9 <= fact.upper <= truth[1] + 0.01 + 1e-9
    print("criterion 3 (delta-refinement fidelity): PASS")


def test_criterion_4_symbolic_golden():
    program = parse(SIXPACK)
    graph = solve_standard(program)
    ctx = context_from_program(program, graph)
    memo = {}
    gen_objective(graph, ctx, Atom("e"), memo)

    assert expr_str(expr_of_input(ctx, Atom("i1"))) == \
        "0*V[00] + 0*V[01] + 1*V[10] + 1*V[11]"
    assert expr_str(expr_of_input(ctx, Atom("i2"))) == \
        "0*V[00] + 1*V[01] + 0*V[10] + 1*V[11]"
    assert expr_str(memo[Atom("a")]) == \
        "0*V[00] + 0*V[01] + r1*V[10] + r1*V[11]"
    assert expr_str(neg(memo[Atom("a")])) == \
        "1*V[00] + 1*V[01] + (1 - r1)*V[10] + (1 - r1)*V[11]"
    assert expr_str(memo[Atom("b")]) == \
        "0*V[00] + 0*V[01] + r1*r2*V[10] + r1*r2*V[11]"
    assert expr_str(memo[Atom("c")]) == \
        "0*V[00] + r3*V[01] + 0*V[10] + r3*(1 - r1)*V[11]"
    assert expr_str(memo[Atom("d")]) == \
        "0*V[00] + 0*V[01] + r1*r2*r4*V[10] + r1*r2*r4*V[11]"
    # the two derivations of e need the first rule's event in opposite
    # states, so inclusion-exclusion zeroes the cross term exactly
    assert expr_str(memo[Atom("e")]) == (
        "0*V[00] + r3*r5*V[01] + r1*r2*r4*r6*V[10]"
        " + (r3*r5*(1 - r1) + r1*r2*r4*r6)*V[11]"
    )
    print("criterion 4 (symbolic golden strings): PASS")


def test_criterion_5_correlation_golden():
    program, work, ctx, system = pipeline(ROADS)
    env = build_env(work, ctx, system)
    facts = by_name(ctx.fact_bit)
    assert infer_input_pair(env, facts["edge(2,5)"], facts["edge(2,6)"]) \
        is CorrType.POS
    nodes = by_name(work.nodes)
    assert node_pair(env, nodes["path(1,5)"], nodes["path(1,6)"]) \
        is CorrType.POS
    print("criterion 5 (correlation golden verdicts): PASS")


def _class_cov(dist, bit_a, bit_b):
    idx = np.arange(len(dist))
    on_a = (idx >> bit_a) & 1
    on_b = (idx >> bit_b) & 1
    pa = float(dist[on_a == 1].sum())
    pb = float(dist[on_b == 1].sum())
    pab = float(dist[(on_a & on_b) == 1].sum())
    return pab - pa * pb


def _assert_sign(verdict, covs, what):
    if verdict is CorrType.POS:
        assert covs.min() >= -1e-7, what
    elif verdict is CorrType.NEG:
        assert covs.max() <= 1e-7, what
    elif verdict is CorrType.INDEP:
        assert np.abs(covs).max() <= 1e-7, what


def test_criterion_6_soundness_property_suite():
    t0 = time.perf_counter()
    delta = 0.05
    counts = {"algebra": 0, "containment": 0, "delta": 0, "correlation": 0}
    for seed in range(200):
        src = random_program_source(seed)
        program, work, ctx, system = pipeline(src)
        env = build_env(work, ctx, system)
        present = set(work.nodes)
        outputs = [q for q in program.queries if q in present]
        bounds = approx_bounds(env)
        rng = np.random.default_rng(seed)
        mus = sample_feasible_mu(system, rng, 20)
        space = build_world_space(program, work)
        table = world_probs(outputs, mus, space) if outputs else None

        exact = {}
        for j, out in enumerate(outputs):
            try:
                obj = gen_objective(work, ctx, out)
            except DimensionCapExceeded:
                continue
            # a. the symbolic algebra matches world enumeration pointwise
            for mi, mu in enumerate(mus):
                got = eval_expr(obj, mu)
                assert got == pytest.approx(table[mi, j], abs=1e-9), \
                    f"seed {seed} algebra mismatch on {out}"
                counts["algebra"] += 1
            res = optimize_exact(obj, system)
            exact[out] = (res.lo, res.hi)
            # b. the approximate interval contains the exact one
            iv = bounds[out]
            assert iv.lo - 1e-7 <= res.lo <= res.hi <= iv.hi + 1e-7, \
                f"seed {seed} approx does not contain exact on {out}"
            counts["containment"] += 1

        # c. refined intervals contain the exact ones and sit within delta
        if exact:
            refined = make_delta_precise(env, bounds, list(exact), delta)
            for out, (lo, hi) in exact.items():
                outcome = refined[out]
                if "soundness_only" in outcome.flags:
                    continue
                r = outcome.interval
                assert lo - delta - 1e-7 <= r.lo <= lo + 1e-7, \
                    f"seed {seed} delta lower off on {out}"
                assert hi - 1e-7 <= r.hi <= hi + delta + 1e-7, \
                    f"seed {seed} delta upper off on {out}"
                counts["delta"] += 1

        # d. every definite correlation verdict has the sampled sign
        mus50 = sample_feasible_mu(system, rng, 50)
        for cpos, cs in enumerate(system.classes):
            for i in range(len(cs.members)):
                for k in range(i + 1, len(cs.members)):
                    a, b = cs.members[i], cs.members[k]
                    verdict = infer_input_pair(env, a, b)
                    if verdict is CorrType.UNKNOWN:
                        continue
                    bit_a = ctx.fact_bit[a][1]
                    bit_b = ctx.fact_bit[b][1]
                    covs = np.array([_class_cov(mu[cpos], bit_a, bit_b)
                                     for mu in mus50])
                    _assert_sign(verdict, covs,
                                 f"seed {seed} pair {a},{b} {verdict}")
                    counts["correlation"] += 1
        if len(outputs) == 2:
            verdict = node_pair(env, outputs[0], outputs[1])
            if verdict is not CorrType.UNKNOWN:
                pp = pair_probs(outputs[0], outputs[1], mus50, space)
                covs = pp[:, 2] - pp[:, 0] * pp[:, 1]
                _assert_sign(verdict, covs,
                             f"seed {seed} outputs {outputs} {verdict}")
                counts["correlation"] += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert all(v > 0 for v in counts.values()), counts
    print(f"criterion 6 (soundness suite, 200 programs, {counts}, "
          f"{elapsed:.0f}s): PASS")


def test_criterion_7_independence_reduction():
    checked = 0
    for seed in range(40):
        src = random_program_source(seed, singleton_only=True)
        program, work, ctx, system = pipeline(src)
        present = set(work.nodes)
        outputs = [q for q in program.queries if q in present]
        assert check_feasible(system)
        witness = [cs.feasible_point() for cs in system.classes]
        space = build_world_space(program, work)
        truth = world_probs(outputs, [witness], space)[0] if outputs else []

        for mode in ("exact", "approx", "delta"):
            rep = solve_program(program, mode=mode, delta=0.01)
            by = {f.atom: f for f in rep.facts}
            for j, out in enumerate(outputs):
                fact = by[str(out)]
                assert fact.upper - fact.lower <= 1e-6, \
                    f"seed {seed} {mode} interval not a point on {out}"
                assert fact.lower == pytest.approx(truth[j], abs=1e-6), \
                    f"seed {seed} {mode} wrong value on {out}"
                checked += 1
            for fact in rep.facts:
                if "underivable" in fact.flags:
                    assert fact.lower == fact.upper == 0.0
    assert checked > 0
    print(f"criterion 7 (independence reduction, {checked} checks): PASS")


def test_criterion_8_infeasibility(tmp_path, capsys):
    path = tmp_path / "conflict.pl"
    path.write_text(CONFLICT)
    code = run(["solve", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "No solution" in captured.out
    print("criterion 8 (infeasible program refused): PASS")


def test_criterion_9_scale_smoke():
    src = layered_source()
    program = parse(src)

    t0 = time.perf_counter()
    rep = solve_program(program, mode="delta", delta=0.01)
    elapsed = time.perf_counter() - t0

    graph = solve_standard(program)
    assert len(graph.derived_nodes) == 5000
    fact = rep.facts[0]
    assert fact.mode == "soundness_only"
    assert 0.0 <= fact.lower <= fact.upper <= 1.0
    assert elapsed < 5.0
    print(f"criterion 9 (5000-node scale smoke, {elapsed:.1f}s): PASS")


def test_scale_objective_is_one_cell():
    # every derivation of the query is a conjunction of the same input
    # bits, so its objective is one cell, not one term per assignment
    program = parse(layered_source())
    graph = solve_standard(program)
    ctx = context_from_program(program, graph)
    t0 = time.perf_counter()
    obj = gen_objective(graph, ctx, program.queries[0])
    elapsed = time.perf_counter() - t0
    assert len(obj.terms) == 1
    assert elapsed < 1.0


def test_semi_naive_rounds_visit_only_watching_rules(monkeypatch):
    # each of the 25 rounds derives one layer, so a round that visited every
    # rule would make about 26 visits per rule
    import praline.grounder as grounder
    program = parse(layered_source())
    visits = []
    fire = grounder._fire

    def counted(rule, *args):
        visits.append(rule)
        return fire(rule, *args)

    monkeypatch.setattr(grounder, "_fire", counted)
    graph = solve_standard(program)
    assert len(graph.derived_nodes) == 5000
    assert len(visits) <= 3 * len(program.rules)
