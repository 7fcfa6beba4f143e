import math

import numpy as np
import pytest

from praline import Atom, parse, symexpr
from praline.cli import _pipeline, solve_source
from praline.frontend import DimensionCapExceeded
from praline.grounder import break_cycles, solve_standard
from praline.oracle import build_world_space, world_probs
from praline.symexpr import (
    add,
    coeff_eval,
    coeff_joint,
    coeff_neg,
    coeff_one,
    context_from_program,
    eval_expr,
    expr_of_input,
    expr_str,
    gen_objective,
    mul,
    neg,
)

from conftest import CHAIN, ROADS, ROADS_EXACT, SIXPACK, random_program_source
from oracles import dense_add, dense_mul, dense_neg, dense_terms


def build(src):
    prog = parse(src)
    g = solve_standard(prog)
    ctx = context_from_program(prog, g)
    return prog, g, ctx


@pytest.fixture(scope="module")
def sixpack_exprs():
    prog, g, ctx = build("""
        0.5::i1.
        0.4::i2.
        0.6::i2|i1.
        0.9::a :- i1.
        0.8::b :- a.
        0.7::c :- \\+a, i2.
        0.6::d :- b, a.
        0.5::e :- c.
        0.4::e :- d.
        query(e).
    """)
    memo = {}
    gen_objective(g, ctx, Atom("e"), memo)
    return g, ctx, memo


def test_golden_inputs(sixpack_exprs):
    g, ctx, memo = sixpack_exprs
    assert expr_str(expr_of_input(ctx, Atom("i1"))) == \
        "0*V[00] + 0*V[01] + 1*V[10] + 1*V[11]"
    assert expr_str(expr_of_input(ctx, Atom("i2"))) == \
        "0*V[00] + 1*V[01] + 0*V[10] + 1*V[11]"


def test_golden_derived(sixpack_exprs):
    g, ctx, memo = sixpack_exprs
    assert expr_str(memo[Atom("a")]) == \
        "0*V[00] + 0*V[01] + r1*V[10] + r1*V[11]"
    assert expr_str(memo[Atom("b")]) == \
        "0*V[00] + 0*V[01] + r1*r2*V[10] + r1*r2*V[11]"
    assert expr_str(memo[Atom("c")]) == \
        "0*V[00] + r3*V[01] + 0*V[10] + r3*(1 - r1)*V[11]"
    assert expr_str(memo[Atom("d")]) == \
        "0*V[00] + 0*V[01] + r1*r2*r4*V[10] + r1*r2*r4*V[11]"


def test_golden_negation(sixpack_exprs):
    g, ctx, memo = sixpack_exprs
    assert expr_str(neg(memo[Atom("a")])) == \
        "1*V[00] + 1*V[01] + (1 - r1)*V[10] + (1 - r1)*V[11]"


def test_golden_disjunction_cancels_cross_term(sixpack_exprs):
    # the two derivations of e are incompatible (one needs the event of
    # rule 1 unfired, the other fired), so inclusion-exclusion drops the
    # cross product exactly
    g, ctx, memo = sixpack_exprs
    assert expr_str(memo[Atom("e")]) == (
        "0*V[00] + r3*r5*V[01] + r1*r2*r4*r6*V[10]"
        " + (r3*r5*(1 - r1) + r1*r2*r4*r6)*V[11]"
    )


def test_coeff_neg_expansion():
    r12 = {(frozenset((1, 2)), frozenset()): 1}
    out = coeff_neg(r12)
    assert list(out) == [(frozenset(), frozenset((1,))),
                         (frozenset((1,)), frozenset((2,)))]
    # numeric check at a few points
    for p1, p2 in [(0.3, 0.9), (0.5, 0.5), (1.0, 0.2)]:
        probs = {1: p1, 2: p2}
        assert coeff_eval(out, probs) == pytest.approx(1 - p1 * p2, abs=1e-12)


def test_coeff_joint_contradiction():
    a = {(frozenset((1,)), frozenset()): 1}
    b = {(frozenset(), frozenset((1,))): 1}
    assert coeff_joint(a, b) == {}
    assert coeff_joint(a, coeff_one()) == a


def test_input_expr_half_of_template():
    prog, g, ctx = build("0.5::a. 0.5::b. 0.5::c. corr(a,b,c). 1::x :- a.")
    e = expr_of_input(ctx, Atom("b"))
    assert len(e.terms) == 1
    assert sorted(dense_terms(e)) == [(2,), (3,), (6,), (7,)]


def random_dists(ctx, rng):
    out = []
    for c in ctx.classes:
        v = rng.dirichlet(np.ones(1 << c.size))
        out.append(v)
    return out


def test_neg_is_one_minus(sixpack_exprs, rng):
    g, ctx, memo = sixpack_exprs
    e = memo[Atom("e")]
    for _ in range(5):
        dists = random_dists(ctx, rng)
        assert eval_expr(neg(e), dists) == pytest.approx(1 - eval_expr(e, dists), abs=1e-12)


def test_mul_add_independent_classes(rng):
    # two singleton classes: conjunction multiplies, disjunction is
    # inclusion-exclusion of independent events
    prog, g, ctx = build("0.3::a. 0.8::b. 1::x :- a. 1::y :- b.")
    ea = expr_of_input(ctx, Atom("a"))
    eb = expr_of_input(ctx, Atom("b"))
    for _ in range(5):
        dists = random_dists(ctx, rng)
        pa = eval_expr(ea, dists)
        pb = eval_expr(eb, dists)
        assert eval_expr(mul(ea, eb), dists) == pytest.approx(pa * pb, abs=1e-12)
        assert eval_expr(add(ea, eb), dists) == pytest.approx(pa + pb - pa * pb, abs=1e-12)


def test_mul_add_idempotent_on_inputs(rng):
    prog, g, ctx = build("0.5::a. 0.5::b. corr(a,b). 1::x :- a.")
    ea = expr_of_input(ctx, Atom("a"))
    for _ in range(5):
        dists = random_dists(ctx, rng)
        pa = eval_expr(ea, dists)
        assert eval_expr(mul(ea, ea), dists) == pytest.approx(pa, abs=1e-12)
        assert eval_expr(add(ea, ea), dists) == pytest.approx(pa, abs=1e-12)


ROADS_V4_LOW_Q = np.array([0.178, 0.12, 0.0, 0.102, 0.102, 0.0, 0.12, 0.378])
ROADS_V4_HIGH_Q = np.array([0.28, 0.018, 0.102, 0.0, 0.0, 0.102, 0.018, 0.48])


def test_roads_objective_value(roads):
    # P(path(1,7)) = 0.54 - 0.336*q where q = P(edge(2,5) and edge(2,6));
    # the two frozen class-4 distributions realize q = 0.378 and q = 0.582,
    # the extreme feasible values, giving the known exact interval endpoints
    g = solve_standard(roads)
    ctx = context_from_program(roads, g)
    e17 = gen_objective(g, ctx, Atom("path", (1, 7)))
    base = [np.array([0.3, 0.7]), np.array([0.4, 0.6]), np.array([0.2, 0.8])]
    hi = eval_expr(e17, base + [ROADS_V4_LOW_Q])
    lo = eval_expr(e17, base + [ROADS_V4_HIGH_Q])
    assert hi == pytest.approx(ROADS_EXACT[1], abs=1e-12)
    assert lo == pytest.approx(ROADS_EXACT[0], abs=1e-12)


def test_roads_point_paths(roads):
    g = solve_standard(roads)
    ctx = context_from_program(roads, g)
    memo = {}
    e15 = gen_objective(g, ctx, Atom("path", (1, 5)), memo)
    e16 = gen_objective(g, ctx, Atom("path", (1, 6)), memo)
    base = [np.array([0.3, 0.7]), np.array([0.4, 0.6]), np.array([0.2, 0.8])]
    for v4 in (ROADS_V4_LOW_Q, ROADS_V4_HIGH_Q):
        assert eval_expr(e15, base + [v4]) == pytest.approx(0.36, abs=1e-12)
        assert eval_expr(e16, base + [v4]) == pytest.approx(0.36, abs=1e-12)


def test_marginalized_support(roads):
    # path(1,5) only involves the edge(1,2) and edge(2,5) classes
    g = solve_standard(roads)
    ctx = context_from_program(roads, g)
    e15 = gen_objective(g, ctx, Atom("path", (1, 5)))
    assert e15.support == (1, 3)


def cyclic_build(src):
    prog = parse(src)
    g = solve_standard(prog)
    work = g if g.acyclic else break_cycles(g)
    return prog, work, context_from_program(prog, work)


def listed(support, terms):
    """Per-assignment coefficients with their monomial order, which
    expr_str prints."""
    return support, {psi: list(lam.items()) for psi, lam in terms.items()}


class TestCells:
    def test_matches_per_assignment_reference(self, monkeypatch):
        calls = {"mul": [], "add": [], "neg": []}

        def checked(name, op, ref):
            def run(*args):
                got = op(*args)
                spelled = dense_terms(got)
                assert listed(got.support, spelled) == \
                    listed(*ref(*args)), name
                # disjoint cells: their sizes add up to the assignments
                assert sum(math.prod(map(len, got.indices(cell)))
                           for cell in got.terms) == len(spelled), name
                calls[name].append(len({a.support for a in args}) > 1)
                return got
            return run

        monkeypatch.setattr(symexpr, "mul", checked("mul", mul, dense_mul))
        monkeypatch.setattr(symexpr, "add", checked("add", add, dense_add))
        monkeypatch.setattr(symexpr, "neg", checked("neg", neg, dense_neg))
        sources = [ROADS, SIXPACK] + \
            [random_program_source(seed) for seed in range(30)]
        for src in sources:
            prog, g, ctx = cyclic_build(src)
            memo = {}
            for n in g.nodes:
                gen_objective(g, ctx, n, memo)
        # the chain's queries only: the reference spells out its longest
        # paths over up to six classes, seconds for every node
        prog, g, ctx = cyclic_build(CHAIN)
        memo = {}
        for q in prog.queries:
            gen_objective(g, ctx, q, memo)
        # operands over equal and over differing supports were both compared
        for name in ("mul", "add"):
            assert any(calls[name]) and not all(calls[name]), name
        assert calls["neg"]


class TestSparseMul:
    def test_cap_still_raises_across_classes(self, monkeypatch):
        prog, g, ctx = build("""
            0.5::a1. 0.5::a2. 0.5::a3. corr(a1,a2,a3).
            0.5::b1. 0.5::b2. 0.5::b3. corr(b1,b2,b3).
            1::x :- a1, b1.
            1::y :- a1, \\+a2.
        """)
        monkeypatch.setattr(symexpr, "MAX_TEMPLATE", 63)
        with pytest.raises(DimensionCapExceeded, match="exceeds 63 terms"):
            gen_objective(g, ctx, Atom("x"))
        # one class's template (8 terms) is under the cap
        assert gen_objective(g, ctx, Atom("y")).support == (0,)

    def test_chain_exact_range_unchanged(self):
        # the value the dense lift-based mul gave
        facts = {f.atom: f for f in solve_source(CHAIN, mode="exact").facts}
        f = facts["path(0,12)"]
        assert f.mode == "exact"
        assert (f.lower, f.upper) == \
            pytest.approx((0.0, 0.0036353523045133253), abs=1e-12)


# Hybrid facts: declared inputs that are also rule heads.  In the second
# program the input r(1,1) lies inside the recursive component of r/2.
HYBRID = "0.5::a. 0.4::b. 0.9::a :- b. query(a)."
HYBRID_IN_CYCLE = """\
0.5::e(1,2). 0.5::e(2,1). 0.4::r(1,1). 0.7::e(2,1)|e(1,2).
r(X,Y) :- e(X,Y).
0.8::r(X,Z) :- r(X,Y), r(Y,Z).
s :- \\+r(2,2), e(1,2).
query(r(1,1)). query(s).
"""


@pytest.mark.parametrize("mode", ["exact", "approx", "delta"])
class TestHybridFacts:
    def test_input_is_one_part_of_the_disjunction(self, mode):
        # P(a) = 1 - 0.5 * (1 - 0.9 * 0.4)
        (f,) = solve_source(HYBRID, mode=mode).facts
        assert (f.lower, f.upper) == pytest.approx((0.68, 0.68), abs=1e-12)

    def test_input_inside_a_recursive_component(self, mode):
        # every class is pinned to one point, where enumeration gives P
        prog = parse(HYBRID_IN_CYCLE)
        env = _pipeline(prog)[0]
        assert all(len(cs.vertices()) == 1 for cs in env.system.classes)
        mu = [cs.feasible_point() for cs in env.system.classes]
        (want,) = world_probs(prog.queries, [mu],
                              build_world_space(prog, env.graph))
        assert want == pytest.approx([0.568, 0.22], abs=1e-12)
        got = {f.atom: (f.lower, f.upper)
               for f in solve_source(HYBRID_IN_CYCLE, mode=mode).facts}
        for q, p in zip(prog.queries, want):
            assert got[str(q)] == pytest.approx((p, p), abs=1e-12)
