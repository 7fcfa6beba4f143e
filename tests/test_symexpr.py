import itertools

import numpy as np
import pytest

from praline import Atom, parse, symexpr
from praline.cli import solve_source
from praline.frontend import DimensionCapExceeded
from praline.grounder import break_cycles, solve_standard
from praline.symexpr import (
    ProbExpr,
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
    assert len(e.terms) == 4
    assert all(psi[0] >> 1 & 1 for psi in e.terms)


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


def _dense_lift(e, support):
    if e.support == support:
        return e
    ctx = e.ctx
    if ctx.template_size(support) > symexpr.MAX_TEMPLATE:
        raise DimensionCapExceeded(f"template over {support}")
    pos_of = {c: i for i, c in enumerate(e.support)}
    ranges = [range(1 << ctx.classes[c].size)
              for c in support if c not in pos_of]
    terms = {}
    for psi, lam in e.terms.items():
        for fills in itertools.product(*ranges):
            fill_iter = iter(fills)
            new_psi = tuple(psi[pos_of[c]] if c in pos_of else next(fill_iter)
                            for c in support)
            terms[new_psi] = lam
    return ProbExpr(ctx, support, terms)


def dense_mul(a, b):
    """mul as it was before the sparse join: lift both, pair per psi."""
    support = tuple(sorted(set(a.support) | set(b.support)))
    a = _dense_lift(a, support)
    b = _dense_lift(b, support)
    terms = {}
    for psi, lam in a.terms.items():
        lam2 = b.terms.get(psi)
        if lam2 is None:
            continue
        j = coeff_joint(lam, lam2)
        if j:
            terms[psi] = j
    return ProbExpr(a.ctx, support, terms)


def cyclic_build(src):
    prog = parse(src)
    g = solve_standard(prog)
    work = g if g.acyclic else break_cycles(g)
    return prog, work, context_from_program(prog, work)


def ordered(e):
    return e.support, [(psi, list(lam.items())) for psi, lam in e.terms.items()]


class TestSparseMul:
    def test_matches_dense_reference(self, monkeypatch):
        calls = []

        def checked(a, b):
            got = mul(a, b)
            assert ordered(got) == ordered(dense_mul(a, b))
            calls.append(a.support != b.support)
            return got

        monkeypatch.setattr(symexpr, "mul", checked)
        sources = [ROADS, SIXPACK] + \
            [random_program_source(seed) for seed in range(30)]
        for src in sources:
            prog, g, ctx = cyclic_build(src)
            memo = {}
            for n in g.nodes:
                gen_objective(g, ctx, n, memo)
        # the chain's queries only: the reference lifts its longest paths
        # over up to six classes, seconds for every node
        prog, g, ctx = cyclic_build(CHAIN)
        memo = {}
        for q in prog.queries:
            gen_objective(g, ctx, q, memo)
        # operands over equal and over differing supports were both compared
        assert any(calls) and not all(calls)

    def test_cap_still_raises_across_classes(self, monkeypatch):
        prog, g, ctx = build("""
            0.5::a1. 0.5::a2. 0.5::a3. corr(a1,a2,a3).
            0.5::b1. 0.5::b2. 0.5::b3. corr(b1,b2,b3).
        """)
        monkeypatch.setattr(symexpr, "MAX_TEMPLATE", 63)
        a = expr_of_input(ctx, Atom("a1"))
        b = expr_of_input(ctx, Atom("b1"))
        with pytest.raises(DimensionCapExceeded):
            mul(a, b)
        # one class's template (8 terms) is under the cap
        assert mul(a, expr_of_input(ctx, Atom("a2"))).support == a.support

    def test_chain_objectives_lift_nothing(self, monkeypatch):
        lifts = []
        lift = symexpr._lift

        def counted(e, support):
            if e.support != support:
                lifts.append(support)
            return lift(e, support)

        monkeypatch.setattr(symexpr, "_lift", counted)
        prog, g, ctx = cyclic_build(CHAIN)
        for q in prog.queries:
            gen_objective(g, ctx, q)
        assert lifts == []

    def test_chain_exact_range_unchanged(self):
        # the value the dense lift-based mul gave
        facts = {f.atom: f for f in solve_source(CHAIN, mode="exact").facts}
        f = facts["path(0,12)"]
        assert f.mode == "exact"
        assert (f.lower, f.upper) == \
            pytest.approx((0.0, 0.0036353523045133253), abs=1e-12)
