import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import praline.constraints
from praline import parse
from praline.approx import (
    Interval,
    approx_bounds,
    combine,
    conj_bound,
    disj_bound,
)
from praline.constraints import bit_row, check_feasible, gen_constraints
from praline.corrtypes import CorrType, _marginal_range, build_env
from praline.frontend import Atom
from praline.grounder import break_cycles, solve_standard
from praline.oracle import exact_interval_oracle
from praline.symexpr import context_from_program

from conftest import (
    ROADS,
    ROADS_APPROX,
    SIXPACK,
    SIXPACK_E,
    random_program_source,
)


def env_for(program):
    graph = solve_standard(program)
    work = graph if graph.acyclic else break_cycles(graph)
    ctx = context_from_program(program, work)
    system = gen_constraints(program, ctx)
    return build_env(program, work, ctx, system)


def by_name(bounds, name):
    for n, iv in bounds.items():
        if str(n) == name:
            return iv
    raise KeyError(name)


class TestCombinators:
    def test_conjunction_table(self):
        e1, e2 = 0.6, 0.7
        assert conj_bound(CorrType.POS, e1, e2, False) == pytest.approx(0.42)
        assert conj_bound(CorrType.INDEP, e1, e2, False) == pytest.approx(0.42)
        assert conj_bound(CorrType.NEG, e1, e2, False) == pytest.approx(0.3)
        assert conj_bound(CorrType.UNKNOWN, e1, e2, False) == pytest.approx(0.3)
        assert conj_bound(CorrType.POS, e1, e2, True) == pytest.approx(0.6)
        assert conj_bound(CorrType.UNKNOWN, e1, e2, True) == pytest.approx(0.6)
        assert conj_bound(CorrType.NEG, e1, e2, True) == pytest.approx(0.42)
        assert conj_bound(CorrType.INDEP, e1, e2, True) == pytest.approx(0.42)

    def test_disjunction_table(self):
        e1, e2 = 0.6, 0.7
        assert disj_bound(CorrType.POS, e1, e2, False) == pytest.approx(0.7)
        assert disj_bound(CorrType.UNKNOWN, e1, e2, False) == pytest.approx(0.7)
        assert disj_bound(CorrType.NEG, e1, e2, False) == pytest.approx(0.88)
        assert disj_bound(CorrType.INDEP, e1, e2, False) == pytest.approx(0.88)
        assert disj_bound(CorrType.POS, e1, e2, True) == pytest.approx(0.88)
        assert disj_bound(CorrType.INDEP, e1, e2, True) == pytest.approx(0.88)
        assert disj_bound(CorrType.NEG, e1, e2, True) == pytest.approx(1.0)
        assert disj_bound(CorrType.UNKNOWN, e1, e2, True) == pytest.approx(1.0)

    def test_fretchet_extremes(self):
        assert conj_bound(CorrType.UNKNOWN, 0.3, 0.4, False) == 0.0
        assert disj_bound(CorrType.UNKNOWN, 0.3, 0.4, True) == pytest.approx(0.7)

    def test_constant_operands(self):
        one = Interval(1.0, 1.0)
        zero = Interval(0.0, 0.0)
        x = Interval(0.3, 0.6)
        for t in CorrType:
            got = combine("and", t, x, one)
            assert (got.lo, got.hi) == pytest.approx((0.3, 0.6))
            got = combine("and", t, x, zero)
            assert (got.lo, got.hi) == pytest.approx((0.0, 0.0))
            got = combine("or", t, x, zero)
            assert (got.lo, got.hi) == pytest.approx((0.3, 0.6))
            got = combine("or", t, x, one)
            assert (got.lo, got.hi) == pytest.approx((1.0, 1.0))


class TestRoadsWalk:
    def test_point_legs(self, roads):
        env = env_for(roads)
        bounds = approx_bounds(env)
        for name in ["path(1,5)", "path(1,6)"]:
            iv = by_name(bounds, name)
            assert_allclose([iv.lo, iv.hi], [0.36, 0.36], atol=1e-12)

    def test_target_interval(self, roads):
        env = env_for(roads)
        iv = by_name(approx_bounds(env), "path(1,7)")
        assert_allclose([iv.lo, iv.hi], ROADS_APPROX, atol=1e-12)

    def test_unknown_only_upper(self, roads):
        # with signs disabled the top disjunction falls back to Boole:
        # min(1, 0.252 + 0.288)
        env = env_for(roads)
        iv = by_name(approx_bounds(env, assume_unknown=True), "path(1,7)")
        assert_allclose(iv.hi, 0.54, atol=1e-9)
        assert iv.hi > ROADS_APPROX[1]  # the sign analysis buys precision

    def test_leaves_are_marginal_ranges(self, roads):
        env = env_for(roads)
        bounds = approx_bounds(env)
        iv = by_name(bounds, "edge(5,7)")
        assert_allclose([iv.lo, iv.hi], [0.7, 0.7], atol=1e-12)


class TestSoundness:
    def test_contains_exact_on_roads(self, roads):
        env = env_for(roads)
        iv = by_name(approx_bounds(env), "path(1,7)")
        lo, hi = exact_interval_oracle(
            [n for n in env.graph.nodes if str(n) == "path(1,7)"][0], roads)
        assert iv.lo <= lo + 1e-12
        assert hi <= iv.hi + 1e-12

    def test_contains_exact_on_pinned_program(self, sixpack):
        env = env_for(sixpack)
        iv = by_name(approx_bounds(env), "e")
        assert iv.lo - 1e-12 <= SIXPACK_E <= iv.hi + 1e-12

    def test_negation_interval(self):
        src = """
        0.5::x.
        0.9::y :- \\+x.
        query(y).
        """
        env = env_for(parse(src))
        iv = by_name(approx_bounds(env), "y")
        assert_allclose([iv.lo, iv.hi], [0.45, 0.45], atol=1e-12)

    def test_unknown_never_tighter(self, roads):
        env = env_for(roads)
        typed = approx_bounds(env)
        blunt = approx_bounds(env, assume_unknown=True)
        for n, iv in typed.items():
            assert blunt[n].lo <= iv.lo + 1e-12
            assert iv.hi <= blunt[n].hi + 1e-12


def lp_range(cs, row):
    """[min, max] of row over the class polytope, by two HiGHS LPs."""
    lo = linprog(row, A_eq=cs.a_eq, b_eq=cs.b_eq, bounds=(0, 1),
                 method="highs")
    hi = linprog(-row, A_eq=cs.a_eq, b_eq=cs.b_eq, bounds=(0, 1),
                 method="highs")
    assert lo.success and hi.success
    return lo.fun, -hi.fun


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    real = praline.constraints.linprog

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(praline.constraints, "linprog", counted)
    return calls


class TestMarginalRange:
    def test_agrees_with_class_range(self):
        sources = [ROADS, SIXPACK] + \
            [random_program_source(seed) for seed in range(30)]
        checked = 0
        for src in sources:
            program = parse(src)
            env = env_for(program)
            for fact in program.input_facts:
                cpos, bit = env.ctx.fact_bit[fact]
                cs = env.system.classes[cpos]
                want = lp_range(cs, bit_row(cs.dim, bit))
                assert_allclose(_marginal_range(env, fact), want, atol=1e-9)
                checked += 1
        assert checked > 60

    def test_declared_marginal_needs_no_lp(self, lp_calls):
        # feasibility and every leaf range come from declarations and vertices
        pair = "0.5::a. 0.6::b|a. h :- a, b. query(h)."
        for src in [ROADS, SIXPACK, pair]:
            program = parse(src)
            env = env_for(program)
            assert check_feasible(env.system) is not None
            for fact in program.input_facts:
                _marginal_range(env, fact)
        assert lp_calls == []
        assert _marginal_range(env, Atom("a")) == (0.5, 0.5)
        # b is only constrained by the conditional: P(b) = 0.3 + P(b, not a)
        assert_allclose(_marginal_range(env, Atom("b")), [0.3, 0.8],
                        atol=1e-9)
        assert lp_calls == []

    def test_class_past_vertex_cap_ranges_by_lp(self, lp_calls):
        # seven facts make a 128-column class, past VERTEX_DIM_CAP: b's range
        # takes two LPs, once, and the declared marginals none
        names = ["a", "b"] + [f"f{i}" for i in range(5)]
        src = "".join(f"0.5::{n}.\n" for n in names if n != "b") + \
            f"0.6::b|a.\ncorr({','.join(names)}).\nh :- a, b.\nquery(h).\n"
        env = env_for(parse(src))
        assert env.system.classes[0].dim == 128
        assert check_feasible(env.system) is not None
        lp_calls.clear()
        assert_allclose(_marginal_range(env, Atom("b")), [0.3, 0.8],
                        atol=1e-9)
        assert len(lp_calls) == 2
        assert _marginal_range(env, Atom("a")) == (0.5, 0.5)
        _marginal_range(env, Atom("b"))
        assert len(lp_calls) == 2

    def test_too_big_class_keeps_unit_interval(self):
        names = [f"f{i}" for i in range(17)]
        env = env_for(parse(f"0.5::f0.\ncorr({','.join(names)}).\n"
                            "q :- f0.\nquery(q).\n"))
        assert env.system.classes[0].too_big
        assert _marginal_range(env, Atom("f0")) == (0.0, 1.0)
