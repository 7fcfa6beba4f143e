import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from praline import parse
from praline.approx import Interval, approx_bounds, combine
from praline.constraints import gen_constraints
from praline.corrtypes import CorrType, build_env
from praline.grounder import break_cycles, solve_standard
from praline.optimizer import enumerate_class_vertices, optimize_exact
from praline.oracle import (
    build_world_space,
    sample_feasible_mu,
    world_probs,
)
from praline.refine import make_sat
from praline.symexpr import context_from_program, gen_objective

from conftest import random_program_source
from oracles import assert_same_rows, rational_vertices

probs = st.floats(0.0, 1.0, allow_nan=False, width=32).map(
    lambda p: round(float(p), 6))
corr_types = st.sampled_from(list(CorrType))
ops = st.sampled_from(["and", "or"])


def intervals():
    return st.tuples(probs, probs).map(
        lambda ab: Interval(min(ab), max(ab)))


def pipeline(src):
    program = parse(src)
    graph = solve_standard(program)
    work = graph if graph.acyclic else break_cycles(graph)
    ctx = context_from_program(program, work)
    system = gen_constraints(program, ctx)
    return program, work, ctx, system


class TestParser:
    @given(probs)
    def test_probability_literal_roundtrip(self, p):
        program = parse(f"{p:.6f}::a.")
        assert program.input_probs[0].prob == pytest.approx(p, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 300))
    def test_comments_and_blank_lines_are_noise(self, seed):
        src = random_program_source(seed)
        noisy = "\n% header comment\n\n".join(src.splitlines())
        a, b = parse(src), parse(noisy)
        assert a.input_probs == b.input_probs
        assert a.rules == b.rules
        assert a.queries == b.queries
        assert a.classes == b.classes


class TestCombinators:
    @given(ops, corr_types, intervals(), intervals())
    def test_well_formed(self, op, t, a, b):
        r = combine(op, t, a, b)
        assert 0.0 <= r.lo <= r.hi <= 1.0

    @given(ops, corr_types, intervals(), intervals())
    def test_symmetric(self, op, t, a, b):
        r1 = combine(op, t, a, b)
        r2 = combine(op, t, b, a)
        assert r1.lo == pytest.approx(r2.lo, abs=1e-12)
        assert r1.hi == pytest.approx(r2.hi, abs=1e-12)

    @given(ops, corr_types, intervals(), intervals(), probs, probs)
    def test_monotone_under_widening(self, op, t, a, b, dl, dh):
        wide = Interval(max(0.0, a.lo - dl), min(1.0, a.hi + dh))
        inner = combine(op, t, a, b)
        outer = combine(op, t, wide, b)
        assert outer.lo <= inner.lo + 1e-12
        assert outer.hi >= inner.hi - 1e-12

    @given(ops, intervals(), intervals())
    def test_unknown_is_widest(self, op, a, b):
        worst = combine(op, CorrType.UNKNOWN, a, b)
        for t in (CorrType.POS, CorrType.NEG, CorrType.INDEP):
            r = combine(op, t, a, b)
            assert worst.lo <= r.lo + 1e-12
            assert worst.hi >= r.hi - 1e-12


class TestVertexEnumeration:
    def test_matches_rational_oracle(self):
        for seed in range(301):
            _, _, _, system = pipeline(random_program_source(seed))
            for cs in system.classes:
                if cs.too_big:
                    continue
                got = enumerate_class_vertices(cs)
                want = rational_vertices(
                    [list(map(float, r)) for r in cs.a_eq],
                    list(map(float, cs.b_eq)))
                assert_same_rows(got, [list(map(float, v)) for v in want],
                                 atol=1e-7)


class TestSoundBounds:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 300))
    def test_exact_inside_approx_and_worlds_inside_exact(self, seed):
        src = random_program_source(seed)
        program, work, ctx, system = pipeline(src)
        env = build_env(program, work, ctx, system)
        m = approx_bounds(env)
        rng = np.random.default_rng(seed)
        mus = sample_feasible_mu(system, rng, 5)
        ws = build_world_space(program, work)
        outputs = [q for q in program.queries if q in set(work.nodes)]
        if not outputs:
            return
        table = world_probs(outputs, mus, ws)
        for j, out in enumerate(outputs):
            res = optimize_exact(gen_objective(work, ctx, out), system)
            iv = m[out]
            assert iv.lo - 1e-7 <= res.lo <= res.hi <= iv.hi + 1e-7
            assert np.all(table[:, j] >= res.lo - 1e-7)
            assert np.all(table[:, j] <= res.hi + 1e-7)


class TestSearch:
    @settings(max_examples=50)
    @given(st.floats(0.0, 0.4), st.floats(0.0, 0.3), st.floats(0.01, 0.2))
    def test_first_window_straddles_the_endpoint(self, a, gap, eps):
        lo, hi = a + gap, min(1.0, a + gap + 0.2)

        def sat(wl, wu):
            return wl <= hi + 1e-9 and wu >= lo - 1e-9

        w = make_sat(sat, a, eps, True)
        assert w[0] - 1e-9 <= lo <= w[1] + 1e-9 or lo <= a
