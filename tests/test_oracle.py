import numpy as np
import pytest
from numpy.testing import assert_allclose

from praline import parse
from praline.constraints import gen_constraints
from praline.frontend import InfeasibleError, ScaleError
from praline.grounder import break_cycles, solve_standard
from praline.oracle import (
    build_world_space,
    exact_interval_oracle,
    sample_feasible_mu,
    world_prob,
    world_probs,
)
from praline.symexpr import context_from_program, eval_expr, gen_objective

from conftest import CONFLICT, ROADS_EXACT, SIXPACK_E


def node(graph, name):
    return [n for n in graph.nodes if str(n) == name][0]


def setup(program):
    graph = solve_standard(program)
    work = graph if graph.acyclic else break_cycles(graph)
    ctx = context_from_program(program, work)
    system = gen_constraints(program, ctx)
    return graph, work, ctx, system


class TestWorldSpace:
    def test_roads_layout(self, roads):
        graph, _, _, _ = setup(roads)
        ws = build_world_space(roads, graph)
        assert ws.n_fact_bits == 6
        assert ws.n_events == 0
        assert ws.n_worlds == 64

    def test_event_bits(self, sixpack):
        graph, _, _, _ = setup(sixpack)
        ws = build_world_space(sixpack, graph)
        assert ws.n_fact_bits == 2
        assert ws.n_events == 6
        assert_allclose(ws.ev_prob, [0.9, 0.8, 0.7, 0.6, 0.5, 0.4])

    def test_scale_cap(self):
        lines = [f"0.5::f{i}." for i in range(25)]
        lines.append("1::out :- f0.")
        program = parse("\n".join(lines))
        graph = solve_standard(program)
        with pytest.raises(ScaleError):
            build_world_space(program, graph)


class TestWorldProb:
    def test_pinned_program_point(self, sixpack):
        graph, _, _, system = setup(sixpack)
        ws = build_world_space(sixpack, graph)
        mu = [cs.feasible_point() for cs in system.classes]
        assert_allclose(world_prob(node(graph, "e"), mu, ws), SIXPACK_E,
                        atol=1e-9)

    def test_matches_objective_on_roads(self, roads, rng):
        # the symbolic objective and brute-force enumeration agree at
        # twenty random feasible distributions
        graph, work, ctx, system = setup(roads)
        ws = build_world_space(roads, graph)
        target = node(graph, "path(1,7)")
        obj = gen_objective(work, ctx, target)
        mus = sample_feasible_mu(system, rng, 20)
        got = world_probs([target], mus, ws)[:, 0]
        want = [eval_expr(obj, mu, system.var_prob) for mu in mus]
        assert_allclose(got, want, atol=1e-12)

    def test_sampled_values_stay_in_exact_interval(self, roads, rng):
        graph, _, _, system = setup(roads)
        ws = build_world_space(roads, graph)
        target = node(graph, "path(1,7)")
        mus = sample_feasible_mu(system, rng, 200)
        vals = world_probs([target], mus, ws)[:, 0]
        assert vals.min() >= ROADS_EXACT[0] - 1e-9
        assert vals.max() <= ROADS_EXACT[1] + 1e-9
        assert vals.max() - vals.min() > 0.04

    def test_linear_in_one_class(self, roads, rng):
        graph, _, _, system = setup(roads)
        ws = build_world_space(roads, graph)
        target = node(graph, "path(1,7)")
        m1, m2 = sample_feasible_mu(system, rng, 2)
        v1 = world_prob(target, m1, ws)
        base = list(m1)
        base[3] = m2[3]
        v2 = world_prob(target, base, ws)
        for alpha in (0.25, 0.5, 0.9):
            mix = list(m1)
            mix[3] = alpha * m1[3] + (1 - alpha) * m2[3]
            assert_allclose(world_prob(target, mix, ws),
                            alpha * v1 + (1 - alpha) * v2, atol=1e-12)

    def test_cyclic_graph_fixpoint(self):
        src = """
        0.6::e(1,2).
        0.7::e(2,1).
        1::r(X,Y) :- e(X,Y).
        1::r(X,Z) :- r(X,Y), e(Y,Z).
        query(r(1,1)).
        """
        program = parse(src)
        graph = solve_standard(program)
        assert not graph.acyclic
        ws = build_world_space(program, graph)
        mu = [np.array([0.4, 0.6]), np.array([0.3, 0.7])]
        assert_allclose(world_prob(node(graph, "r(1,1)"), mu, ws), 0.42,
                        atol=1e-12)
        assert_allclose(world_prob(node(graph, "r(1,2)"), mu, ws), 0.6,
                        atol=1e-12)

    def test_unfolded_graph_agrees_with_cyclic(self, rng):
        src = """
        0.6::e(1,2).
        0.7::e(2,1).
        0.9::r(X,Y) :- e(X,Y).
        0.8::r(X,Z) :- r(X,Y), e(Y,Z).
        query(r(1,1)).
        """
        program = parse(src)
        graph = solve_standard(program)
        work = break_cycles(graph)
        ws1 = build_world_space(program, graph)
        ws2 = build_world_space(program, work)
        mu = [np.array([0.4, 0.6]), np.array([0.3, 0.7])]
        for name in ["r(1,1)", "r(1,2)", "r(2,2)"]:
            a = world_prob(node(graph, name), mu, ws1)
            b = world_prob(node(work, name), mu, ws2)
            assert_allclose(a, b, atol=1e-12)


class TestExactIntervalOracle:
    def test_roads(self, roads):
        target = node(solve_standard(roads), "path(1,7)")
        assert_allclose(exact_interval_oracle(target, roads), ROADS_EXACT,
                        atol=1e-9)

    def test_point_program(self, sixpack):
        target = node(solve_standard(sixpack), "e")
        lo, hi = exact_interval_oracle(target, sixpack)
        assert_allclose([lo, hi], [SIXPACK_E, SIXPACK_E], atol=1e-9)

    def test_underivable_is_zero(self, roads):
        from praline.frontend import Atom

        lo, hi = exact_interval_oracle(Atom("path", (7, 1)), roads)
        assert (lo, hi) == (0.0, 0.0)

    def test_conflict_raises(self):
        program = parse(CONFLICT)
        target = node(solve_standard(program), "out")
        with pytest.raises(InfeasibleError):
            exact_interval_oracle(target, program)

    def test_input_query_range(self):
        program = parse("0.6 :: b | a.\n0.5 :: a.\n1::h :- a, b.")
        graph = solve_standard(program)
        lo, hi = exact_interval_oracle(node(graph, "b"), program)
        assert_allclose([lo, hi], [0.3, 0.8], atol=1e-9)
