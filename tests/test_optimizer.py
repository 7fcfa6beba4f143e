from fractions import Fraction

import numpy as np
from numpy.testing import assert_allclose

from praline import parse
from praline.constraints import gen_constraints
from praline.grounder import solve_standard
from praline.kernels import solve_supports
from praline.optimizer import enumerate_class_vertices, optimize_exact
from praline.symexpr import context_from_program, eval_expr, gen_objective

from conftest import ROADS_EXACT, SIXPACK_E
from oracles import assert_same_rows, rational_vertices


def pipeline(program):
    graph = solve_standard(program)
    ctx = context_from_program(program, graph)
    system = gen_constraints(program, ctx)
    return graph, ctx, system


def roads_v4_rational():
    # simplex, three marginals, two conditionals in product form
    F = Fraction
    sel = lambda bit: [1 if i >> bit & 1 else 0 for i in range(8)]
    rows = [[1] * 8, sel(0), sel(1), sel(2)]
    rhs = [1, F(3, 5), F(3, 5), F(3, 5)]
    joint_01 = [1 if (i >> 0 & 1) and (i >> 1 & 1) else 0 for i in range(8)]
    joint_21 = [1 if (i >> 2 & 1) and (i >> 1 & 1) else 0 for i in range(8)]
    rows.append([F(a) - F(4, 5) * F(b) for a, b in zip(joint_01, sel(1))])
    rhs.append(0)
    rows.append([F(a) - F(83, 100) * F(b) for a, b in zip(joint_21, sel(1))])
    rhs.append(0)
    return rows, rhs


class TestVertexEnumeration:
    def test_singleton_point(self, roads):
        _, _, system = pipeline(roads)
        verts = enumerate_class_vertices(system.classes[0])
        assert_allclose(verts, [[0.3, 0.7]], atol=1e-9)

    def test_v4_matches_rational_oracle(self, roads):
        _, _, system = pipeline(roads)
        verts = enumerate_class_vertices(system.classes[3])
        want = np.array([[float(v) for v in vert]
                         for vert in rational_vertices(*roads_v4_rational())])
        assert_same_rows(verts, want, atol=1e-7)

    def test_v4_extreme_joint_mass(self, roads):
        # P(edge(2,5) and edge(2,6)) spans exactly [0.378, 0.582]
        _, _, system = pipeline(roads)
        verts = enumerate_class_vertices(system.classes[3])
        q = verts[:, 0b101] + verts[:, 0b111]
        assert_allclose([q.min(), q.max()], [0.378, 0.582], atol=1e-9)

    def test_free_pair_matches_rational_oracle(self):
        program = parse("0.6 :: b | a.\n0.5 :: a.")
        _, _, system = pipeline(program)
        verts = enumerate_class_vertices(system.classes[0])
        F = Fraction
        # members (b, a): b is bit 0, a is bit 1
        rows = [[1, 1, 1, 1],
                [0, 0, 1, 1],
                [0, 0, 0, 1]]
        rhs = [1, F(1, 2), F(3, 10)]
        want = np.array([[float(v) for v in vert]
                         for vert in rational_vertices(rows, rhs)])
        assert_same_rows(verts, want, atol=1e-7)


class TestSolveSupports:
    def test_known_system(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([1.0, 0.7])
        combos = np.array([[0, 1]])
        ys, ok = solve_supports(a, b, combos)
        assert ok[0]
        assert_allclose(ys[0], [0.3, 0.7], atol=1e-12)

    def test_dependent_columns_rejected(self):
        a = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]])
        b = np.array([1.0, 1.0])
        combos = np.array([[0, 1], [0, 2]])
        ys, ok = solve_supports(a, b, combos)
        assert not ok[0]
        assert ok[1]


class TestExactOptimization:
    def test_roads_reach_interval(self, roads):
        graph, ctx, system = pipeline(roads)
        target = [n for n in graph.nodes if str(n) == "path(1,7)"][0]
        obj = gen_objective(graph, ctx, target)
        res = optimize_exact(obj, system)
        assert_allclose([res.lo, res.hi], ROADS_EXACT, atol=1e-9)

    def test_roads_point_queries(self, roads):
        graph, ctx, system = pipeline(roads)
        for name in ["path(1,5)", "path(1,6)"]:
            target = [n for n in graph.nodes if str(n) == name][0]
            obj = gen_objective(graph, ctx, target)
            res = optimize_exact(obj, system)
            assert_allclose([res.lo, res.hi], [0.36, 0.36], atol=1e-9)

    def test_witnesses_attain_bounds(self, roads):
        graph, ctx, system = pipeline(roads)
        target = [n for n in graph.nodes if str(n) == "path(1,7)"][0]
        obj = gen_objective(graph, ctx, target)
        res = optimize_exact(obj, system)
        witness = [cs.feasible_point() for cs in system.classes]
        for arg, want in [(res.arg_lo, res.lo), (res.arg_hi, res.hi)]:
            dists = list(witness)
            for c, x in arg.items():
                dists[c] = x
            assert_allclose(eval_expr(obj, dists, ctx.var_prob), want,
                            atol=1e-9)

    def test_pinned_class_gives_point(self, sixpack):
        graph, ctx, system = pipeline(sixpack)
        target = [n for n in graph.nodes if str(n) == "e"][0]
        obj = gen_objective(graph, ctx, target)
        res = optimize_exact(obj, system)
        assert_allclose([res.lo, res.hi], [SIXPACK_E, SIXPACK_E], atol=1e-9)

    def test_constant_expression(self, roads):
        graph, ctx, system = pipeline(roads)
        from praline.symexpr import expr_const
        for v in (0, 1):
            res = optimize_exact(expr_const(ctx, v), system)
            assert res.lo == res.hi == v
