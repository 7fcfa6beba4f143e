from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from praline import parse
from praline.constraints import gen_constraints
from praline.frontend import DimensionCapExceeded
from praline.grounder import solve_standard
from praline.kernels import solve_supports
from praline.optimizer import (enumerate_class_vertices, optimize_exact,
                               unique_rows)
from praline.symexpr import context_from_program, eval_expr, gen_objective

from conftest import CONFLICT, ROADS_EXACT, SIXPACK_E, relational_source
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


def assert_rational_vertices(cs):
    """The class's vertices are its exact rational ones, to 1e-12."""
    want = rational_vertices([list(map(float, r)) for r in cs.a_eq],
                             list(map(float, cs.b_eq)))
    want = np.array([[float(v) for v in vert] for vert in want])
    assert_same_rows(enumerate_class_vertices(cs), want, atol=1e-12)


class TestVertexEnumeration:
    @pytest.mark.parametrize("source, corank", [
        ("0.3::a.", 0),
        ("0.3::a.\n0.6::b.\ncorr(a,b).", 1),
        ("corr(a,b).", 3),
        ("0.2::a.\n0.3::b.\n0.4::c.\n0.5::a|b.\ncorr(a,b,c).", 3),
        ("0.3::a.\ncorr(a,b,c).", 6),
    ])
    def test_corank_matches_rational_oracle(self, source, corank):
        _, _, system = pipeline(parse(source + "\nq :- a.\nquery(q).\n"))
        cs = system.classes[0]
        assert cs.dim - np.linalg.matrix_rank(cs.a_eq) == corank
        assert_rational_vertices(cs)

    @pytest.mark.parametrize("source", [
        "0::a.\n1::b.\ncorr(a,b).",
        # the given b has probability 0, so the conditional's row
        # P(a and b) - 0.7 P(b) = 0 holds on a zero mass
        "0::b.\n0.7::a|b.\ncorr(a,b).",
    ])
    def test_degenerate_vertices_match_rational_oracle(self, source):
        _, _, system = pipeline(parse(source + "\nq :- a.\nquery(q).\n"))
        assert_rational_vertices(system.classes[0])

    def test_conflicting_class_has_no_vertex(self):
        _, _, system = pipeline(parse(CONFLICT))
        cs = system.classes[0]
        assert enumerate_class_vertices(cs).shape == (0, cs.dim)
        assert rational_vertices(cs.a_eq.tolist(), cs.b_eq.tolist()) == []

    def test_relational_classes_match_rational_oracle(self):
        for seed in range(100):
            _, _, system = pipeline(parse(relational_source(seed)))
            for cs in system.classes:
                if not cs.too_big:
                    assert_rational_vertices(cs)

    def test_class_past_support_cap_raises(self):
        # 4 independent rows over 64 columns: C(64, 4) bases
        _, _, system = pipeline(parse(
            "0.5::a.\n0.5::b.\n0.5::c.\ncorr(a,b,c,d,e,f).\n"
            "q :- a.\nquery(q).\n"))
        with pytest.raises(DimensionCapExceeded,
                           match=r"^635376 support subsets for class V$"):
            enumerate_class_vertices(system.classes[0])

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


class TestUniqueRows:
    def test_matches_np_unique(self):
        rng = np.random.default_rng(0)
        arrays = [np.zeros((0, 4)), rng.random((1, 4)),
                  np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0 - 1e-12]])]
        for _ in range(200):
            d = int(rng.integers(1, 9))
            base = np.vstack([rng.random((int(rng.integers(1, 5)), d)),
                              rng.integers(0, 2, (int(rng.integers(1, 5)), d))
                              .astype(float)])
            xs = base[rng.integers(0, len(base), int(rng.integers(2, 16)))]
            # exact ties, and near-duplicates within 1e-10
            near = rng.random(len(xs)) < 0.5
            xs[near] += rng.uniform(-1e-10, 1e-10, (near.sum(), d))
            arrays.append(xs)
        for xs in arrays:
            want = xs[np.unique(np.round(xs, 9), axis=0,
                                return_index=True)[1]]
            got = unique_rows(xs)
            assert got.shape == want.shape
            assert_array_equal(got, want)


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
