from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from praline import optimizer, parse
from praline.cli import solve_source
from praline.constraints import check_feasible, gen_constraints
from praline.frontend import DimensionCapExceeded
from praline.grounder import break_cycles, solve_standard
from praline.kernels import solve_supports
from praline.optimizer import (enumerate_class_vertices, optimize_exact,
                               unique_rows)
from praline.symexpr import context_from_program, eval_expr, gen_objective

from conftest import (CHAIN, CONFLICT, ROADS, ROADS_EXACT, SIXPACK,
                      SIXPACK_E, random_program_source, relational_source)
from oracles import assert_same_rows, dense_range, rational_vertices

# the relational programs test_fuzz solves: those with linear recursion
RELATIONAL = [src for src in map(relational_source, range(8))
              if "r(Y,Z)" not in src][:4]

# q reads the class of a through the free pattern, in its first term, and
# through a set; the class has 4 vertices, of which P(a) picks the extremes
FREE_BESIDE_READ = """\
0.3::c.
0.5::b.
corr(a,b).
0.9::q :- c.
0.8::q :- \\+c, a.
query(q).
"""

# CHAIN's nodes whose full vertex product passes GLOBAL_COMBO_CAP, though
# the product of the rows the optimizer keeps does not
CHAIN_PAST_DENSE_CAP = ("path(0,13)", "path(0,14)", "path(0,15)")


def pipeline(program):
    graph = solve_standard(program)
    ctx = context_from_program(program, graph)
    system = gen_constraints(program, ctx)
    return graph, ctx, system


def cyclic_pipeline(src):
    """The whole graph of a source, unfolded when cyclic, and its system."""
    program = parse(src)
    graph = solve_standard(program)
    work = graph if graph.acyclic else break_cycles(graph)
    ctx = context_from_program(program, work)
    return work, ctx, gen_constraints(program, ctx)


def named(graph, name):
    return next(n for n in graph.nodes if str(n) == name)


def dense_range_past_cap(expr, system, monkeypatch):
    """dense_range with the combination cap raised for this call only."""
    with monkeypatch.context() as m:
        m.setattr(optimizer, "GLOBAL_COMBO_CAP", 10 ** 7)
        return dense_range(expr, system)


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

    def test_witnesses_attain_bounds(self):
        for src, name in [(ROADS, "path(1,7)"), (CHAIN, "path(0,15)")]:
            graph, ctx, system = cyclic_pipeline(src)
            obj = gen_objective(graph, ctx, named(graph, name))
            res = optimize_exact(obj, system)
            witness = [cs.feasible_point() for cs in system.classes]
            for arg, want in [(res.arg_lo, res.lo), (res.arg_hi, res.hi)]:
                assert set(arg) == set(obj.support)
                dists = list(witness)
                for c, x in arg.items():
                    # a row of the class's own vertex set
                    assert (system.classes[c].vertices() == x).all(
                        axis=1).any()
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


def read_past_assignments(expr):
    """Whether some class of the support is read through more (mask, value)
    patterns than it has assignments."""
    return any(len({cell[k] for cell in expr.terms})
               > 1 << expr.ctx.classes[c].size
               for k, c in enumerate(expr.support))


class TestAgainstDenseReference:
    def test_every_node_matches_dense_range(self, monkeypatch):
        sources = [ROADS, SIXPACK, CHAIN, FREE_BESIDE_READ] + \
            [random_program_source(seed) for seed in range(60)] + RELATIONAL
        past_cap, wide = [], 0
        for src in sources:
            graph, ctx, system = cyclic_pipeline(src)
            if not check_feasible(system):
                continue
            memo = {}
            for n in graph.nodes:
                obj = gen_objective(graph, ctx, n, memo)
                res = optimize_exact(obj, system)
                try:
                    want = dense_range(obj, system)
                except DimensionCapExceeded:
                    past_cap.append((src, str(n)))
                    want = dense_range_past_cap(obj, system, monkeypatch)
                assert_allclose([res.lo, res.hi], want, rtol=0, atol=1e-12)
                wide += read_past_assignments(obj)
        assert sorted(past_cap) == [(CHAIN, n) for n in CHAIN_PAST_DENSE_CAP]
        assert wide

    def test_chain_exact_mode_needs_no_approx_pass(self, monkeypatch):
        graph, ctx, system = cyclic_pipeline(CHAIN)
        obj = gen_objective(graph, ctx, named(graph, "path(0,15)"))
        want = dense_range_past_cap(obj, system, monkeypatch)

        def no_approx(*args, **kwargs):
            raise AssertionError("exact mode ran the approx pass")

        monkeypatch.setattr("praline.cli.approx_bounds", no_approx)
        facts = {f.atom: f for f in solve_source(CHAIN, mode="exact").facts}
        assert all(f.mode == "exact" for f in facts.values())
        f = facts["path(0,15)"]
        assert_allclose([f.lower, f.upper], want, rtol=0, atol=1e-12)
