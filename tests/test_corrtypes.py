import numpy as np
import pytest

import praline.corrtypes as corrtypes
from praline import Atom, parse
from praline.approx import approx_bounds
from praline.constraints import gen_constraints
from praline.corrtypes import (
    CorrType,
    build_env,
    dep_sig,
    infer_expr_pair,
    infer_input_pair,
    node_pair,
)
from praline.grounder import break_cycles, solve_standard
from praline.oracle import build_world_space, pair_probs, sample_feasible_mu
from praline.symexpr import context_from_program

from conftest import CHAIN


def env_for(src_or_program):
    program = src_or_program if not isinstance(src_or_program, str) \
        else parse(src_or_program)
    graph = solve_standard(program)
    work = graph if graph.acyclic else break_cycles(graph)
    ctx = context_from_program(program, work)
    system = gen_constraints(program, ctx)
    return build_env(work, ctx, system), program, graph


def fact(env, name):
    for a in env.ctx.fact_bit:
        if str(a) == name:
            return a
    raise KeyError(name)


def node(env, name):
    for n in env.graph.nodes:
        if str(n) == name:
            return n
    raise KeyError(name)


class TestInputPairs:
    def test_conditioned_pair_is_positive(self, roads):
        env, _, _ = env_for(roads)
        a = fact(env, "edge(2,5)")
        b = fact(env, "edge(2,6)")
        assert infer_input_pair(env, a, b) is CorrType.POS
        assert infer_input_pair(env, b, a) is CorrType.POS

    def test_anchor_pairs_are_positive(self, roads):
        env, _, _ = env_for(roads)
        anchor = fact(env, "edge(1,4)")
        for name in ["edge(2,5)", "edge(2,6)"]:
            assert infer_input_pair(env, fact(env, name), anchor) \
                is CorrType.POS

    def test_cross_class_independent(self, roads):
        env, _, _ = env_for(roads)
        assert infer_input_pair(env, fact(env, "edge(5,7)"),
                                fact(env, "edge(1,2)")) is CorrType.INDEP

    def test_self_pair_interior_positive(self, roads):
        env, _, _ = env_for(roads)
        a = fact(env, "edge(5,7)")
        assert infer_input_pair(env, a, a) is CorrType.POS

    def test_constants_independent(self):
        env, _, _ = env_for("1::a.\n0.5::b.\n0::c.\n1::h :- a, b.")
        a, b, c = fact(env, "a"), fact(env, "b"), fact(env, "c")
        assert infer_input_pair(env, a, b) is CorrType.INDEP
        assert infer_input_pair(env, a, a) is CorrType.INDEP
        assert infer_input_pair(env, c, b) is CorrType.INDEP

    def test_forced_negative(self):
        env, _, _ = env_for("0.5::a.\n0.5::b.\n0.2::a|b.\n1::h :- a, b.")
        assert infer_input_pair(env, fact(env, "a"), fact(env, "b")) \
            is CorrType.NEG

    def test_pinned_independent_pair(self):
        env, _, _ = env_for("0.5::a.\n0.4::b.\n0.4::b|a.\n1::h :- a, b.")
        assert infer_input_pair(env, fact(env, "a"), fact(env, "b")) \
            is CorrType.INDEP

    def test_undetermined_sign(self):
        src = """
        0.5::c.
        0.5::a|c.
        0.5::b|c.
        1::h :- a, b.
        """
        env, _, _ = env_for(src)
        assert infer_input_pair(env, fact(env, "a"), fact(env, "b")) \
            is CorrType.UNKNOWN


class TestOracleAgreement:
    def test_positive_verdicts_hold_at_samples(self, roads, rng):
        env, program, graph = env_for(roads)
        ws = build_world_space(program, graph)
        pairs = [("edge(2,5)", "edge(2,6)"),
                 ("edge(2,5)", "edge(1,4)"),
                 ("edge(2,6)", "edge(1,4)")]
        mus = sample_feasible_mu(env.system, rng, 50)
        for na, nb in pairs:
            a, b = fact(env, na), fact(env, nb)
            assert infer_input_pair(env, a, b) is CorrType.POS
            cols = pair_probs(node(env, na), node(env, nb), mus, ws)
            cov = cols[:, 2] - cols[:, 0] * cols[:, 1]
            assert cov.min() >= -1e-9

    def test_negative_verdict_holds_at_samples(self, rng):
        env, program, graph = env_for(
            "0.5::a.\n0.5::b.\n0.2::a|b.\n1::h :- a, b.")
        ws = build_world_space(program, graph)
        mus = sample_feasible_mu(env.system, rng, 50)
        cols = pair_probs(node(env, "a"), node(env, "b"), mus, ws)
        cov = cols[:, 2] - cols[:, 0] * cols[:, 1]
        assert cov.max() <= 1e-9


class TestExprPairs:
    def test_parallel_paths_positive(self, roads):
        env, _, _ = env_for(roads)
        assert node_pair(env, node(env, "path(1,5)"),
                         node(env, "path(1,6)")) is CorrType.POS

    def test_shared_class_blocks_decision(self, roads):
        env, _, _ = env_for(roads)
        assert node_pair(env, node(env, "path(1,7)"),
                         node(env, "path(1,5)")) is CorrType.UNKNOWN

    def test_disjoint_paths_independent(self, roads):
        env, _, _ = env_for(roads)
        assert node_pair(env, node(env, "path(1,4)"),
                         node(env, "path(5,7)")) is CorrType.INDEP

    def test_negation_flips_sign(self):
        src = """
        0.5::x.
        0.9::y :- \\+x.
        0.9::z :- x.
        query(y).
        """
        env, _, _ = env_for(src)
        y, z = node(env, "y"), node(env, "z")
        assert node_pair(env, y, z) is CorrType.NEG
        assert node_pair(env, y, y) is CorrType.POS
        assert node_pair(env, z, z) is CorrType.POS

    def test_input_nodes_reduce_to_input_rule(self, roads):
        env, _, _ = env_for(roads)
        assert node_pair(env, node(env, "edge(2,5)"),
                         node(env, "edge(2,6)")) is CorrType.POS

    def test_memoized(self, roads):
        env, _, _ = env_for(roads)
        s1 = dep_sig(env, node(env, "path(1,5)"))
        s2 = dep_sig(env, node(env, "path(1,6)"))
        infer_expr_pair(env, s1, s2)
        n = env.lookups
        infer_expr_pair(env, s1, s2)
        infer_expr_pair(env, s2, s1)
        assert env.lookups == n

    def test_budget_degrades_to_unknown(self, roads):
        env, _, _ = env_for(roads)
        env.budget = 0
        s1 = dep_sig(env, node(env, "path(1,5)"))
        s2 = dep_sig(env, node(env, "path(1,6)"))
        assert infer_expr_pair(env, s1, s2) is CorrType.UNKNOWN


class TestAtomKeys:
    """Pair typing keys its memos on atoms and pairs shared classes only."""

    def test_approx_pass_prints_no_atom(self, monkeypatch):
        env, _, _ = env_for(CHAIN)
        calls = []
        to_str = Atom.__str__
        monkeypatch.setattr(Atom, "__str__",
                            lambda a: calls.append(a) or to_str(a))
        approx_bounds(env)
        assert calls == []

    def test_pairs_only_facts_of_a_shared_class(self, monkeypatch):
        env, _, _ = env_for(CHAIN)
        pairs = []
        infer = corrtypes.infer_input_pair
        monkeypatch.setattr(corrtypes, "infer_input_pair",
                            lambda e, a, b: pairs.append((a, b))
                            or infer(e, a, b))
        approx_bounds(env)
        cls = {f: cpos for f, (cpos, _) in env.ctx.fact_bit.items()}
        assert pairs
        assert all(cls[a] == cls[b] for a, b in pairs)
