import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from praline import parse
from praline.constraints import bit_row, check_feasible, gen_constraints
from praline.grounder import solve_standard
from praline.symexpr import context_from_program

from conftest import CONFLICT


def build(src):
    program = parse(src)
    graph = solve_standard(program)
    ctx = context_from_program(program, graph)
    return program, graph, ctx


def atom_by_str(ctx, s):
    for a in ctx.fact_bit:
        if str(a) == s:
            return a
    raise KeyError(s)


class TestRoadsSystem:
    def test_singleton_rows(self, roads):
        graph = solve_standard(roads)
        ctx = context_from_program(roads, graph)
        system = gen_constraints(roads, ctx)
        cs = system.classes[0]  # V1 = {edge(5,7)}
        assert cs.label == "V1"
        assert cs.a_eq.shape == (2, 2)
        assert_allclose(cs.a_eq[0], [1, 1])
        assert_allclose(cs.a_eq[1], [0, 1])
        assert_allclose(cs.b_eq, [1.0, 0.7])

    def test_big_class_rows(self, roads):
        graph = solve_standard(roads)
        ctx = context_from_program(roads, graph)
        system = gen_constraints(roads, ctx)
        cs = system.classes[3]  # V4 = {edge(2,5), edge(1,4), edge(2,6)}
        assert [str(m) for m in cs.members] == \
            ["edge(2,5)", "edge(1,4)", "edge(2,6)"]
        assert cs.a_eq.shape[1] == 8
        w = cs.feasible_point()
        assert w is not None
        # declared marginals hold in any feasible point
        for bit in range(len(cs.members)):
            assert_allclose(bit_row(8, bit) @ w, 0.6, atol=1e-9)
        # edge(2,5) | edge(1,4): joint mass = 0.8 * 0.6
        joint = np.zeros(8)
        joint[0b011] = joint[0b111] = 1.0
        assert_allclose(joint @ w, 0.48, atol=1e-9)
        # edge(2,6) | edge(1,4): joint mass = 0.83 * 0.6
        cond = np.zeros(8)
        cond[0b110] = cond[0b111] = 1.0
        assert_allclose(cond @ w, 0.498, atol=1e-9)

    def test_witnesses_satisfy_all_rows(self, roads):
        graph = solve_standard(roads)
        ctx = context_from_program(roads, graph)
        system = gen_constraints(roads, ctx)
        assert check_feasible(system)
        witness = [cs.feasible_point() for cs in system.classes]
        assert len(witness) == 4
        for cs, w in zip(system.classes, witness):
            assert np.all(w >= -1e-12)
            assert_allclose(cs.a_eq @ w, cs.b_eq, atol=1e-8)

    def test_joint_mass_range(self, roads):
        # P(edge(2,5) and edge(2,6)) over the V4 polytope
        graph = solve_standard(roads)
        ctx = context_from_program(roads, graph)
        system = gen_constraints(roads, ctx)
        cs = system.classes[3]
        row = np.zeros(8)
        row[0b101] = row[0b111] = 1.0
        lo, hi = cs.range(row)
        assert_allclose([lo, hi], [0.378, 0.582], atol=1e-9)


class TestFeasibility:
    def test_conflicting_conditionals_infeasible(self):
        program, graph, ctx = build(CONFLICT)
        system = gen_constraints(program, ctx)
        assert not check_feasible(system)

    def test_near_duplicate_conditionals_feasible(self):
        src = """
        0.5 :: i1.
        0.3 :: i2.
        0.6 :: i1 | i2.
        """
        program, graph, ctx = build(src)
        system = gen_constraints(program, ctx)
        assert check_feasible(system)

    def test_undeclared_marginal_stays_free(self):
        src = """
        0.6 :: b | a.
        0.5 :: a.
        """
        program, graph, ctx = build(src)
        system = gen_constraints(program, ctx)
        cs = system.classes[0]
        _, bit = ctx.fact_bit[atom_by_str(ctx, "b")]
        lo, hi = cs.range(bit_row(4, bit))
        assert_allclose([lo, hi], [0.3, 0.8], atol=1e-9)

    def test_negated_given(self):
        src = """
        0.5 :: a.
        0.7 :: b | \\+a.
        """
        program, graph, ctx = build(src)
        system = gen_constraints(program, ctx)
        cs = system.classes[0]
        assert [str(m) for m in cs.members] == ["a", "b"]
        # P(b and not a) = 0.7 * 0.5, pinned to a point by the two rows
        row = np.zeros(4)
        row[0b10] = 1.0
        lo, hi = cs.range(row)
        assert_allclose([lo, hi], [0.35, 0.35], atol=1e-9)

    def test_point_probabilities(self):
        src = """
        1 :: a.
        0 :: b.
        """
        program, graph, ctx = build(src)
        system = gen_constraints(program, ctx)
        assert check_feasible(system)
        for cs in system.classes:
            x = cs.feasible_point()
            row = bit_row(2, 0)
            want = 1.0 if str(cs.members[0]) == "a" else 0.0
            assert_allclose(row @ x, want, atol=1e-9)


class TestOversizedClass:
    def test_huge_chain_gets_no_rows(self):
        lines = ["0.5 :: x0."]
        for i in range(1, 18):
            lines.append(f"0.5 :: x{i} | x{i - 1}.")
        program, graph, ctx = build("\n".join(lines))
        system = gen_constraints(program, ctx)
        assert len(system.classes) == 1
        cs = system.classes[0]
        assert cs.too_big
        w = cs.feasible_point()
        assert w is not None
        assert_allclose(w.sum(), 1.0)

    def test_conflict_is_found_on_the_named_members(self):
        names = [f"f{i}" for i in range(17)]
        program, graph, ctx = build(
            f"corr({','.join(names)}).\n0.5::f0.\n0.9::f1|f0.\n0.1::f1|f0.\n")
        cs = gen_constraints(program, ctx).classes[0]
        assert cs.too_big
        assert [[str(m) for m in p.members] for p in cs.parts] == \
            [["f0", "f1"]]
        assert cs.feasible_point() is None
        assert not cs.feasible()

    def test_witness_honours_declarations(self):
        names = [f"f{i}" for i in range(17)]
        program, graph, ctx = build(
            f"corr({','.join(names)}).\n0.5::f0.\n0.9::f1|f0.\n")
        cs = gen_constraints(program, ctx).classes[0]
        assert cs.too_big
        bits = {str(m): i for i, m in enumerate(cs.members)}
        w = cs.feasible_point()
        assert np.all(w >= 0.0)
        assert_allclose(w.sum(), 1.0, atol=1e-9)
        f0 = bit_row(cs.dim, bits["f0"])
        both = f0 * bit_row(cs.dim, bits["f1"])
        assert_allclose(f0 @ w, 0.5, atol=1e-9)
        assert_allclose((both @ w) / (f0 @ w), 0.9, atol=1e-9)
        # an unnamed member stays a fair coin, independent of the named ones
        f5 = bit_row(cs.dim, bits["f5"])
        assert_allclose(f5 @ w, 0.5, atol=1e-9)
        assert_allclose((f5 * both) @ w, 0.5 * (both @ w), atol=1e-9)


class TestManyNamedMembers:
    # 18 named members are too many for one system of rows, but no
    # declaration names more than two of them: 17 parts
    NAMES = [f"f{i}" for i in range(18)]
    SRC = f"corr({','.join(NAMES)}).\n0.5::f0.\n0.9::f1|f0.\n" + \
        "".join(f"0.3::{n}.\n" for n in NAMES[2:])

    def test_witness_honours_every_part(self):
        program, graph, ctx = build(self.SRC)
        [cs] = gen_constraints(program, ctx).classes
        assert cs.too_big and len(cs.parts) == 17
        bits = {str(m): i for i, m in enumerate(cs.members)}
        w = cs.feasible_point()
        assert_allclose(w.sum(), 1.0, atol=1e-9)
        f0, f1 = (bit_row(cs.dim, bits[n]) for n in ("f0", "f1"))
        assert_allclose(f0 @ w, 0.5, atol=1e-9)
        assert_allclose((f0 * f1) @ w, 0.45, atol=1e-9)
        for n in self.NAMES[2:]:
            assert_allclose(bit_row(cs.dim, bits[n]) @ w, 0.3, atol=1e-9)

    def test_conflict_in_one_part_is_found(self):
        program, graph, ctx = build(self.SRC + "0.1::f1|f0.\n")
        [cs] = gen_constraints(program, ctx).classes
        assert not cs.feasible()
        assert cs.feasible_point() is None


def _random_class_source(rng) -> str:
    """One corr class of 7 to 10 members with random declarations.

    A third of the declarations come with a twin of a random probability;
    twins that differ conflict unless their givens can have probability 0.
    """
    names = [f"f{i}" for i in range(int(rng.integers(7, 11)))]
    lines = [f"corr({','.join(names)})."]
    for _ in range(int(rng.integers(1, 7))):
        picked = rng.choice(names, size=int(rng.integers(1, 4)),
                            replace=False)
        givens = ",".join(("\\+" if rng.random() < 0.3 else "") + g
                          for g in picked[1:])
        tail = f"|{givens}." if givens else "."
        probs = [int(rng.integers(0, 11)) / 10]
        if rng.random() < 1 / 3:
            probs.append(int(rng.integers(0, 11)) / 10)
        lines += [f"{p}::{picked[0]}{tail}" for p in probs]
    return "\n".join(lines) + "\n"


class TestParts:
    def test_verdict_matches_a_whole_class_lp(self):
        verdicts = []
        for seed in range(48):
            src = _random_class_source(np.random.default_rng(seed))
            program, graph, ctx = build(src)
            [cs] = gen_constraints(program, ctx).classes
            assert cs.parts is not None and not cs.too_big
            res = linprog(np.zeros(cs.dim), A_eq=cs.a_eq, b_eq=cs.b_eq,
                          bounds=(0, 1), method="highs")
            assert cs.feasible() == res.success, src
            verdicts.append(res.success)
        assert any(verdicts) and not all(verdicts)

    def test_parts_split_on_shared_facts(self):
        names = [f"f{i}" for i in range(8)]
        program, graph, ctx = build(
            f"corr({','.join(names)}).\n0.5::f3.\n0.4::f1|f3.\n"
            "0.2::f6|\\+f5.\n0.7::f7.\n")
        [cs] = gen_constraints(program, ctx).classes
        # members keep the class's order, declared facts first
        assert [str(m) for m in cs.members[:5]] == \
            ["f3", "f1", "f6", "f5", "f7"]
        assert [[str(m) for m in p.members] for p in cs.parts] == \
            [["f3", "f1"], ["f6", "f5"], ["f7"]]
        assert [len(p.decls) for p in cs.parts] == [2, 1, 1]


def test_describe_mentions_rows(roads):
    graph = solve_standard(roads)
    ctx = context_from_program(roads, graph)
    system = gen_constraints(roads, ctx)
    text = system.describe()
    assert "V4[110] + V4[111] = 0.8 * " in text
    assert "V1[1] = 0.7" in text
