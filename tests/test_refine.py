import numpy as np
import pytest

from praline import parse
from praline.approx import approx_bounds
from praline.constraints import gen_constraints
from praline.corrtypes import build_env
from praline.frontend import BudgetExceeded
from praline.grounder import break_cycles, solve_standard
from praline.refine import (
    BoundBracket,
    SatChecker,
    binary_search,
    bound_bounds,
    build_cut_system,
    make_delta_precise,
    make_sat,
    refine_output,
)
from praline.symexpr import context_from_program

from conftest import ROADS_APPROX, ROADS_DELTA_05, ROADS_EXACT


def env_for(src_or_program):
    program = src_or_program if not isinstance(src_or_program, str) \
        else parse(src_or_program)
    graph = solve_standard(program)
    work = graph if graph.acyclic else break_cycles(graph)
    ctx = context_from_program(program, work)
    system = gen_constraints(program, ctx)
    return build_env(program, work, ctx, system)


def node(env, name):
    for n in env.graph.nodes:
        if str(n) == name:
            return n
    raise KeyError(name)


def range_sat(lo, hi):
    """A satisfiability oracle for a known true range."""
    def sat(wl, wu):
        return wl <= hi + 1e-9 and wu >= lo - 1e-9
    return sat


class TestSearchPrimitives:
    def test_make_sat_steps_up_to_first_window(self):
        sat = range_sat(*ROADS_EXACT)
        w = make_sat(sat, ROADS_APPROX[0], 0.05, True)
        assert w == pytest.approx((0.338, 0.388), abs=1e-12)

    def test_make_sat_steps_down_to_first_window(self):
        sat = range_sat(*ROADS_EXACT)
        w = make_sat(sat, ROADS_APPROX[1], 0.05, False)
        assert w == pytest.approx((0.367424, 0.417424), abs=1e-12)

    def test_make_sat_keeps_satisfiable_start(self):
        sat = range_sat(0.2, 0.5)
        w = make_sat(sat, 0.3, 0.05, True)
        assert w == pytest.approx((0.3 - 1e-9, 0.3 + 1e-9))

    def test_make_sat_budget(self):
        with pytest.raises(BudgetExceeded):
            make_sat(lambda a, b: False, 0.0, 0.25, True)

    def test_binary_search_lower_keeps_low_side(self):
        sat = range_sat(*ROADS_EXACT)
        lo, hi = binary_search(sat, 0.288 + 0.05, 0.288 + 2 * 0.05, 0.05, True)
        assert (lo, hi) == pytest.approx((0.338, 0.363), abs=1e-9)
        assert lo <= ROADS_EXACT[0] <= hi

    def test_binary_search_upper_keeps_high_side(self):
        sat = range_sat(*ROADS_EXACT)
        lo, hi = binary_search(sat, 0.467424 - 2 * 0.05, 0.467424 - 0.05,
                               0.05, False)
        assert (lo, hi) == pytest.approx((0.392424, 0.417424), abs=1e-9)
        assert lo <= ROADS_EXACT[1] <= hi

    def test_bound_bounds_brackets_both_endpoints(self):
        sat = range_sat(*ROADS_EXACT)
        br = bound_bounds(sat, ROADS_APPROX[0], ROADS_APPROX[1], 0.05)
        assert br.l_lo <= ROADS_EXACT[0] <= br.l_hi
        assert br.u_lo <= ROADS_EXACT[1] <= br.u_hi

    def test_far_first_window_rehalves_step(self):
        sat = range_sat(0.9, 0.95)
        br = bound_bounds(sat, 0.0, 1.0, 0.01)
        assert br.l_hi - br.l_lo == pytest.approx(1.0 / 32.0)
        assert br.l_lo <= 0.9 <= br.l_hi


class TestCutSystem:
    def test_roads_cut_groups(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        cut = build_cut_system(env, m, node(env, "path(1,7)"))
        assert not cut.identity
        assert {str(a) for a in cut.leaves} == \
            {"path(1,5)", "path(1,6)", "edge(5,7)", "edge(6,7)"}
        sizes = sorted(len(c.members) for c in cut.system.classes)
        assert sizes == [1, 1, 2]
        pair = next(c for c in cut.system.classes if len(c.members) == 2)
        assert {str(a) for a in pair.members} == {"path(1,5)", "path(1,6)"}
        assert any(">= 0.1296" in line for line in pair.pretty)

    def test_roads_cut_range(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        chk = SatChecker(env, node(env, "path(1,7)"), m)
        assert chk.used_cut
        assert chk._cut_range == pytest.approx((0.3384, 0.467424), abs=1e-9)

    def test_cut_range_contains_exact_range(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        chk = SatChecker(env, node(env, "path(1,7)"), m)
        cut_lo, cut_hi = chk._cut_range
        assert cut_lo <= ROADS_EXACT[0] + 1e-9
        assert cut_hi >= ROADS_EXACT[1] - 1e-9

    def test_cut_unsat_answers_before_switch(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        chk = SatChecker(env, node(env, "path(1,7)"), m)
        assert not chk.switched
        assert not chk.sat(0.30, 0.33)
        assert not chk.switched
        assert chk.sat(0.35, 0.36)
        assert chk.switched

    def test_depth_one_root_gets_identity_cut(self):
        env = env_for("0.5 :: a. 0.5 :: b. q :- a, b. query(q).")
        m = approx_bounds(env)
        cut = build_cut_system(env, m, node(env, "q"))
        assert cut.identity


class TestRefineRoads:
    def test_delta_05_matches_pinned_trace(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        out = refine_output(env, node(env, "path(1,7)"), m, 0.05)
        assert out.interval.lo == pytest.approx(ROADS_DELTA_05[0], abs=1e-9)
        assert out.interval.hi == pytest.approx(ROADS_DELTA_05[1], abs=1e-9)
        assert "soundness_only" not in out.flags
        assert "cut" in out.flags

    def test_delta_05_bracket_contains_truth(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        out = refine_output(env, node(env, "path(1,7)"), m, 0.05)
        assert out.bracket.l_lo <= ROADS_EXACT[0] <= out.bracket.l_hi
        assert out.bracket.u_lo <= ROADS_EXACT[1] <= out.bracket.u_hi

    def test_delta_01_is_within_delta_of_exact(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        out = refine_output(env, node(env, "path(1,7)"), m, 0.01)
        assert out.interval.lo <= ROADS_EXACT[0] + 1e-9
        assert out.interval.hi >= ROADS_EXACT[1] - 1e-9
        assert ROADS_EXACT[0] - out.interval.lo <= 0.01 + 1e-9
        assert out.interval.hi - ROADS_EXACT[1] <= 0.01 + 1e-9

    def test_delta_one_keeps_approx_interval(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        out = refine_output(env, node(env, "path(1,7)"), m, 1.0)
        assert out.interval.lo == pytest.approx(ROADS_APPROX[0], abs=1e-9)
        assert out.interval.hi == pytest.approx(ROADS_APPROX[1], abs=1e-9)

    def test_point_legs_stay_points(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        for name in ["path(1,5)", "path(1,6)"]:
            out = refine_output(env, node(env, name), m, 0.05)
            assert out.interval.lo == pytest.approx(0.36, abs=1e-9)
            assert out.interval.hi == pytest.approx(0.36, abs=1e-9)


class TestRefineSmallPrograms:
    def test_conditional_pins_conjunction(self):
        env = env_for("0.7 :: a. 0.5 :: b | a. q :- a, b. query(q).")
        m = approx_bounds(env)
        out = refine_output(env, node(env, "q"), m, 0.02)
        assert out.interval.lo <= 0.35 + 1e-9 <= out.interval.hi + 0.02
        assert out.interval.hi >= 0.35 - 1e-9
        assert 0.35 - out.interval.lo <= 0.02 + 1e-9
        assert out.interval.hi - 0.35 <= 0.02 + 1e-9

    def test_negation_point(self):
        env = env_for("0.55 :: x. y :- \\+x. query(y).")
        m = approx_bounds(env)
        out = refine_output(env, node(env, "y"), m, 0.05)
        assert out.interval.lo == pytest.approx(0.45, abs=1e-9)
        assert out.interval.hi == pytest.approx(0.45, abs=1e-9)

    def test_refined_inside_approx(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        for n in ["path(1,7)", "path(1,5)"]:
            out = refine_output(env, node(env, n), m, 0.03)
            iv = m[node(env, n)]
            assert out.interval.lo >= iv.lo - 1e-12
            assert out.interval.hi <= iv.hi + 1e-12


class TestSoundnessFallback:
    def _wide_program(self):
        facts = "\n".join(f"0.5 :: a{i}." for i in range(1, 14))
        corr = "\n".join(f"corr(a{i}, a{i + 1})." for i in range(1, 13))
        return f"{facts}\n{corr}\nh :- a1, a2.\nquery(h)."

    def test_large_class_degrades_to_approx(self):
        env = env_for(self._wide_program())
        m = approx_bounds(env)
        h = node(env, "h")
        out = refine_output(env, h, m, 0.05)
        assert "soundness_only" in out.flags
        assert out.interval.lo == pytest.approx(m[h].lo, abs=1e-9)
        assert out.interval.hi == pytest.approx(m[h].hi, abs=1e-9)

    def test_large_class_is_fast_and_never_switches(self):
        env = env_for(self._wide_program())
        m = approx_bounds(env)
        chk = SatChecker(env, node(env, "h"), m)
        assert "soundness_only" in chk.flags
        assert chk.sat(m[node(env, "h")].lo, 1.0)
        assert not chk.sat(-0.5, -0.3)


class TestDeltaValidation:
    def test_nonpositive_delta_rejected(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        with pytest.raises(ValueError):
            make_delta_precise(env, m, [node(env, "path(1,7)")], 0.0)
