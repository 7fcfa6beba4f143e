import logging

import numpy as np
import pytest

from praline import parse
from praline.approx import approx_bounds
from praline.cli import solve_source
from praline.constraints import gen_constraints
from praline.corrtypes import build_env
from praline.frontend import BudgetExceeded
from praline.grounder import break_cycles, solve_standard
from praline.refine import (
    BoundBracket,
    SatChecker,
    _dep_classes,
    binary_search,
    bound_bounds,
    make_delta_precise,
    make_sat,
    refine_output,
)
from praline.symexpr import context_from_program, gen_objective

from conftest import (
    ROADS,
    ROADS_APPROX,
    ROADS_DELTA_05,
    ROADS_EXACT,
    SIXPACK,
    random_program_source,
)

# ROADS with each last-leg edge in a 6-fact class: the two classes are each
# enumerable, but their vertex product passes the global combination cap
ROADS_PADDED = ROADS + """\
0.5::u1.
corr(edge(5,7),u1,u2,u3,u4,u5).
0.5::v1.
corr(edge(6,7),v1,v2,v3,v4,v5).
"""


def env_for(src_or_program):
    program = src_or_program if not isinstance(src_or_program, str) \
        else parse(src_or_program)
    graph = solve_standard(program)
    work = graph if graph.acyclic else break_cycles(graph)
    ctx = context_from_program(program, work)
    system = gen_constraints(program, ctx)
    return build_env(work, ctx, system)


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


class TestRefineRoads:
    def test_delta_05_matches_pinned_trace(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        out = refine_output(env, node(env, "path(1,7)"), m, 0.05)
        assert out.interval.lo == pytest.approx(ROADS_DELTA_05[0], abs=1e-9)
        assert out.interval.hi == pytest.approx(ROADS_DELTA_05[1], abs=1e-9)
        assert "soundness_only" not in out.flags

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

    def test_large_class_builds_no_objective(self, monkeypatch):
        env = env_for(self._wide_program())
        m = approx_bounds(env)

        def no_objective(*args, **kwargs):
            raise AssertionError("objective built for an unenumerable class")

        monkeypatch.setattr("praline.refine.gen_objective", no_objective)
        chk = SatChecker(env, node(env, "h"), m)
        assert "soundness_only" in chk.flags

    def test_degradation_reason_is_logged(self, caplog):
        env = env_for(self._wide_program())
        m = approx_bounds(env)
        with caplog.at_level(logging.WARNING, logger="praline"):
            SatChecker(env, node(env, "h"), m)
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "praline"]
        assert len(msgs) == 1
        assert msgs[0].startswith("delta bounds for h unavailable")
        assert "class V defeats vertex enumeration" in msgs[0]

    def test_vertex_product_cap_reports_approx_interval(self):
        facts = {mode: solve_source(ROADS_PADDED, mode=mode, delta=0.05,
                                    queries=["path(1,7)"]).facts[0]
                 for mode in ("delta", "exact", "approx")}
        d = facts["delta"]
        assert d.mode == "soundness_only"
        assert d.flags == ["soundness_only"]
        assert facts["exact"].flags == ["soundness_only"]
        for mode in ("exact", "approx"):
            assert (d.lower, d.upper) == \
                (facts[mode].lower, facts[mode].upper)
        assert (d.lower, d.upper) == pytest.approx(ROADS_APPROX, abs=1e-9)


class TestDependencyClasses:
    def test_match_objective_support(self):
        sources = [ROADS, SIXPACK] + \
            [random_program_source(seed) for seed in range(30)]
        for src in sources:
            env = env_for(src)
            for n in env.graph.nodes:
                obj = gen_objective(env.graph, env.ctx, n)
                assert _dep_classes(env, n) == obj.support, (src, n)


class TestDeltaValidation:
    def test_nonpositive_delta_rejected(self, roads):
        env = env_for(roads)
        m = approx_bounds(env)
        with pytest.raises(ValueError):
            make_delta_precise(env, m, [node(env, "path(1,7)")], 0.0)
