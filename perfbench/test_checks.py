"""The output checks must catch wrong answers.

    python3 -m pytest -q perfbench/test_checks.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from checks import Solve, check_case, sample_probs  # noqa: E402
from workloads import (ROADS_APPROX, ROADS_EXACT,  # noqa: E402
                       random_case_source, small_batch_cases)


def fact(lo, hi, flags=()):
    return {"lower": lo, "upper": hi, "flags": list(flags)}


def solve(facts, code=0, stdout=""):
    return Solve(code, stdout, facts, 0.0)


def case_named(name):
    return next(c for c in small_batch_cases(0, count=0) if c.name == name)


def roads_solves(exact=ROADS_EXACT, approx=ROADS_APPROX):
    return {
        "approx": solve({"path(1,7)": fact(*approx)}),
        "exact": solve({"path(1,7)": fact(*exact)}),
        "delta": solve({"path(1,7)": fact(exact[0] - 0.005,
                                          exact[1] + 0.005)}),
    }


def test_goldens_pass_and_a_wrong_golden_fails():
    roads = case_named("roads")
    assert check_case(roads, roads_solves()) == []
    wrong = (ROADS_EXACT[0] + 0.01, ROADS_EXACT[1])
    bad = check_case(roads, roads_solves(exact=wrong))
    assert any("golden" in msg and modes == ("exact",) for modes, msg in bad)


def test_interval_shifted_off_the_sampled_probabilities_fails():
    src = random_case_source(0, 0)
    samples = sample_probs(src, 20, 0)
    assert samples
    case = small_batch_cases(0, count=1)[-1]
    tight = {a: fact(float(p.min()), float(p.max()))
             for a, p in samples.items()}
    assert check_case(case, {"approx": solve(tight)}, samples) == []
    shifted = {a: fact(min(1.0, f["lower"] + 0.2), min(1.0, f["upper"] + 0.2))
               for a, f in tight.items()}
    bad = check_case(case, {"approx": solve(shifted)}, samples)
    assert bad and all("sampled P" in msg for _, msg in bad)


def test_infeasible_program_must_say_no_solution():
    conflict = case_named("conflict")
    ok = {"delta": solve(None, code=1, stdout="No solution\n")}
    assert check_case(conflict, ok) == []
    assert check_case(conflict, {"delta": solve({}, code=0)})


def test_delta_beyond_its_precision_fails():
    roads = case_named("roads")
    solves = roads_solves()
    solves["delta"] = solve({"path(1,7)": fact(ROADS_EXACT[0] - 0.03,
                                               ROADS_EXACT[1])})
    bad = check_case(roads, solves)
    assert any("beyond" in msg for _, msg in bad)
