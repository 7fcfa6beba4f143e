"""Iterative refinement of approximate bounds toward delta-exact answers.

The approximate pass gives a sound but possibly loose interval for each
output.  This module tightens it with the paper's delta-exact search: a
satisfiability oracle answers whether the output's probability can fall
inside a small window, a stepping search brackets each true endpoint
between an unsatisfiable and a satisfiable window, and bisection narrows
the bracket below delta.  The oracle reads one range per output, computed
once: the exact range over the feasible distributions, or the approximate
interval when the exact range is out of reach.
"""

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .frontend import Atom, BudgetExceeded, DimensionCapExceeded
from .symexpr import gen_objective
from .optimizer import optimize_exact, support_vertices
from .corrtypes import CorrEnv, dep_sig
from .corrtypes import node_pair  # noqa: F401  read only by perfbench/spans.py
from .approx import Interval

log = logging.getLogger("praline")

SAT_TOL = 1e-9
INIT_WINDOW = 1e-9

# perfbench/spans.py wraps this name; nothing in the library calls it
build_cut_system = None

SatFn = Callable[[float, float], bool]


@dataclass
class BoundBracket:
    """Windows pinning each true endpoint: l in [l_lo, l_hi], u in [u_lo, u_hi]."""

    l_lo: float
    l_hi: float
    u_lo: float
    u_hi: float


@dataclass
class RefineOutcome:
    interval: Interval
    flags: tuple
    bracket: Optional[BoundBracket] = None
    # why the exact range was out of reach, when it was
    reason: Optional[str] = None


def _overlap(wl: float, wu: float, lo: float, hi: float) -> bool:
    return wl <= hi + SAT_TOL and wu >= lo - SAT_TOL


def make_sat(sat: SatFn, start: float, eps: float, is_lower: bool
             ) -> tuple[float, float]:
    """First satisfiable window stepping away from an unsatisfiable start.

    The start is probed as a degenerate window widened by a hair on both
    sides; if that is already satisfiable it is returned unchanged.
    Otherwise windows of width eps march upward (lower bounds) or downward
    (upper bounds) until one is satisfiable.
    """
    if eps <= 0.0:
        raise ValueError("step size must be positive")
    w = (start - INIT_WINDOW, start + INIT_WINDOW)
    if sat(*w):
        return w
    limit = math.ceil(1.0 / eps) + 1
    for k in range(limit):
        if is_lower:
            w = (start + k * eps, start + (k + 1) * eps)
        else:
            w = (start - (k + 1) * eps, start - k * eps)
        if sat(*w):
            return w
    raise BudgetExceeded(
        f"no satisfiable window within {limit} steps of {start:.6g}; "
        "the bounds machinery is inconsistent")


def bound_bounds(sat: SatFn, lo: float, hi: float, delta: float
                 ) -> BoundBracket:
    """Bracket both true endpoints starting from the approximate interval.

    The step is delta or a sixteenth of the interval width, whichever is
    larger; when the first satisfiable window lands more than four delta
    from the start the search reruns once with half the step for a tighter
    bracket.
    """
    eps = max(delta, (hi - lo) / 16.0)
    wl = make_sat(sat, lo, eps, True)
    if wl[0] - lo > 4.0 * delta:
        wl = make_sat(sat, lo, eps / 2.0, True)
    wu = make_sat(sat, hi, eps, False)
    if hi - wu[1] > 4.0 * delta:
        wu = make_sat(sat, hi, eps / 2.0, False)
    return BoundBracket(wl[0], wl[1], wu[0], wu[1])


def binary_search(sat: SatFn, lo: float, hi: float, delta: float,
                  is_lower: bool) -> tuple[float, float]:
    """Shrink a bracket below delta, keeping the endpoint inside it."""
    for _ in range(200):
        if hi - lo < delta:
            break
        mid = 0.5 * (lo + hi)
        if is_lower:
            if sat(lo, mid):
                hi = mid
            else:
                lo = mid
        else:
            if sat(mid, hi):
                lo = mid
            else:
                hi = mid
    return lo, hi


def _dep_classes(env: CorrEnv, out: Atom) -> tuple[int, ...]:
    """Positions of the classes an output depends on: its objective's support."""
    pos, neg = dep_sig(env, out)
    return tuple(sorted({env.ctx.fact_bit[f][0] for f in pos | neg}))


def _exact_range(env: CorrEnv, out: Atom) -> tuple[float, float]:
    """Exact range of one output over the feasible distributions.

    Every class the output depends on is checked for vertex enumeration
    before the objective is built, so an out-of-reach class costs no
    objective.  Raises DimensionCapExceeded when the range is out of reach.
    """
    support_vertices(env.system, _dep_classes(env, out))
    obj = gen_objective(env.graph, env.ctx, out)
    res = optimize_exact(obj, env.system)
    return res.lo, res.hi


def exact_or_approx(env: CorrEnv, out: Atom,
                    approx_map: Callable[[], dict], mode: str
                    ) -> tuple[tuple[float, float], Optional[str]]:
    """One output's exact range, or its approximate interval out of reach.

    Returns the range and, when it is the approximate interval, the cap's
    message as the reason (None for an exact range).  approx_map is called
    only on that fallback, so a caller can run the approx pass lazily; mode
    names the bounds in the logged warning.
    """
    try:
        return _exact_range(env, out), None
    except DimensionCapExceeded as exc:
        log.warning("%s bounds for %s unavailable (%s), "
                    "reporting approximate interval", mode, out, exc)
        iv = approx_map()[out]
        return (iv.lo, iv.hi), str(exc)


class SatChecker:
    """Window satisfiability for one output, read off one cached range.

    The range is the output's exact range over the feasible distributions,
    computed once when the checker is built, and a window is satisfiable
    exactly when it overlaps that range.  When the exact range is out of
    reach (a class defeating vertex enumeration, an objective template or a
    vertex product capping out) the range is the output's approximate
    interval and the checker is flagged soundness_only, with the cap's
    message as its reason: every answer stays sound, but refinement cannot
    tighten anything.
    """

    def __init__(self, env: CorrEnv, out: Atom, approx_map: dict):
        self.iv = approx_map[out]
        self.range, self.reason = exact_or_approx(
            env, out, lambda: approx_map, "delta")
        self.flags = set() if self.reason is None else {"soundness_only"}

    def sat(self, wl: float, wu: float) -> bool:
        return _overlap(wl, wu, *self.range)


def refine_output(env: CorrEnv, out: Atom, approx_map: dict, delta: float
                  ) -> RefineOutcome:
    """Delta-precise interval for one output, clamped into its approx interval."""
    checker = SatChecker(env, out, approx_map)
    iv = checker.iv
    bracket = bound_bounds(checker.sat, iv.lo, iv.hi, delta)
    l_lo, l_hi = binary_search(checker.sat, bracket.l_lo, bracket.l_hi,
                               delta, True)
    u_lo, u_hi = binary_search(checker.sat, bracket.u_lo, bracket.u_hi,
                               delta, False)
    bracket = BoundBracket(l_lo, l_hi, u_lo, u_hi)
    lo = min(max(bracket.l_lo, iv.lo), iv.hi)
    hi = max(min(bracket.u_hi, iv.hi), lo)
    return RefineOutcome(Interval(lo, hi), tuple(sorted(checker.flags)),
                         bracket, checker.reason)


def make_delta_precise(env: CorrEnv, approx_map: dict, outputs: list,
                       delta: float) -> dict:
    """Refine every output to a delta-precise interval, one after another.

    Each output gets its own satisfiability checker.  Each class system
    enumerates its vertices once and keeps them, so later outputs reuse the
    class vertices that earlier ones enumerated.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return {out: refine_output(env, out, approx_map, delta)
            for out in outputs}
