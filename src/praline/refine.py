"""Iterative refinement of approximate bounds toward delta-exact answers.

The approximate pass gives a sound but possibly loose interval for each
output.  This module tightens it: a satisfiability oracle answers whether
the output's probability can fall inside a small window, a stepping search
brackets each true endpoint between an unsatisfiable and a satisfiable
window, and bisection narrows the bracket below delta.  Windows are checked
against a relaxed cut system first (cheap, sound for UNSAT answers) and
against the full constraint system once a window is satisfiable.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .frontend import Atom, BudgetExceeded, DimensionCapExceeded
from .grounder import DerivationGraph
from .symexpr import context_from_groups, gen_objective
from .constraints import ClassSystem, ConstraintSystem, class_range
from .optimizer import _dense_template, optimize_exact
from .corrtypes import CorrEnv, CorrType, _class_vertices, dep_sig, node_pair
from .approx import Interval

SAT_TOL = 1e-9
INIT_WINDOW = 1e-9
POINT_TOL = 1e-12
DEFAULT_CUT_CAP = 1 << 12
MAX_GROW_STEPS = 128

SatFn = Callable[[float, float], bool]


@dataclass
class BoundBracket:
    """Windows pinning each true endpoint: l in [l_lo, l_hi], u in [u_lo, u_hi]."""

    l_lo: float
    l_hi: float
    u_lo: float
    u_hi: float


@dataclass
class CutSystem:
    """A relaxed constraint system over a cut through the derivation graph.

    Leaves are graph nodes treated as atomic facts; groups of leaves that can
    be correlated share a joint distribution, and the group polytopes carry
    interval rows from the approximate bounds plus linearized correlation
    type rows.  Every feasible input distribution pushes forward to a
    feasible point here, so an unsatisfiable window stays unsatisfiable in
    the full system.  identity means no useful cut existed and the full
    system should be used directly.
    """

    root: Atom
    identity: bool
    ctx: object
    system: ConstraintSystem
    leaves: list = field(default_factory=list)


@dataclass
class RefineOutcome:
    interval: Interval
    flags: tuple
    bracket: Optional[BoundBracket] = None


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


def _cone_events(graph: DerivationGraph) -> dict:
    """Event variables occurring anywhere in each node's derivation cone."""
    memo = {}
    for root in graph.nodes:
        if root in memo:
            continue
        stack = [(root, False)]
        while stack:
            n, expanded = stack.pop()
            if n in memo:
                continue
            eis = graph.in_edges.get(n, [])
            if not expanded:
                stack.append((n, True))
                for ei in eis:
                    for b in graph.edges[ei].bodies():
                        if b not in memo:
                            stack.append((b, False))
                continue
            acc = set()
            for ei in eis:
                e = graph.edges[ei]
                v = graph.event_var.get(e.rule_id)
                if v is not None:
                    acc.add(v)
                for b in e.bodies():
                    acc |= memo[b]
            memo[n] = frozenset(acc)
    return memo


def _descendants(graph: DerivationGraph, node: Atom, memo: dict) -> frozenset:
    """All strict descendants of a node (its derivation cone below it)."""
    stack = [(node, False)]
    while stack:
        n, expanded = stack.pop()
        if n in memo:
            continue
        eis = graph.in_edges.get(n, [])
        if not expanded:
            stack.append((n, True))
            for ei in eis:
                for b in graph.edges[ei].bodies():
                    if b not in memo:
                        stack.append((b, False))
            continue
        acc = set()
        for ei in eis:
            for b in graph.edges[ei].bodies():
                acc.add(b)
                acc |= memo[b]
        memo[n] = frozenset(acc)
    return memo[node]


def _frontier(graph: DerivationGraph, inner: list, inner_set: set) -> list:
    leaves, seen = [], set()
    for n in inner:
        for ei in graph.in_edges.get(n, []):
            for b in graph.edges[ei].bodies():
                if b not in inner_set and b not in seen:
                    seen.add(b)
                    leaves.append(b)
    return leaves


def _group_leaves(env: CorrEnv, cone: dict, leaves: list) -> list:
    """Partition leaves so that any two possibly dependent ones share a group.

    Two leaves land in one group when their derivations touch a common
    correlation class or a common rule event; leaves in different groups are
    then functions of disjoint independent inputs, so their joint
    distribution factorizes across groups.
    """
    parent = list(range(len(leaves)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    owner = {}
    for i, a in enumerate(leaves):
        pos, neg = dep_sig(env, a)
        keys = set()
        for f in pos | neg:
            keys.add(("c", env.ctx.fact_bit[f][0]))
        for v in cone.get(a, ()):
            keys.add(("e", v))
        for k in keys:
            if k in owner:
                union(owner[k], i)
            else:
                owner[k] = i
    groups = {}
    for i, a in enumerate(leaves):
        groups.setdefault(find(i), []).append(a)
    node_index = {a: k for k, a in enumerate(env.graph.nodes)}
    out = []
    for members in groups.values():
        out.append(sorted(members, key=lambda a: node_index[a]))
    out.sort(key=lambda g: node_index[g[0]])
    return out


def _sel_row(dim: int, bits: list) -> np.ndarray:
    row = np.zeros(dim)
    for i in range(dim):
        if all(i >> b & 1 for b in bits):
            row[i] = 1.0
    return row


def _build_groups(env: CorrEnv, approx_map: dict, groups: list, leaves: list,
                  root: Atom) -> CutSystem:
    ctx2 = context_from_groups(groups, env.graph)
    classes = []
    for gi, members in enumerate(groups):
        k = len(members)
        dim = 1 << k
        a_eq, b_eq = [np.ones(dim)], [1.0]
        a_ub, b_ub = [], []
        pretty = [f"sum of G{gi + 1} = 1"]
        ivs = [approx_map[m] for m in members]
        rows = [_sel_row(dim, [b]) for b in range(k)]
        for b, m in enumerate(members):
            lo, hi = ivs[b].lo, ivs[b].hi
            if hi - lo <= POINT_TOL:
                a_eq.append(rows[b])
                b_eq.append(lo)
                pretty.append(f"P({m}) = {lo:.6g}")
            else:
                a_ub.append(rows[b])
                b_ub.append(hi)
                a_ub.append(-rows[b])
                b_ub.append(-lo)
                pretty.append(f"{lo:.6g} <= P({m}) <= {hi:.6g}")
        for i in range(k):
            for j in range(i + 1, k):
                t = node_pair(env, members[i], members[j])
                jrow = _sel_row(dim, [i, j])
                li, ui = ivs[i].lo, ivs[i].hi
                lj, uj = ivs[j].lo, ivs[j].hi
                if t is CorrType.POS:
                    a_ub.append(-jrow)
                    b_ub.append(-(li * lj))
                    pretty.append(
                        f"P({members[i]}, {members[j]}) >= {li * lj:.6g}")
                elif t is CorrType.NEG:
                    a_ub.append(jrow)
                    b_ub.append(ui * uj)
                    pretty.append(
                        f"P({members[i]}, {members[j]}) <= {ui * uj:.6g}")
                elif t is CorrType.INDEP:
                    if ui - li <= POINT_TOL:
                        a_eq.append(jrow - li * rows[j])
                        b_eq.append(0.0)
                    elif uj - lj <= POINT_TOL:
                        a_eq.append(jrow - lj * rows[i])
                        b_eq.append(0.0)
        classes.append(ClassSystem(
            f"G{gi + 1}", tuple(members),
            np.array(a_eq), np.array(b_eq),
            np.array(a_ub) if a_ub else None,
            np.array(b_ub) if b_ub else None,
            pretty))
    system2 = ConstraintSystem(classes, dict(env.ctx.var_prob))
    return CutSystem(root, False, ctx2, system2, leaves)


def build_cut_system(env: CorrEnv, approx_map: dict, root: Atom
                     ) -> CutSystem:
    """A sound relaxation over a cut separating the root from the inputs.

    Starting just below the root, the cut descends greedily while its joint
    dimension exceeds the cap or while a rule event is shared across the
    cut, absorbing the widest group's leaves first.  Only leaves not
    reachable from other leaves may be absorbed, so no node ends up both
    expanded above the cut and hidden inside another leaf.  When no proper
    cut works the identity cut (the inputs themselves) is returned and the
    caller falls back to the full system.
    """
    graph = env.graph
    identity = CutSystem(root, True, env.ctx, env.system,
                         list(graph.input_facts))
    if not graph.in_edges.get(root):
        return identity
    cone = _cone_events(graph)
    desc_memo = {}
    inner, inner_set = [root], {root}
    for _ in range(MAX_GROW_STEPS):
        leaves = _frontier(graph, inner, inner_set)
        if all(not graph.in_edges.get(a) for a in leaves):
            return identity
        blocked = set()
        for b in leaves:
            blocked |= _descendants(graph, b, desc_memo)

        def absorbable(a):
            return graph.in_edges.get(a) and a not in blocked

        above = set()
        for n in inner:
            for ei in graph.in_edges.get(n, []):
                v = graph.event_var.get(graph.edges[ei].rule_id)
                if v is not None:
                    above.add(v)
        shared = [a for a in leaves if cone.get(a) and cone[a] & above]
        if shared:
            target = next((a for a in shared if absorbable(a)), None)
            if target is None:
                return identity
            inner.append(target)
            inner_set.add(target)
            continue
        groups = _group_leaves(env, cone, leaves)
        if sum(1 << len(g) for g in groups) <= DEFAULT_CUT_CAP:
            return _build_groups(env, approx_map, groups, leaves, root)
        target = None
        for g in sorted(groups, key=len, reverse=True):
            target = next((a for a in g if absorbable(a)), None)
            if target is not None:
                break
        if target is None:
            return identity
        inner.append(target)
        inner_set.add(target)
    return identity


class SatChecker:
    """Window satisfiability for one output.

    Answers whether the output's probability can lie inside [wl, wu] under
    some feasible input distribution.  Checks run against the cut system
    until its first satisfiable answer, then switch to the full system and
    re-check the window there; cut answers over-approximate, so only their
    UNSAT verdicts are final.  When the full system is out of reach (an
    objective template or a vertex enumeration capping out) the checker
    degrades to the output's own approximate interval, which keeps
    every answer sound but cannot tighten anything.
    """

    def __init__(self, env: CorrEnv, out: Atom, approx_map: dict):
        self.env = env
        self.out = out
        self.iv = approx_map[out]
        self.flags = set()
        self.switched = False
        self.used_cut = False
        self._exact = None
        self._cut_range = None
        self._obj = None
        try:
            self._obj = gen_objective(env.graph, env.ctx, out)
        except DimensionCapExceeded:
            self._degrade("objective template too large")
            return
        for c in self._obj.support:
            if _class_vertices(env, c) is None:
                label = env.system.classes[c].label
                self._degrade(f"class {label} defeats vertex enumeration")
                return
        cut = build_cut_system(env, approx_map, out)
        if not cut.identity:
            r = self._range_of(cut)
            if r is not None:
                self._cut_range = r
                self.used_cut = True
        if self._cut_range is None:
            self.switched = True

    def _degrade(self, why: str):
        self.flags.add("soundness_only")
        self._why = why
        self.switched = True

    def _range_of(self, cut: CutSystem) -> Optional[tuple[float, float]]:
        try:
            obj = gen_objective(self.env.graph, cut.ctx, self.out)
        except DimensionCapExceeded:
            return None
        try:
            res = optimize_exact(obj, cut.system)
            return res.lo, res.hi
        except DimensionCapExceeded:
            pass
        except ValueError:
            return None
        if len(obj.support) == 1:
            row = _dense_template(obj, cut.system.var_prob)
            cs = cut.system.classes[obj.support[0]]
            try:
                return class_range(cs, row)
            except ValueError:
                return None
        return None

    def _exact_range(self) -> Optional[tuple[float, float]]:
        if self._exact is None and "soundness_only" not in self.flags:
            try:
                res = optimize_exact(self._obj, self.env.system,
                                     self.env._verts)
                self._exact = (res.lo, res.hi)
            except DimensionCapExceeded:
                self._degrade("vertex product exceeds the combination cap")
        return self._exact

    def sat(self, wl: float, wu: float) -> bool:
        if not self.switched:
            lo, hi = self._cut_range
            if not _overlap(wl, wu, lo, hi):
                return False
            self.switched = True
        if "soundness_only" in self.flags:
            return _overlap(wl, wu, self.iv.lo, self.iv.hi)
        r = self._exact_range()
        if r is None:
            return _overlap(wl, wu, self.iv.lo, self.iv.hi)
        return _overlap(wl, wu, r[0], r[1])


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
    flags = set(checker.flags)
    if checker.used_cut:
        flags.add("cut")
    return RefineOutcome(Interval(lo, hi), tuple(sorted(flags)), bracket)


def make_delta_precise(env: CorrEnv, approx_map: dict, outputs: list,
                       delta: float) -> dict:
    """Refine every output to a delta-precise interval, one after another.

    Each output gets its own satisfiability checker; the checkers share the
    environment's memo tables, so later outputs reuse the class vertices
    and correlation verdicts that earlier ones computed.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return {out: refine_output(env, out, approx_map, delta)
            for out in outputs}
