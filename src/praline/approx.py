"""Approximate probability bounds from correlation types.

One topological pass over the derivation graph assigns every node an
interval guaranteed to contain its probability under every feasible joint
distribution.  Leaves get exact marginal ranges from their class polytopes,
read by each `ClassSystem` off a declared marginal or its vertex set, and
from HiGHS only for a class past the vertex enumeration caps;
conjunctions and disjunctions combine operand intervals with the bound
matching the correlation type between the operands.  All combinators are
monotone, so interval endpoints combine endpoint-wise.

Nodes whose every supporting class is pinned to a single distribution get
their exact point probability instead: with no correlation freedom left
the program behaves like a fully specified independent one, and interval
combinators would only blur that.
"""

from __future__ import annotations

from dataclasses import dataclass

from praline.corrtypes import (
    CorrEnv,
    CorrType,
    DepSig,
    _marginal_range,
    infer_expr_pair,
)
from praline.frontend import Atom, DimensionCapExceeded
from praline.symexpr import eval_expr, gen_objective


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __str__(self) -> str:
        return f"[{self.lo:.6g}, {self.hi:.6g}]"


def conj_bound(t: CorrType, e1: float, e2: float, upper: bool) -> float:
    if upper:
        if t in (CorrType.POS, CorrType.UNKNOWN):
            return min(e1, e2)
        return e1 * e2
    if t in (CorrType.POS, CorrType.INDEP):
        return e1 * e2
    return max(e1 + e2 - 1.0, 0.0)


def disj_bound(t: CorrType, e1: float, e2: float, upper: bool) -> float:
    if upper:
        if t in (CorrType.POS, CorrType.INDEP):
            return 1.0 - (1.0 - e1) * (1.0 - e2)
        return min(1.0, e1 + e2)
    if t in (CorrType.POS, CorrType.UNKNOWN):
        return max(e1, e2)
    return 1.0 - (1.0 - e1) * (1.0 - e2)


def combine(op: str, t: CorrType, a: Interval, b: Interval) -> Interval:
    bound = conj_bound if op == "and" else disj_bound
    lo = bound(t, a.lo, b.lo, False)
    # The two ends come from different formulas (e.g. max(e1, e2) below and
    # 1-(1-e1)(1-e2) above), which agree in exact arithmetic at a point
    # interval but may round an ulp apart; widening hi keeps lo <= hi.
    return Interval(lo, max(lo, bound(t, a.hi, b.hi, True)))


def _negate(x: tuple[Interval, DepSig]) -> tuple[Interval, DepSig]:
    iv, (dp, dn) = x
    return Interval(1.0 - iv.hi, 1.0 - iv.lo), (dn, dp)


PINNED_TOL = 1e-12


def _pinned_value(env: CorrEnv, node: Atom, sig: DepSig):
    """Exact probability when every class under the node is pinned.

    Fully determined inputs leave no correlation freedom, so the node's
    probability is a single number; evaluating its symbolic expression at
    the unique per-class distributions recovers it.  The fully specified
    independent case thereby reduces to plain weighted model counting
    instead of interval widening across shared subterms.
    """
    classes = {env.ctx.fact_bit[f][0] for part in sig for f in part}
    dists = [None] * len(env.ctx.classes)
    for cpos in classes:
        verts = env.system.classes[cpos].vertices()
        if verts is None or len(verts) != 1:
            return None
        dists[cpos] = verts[0]
    try:
        obj = gen_objective(env.graph, env.ctx, node, env._exprs)
    except DimensionCapExceeded:
        return None
    return min(1.0, max(0.0, eval_expr(obj, dists)))


def _fold(env: CorrEnv, op: str, parts, assume_unknown: bool
          ) -> tuple[Interval, DepSig]:
    acc_iv, acc_sig = parts[0]
    for iv, sig in parts[1:]:
        t = infer_expr_pair(env, acc_sig, sig)
        if assume_unknown and t is not CorrType.INDEP:
            t = CorrType.UNKNOWN
        acc_iv = combine(op, t, acc_iv, iv)
        acc_sig = (acc_sig[0] | sig[0], acc_sig[1] | sig[1])
    return acc_iv, acc_sig


def approx_bounds(env: CorrEnv, assume_unknown: bool = False
                  ) -> dict[Atom, Interval]:
    """Sound probability interval for every node of the acyclic graph.

    With assume_unknown the correlation sign analysis is disabled: every
    pair that is not independent by class structure combines with the
    worst-case bound.
    """
    graph = env.graph
    out: dict[Atom, tuple[Interval, DepSig]] = {}
    for n in graph.topo_order():
        base = graph.as_input(n)
        parts = []
        if base is not None:
            lo, hi = _marginal_range(env, base)
            parts.append((Interval(lo, hi),
                          (frozenset([base]), frozenset())))
        for ei in graph.in_edges.get(n, []):
            e = graph.edges[ei]
            lits = [out[a] for a in e.pos] + [_negate(out[a]) for a in e.neg]
            iv, sig = _fold(env, "and", lits, assume_unknown)
            if e.prob < 1.0:
                iv = Interval(e.prob * iv.lo, e.prob * iv.hi)
            parts.append((iv, sig))
        if not parts:
            raise ValueError(f"node {n} has no derivation")
        out[n] = _fold(env, "or", parts, assume_unknown)
        iv, sig = out[n]
        if not assume_unknown and iv.hi - iv.lo > PINNED_TOL:
            value = _pinned_value(env, n, sig)
            if value is not None:
                out[n] = (Interval(value, value), sig)
    return {n: iv for n, (iv, _) in out.items()}
