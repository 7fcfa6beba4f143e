"""Correlation-type analysis between input facts and derived events.

Every pair gets one of four verdicts: positively correlated, negatively
correlated, independent, or unknown.  Definite verdicts must hold for every
feasible joint distribution, so they are proven against the class polytope:
the covariance of two same-class facts is a quadratic over the polytope,
and its range is bracketed from outside by a bilinear form evaluated on all
vertex pairs.  Facts in different classes are independent by construction.
Vertices and marginal ranges come from the class's `ClassSystem`, which
enumerates and memoizes them; this module keeps no copy.

Derived events inherit types from the input facts they depend on, with
polarity flips across negation; any mixed or undecidable pair degrades to
unknown, never to a wrong definite verdict.  Only facts of a class that
both events read are paired: facts of different classes are independent,
and an independent pair changes no verdict.

Both memos are keyed on the terms themselves, whose hashes are computed
once: fact verdicts on `(a, b)` atom pairs, event verdicts on
`(e1, e2)` dependency signatures.  Both verdicts are symmetric, so each
is stored under both orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from praline.constraints import ConstraintSystem
from praline.frontend import Atom
from praline.grounder import DerivationGraph, depends
# read only by perfbench/spans.py; vertices come from ClassSystem.vertices
from praline.optimizer import enumerate_class_vertices  # noqa: F401
from praline.symexpr import ExprContext

SIGN_TOL = 1e-7
INDEP_TOL = 1e-9
EXPR_PAIR_BUDGET = 100_000

# (positive deps, negative deps) of an event over ground input facts
DepSig = tuple[frozenset, frozenset]


class CorrType(Enum):
    POS = "+"
    NEG = "-"
    INDEP = "independent"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


@dataclass
class CorrEnv:
    graph: DerivationGraph
    ctx: ExprContext
    system: ConstraintSystem
    dep_pos: dict[Atom, frozenset]
    dep_neg: dict[Atom, frozenset]
    lookups: int = 0
    budget: int = EXPR_PAIR_BUDGET
    _fact_memo: dict = field(default_factory=dict)
    _expr_memo: dict = field(default_factory=dict)
    _exprs: dict = field(default_factory=dict)


def build_env(graph: DerivationGraph, ctx: ExprContext,
              system: ConstraintSystem) -> CorrEnv:
    dep_pos, dep_neg = depends(graph)
    return CorrEnv(graph, ctx, system, dep_pos, dep_neg)


def dep_sig(env: CorrEnv, node: Atom) -> DepSig:
    return env.dep_pos.get(node, frozenset()), \
        env.dep_neg.get(node, frozenset())


def _marginal_range(env: CorrEnv, fact: Atom) -> tuple[float, float]:
    """Exact range of P(fact) over its non-empty class polytope."""
    cpos, bit = env.ctx.fact_bit[fact]
    return env.system.classes[cpos].marginal_range(bit)


def _is_constant(env: CorrEnv, fact: Atom) -> bool:
    lo, hi = _marginal_range(env, fact)
    return hi <= INDEP_TOL or lo >= 1.0 - INDEP_TOL


def infer_input_pair(env: CorrEnv, a: Atom, b: Atom) -> CorrType:
    """Correlation type of two ground input facts."""
    verdict = env._fact_memo.get((a, b))
    if verdict is None:
        verdict = _input_pair(env, a, b)
        env._fact_memo[a, b] = env._fact_memo[b, a] = verdict
    return verdict


def _input_pair(env: CorrEnv, a: Atom, b: Atom) -> CorrType:
    if _is_constant(env, a) or _is_constant(env, b):
        return CorrType.INDEP
    if a == b:
        lo, hi = _marginal_range(env, a)
        if lo > SIGN_TOL and hi < 1.0 - SIGN_TOL:
            return CorrType.POS
        return CorrType.UNKNOWN
    ca, bit_a = env.ctx.fact_bit[a]
    cb, bit_b = env.ctx.fact_bit[b]
    if ca != cb:
        return CorrType.INDEP
    verts = env.system.classes[ca].vertices()
    if verts is None:
        return CorrType.UNKNOWN
    dim = verts.shape[1]
    idx = np.arange(dim)
    sa = ((idx >> bit_a) & 1).astype(np.float64)
    sb = ((idx >> bit_b) & 1).astype(np.float64)
    sab = sa * sb
    u1 = verts @ sa
    u2 = verts @ sb
    w = verts @ sab
    # covariance over the polytope, bracketed by the bilinear form on
    # vertex pairs: cov(V) equals the diagonal of this form
    pair = 0.5 * (w[:, None] + w[None, :]) \
        - 0.5 * (np.outer(u1, u2) + np.outer(u2, u1))
    bm, bmx = float(pair.min()), float(pair.max())
    diag = w - u1 * u2
    if bm > SIGN_TOL:
        verdict = CorrType.POS if diag.min() > 0 else CorrType.UNKNOWN
    elif bmx < -SIGN_TOL:
        verdict = CorrType.NEG if diag.max() < 0 else CorrType.UNKNOWN
    elif bm >= -INDEP_TOL and bmx <= INDEP_TOL:
        verdict = CorrType.INDEP \
            if np.abs(diag).max() <= INDEP_TOL else CorrType.UNKNOWN
    else:
        verdict = CorrType.UNKNOWN
    return verdict


def _signs(sig: DepSig, fact: Atom) -> tuple[int, ...]:
    out = []
    if fact in sig[0]:
        out.append(1)
    if fact in sig[1]:
        out.append(-1)
    return tuple(out)


def _by_class(env: CorrEnv, sig: DepSig) -> dict[int, list[Atom]]:
    """The input facts an event depends on, grouped by class."""
    groups: dict[int, list[Atom]] = {}
    for f in sig[0] | sig[1]:
        groups.setdefault(env.ctx.fact_bit[f][0], []).append(f)
    return groups


def _chi(groups: dict[int, list[Atom]]) -> bool:
    """All dependencies in pairwise distinct classes."""
    return all(len(facts) == 1 for facts in groups.values())


def infer_expr_pair(env: CorrEnv, e1: DepSig, e2: DepSig) -> CorrType:
    """Correlation type of two derived events given their dependency sets."""
    verdict = env._expr_memo.get((e1, e2))
    if verdict is not None:
        return verdict
    if env.lookups >= env.budget:
        return CorrType.UNKNOWN
    env.lookups += 1
    verdict = _expr_pair(env, e1, e2)
    env._expr_memo[e1, e2] = env._expr_memo[e2, e1] = verdict
    return verdict


def _expr_pair(env: CorrEnv, e1: DepSig, e2: DepSig) -> CorrType:
    groups1 = _by_class(env, e1)
    groups2 = _by_class(env, e2)
    may_pos = False
    may_neg = False
    all_indep = True
    for cls, xs in groups1.items():
        ys = groups2.get(cls)
        if ys is None:
            continue
        for x in xs:
            for y in ys:
                t = infer_input_pair(env, x, y)
                if t is CorrType.INDEP:
                    continue
                all_indep = False
                if t is CorrType.UNKNOWN:
                    may_pos = may_neg = True
                    continue
                for sx in _signs(e1, x):
                    for sy in _signs(e2, y):
                        aligned = sx * sy > 0
                        if (t is CorrType.POS) == aligned:
                            may_pos = True
                        else:
                            may_neg = True
    if all_indep:
        return CorrType.INDEP
    if not (_chi(groups1) and _chi(groups2)):
        return CorrType.UNKNOWN
    if may_pos and not may_neg:
        return CorrType.POS
    if may_neg and not may_pos:
        return CorrType.NEG
    return CorrType.UNKNOWN


def node_pair(env: CorrEnv, n1: Atom, n2: Atom) -> CorrType:
    """Correlation type of two graph nodes."""
    return infer_expr_pair(env, dep_sig(env, n1), dep_sig(env, n2))
