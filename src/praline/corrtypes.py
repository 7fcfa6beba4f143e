"""Correlation-type analysis between input facts and derived events.

Every pair gets one of four verdicts: positively correlated, negatively
correlated, independent, or unknown.  Definite verdicts must hold for every
feasible joint distribution, so they are proven against the class polytope:
the covariance of two same-class facts is a quadratic over the polytope,
and its range is bracketed from outside by a bilinear form evaluated on all
vertex pairs.  Facts in different classes are independent by construction.

Derived events inherit types from the input facts they depend on, with
polarity flips across negation; any mixed or undecidable pair degrades to
unknown, never to a wrong definite verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from praline.constraints import ConstraintSystem, class_range, marginal_row
from praline.frontend import Atom, DimensionCapExceeded, Program
from praline.grounder import DerivationGraph, depends
from praline.optimizer import enumerate_class_vertices
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
    program: Program
    graph: DerivationGraph
    ctx: ExprContext
    system: ConstraintSystem
    dep_pos: dict[Atom, frozenset]
    dep_neg: dict[Atom, frozenset]
    # fact -> p of its declared marginal p::fact.
    marginals: dict[Atom, float] = field(default_factory=dict)
    lookups: int = 0
    budget: int = EXPR_PAIR_BUDGET
    _verts: dict = field(default_factory=dict)
    _ranges: dict = field(default_factory=dict)
    _fact_memo: dict = field(default_factory=dict)
    _expr_memo: dict = field(default_factory=dict)
    _pinned: dict = field(default_factory=dict)
    _exprs: dict = field(default_factory=dict)


def build_env(program: Program, graph: DerivationGraph, ctx: ExprContext,
              system: ConstraintSystem) -> CorrEnv:
    dep_pos, dep_neg = depends(graph)
    marginals = {d.head: d.prob for d in program.input_probs if d.is_marginal}
    return CorrEnv(program, graph, ctx, system, dep_pos, dep_neg, marginals)


def dep_sig(env: CorrEnv, node: Atom) -> DepSig:
    return env.dep_pos.get(node, frozenset()), \
        env.dep_neg.get(node, frozenset())


def _marginal_range(env: CorrEnv, fact: Atom) -> tuple[float, float]:
    """Exact range of P(fact) over its class polytope, which must be non-empty.

    A declared marginal p::fact. is one of the polytope's equalities, so
    its range is [p, p] with no LP; a class too big for rows has none.
    """
    if fact not in env._ranges:
        cs = env.system.classes[env.ctx.fact_bit[fact][0]]
        p = env.marginals.get(fact)
        if p is not None and not cs.too_big:
            env._ranges[fact] = (p, p)
        else:
            env._ranges[fact] = class_range(cs, marginal_row(env.ctx, fact)[1])
    return env._ranges[fact]


def _class_vertices(env: CorrEnv, cpos: int) -> Optional[np.ndarray]:
    if cpos not in env._verts:
        try:
            env._verts[cpos] = enumerate_class_vertices(
                env.system.classes[cpos])
        except (DimensionCapExceeded, ValueError):
            env._verts[cpos] = None
    return env._verts[cpos]


def _is_constant(env: CorrEnv, fact: Atom) -> bool:
    lo, hi = _marginal_range(env, fact)
    return hi <= INDEP_TOL or lo >= 1.0 - INDEP_TOL


def infer_input_pair(env: CorrEnv, a: Atom, b: Atom) -> CorrType:
    """Correlation type of two ground input facts."""
    key = (a, b) if str(a) <= str(b) else (b, a)
    if key in env._fact_memo:
        return env._fact_memo[key]
    verdict = _input_pair(env, a, b)
    env._fact_memo[key] = verdict
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
    verts = _class_vertices(env, ca)
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


def _chi(env: CorrEnv, sig: DepSig) -> bool:
    """All dependencies in pairwise distinct classes."""
    deps = sig[0] | sig[1]
    classes = [env.ctx.fact_bit[f][0] for f in deps]
    return len(classes) == len(set(classes))


def _canon(sig: DepSig) -> tuple:
    return (tuple(sorted(map(str, sig[0]))), tuple(sorted(map(str, sig[1]))))


def infer_expr_pair(env: CorrEnv, e1: DepSig, e2: DepSig) -> CorrType:
    """Correlation type of two derived events given their dependency sets."""
    k1, k2 = _canon(e1), _canon(e2)
    key = (k1, k2) if k1 <= k2 else (k2, k1)
    if key in env._expr_memo:
        return env._expr_memo[key]
    if env.lookups >= env.budget:
        return CorrType.UNKNOWN
    env.lookups += 1
    verdict = _expr_pair(env, e1, e2)
    env._expr_memo[key] = verdict
    return verdict


def _expr_pair(env: CorrEnv, e1: DepSig, e2: DepSig) -> CorrType:
    deps1 = e1[0] | e1[1]
    deps2 = e2[0] | e2[1]
    may_pos = False
    may_neg = False
    all_indep = True
    for x in deps1:
        for y in deps2:
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
    if not (_chi(env, e1) and _chi(env, e2)):
        return CorrType.UNKNOWN
    if may_pos and not may_neg:
        return CorrType.POS
    if may_neg and not may_pos:
        return CorrType.NEG
    return CorrType.UNKNOWN


def node_pair(env: CorrEnv, n1: Atom, n2: Atom) -> CorrType:
    """Correlation type of two graph nodes."""
    return infer_expr_pair(env, dep_sig(env, n1), dep_sig(env, n2))
