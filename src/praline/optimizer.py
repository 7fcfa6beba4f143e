"""Optimization of multilinear objectives over products of class polytopes.

The objective generated for a derived fact is multilinear in the joint
distributions of the correlation classes it depends on.  A multilinear
function over a product of polytopes attains its extrema at products of
polytope vertices, so the exact optimum is a finite search: enumerate each
class polytope's vertices and scan all combinations by tensor contraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np
from scipy.optimize import linprog  # noqa: F401  perfbench/spans.py patches it

from praline.constraints import ClassSystem, ConstraintSystem
from praline.frontend import DimensionCapExceeded
from praline.kernels import solve_supports
from praline.symexpr import ProbExpr, coeff_eval

VERTEX_DIM_CAP = 64
SUPPORT_COMBO_CAP = 200_000
GLOBAL_COMBO_CAP = 1_000_000
RESIDUAL_TOL = 1e-8


@dataclass
class OptResult:
    lo: float
    hi: float
    arg_lo: dict[int, np.ndarray]
    arg_hi: dict[int, np.ndarray]


def enumerate_class_vertices(cs: ClassSystem, lane: Optional[str] = None
                             ) -> np.ndarray:
    """All vertices of one class polytope, deduplicated and sorted.

    The polytope is {x >= 0 : a_eq x = b_eq}, so its vertices are the basic
    feasible solutions of the equality system.  Rank-deficient column
    subsets are skipped on both lanes; every vertex still shows up through
    one of its full-rank bases.
    """
    if cs.too_big or cs.dim > VERTEX_DIM_CAP:
        raise DimensionCapExceeded(
            f"class {cs.label} too large for vertex enumeration")
    a, b = cs.a_eq, cs.b_eq
    d = a.shape[1]
    r = int(np.linalg.matrix_rank(a))
    if comb(d, r) > SUPPORT_COMBO_CAP:
        raise DimensionCapExceeded(
            f"{comb(d, r)} support subsets for class {cs.label}")
    combos = np.array(list(itertools.combinations(range(d), r)),
                      dtype=np.int64)
    ys, ok = solve_supports(a, b, combos, lane=lane)
    xs = np.zeros((combos.shape[0], d))
    np.put_along_axis(xs, combos, ys, axis=1)
    keep = ok.copy()
    keep &= np.abs(a @ xs.T - b[:, None]).max(axis=0) <= RESIDUAL_TOL
    keep &= xs.min(axis=1) >= -1e-9
    xs = np.clip(xs[keep], 0.0, 1.0)
    if not len(xs):
        raise ValueError(f"class {cs.label} polytope is empty")
    return np.unique(np.round(xs, 9), axis=0)


def _dense_template(expr: ProbExpr, var_prob: dict[int, float]) -> np.ndarray:
    dims = tuple(1 << expr.ctx.classes[c].size for c in expr.support)
    t = np.zeros(dims if dims else (1,))
    for psi, lam in expr.terms.items():
        idx = psi if psi else (0,)
        t[idx] = coeff_eval(lam, var_prob)
    return t


def optimize_exact(expr: ProbExpr, system: ConstraintSystem,
                   cache: Optional[dict] = None) -> OptResult:
    """Exact range of the expression over the feasible distributions."""
    if not expr.support:
        v = coeff_eval(expr.terms.get((), {}), system.var_prob)
        return OptResult(v, v, {}, {})
    verts = []
    for c in expr.support:
        if cache is not None and c in cache:
            if cache[c] is None:
                raise DimensionCapExceeded(
                    f"class {system.classes[c].label} defeats vertex "
                    "enumeration")
            verts.append(cache[c])
            continue
        vs = enumerate_class_vertices(system.classes[c])
        if cache is not None:
            cache[c] = vs
        verts.append(vs)
    total = 1
    for vs in verts:
        total *= len(vs)
        if total > GLOBAL_COMBO_CAP:
            raise DimensionCapExceeded(f"{total}+ vertex combinations")
    vals = _dense_template(expr, system.var_prob)
    for vs in verts:
        vals = np.tensordot(vals, vs, axes=([0], [1]))
    lo_idx = np.unravel_index(np.argmin(vals), vals.shape)
    hi_idx = np.unravel_index(np.argmax(vals), vals.shape)
    arg_lo = {c: verts[k][lo_idx[k]] for k, c in enumerate(expr.support)}
    arg_hi = {c: verts[k][hi_idx[k]] for k, c in enumerate(expr.support)}
    return OptResult(float(vals[lo_idx]), float(vals[hi_idx]),
                     arg_lo, arg_hi)
