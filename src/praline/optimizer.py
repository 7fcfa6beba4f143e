"""Optimization of multilinear objectives over products of class polytopes.

The objective generated for a derived fact is multilinear in the joint
distributions of the correlation classes it depends on.  A multilinear
function over a product of polytopes attains its extrema at products of
polytope vertices, so the exact optimum is a finite search: take each
class polytope's vertices and scan all combinations by tensor contraction.

Vertex enumeration lives here; each `ClassSystem` calls it once and keeps
the result, which its ranges, feasible point and this search all read.  It
takes one SVD per class, which gives both the rank and an equivalent system
with orthonormal rows, and then solves every basis of that system as one
square linear system, a chunk of bases per batched solve
(`kernels.solve_supports`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from praline.frontend import DimensionCapExceeded
from praline.kernels import solve_supports
from praline.symexpr import ProbExpr, coeff_eval

if TYPE_CHECKING:
    from praline.constraints import ClassSystem, ConstraintSystem

VERTEX_DIM_CAP = 64
SUPPORT_COMBO_CAP = 200_000
GLOBAL_COMBO_CAP = 1_000_000
RESIDUAL_TOL = 1e-8
_EPS = np.finfo(np.float64).eps


def linprog(*args, **kwargs):
    """scipy's `linprog`, imported on the first call.

    Importing scipy.optimize takes most of praline's start-up time, and only
    a class past the vertex enumeration caps needs an LP, so a solve that
    needs none never imports it.  `constraints.ClassSystem` calls it through
    its own module global, so a wrapper set there sees every LP.
    """
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


@dataclass
class OptResult:
    lo: float
    hi: float
    arg_lo: dict[int, np.ndarray]
    arg_hi: dict[int, np.ndarray]


def enumerate_class_vertices(cs: ClassSystem) -> np.ndarray:
    """All vertices of one class polytope, deduplicated; no rows if it is empty.

    The polytope is {x >= 0 : a_eq x = b_eq}, so its vertices are the basic
    feasible solutions of the equality system.  One SVD a_eq = U diag(s) V^T
    gives the rank r, the count of singular values above `matrix_rank`'s
    tolerance, and the equivalent system W x = c of r orthonormal rows,
    W = V^T[:r] and c = U[:, :r]^T b_eq / s[:r].  Every basis of r columns
    is then one square solve; a singular one is skipped, and every vertex
    still shows up through one of its nonsingular bases.  A solution counts
    only if it satisfies a_eq x = b_eq itself and is nonnegative.
    Solutions that agree to 9 decimals are one vertex (see `unique_rows`).
    Raises DimensionCapExceeded for a class past a cap.
    """
    if cs.too_big or cs.dim > VERTEX_DIM_CAP:
        raise DimensionCapExceeded(
            f"class {cs.label} too large for vertex enumeration")
    a, b = cs.a_eq, cs.b_eq
    d = a.shape[1]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    r = int(np.count_nonzero(s > s[0] * max(a.shape) * _EPS))
    if comb(d, r) > SUPPORT_COMBO_CAP:
        raise DimensionCapExceeded(
            f"{comb(d, r)} support subsets for class {cs.label}")
    combos = _supports(d, r)
    ys, ok = solve_supports(vt[:r], (u[:, :r].T @ b) / s[:r], combos)
    xs = np.zeros((combos.shape[0], d))
    xs[np.arange(combos.shape[0])[:, None], combos] = ys
    keep = ok.copy()
    keep &= np.abs(a @ xs.T - b[:, None]).max(axis=0) <= RESIDUAL_TOL
    keep &= xs.min(axis=1) >= -1e-9
    return unique_rows(np.clip(xs[keep], 0.0, 1.0))


@lru_cache(maxsize=64)
def _supports(d: int, r: int) -> np.ndarray:
    """Every r-subset of range(d) as a row, in lexicographic order.

    Shared by every class of d columns and rank r, so it is read-only.
    """
    combos = np.array(list(itertools.combinations(range(d), r)),
                      dtype=np.int64)
    combos.flags.writeable = False
    return combos


def unique_rows(xs: np.ndarray) -> np.ndarray:
    """The rows of xs that differ when rounded to 9 decimals.

    Each group of rows equal after rounding is kept as its first row,
    unrounded, and the groups come in lexicographic order of their rounded
    values: the rows `np.unique(np.round(xs, 9), axis=0,
    return_index=True)` indexes, from one stable sort.
    """
    key = np.round(xs, 9)
    order = np.lexsort(key.T[::-1])
    key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    return xs[order[first]]


def _dense_template(expr: ProbExpr) -> np.ndarray:
    """The objective's value at every class assignment of its support."""
    dims = tuple(1 << expr.ctx.classes[c].size for c in expr.support)
    t = np.zeros(dims if dims else (1,))
    for cell, lam in expr.terms.items():
        t[np.ix_(*expr.indices(cell))] = coeff_eval(lam, expr.ctx.var_prob)
    return t


def support_vertices(system: ConstraintSystem, support) -> list[np.ndarray]:
    """Vertex set of each class in support.

    Raises DimensionCapExceeded when one of them has none to offer.
    """
    verts = []
    for c in support:
        vs = system.classes[c].vertices()
        if vs is None:
            raise DimensionCapExceeded(
                f"class {system.classes[c].label} defeats vertex "
                "enumeration")
        verts.append(vs)
    return verts


def optimize_exact(expr: ProbExpr, system: ConstraintSystem) -> OptResult:
    """Exact range of the expression over the feasible distributions."""
    if not expr.support:
        v = coeff_eval(expr.terms.get((), {}), expr.ctx.var_prob)
        return OptResult(v, v, {}, {})
    verts = support_vertices(system, expr.support)
    total = 1
    for vs in verts:
        total *= len(vs)
        if total > GLOBAL_COMBO_CAP:
            raise DimensionCapExceeded(f"{total}+ vertex combinations")
    vals = _dense_template(expr)
    for vs in verts:
        vals = np.tensordot(vals, vs, axes=([0], [1]))
    lo_idx = np.unravel_index(np.argmin(vals), vals.shape)
    hi_idx = np.unravel_index(np.argmax(vals), vals.shape)
    arg_lo = {c: verts[k][lo_idx[k]] for k, c in enumerate(expr.support)}
    arg_hi = {c: verts[k][hi_idx[k]] for k, c in enumerate(expr.support)}
    return OptResult(float(vals[lo_idx]), float(vals[hi_idx]),
                     arg_lo, arg_hi)
