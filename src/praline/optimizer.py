"""Optimization of multilinear objectives over products of class polytopes.

The objective generated for a derived fact is multilinear in the joint
distributions of the correlation classes it depends on.  A multilinear
function over a product of polytopes attains its extrema at products of
polytope vertices (Rikun 1997), so the exact optimum is a finite search
over each class polytope's vertices.

Each term reads a class only through one cell sum: the mass of the
assignments its (mask, value) pattern holds.  So the search works from
what the objective reads.  Each class's vertex rows are projected onto the
distinct patterns its terms fix there (one matmul against a cached 0/1
pattern matrix), and a template indexed by pattern, each term's lambda at
its tuple of patterns, is contracted with those projections.  A class
whose terms fix more patterns than it has assignments keeps its
assignments as columns, so no contraction is larger than the dense one
over full assignments.  For a fixed choice in the other classes the
objective is affine in a class's cell sums; a class read through at most
one pattern besides the free one (whose sum is 1) therefore keeps only the
rows where that pattern's sum is least and greatest.  `GLOBAL_COMBO_CAP`
counts the product of the rows kept.

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
from praline.symexpr import ProbExpr, cell_index, coeff_eval

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


@lru_cache(maxsize=256)
def _pattern_matrix(size: int, patterns: tuple[tuple[int, int], ...]
                    ) -> np.ndarray:
    """0/1 matrix of a size-member class: entry (b, j) is 1 when assignment
    b lies in patterns[j], a (mask, value) pair.  Read-only, as it is shared.
    """
    mv = np.array(patterns, dtype=np.int64).reshape(-1, 2)
    b = np.arange(1 << size)[:, None]
    m = ((b & mv[:, 0]) == mv[:, 1]).astype(np.float64)
    m.flags.writeable = False
    return m


def optimize_exact(expr: ProbExpr, system: ConstraintSystem) -> OptResult:
    """Exact range of the expression over the feasible distributions.

    The range is clamped into [0, 1], where a probability lies, so the
    rounding of the sums cannot push it out (nor give -0.0).  The witnesses
    are rows of the classes' vertex sets.
    """
    if not expr.terms or not expr.support:
        v = coeff_eval(expr.terms.get((), {}), expr.ctx.var_prob)
        return OptResult(v, v, {}, {})
    verts = support_vertices(system, expr.support)
    sizes = [expr.ctx.classes[c].size for c in expr.support]
    # per class, the distinct patterns its terms read, each with its column
    cols: list[dict[tuple[int, int], int]] = [{} for _ in expr.support]
    for cell in expr.terms:
        for seen, pat in zip(cols, cell):
            seen.setdefault(pat, len(seen))
    # a class read through more patterns than it has assignments keeps its
    # assignments as columns
    dense = [len(seen) > 1 << n for seen, n in zip(cols, sizes)]
    ys, kept = [], []  # per class: columns at its kept rows, and those
    total = 1
    for vs, seen, n, by_assignment in zip(verts, cols, sizes, dense):
        y, rows = vs, range(len(vs))
        if not by_assignment:
            y = vs @ _pattern_matrix(n, tuple(seen))
            read = [j for (m, _), j in seen.items() if m]
            if len(read) <= 1 and len(vs) > 2:
                s = y[:, read[0] if read else 0]
                rows = sorted({int(s.argmin()), int(s.argmax())})
                y = y[rows]
        ys.append(y)
        kept.append(rows)
        total *= len(rows)
        if total > GLOBAL_COMBO_CAP:
            raise DimensionCapExceeded(f"{total}+ vertex combinations")
    # the template: np.ix_ only where some class keeps assignment columns,
    # as a term is one entry otherwise
    vals = np.zeros([y.shape[1] for y in ys])
    any_dense = any(dense)
    for cell, lam in expr.terms.items():
        v = coeff_eval(lam, expr.ctx.var_prob)
        if any_dense:
            vals[np.ix_(*(cell_index(n, *pat) if by_assignment
                          else [seen[pat]]
                          for pat, seen, n, by_assignment
                          in zip(cell, cols, sizes, dense)))] = v
        else:
            vals[tuple(seen[pat] for pat, seen in zip(cell, cols))] = v
    # contract the first axis with each class's columns in turn: the
    # result keeps one axis per class's rows, in support order
    for y in ys:
        vals = vals.reshape(y.shape[1], -1).T @ y.T
    vals = vals.ravel()
    i_lo, i_hi = int(vals.argmin()), int(vals.argmax())

    def witness(i):
        idx = np.unravel_index(i, [len(rows) for rows in kept])
        return {c: verts[k][kept[k][idx[k]]]
                for k, c in enumerate(expr.support)}

    lo, hi = float(vals[i_lo]), float(vals[i_hi])
    return OptResult(lo if lo > 0.0 else 0.0, min(hi, 1.0),
                     witness(i_lo), witness(i_hi))
