"""Exact rational reference implementations used only by the test suite."""

from fractions import Fraction
from itertools import combinations

import numpy as np


def _reduce(mat, width):
    """In-place Gauss-Jordan over Fractions; returns pivot row count."""
    row = 0
    for col in range(width):
        pivot = None
        for i in range(row, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        mat[row] = [v / pv for v in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[row])]
        row += 1
    return row


def rational_rank(rows):
    mat = [[Fraction(v) for v in r] for r in rows]
    return _reduce(mat, len(rows[0]))


def _solve_cols(a, b, cols):
    m = len(a)
    r = len(cols)
    mat = [[a[i][c] for c in cols] + [b[i]] for i in range(m)]
    row = 0
    for col in range(r):
        pivot = None
        for i in range(row, m):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return None  # dependent columns
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        mat[row] = [v / pv for v in mat[row]]
        for i in range(m):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[row])]
        row += 1
    for i in range(row, m):
        if mat[i][r] != 0:
            return None  # inconsistent
    return [mat[i][r] for i in range(r)]


def rational_vertices(rows, rhs):
    """All vertices of {x >= 0 : A x = b}, exactly, as sorted tuples."""
    a = [[Fraction(v) for v in r] for r in rows]
    b = [Fraction(v) for v in rhs]
    d = len(a[0])
    r = rational_rank(rows)
    verts = set()
    for cols in combinations(range(d), r):
        sol = _solve_cols(a, b, cols)
        if sol is None:
            continue
        if any(v < 0 for v in sol):
            continue
        x = [Fraction(0)] * d
        for c, v in zip(cols, sol):
            x[c] = v
        if all(sum(a[i][j] * x[j] for j in range(d)) == b[i]
               for i in range(len(a))):
            verts.add(tuple(x))
    return sorted(verts)


def assert_same_rows(got, want, atol):
    """Two vertex sets are equal up to atol, in whatever row order.

    Each row of either set must have a row of the other within atol (max
    norm), so neither set holds a vertex the other lacks.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    dist = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    assert dist.min(axis=1).max() <= atol
    assert dist.min(axis=0).max() <= atol
