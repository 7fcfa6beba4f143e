"""Exact rational reference implementations used only by the test suite."""

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from praline import optimizer
from praline.frontend import Atom, DimensionCapExceeded, is_var
from praline.grounder import DerivationGraph, Hyperedge
from praline.symexpr import (
    coeff_add,
    coeff_eval,
    coeff_joint,
    coeff_neg,
    coeff_one,
    coeff_scale,
)


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


def dense_range(expr, system):
    """An objective's range over every product of its classes' vertices,
    from its dense template: its value at every class assignment of the
    support, contracted with every vertex of each class in turn.

    The reference for `optimizer.optimize_exact`, which contracts only the
    cell sums the terms read.  Raises DimensionCapExceeded when the full
    vertex product passes `optimizer.GLOBAL_COMBO_CAP`, read at the call so
    that a test can raise it.
    """
    if not expr.support:
        v = coeff_eval(expr.terms.get((), {}), expr.ctx.var_prob)
        return v, v
    verts = optimizer.support_vertices(system, expr.support)
    total = 1
    for vs in verts:
        total *= len(vs)
        if total > optimizer.GLOBAL_COMBO_CAP:
            raise DimensionCapExceeded(f"{total}+ vertex combinations")
    vals = np.zeros([1 << expr.ctx.classes[c].size for c in expr.support])
    for cell, lam in expr.terms.items():
        vals[np.ix_(*expr.indices(cell))] = coeff_eval(lam, expr.ctx.var_prob)
    for vs in verts:
        vals = np.tensordot(vals, vs, axes=([0], [1]))
    return float(vals.min()), float(vals.max())


# -- the per-assignment expression algebra ----------------------------------
#
# symexpr keys terms by cells; the reference below keys them by full class
# assignments, as a dense template does, and returns (support, terms) with
# terms mapping each assignment tuple to its coefficient.


def dense_terms(e):
    """A cell expression spelled out: assignment tuple -> coefficient."""
    out = {}
    for cell, lam in e.terms.items():
        for psi in product(*(idx.tolist() for idx in e.indices(cell))):
            out[psi] = lam
    return out


def _dense_lift(e, support):
    """e's assignments over a wider support: each repeated for every
    assignment of the classes e lacks."""
    pos_of = {c: i for i, c in enumerate(e.support)}
    ranges = [range(1 << e.ctx.classes[c].size)
              for c in support if c not in pos_of]
    terms = {}
    for psi, lam in dense_terms(e).items():
        for fills in product(*ranges):
            fill_iter = iter(fills)
            terms[tuple(psi[pos_of[c]] if c in pos_of else next(fill_iter)
                        for c in support)] = lam
    return terms


def _union(a, b):
    return tuple(sorted(set(a.support) | set(b.support)))


def dense_mul(a, b):
    """The conjunction per assignment: the joint of both coefficients."""
    support = _union(a, b)
    ta, tb = _dense_lift(a, support), _dense_lift(b, support)
    terms = {}
    for psi, lam in ta.items():
        lam2 = tb.get(psi)
        if lam2 is None:
            continue
        j = coeff_joint(lam, lam2)
        if j:
            terms[psi] = j
    return support, terms


def dense_add(a, b):
    """The disjunction per assignment: a + b - joint(a, b) where both are."""
    support = _union(a, b)
    terms = _dense_lift(a, support)
    for psi, lam in _dense_lift(b, support).items():
        cur = terms.get(psi)
        if cur is None:
            terms[psi] = lam
            continue
        s = coeff_add(coeff_add(cur, lam),
                      coeff_scale(coeff_joint(cur, lam), -1))
        if s:
            terms[psi] = s
        else:
            del terms[psi]
    return support, terms


def dense_neg(e):
    """1 minus e on every assignment of its support's template."""
    terms = {}
    lams = dense_terms(e)
    ranges = [range(1 << e.ctx.classes[c].size) for c in e.support]
    for psi in product(*ranges):
        lam = lams.get(psi)
        out = coeff_neg(lam) if lam else coeff_one()
        if out:
            terms[psi] = out
    return e.support, terms


def unify(pattern, atom, s):
    """s extended to make pattern equal atom, as a new dict, or None."""
    if (pattern.functor, len(pattern.args)) != (atom.functor, len(atom.args)):
        return None
    s = dict(s)
    for p, a in zip(pattern.args, atom.args):
        if is_var(p):
            if s.setdefault(p, a) != a:
                return None
        elif p != a:
            return None
    return s


def substitute(atom, s):
    return Atom(atom.functor,
                tuple(s.get(a, a) if is_var(a) else a for a in atom.args))


def _ordered_join(pos, by_pred, s, k=0, pinned=(-1, None)):
    """Substitutions grounding pos[k:], literal by literal.

    Each literal meets the atoms of its predicate in insertion order, except
    that pos[pinned[0]] meets only the atom pinned[1].
    """
    if k == len(pos):
        yield s
        return
    lit = pos[k]
    cands = ([pinned[1]] if k == pinned[0]
             else by_pred.get((lit.functor, len(lit.args)), []))
    for a in cands:
        s2 = unify(lit, a, s)
        if s2 is not None:
            yield from _ordered_join(pos, by_pred, s2, k + 1, pinned)


def reference_ground(program):
    """The derivation graph by two passes over the rules.

    One semi-naive fixpoint over every rule, negation ignored, computes the
    model; then every rule is joined again over the final model, rule by
    rule and each literal's atoms in the order the fixpoint found them, and
    the first firing of each ground rule is its edge.  Events are numbered
    by rule index, then by the substitution sorted by variable, integer
    constants before names.
    """
    model = {}
    by_pred = {}

    def add(a):
        if a in model:
            return False
        model[a] = None
        by_pred.setdefault((a.functor, len(a.args)), []).append(a)
        return True

    for f in program.input_facts:
        add(f)
    rules = [(r, [l.atom for l in r.body if not l.negated])
             for r in program.rules]
    delta = list(model)
    for r, pos in rules:
        if not pos and add(r.head):
            delta.append(r.head)
    while delta:
        new = {}
        for d in delta:
            new.setdefault((d.functor, len(d.args)), []).append(d)
        found = {}
        for r, pos in rules:
            for j, lit in enumerate(pos):
                for d in new.get((lit.functor, len(lit.args)), ()):
                    for s in _ordered_join(pos, by_pred, {}, 0, (j, d)):
                        found.setdefault(substitute(r.head, s))
        delta = [a for a in found if add(a)]

    firings = {}  # (rule index, sorted substitution) -> its first grounding
    for i, r in enumerate(program.rules):
        pos = [l.atom for l in r.body if not l.negated]
        neg = [l.atom for l in r.body if l.negated]
        for s in _ordered_join(pos, by_pred, {}):
            firings.setdefault((i, tuple(sorted(s.items()))), (
                substitute(r.head, s), tuple(substitute(a, s) for a in pos),
                tuple(n for a in neg if (n := substitute(a, s)) in model),
                r.prob))
    uncertain = sorted(
        (key for key, f in firings.items() if f[3] < 1.0),
        key=lambda key: (key[0], [(v, isinstance(t, str), t)
                                  for v, t in key[1]]))
    event = {key: n for n, key in enumerate(uncertain, 1)}
    edges = [Hyperedge(*f, event.get(key, 0)) for key, f in firings.items()]
    return DerivationGraph(edges, program.input_facts, None)
