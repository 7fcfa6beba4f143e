"""Symbolic probability expressions over joint class variables and rule events.

A probability expression is a sum of terms  lambda * psi.  psi is a cell:
one (mask, value) pair per correlation class of the support, holding the
assignments b with b & mask == value, so a term fixes only the bits its
derivations read; classes outside the support are summed out, which the
simplex constraint makes exact.  The cells of an expression are pairwise
disjoint, so each assignment takes the lambda of the one cell holding it,
or 0.  lambda is a signed sum of monomials over rule event variables r_i
and their complements (1 - r_i).

The algebra keeps everything canonical and exact:

  - a monomial is a pair of disjoint variable sets (P, N), meaning
    prod r_v for v in P times prod (1 - r_v) for v in N;
  - the joint of two monomials is their union, or 0 when some variable is
    required both fired and unfired (the derivations are incompatible);
  - an input fact is one cell; mul intersects every pair of cells and
    joins their lambdas (the events of independent subderivations);
  - add and neg take the common refinement of two cell sets: where both
    have a cell, add is inclusion-exclusion  a + b - joint(a, b)  and neg,
    the refinement against the constant 1, is 1 - lambda in complement
    form; a cell only one operand covers keeps its lambda.

A lambda goes through the operations a per-assignment algebra applies to
each assignment of its cell, in the same order, so expanded cells give
that algebra's coefficients monomial for monomial, and printed expressions
do not depend on how the cells fall.

Building is linear in the cells, not in the dense template over full
class assignments.  The optimizer reads each class through the cell sums
its terms fix, and spells out assignments only for a class read through
more patterns than it has assignments; eval_expr and expr_str spell them
out through one cached index per class and cell.  The one cap,
MAX_TEMPLATE, is a check per node in gen_objective on the dense template's
size.

Theorem-level: for expressions of two facts A and B, mul yields the
expression of P(A and B) and add the one of P(A or B), checked numerically
against world enumeration in the test suite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from praline.frontend import (
    Atom,
    CorrelationClass,
    DimensionCapExceeded,
    Program,
    format_bits,
)
from praline.grounder import DerivationGraph

# largest template (full class assignments over the support) a node's
# expression may have: the assignments the readers of its cells would fill
MAX_TEMPLATE = 2 ** 20

Cell = tuple[tuple[int, int], ...]  # (mask, value) per class of the support
Mono = tuple[frozenset, frozenset]
Coeff = dict[Mono, int]

_EMPTY: Mono = (frozenset(), frozenset())


def coeff_one() -> Coeff:
    return {_EMPTY: 1}


def joint_mono(a: Mono, b: Mono) -> Optional[Mono]:
    if (a[0] & b[1]) or (a[1] & b[0]):
        return None
    return (a[0] | b[0], a[1] | b[1])


def coeff_joint(a: Coeff, b: Coeff) -> Coeff:
    out: Coeff = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = joint_mono(ma, mb)
            if m is None:
                continue
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return out


def coeff_add(a: Coeff, b: Coeff) -> Coeff:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def coeff_scale(a: Coeff, k: int) -> Coeff:
    return {m: c * k for m, c in a.items()} if k else {}


def coeff_neg(a: Coeff) -> Coeff:
    """Canonical form of 1 - a.

    A single monomial with coefficient 1 expands into the orthogonal
    complement sum: flipping literal i while keeping the prefix satisfied,
    for example 1 - r1*r2 = (1 - r1) + r1*(1 - r2).  Anything else falls
    back to the signed difference.
    """
    if len(a) == 1:
        (mono, c), = a.items()
        if c == 1:
            lits = [(v, True) for v in sorted(mono[0])] + \
                   [(v, False) for v in sorted(mono[1])]
            out: Coeff = {}
            for i, (v, pos) in enumerate(lits):
                p = frozenset(w for w, q in lits[:i] if q) | (frozenset() if pos else {v})
                n = frozenset(w for w, q in lits[:i] if not q) | ({v} if pos else frozenset())
                out[(p, n)] = 1
            return out
    return coeff_add(coeff_one(), coeff_scale(a, -1))


def coeff_eval(a: Coeff, probs: dict[int, float]) -> float:
    total = 0.0
    for (p, n), c in a.items():
        v = float(c)
        for var in p:
            v *= probs[var]
        for var in n:
            v *= 1.0 - probs[var]
        total += v
    return total


def mono_str(mono: Mono, c: int) -> str:
    factors = [f"r{v}" for v in sorted(mono[0])]
    factors += [f"(1 - r{v})" for v in sorted(mono[1])]
    if abs(c) != 1 or not factors:
        factors.insert(0, str(abs(c)))
    return "*".join(factors)


def coeff_str(a: Coeff) -> str:
    if not a:
        return "0"
    parts = []
    for i, (m, c) in enumerate(a.items()):
        s = mono_str(m, c)
        if i == 0:
            parts.append(("-" if c < 0 else "") + s)
        else:
            parts.append(("- " if c < 0 else "+ ") + s)
    return " ".join(parts)


@dataclass
class ExprContext:
    """Names the classes and event variables expressions are built over."""

    classes: list[CorrelationClass]
    fact_bit: dict[Atom, tuple[int, int]]  # fact -> (class position, bit)
    var_prob: dict[int, float]

    def template_size(self, support: tuple[int, ...]) -> int:
        n = 1
        for c in support:
            n <<= self.classes[c].size
        return n


def context_from_program(program: Program, graph: DerivationGraph) -> ExprContext:
    return ExprContext(program.classes, program.fact_class,
                       {e.event: e.prob for e in graph.edges if e.event})


@functools.cache
def cell_index(size: int, mask: int, value: int) -> np.ndarray:
    """The assignments of a size-member class in one cell, ascending."""
    b = np.arange(1 << size)
    idx = b[b & mask == value]
    idx.flags.writeable = False  # shared by every reader of the cache
    return idx


@dataclass
class ProbExpr:
    """Sum of lambda * psi terms over disjoint cells of a fixed class support."""

    ctx: ExprContext
    support: tuple[int, ...]  # class positions, ascending
    terms: dict[Cell, Coeff] = field(default_factory=dict)

    def indices(self, cell: Cell) -> list[np.ndarray]:
        """The cell's assignments, one index array per class of the support."""
        return [cell_index(self.ctx.classes[c].size, m, v)
                for c, (m, v) in zip(self.support, cell)]


def expr_const(ctx: ExprContext, value: int) -> ProbExpr:
    terms = {(): coeff_one()} if value == 1 else {}
    return ProbExpr(ctx, (), terms)


def expr_of_input(ctx: ExprContext, fact: Atom) -> ProbExpr:
    """Coefficient 1 on the one cell where the fact's bit is set."""
    cpos, bit = ctx.fact_bit[fact]
    return ProbExpr(ctx, (cpos,), {((1 << bit, 1 << bit),): coeff_one()})


def _meet(c: Cell, d: Cell) -> Optional[Cell]:
    """The intersection of two cells over one support, None if empty."""
    out = []
    for (m1, v1), (m2, v2) in zip(c, d):
        if (v1 ^ v2) & m1 & m2:
            return None
        out.append((m1 | m2, v1 | v2))
    return tuple(out)


def _minus(c: Cell, d: Cell) -> list[Cell]:
    """c without d, as disjoint cells: one per bit that d fixes and c leaves
    free, holding the assignments of c that first disagree with d there."""
    if _meet(c, d) is None:
        return [c]
    out, cur = [], list(c)
    for k, (m2, v2) in enumerate(d):
        free = m2 & ~cur[k][0]
        while free:
            bit = free & -free
            free ^= bit
            m, v = cur[k]
            out.append((*cur[:k], (m | bit, v | (bit & ~v2)), *cur[k + 1:]))
            cur[k] = (m | bit, v | (bit & v2))
    return out


def _widen(e: ProbExpr, support: tuple[int, ...]) -> list[tuple[Cell, Coeff]]:
    """e's terms with cells over a wider support, free on the classes e lacks."""
    pos = {c: i for i, c in enumerate(e.support)}
    return [(tuple(cell[pos[c]] if c in pos else (0, 0) for c in support), lam)
            for cell, lam in e.terms.items()]


def _refine(a: ProbExpr, b: ProbExpr, both, alone: bool) -> ProbExpr:
    """Each intersection of a cell of a and one of b, with lambda
    both(lambda_a, lambda_b); with alone, also the rest of each operand's
    cells with its own lambda: the common refinement.  Drops empty lambdas."""
    support = tuple(sorted(set(a.support) | set(b.support)))
    cells_a, cells_b = _widen(a, support), _widen(b, support)
    terms: dict[Cell, Coeff] = {}
    for c, la in cells_a:
        for d, lb in cells_b:
            m = _meet(c, d)
            if m is not None and (lam := both(la, lb)):
                terms[m] = lam
    if alone:
        for cells, others in ((cells_a, cells_b), (cells_b, cells_a)):
            for c, lam in cells:
                rest = [c]
                for d, _ in others:
                    rest = [p for r in rest for p in _minus(r, d)]
                terms.update((p, lam) for p in rest)
    return ProbExpr(a.ctx, support, terms)


def mul(a: ProbExpr, b: ProbExpr) -> ProbExpr:
    """Expression of the conjunction: joint lambdas on cell intersections."""
    return _refine(a, b, coeff_joint, alone=False)


def add(a: ProbExpr, b: ProbExpr) -> ProbExpr:
    """Expression of the disjunction: a + b - joint(a, b) per cell."""
    return _refine(a, b, lambda la, lb: coeff_add(
        coeff_add(la, lb), coeff_scale(coeff_joint(la, lb), -1)), alone=True)


def neg(e: ProbExpr) -> ProbExpr:
    """Expression of 1 minus the operand, 1 where it has no cell."""
    return _refine(e, expr_const(e.ctx, 1),
                   lambda lam, one: coeff_neg(lam), alone=True)


def scale_event(e: ProbExpr, var: int) -> ProbExpr:
    """Multiply by one rule event variable."""
    mono: Coeff = {(frozenset((var,)), frozenset()): 1}
    terms = {}
    for cell, lam in e.terms.items():
        j = coeff_joint(lam, mono)
        if j:
            terms[cell] = j
    return ProbExpr(e.ctx, e.support, terms)


def gen_objective(graph: DerivationGraph, ctx: ExprContext, node: Atom,
                  memo: Optional[dict[Atom, ProbExpr]] = None) -> ProbExpr:
    """The probability expression of a node, bottom-up over its derivations.

    Leaves are the input facts known to the context.  A derived node is the
    fold of its hyperedges: each edge contributes its event variable times
    the product of its positive bodies' expressions and the negations of its
    negative bodies', and edges combine by inclusion-exclusion.  A node
    whose template exceeds MAX_TEMPLATE raises DimensionCapExceeded.
    """
    if memo is None:
        memo = {}
    if node in memo:
        return memo[node]

    order: list[Atom] = []
    seen: set[Atom] = set()
    stack: list[tuple[Atom, bool]] = [(node, False)]
    while stack:
        n, done = stack.pop()
        if done:
            order.append(n)
            continue
        if n in seen or n in memo:
            continue
        seen.add(n)
        stack.append((n, True))
        if _leaf_base(graph, ctx, n) is not None:
            continue
        for ei in graph.in_edges.get(n, ()):
            for b in graph.edges[ei].bodies():
                stack.append((b, False))

    for n in order:
        if n in memo:
            continue
        e = _node_expr(graph, ctx, n, memo)
        if ctx.template_size(e.support) > MAX_TEMPLATE:
            raise DimensionCapExceeded(
                f"expression template over classes {e.support} exceeds "
                f"{MAX_TEMPLATE} terms")
        memo[n] = e
    return memo[node]


def _leaf_base(graph: DerivationGraph, ctx: ExprContext, n: Atom) -> Optional[Atom]:
    """The fact whose input expression a leaf node reads, else None."""
    if n in ctx.fact_bit:
        # a hybrid input fact that is also derivable is expanded, with the
        # input added as one part of its disjunction
        return None if n in graph.in_edges else n
    base = graph.as_input(n)
    if base is not None and n not in graph.in_edges:
        return base
    return None


def _node_expr(graph: DerivationGraph, ctx: ExprContext, n: Atom,
               memo: dict[Atom, ProbExpr]) -> ProbExpr:
    leaf = _leaf_base(graph, ctx, n)
    if leaf is not None:
        if leaf not in ctx.fact_bit:
            raise DimensionCapExceeded(f"leaf {n} is outside the expression context")
        return expr_of_input(ctx, leaf)
    in_edges = graph.in_edges.get(n, ())

    parts: list[ProbExpr] = []
    base = graph.as_input(n)
    if base is not None and base in ctx.fact_bit:
        parts.append(expr_of_input(ctx, base))
    for ei in in_edges:
        e = graph.edges[ei]
        acc = expr_const(ctx, 1)
        for b in e.pos:
            acc = mul(acc, memo[b])
        for b in e.neg:
            acc = mul(acc, neg(memo[b]))
        if e.event:
            acc = scale_event(acc, e.event)
        parts.append(acc)
    if not parts:
        raise DimensionCapExceeded(f"node {n} has no derivations and is not a leaf")
    acc = parts[0]
    for p in parts[1:]:
        acc = add(acc, p)
    return acc


def eval_expr(e: ProbExpr, dists: list[np.ndarray],
              probs: Optional[dict[int, float]] = None) -> float:
    """Numeric value under per-class distributions and event probabilities."""
    if probs is None:
        probs = e.ctx.var_prob
    total = 0.0
    for cell, lam in e.terms.items():
        w = coeff_eval(lam, probs)
        for c, idx in zip(e.support, e.indices(cell)):
            w *= float(dists[c][idx].sum())
        total += w
    return total


def expr_str(e: ProbExpr) -> str:
    """Canonical rendering, used by the golden tests and --dump-exprs.

    Assignments print in template order, class bit 0 most significant; past
    64 assignments, those no cell holds are left out.
    """
    ctx = e.ctx
    if not e.support:
        lam = e.terms.get(())
        return coeff_str(lam) if lam else "0"
    owner: dict[tuple[int, ...], Coeff] = {}  # assignment -> its cell's lambda
    for cell, lam in e.terms.items():
        owner.update(dict.fromkeys(
            itertools.product(*(idx.tolist() for idx in e.indices(cell))), lam))
    sizes = [ctx.classes[c].size for c in e.support]
    order = [sorted(range(1 << n), key=lambda b: format_bits(b, n))
             for n in sizes]
    full = ctx.template_size(e.support) <= 64
    parts = []
    for psi in itertools.product(*order):
        lam = owner.get(psi)
        if lam is None and not full:
            continue
        sel = "*".join(f"{ctx.classes[c].label}[{format_bits(b, n)}]"
                       for c, n, b in zip(e.support, sizes, psi))
        if lam is None:
            parts.append(f"0*{sel}")
            continue
        cs = coeff_str(lam)
        if len(lam) > 1 or cs.startswith("-"):
            cs = f"({cs})"
        parts.append(f"{cs}*{sel}")
    return " + ".join(parts) if parts else "0"
