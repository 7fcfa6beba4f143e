"""Symbolic probability expressions over joint class variables and rule events.

A probability expression is a sum of terms  lambda * psi  where psi selects
one joint assignment variable V_C[b] per correlation class (classes the
expression does not depend on are summed out, which the simplex constraint
makes exact) and lambda is a signed sum of monomials over rule event
variables r_i and their complements (1 - r_i).

The algebra keeps everything canonical and exact:

  - a monomial is a pair of disjoint variable sets (P, N), meaning
    prod r_v for v in P times prod (1 - r_v) for v in N;
  - the joint of two monomials is their union, or 0 when some variable is
    required both fired and unfired (the derivations are incompatible);
  - mul joins the two operands' terms on the classes they share: each
    pair of terms that agree there multiplies its lambdas (the events of
    independent subderivations) under the psi that merges both
    coordinates, so a class one operand lacks is never enumerated;
  - add is inclusion-exclusion  a + b - joint(a, b)  per psi, over the
    union template, and neg is 1 - lambda rewritten into complement form,
    dense over its support.

Theorem-level: for expressions of two facts A and B, mul yields the
expression of P(A and B) and add the one of P(A or B), checked numerically
against world enumeration in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from praline.frontend import Atom, DimensionCapExceeded, Program
from praline.grounder import DerivationGraph, GroundRuleId

# largest psi template over the union of two supports.  add and neg fill it
# densely; mul fills nothing but applies the same cap when the supports
# differ, which bounds the terms of a product and keeps one rule for which
# expressions are out of reach
MAX_TEMPLATE = 2 ** 20

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
class ClassSpec:
    label: str
    members: tuple[Atom, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class ExprContext:
    """Names the classes and event variables expressions are built over."""

    classes: list[ClassSpec]
    fact_bit: dict[Atom, tuple[int, int]]  # fact -> (class position, bit)
    event_var: dict[GroundRuleId, int]
    var_prob: dict[int, float]

    def template_size(self, support: tuple[int, ...]) -> int:
        n = 1
        for c in support:
            n <<= self.classes[c].size
        return n


def context_from_program(program: Program, graph: DerivationGraph) -> ExprContext:
    single = len(program.classes) == 1
    classes = [ClassSpec("V" if single else f"V{c.ordinal}", c.members)
               for c in program.classes]
    var_prob = {}
    for e in graph.edges:
        v = graph.event_var.get(e.rule_id)
        if v is not None:
            var_prob[v] = e.prob
    return ExprContext(classes, dict(program.fact_class), dict(graph.event_var), var_prob)


@dataclass
class ProbExpr:
    """Sparse sum of lambda * psi terms over a fixed class support."""

    ctx: ExprContext
    support: tuple[int, ...]  # class positions, ascending
    terms: dict[tuple[int, ...], Coeff] = field(default_factory=dict)


def expr_const(ctx: ExprContext, value: int) -> ProbExpr:
    terms = {(): coeff_one()} if value == 1 else {}
    return ProbExpr(ctx, (), terms)


def expr_of_input(ctx: ExprContext, fact: Atom) -> ProbExpr:
    """Coefficient 1 on every class assignment where the fact's bit is set."""
    cpos, bit = ctx.fact_bit[fact]
    size = ctx.classes[cpos].size
    terms = {(b,): coeff_one() for b in range(1 << size) if b >> bit & 1}
    return ProbExpr(ctx, (cpos,), terms)


def _lift(e: ProbExpr, support: tuple[int, ...]) -> ProbExpr:
    """e over a wider support: each term repeated for every assignment of
    the classes e lacks.  Only add needs it."""
    if e.support == support:
        return e
    ctx = e.ctx
    if ctx.template_size(support) > MAX_TEMPLATE:
        raise DimensionCapExceeded(
            f"expression template over classes {support} exceeds {MAX_TEMPLATE} terms")
    pos_of = {c: i for i, c in enumerate(e.support)}
    extra = [c for c in support if c not in pos_of]
    ranges = [range(1 << ctx.classes[c].size) for c in extra]
    terms: dict[tuple[int, ...], Coeff] = {}
    for psi, lam in e.terms.items():
        for fills in itertools.product(*ranges):
            fill_iter = iter(fills)
            new_psi = tuple(psi[pos_of[c]] if c in pos_of else next(fill_iter)
                            for c in support)
            terms[new_psi] = lam
    return ProbExpr(ctx, support, terms)


def _union_support(a: ProbExpr, b: ProbExpr) -> tuple[int, ...]:
    return tuple(sorted(set(a.support) | set(b.support)))


def mul(a: ProbExpr, b: ProbExpr) -> ProbExpr:
    """Expression of the conjunction of two facts' derivations.

    A sparse join on the classes both operands depend on: each term of a
    pairs only with the terms of b that agree with it there, and the
    product's psi takes every other coordinate from the operand that has
    it, so no class is ever filled in.  Terms come in a's insertion order,
    then in ascending order of b's coordinates on the classes only b has,
    the order a dense pairing over the union template would give.
    """
    support = _union_support(a, b)
    if a.support != b.support and a.ctx.template_size(support) > MAX_TEMPLATE:
        raise DimensionCapExceeded(
            f"expression template over classes {support} exceeds {MAX_TEMPLATE} terms")
    a_pos = {c: i for i, c in enumerate(a.support)}
    shared = [i for i, c in enumerate(b.support) if c in a_pos]
    a_shared = [a_pos[b.support[i]] for i in shared]
    b_only = [i for i, c in enumerate(b.support) if c not in a_pos]
    # (operand, position) each coordinate of the product's psi is read from
    take = [(0, a_pos[c]) if c in a_pos else (1, b.support.index(c))
            for c in support]
    terms: dict[tuple[int, ...], Coeff] = {}
    index: dict[tuple[int, ...], list] = {}
    for psi, lam in b.terms.items():
        key = tuple(psi[i] for i in shared)
        index.setdefault(key, []).append((tuple(psi[i] for i in b_only), psi, lam))
    for bucket in index.values():
        bucket.sort(key=lambda t: t[0])
    for psi, lam in a.terms.items():
        for _, bpsi, lam2 in index.get(tuple(psi[i] for i in a_shared), ()):
            j = coeff_joint(lam, lam2)
            if j:
                pair = (psi, bpsi)
                terms[tuple(pair[o][i] for o, i in take)] = j
    return ProbExpr(a.ctx, support, terms)


def add(a: ProbExpr, b: ProbExpr) -> ProbExpr:
    """Expression of the disjunction: a + b - joint(a, b) per psi."""
    support = _union_support(a, b)
    a = _lift(a, support)
    b = _lift(b, support)
    terms: dict[tuple[int, ...], Coeff] = {}
    for psi, lam in a.terms.items():
        terms[psi] = dict(lam)
    for psi, lam in b.terms.items():
        cur = terms.get(psi)
        if cur is None:
            terms[psi] = dict(lam)
        else:
            s = coeff_add(cur, lam)
            j = coeff_joint(cur, lam)
            s = coeff_add(s, coeff_scale(j, -1))
            if s:
                terms[psi] = s
            else:
                del terms[psi]
    return ProbExpr(a.ctx, support, terms)


def neg(e: ProbExpr) -> ProbExpr:
    """Expression of 1 minus the operand, dense over its support template."""
    ctx = e.ctx
    if ctx.template_size(e.support) > MAX_TEMPLATE:
        raise DimensionCapExceeded(
            f"negation over classes {e.support} exceeds {MAX_TEMPLATE} terms")
    ranges = [range(1 << ctx.classes[c].size) for c in e.support]
    terms: dict[tuple[int, ...], Coeff] = {}
    for psi in itertools.product(*ranges):
        lam = e.terms.get(psi)
        out = coeff_neg(lam) if lam else coeff_one()
        if out:
            terms[psi] = out
    return ProbExpr(ctx, e.support, terms)


def scale_event(e: ProbExpr, var: int) -> ProbExpr:
    """Multiply by one rule event variable."""
    mono: Coeff = {(frozenset((var,)), frozenset()): 1}
    terms = {}
    for psi, lam in e.terms.items():
        j = coeff_joint(lam, mono)
        if j:
            terms[psi] = j
    return ProbExpr(e.ctx, e.support, terms)


def gen_objective(graph: DerivationGraph, ctx: ExprContext, node: Atom,
                  memo: Optional[dict[Atom, ProbExpr]] = None) -> ProbExpr:
    """The probability expression of a node, bottom-up over its derivations.

    Leaves are the input facts known to the context.  A derived node is the
    fold of its hyperedges: each edge contributes its event variable times
    the product of its positive bodies' expressions and the negations of its
    negative bodies', and edges combine by inclusion-exclusion.
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
        memo[n] = _node_expr(graph, ctx, n, memo)
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
        var = graph.event_var.get(e.rule_id)
        if var is not None:
            acc = scale_event(acc, var)
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
    for psi, lam in e.terms.items():
        w = coeff_eval(lam, probs)
        for c, b in zip(e.support, psi):
            w *= float(dists[c][b])
        total += w
    return total


def _display_psis(ctx: ExprContext, support: tuple[int, ...]):
    """Template order for printing: class bit 0 is the most significant."""
    per_class = []
    for c in support:
        size = ctx.classes[c].size
        vals = []
        for bits in itertools.product((0, 1), repeat=size):
            vals.append(sum(b << k for k, b in enumerate(bits)))
        per_class.append(vals)
    yield from itertools.product(*per_class)


def expr_str(e: ProbExpr) -> str:
    """Canonical rendering, used by the golden tests and --dump-exprs."""
    from praline.frontend import format_bits

    ctx = e.ctx
    if not e.support:
        lam = e.terms.get(())
        return coeff_str(lam) if lam else "0"
    full = ctx.template_size(e.support) <= 64
    parts = []
    for psi in _display_psis(ctx, e.support):
        lam = e.terms.get(psi)
        if lam is None and not full:
            continue
        sel = "*".join(
            f"{ctx.classes[c].label}[{format_bits(b, ctx.classes[c].size)}]"
            for c, b in zip(e.support, psi))
        if lam is None:
            parts.append(f"0*{sel}")
            continue
        cs = coeff_str(lam)
        if len(lam) > 1 or cs.startswith("-"):
            cs = f"({cs})"
        parts.append(f"{cs}*{sel}")
    return " + ".join(parts) if parts else "0"
