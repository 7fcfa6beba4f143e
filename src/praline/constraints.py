"""Linear constraint systems over joint class variables.

Every declared input probability turns into a linear equality over the joint
variables of a single class (class inference guarantees declarations never
span classes).  Conditionals stay in product form,

    P(I0 and I1 ... and In) = p * P(I1 and ... and In),

never divided through, so zero-probability givens cannot poison the system.
Each class also carries the simplex constraints (nonnegative, sum to one).

A `ClassSystem` is the one owner of the answers about its polytope: its
vertices, the range of a linear functional over it, a feasible point, and
each member's marginal range.  All of them are read off the vertex set,
enumerated once: a bounded polytope is empty exactly when it has no vertex,
and a linear functional reaches its min and max at vertices.  HiGHS runs only
for a class past the vertex enumeration caps, and to confirm that a class
with no enumerated vertex is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from praline import optimizer
from praline.frontend import (Atom, DimensionCapExceeded, InputProbDecl,
                              Program, format_bits)
from praline.symexpr import (
    ExprContext,
    ProbExpr,
    coeff_eval,
    expr_of_input,
    mul,
    neg,
)

# classes above this size get no explicit rows; they fall into the
# soundness-only path downstream
MAX_CONSTRAINT_BITS = 16


@dataclass
class ClassSystem:
    label: str
    members: tuple[Atom, ...]
    a_eq: Optional[np.ndarray]  # includes the sum-to-one row; None when too big
    b_eq: Optional[np.ndarray]
    # (lhs row, rhs row or None for a marginal, p) of each declaration, kept
    # to print the system on demand
    decls: list[tuple[np.ndarray, Optional[np.ndarray], float]] = \
        field(default_factory=list)
    # member bit -> p of its declared marginal p::member.
    marginals: dict[int, float] = field(default_factory=dict)
    _verts: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _enumerated: bool = field(default=False, init=False, repr=False)
    _ranges: dict[int, tuple[float, float]] = \
        field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return 1 << len(self.members)

    @property
    def too_big(self) -> bool:
        return self.a_eq is None

    def vertices(self) -> Optional[np.ndarray]:
        """All vertices of the polytope, enumerated once.

        None when the class is past a vertex enumeration cap, or when no
        vertex was found (the polytope is then empty, up to rounding).
        """
        if not self._enumerated:
            self._enumerated = True
            try:
                verts = optimizer.enumerate_class_vertices(self)
            except DimensionCapExceeded:
                verts = []
            self._verts = verts if len(verts) else None
        return self._verts

    def _lp(self, c: np.ndarray):
        res = linprog(c, A_eq=self.a_eq, b_eq=self.b_eq, bounds=(0, 1),
                      method="highs")
        return res if res.success else None

    def feasible_point(self) -> Optional[np.ndarray]:
        """A point of the polytope, or None when it is empty."""
        if self.too_big:
            return np.full(self.dim, 1.0 / self.dim)
        verts = self.vertices()
        if verts is not None:
            return verts[0]
        res = self._lp(np.zeros(self.dim))
        return None if res is None else np.clip(res.x, 0.0, 1.0)

    def range(self, row: np.ndarray) -> tuple[float, float]:
        """Exact [min, max] of a linear functional over the polytope.

        The polytope must be non-empty.  A class too big for rows gets the
        unit interval, which bounds every 0/1 row.
        """
        if self.too_big:
            return 0.0, 1.0
        verts = self.vertices()
        if verts is not None:
            vals = verts @ row
            return float(vals.min()), float(vals.max())
        lo, hi = self._lp(row), self._lp(-row)
        if lo is None or hi is None:
            raise ValueError(f"class {self.label} polytope is empty")
        return float(lo.fun), float(-hi.fun)

    def marginal_range(self, bit: int) -> tuple[float, float]:
        """Exact range of P(member at bit) over the non-empty polytope.

        A declared marginal p::member. is one of the polytope's equalities,
        so its range is [p, p] with no vertex or LP.
        """
        if bit not in self._ranges:
            p = self.marginals.get(bit)
            self._ranges[bit] = (p, p) if p is not None \
                else self.range(bit_row(self.dim, bit))
        return self._ranges[bit]

    def pretty(self) -> list[str]:
        width = len(self.members)
        out = []
        for lhs, rhs, p in self.decls:
            line = f"{_row_str(self.label, lhs, width)} = {p:g}"
            if rhs is not None:
                line += f" * ({_row_str(self.label, rhs, width)})"
            out.append(line)
        return out


@dataclass
class ConstraintSystem:
    classes: list[ClassSystem]
    var_prob: dict[int, float]

    def describe(self) -> str:
        lines = []
        for cs in self.classes:
            members = ", ".join(str(m) for m in cs.members)
            lines.append(f"class {cs.label} over ({members}):")
            if cs.too_big:
                lines.append("  (too large; simplex constraints only)")
                continue
            for p in cs.pretty():
                lines.append(f"  {p}")
            lines.append(f"  sum of {cs.label}[...] = 1, each in [0,1]")
        return "\n".join(lines)


def _row_of(e: ProbExpr, cpos: int, dim: int) -> np.ndarray:
    vec = np.zeros(dim)
    if e.support == ():
        lam = e.terms.get(())
        if lam:
            vec += coeff_eval(lam, {})
        return vec
    assert e.support == (cpos,), "declaration row spans classes"
    for psi, lam in e.terms.items():
        vec[psi[0]] = coeff_eval(lam, {})
    return vec


def _row_str(label: str, vec: np.ndarray, width: int) -> str:
    parts = [f"{label}[{format_bits(i, width)}]"
             for i, v in enumerate(vec) if abs(v) > 1e-12]
    return " + ".join(parts)


def gen_constraints(program: Program, ctx: ExprContext) -> ConstraintSystem:
    rows: list[list[np.ndarray]] = [[] for _ in ctx.classes]
    vals: list[list[float]] = [[] for _ in ctx.classes]
    decls: list[list[tuple]] = [[] for _ in ctx.classes]
    marginals: list[dict[int, float]] = [{} for _ in ctx.classes]

    def conj_expr(decl: InputProbDecl, skip_head: bool) -> ProbExpr:
        acc = None
        lits = list(decl.givens) if skip_head else [None] + list(decl.givens)
        for lit in lits:
            if lit is None:
                e = expr_of_input(ctx, decl.head)
            else:
                e = expr_of_input(ctx, lit.atom)
                if lit.negated:
                    e = neg(e)
            acc = e if acc is None else mul(acc, e)
        return acc

    for decl in program.input_probs:
        cpos, bit = ctx.fact_bit[decl.head]
        spec = ctx.classes[cpos]
        if spec.size > MAX_CONSTRAINT_BITS:
            continue
        dim = 1 << spec.size
        if decl.is_marginal:
            row = bit_row(dim, bit)
            rows[cpos].append(row)
            vals[cpos].append(decl.prob)
            decls[cpos].append((row, None, decl.prob))
            marginals[cpos][bit] = decl.prob
        else:
            lhs = _row_of(conj_expr(decl, skip_head=False), cpos, dim)
            rhs = _row_of(conj_expr(decl, skip_head=True), cpos, dim)
            rows[cpos].append(lhs - decl.prob * rhs)
            vals[cpos].append(0.0)
            decls[cpos].append((lhs, rhs, decl.prob))

    classes = []
    for cpos, spec in enumerate(ctx.classes):
        if spec.size > MAX_CONSTRAINT_BITS:
            classes.append(ClassSystem(spec.label, spec.members, None, None))
            continue
        dim = 1 << spec.size
        a = np.vstack([np.ones((1, dim))] + rows[cpos]) if rows[cpos] \
            else np.ones((1, dim))
        b = np.array([1.0] + vals[cpos])
        classes.append(ClassSystem(spec.label, spec.members, a, b,
                                   decls[cpos], marginals[cpos]))
    return ConstraintSystem(classes, dict(ctx.var_prob))


def check_feasible(system: ConstraintSystem) -> Optional[list[np.ndarray]]:
    """A witness distribution per class, or None if any class is infeasible.

    Classes are independent blocks, so feasibility decomposes.
    """
    witness = []
    for cs in system.classes:
        x = cs.feasible_point()
        if x is None:
            return None
        witness.append(x)
    return witness


def bit_row(dim: int, bit: int) -> np.ndarray:
    """0/1 row selecting the assignments where the member at bit holds."""
    return ((np.arange(dim) >> bit) & 1).astype(float)

