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
and a linear functional reaches its min and max at vertices.

A class past the vertex enumeration cap (`optimizer.VERTEX_DIM_CAP`) has
`parts`: one system per connected component of its co-mention hypergraph,
whose edges are the sets of members each declaration names.  Declarations
that share no member constrain disjoint marginals, so the class is feasible
exactly when every part is (the classical marginal problem), and each part
is decided by its own vertices.

HiGHS runs only for a part, or a range, past the vertex enumeration caps,
and to confirm that a system with no enumerated vertex is empty.  It is
reached through `optimizer.linprog`, which imports scipy.optimize on its
first call, so a program that needs no LP never loads scipy.

A class with more than `MAX_CONSTRAINT_BITS` members gets no rows, and a
solve builds no array over its 2^n joint assignments: every member's
marginal range is the unit interval, and its parts decide its feasibility.
Only its feasible point, which the oracle asks for, is such an array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from praline import optimizer
from praline.frontend import (Atom, DimensionCapExceeded, InputProbDecl,
                              Program, _UnionFind, format_bits)
from praline.optimizer import VERTEX_DIM_CAP, linprog
from praline.symexpr import ExprContext

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
    # of a class past VERTEX_DIM_CAP: the systems of the co-mention
    # components of its declarations (see `_parts`); they decide its
    # feasibility.  None for a class decided by its own vertices or LP.
    parts: Optional[list["ClassSystem"]] = None
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

    def feasible(self) -> bool:
        """Whether the polytope has a point.

        A class with parts is empty exactly when one of its parts is: the
        parts' declarations constrain disjoint sets of members, so points of
        every part extend to the whole class by an independent product.  A
        component too big for a part is not checked and counts as feasible.
        """
        if self.parts is not None:
            return all(p.feasible() for p in self.parts)
        return self.feasible_point() is not None

    def feasible_point(self) -> Optional[np.ndarray]:
        """A point of the polytope, or None when it is empty.

        A class too big for rows gets the independent product of its parts'
        points and the uniform distribution over the other members; it costs
        an array over all 2^n assignments, so only the oracle asks for it.
        The members of a component too big for a part count as the others,
        so the witness does not honour that component's declarations.
        """
        if self.too_big:
            idx = np.arange(self.dim)
            free = len(self.members) - sum(len(p.members) for p in self.parts)
            point = np.full(self.dim, 1.0 / (1 << free))
            for part in self.parts:
                sub = part.feasible_point()
                if sub is None:
                    return None
                sub_idx = np.zeros(self.dim, dtype=np.int64)
                for i, m in enumerate(part.members):
                    sub_idx |= ((idx >> self.members.index(m)) & 1) << i
                point *= sub[sub_idx]
            return point
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
        so its range is [p, p] with no vertex or LP.  A class too big for
        rows gets the unit interval, before any row over its assignments.
        """
        if self.too_big:
            return 0.0, 1.0
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


def _row_str(label: str, vec: np.ndarray, width: int) -> str:
    parts = [f"{label}[{format_bits(i, width)}]"
             for i, v in enumerate(vec) if abs(v) > 1e-12]
    return " + ".join(parts)


def gen_constraints(program: Program, ctx: ExprContext) -> ConstraintSystem:
    by_class: list[list[InputProbDecl]] = [[] for _ in ctx.classes]
    for decl in program.input_probs:
        by_class[ctx.fact_bit[decl.head][0]].append(decl)
    classes = []
    for cpos, spec in enumerate(ctx.classes):
        if spec.size <= MAX_CONSTRAINT_BITS:
            cs = _class_system(spec.label, spec.members, by_class[cpos])
        else:
            cs = ClassSystem(spec.label, spec.members, None, None)
        if cs.dim > VERTEX_DIM_CAP:
            cs.parts = _parts(cs, by_class[cpos])
        classes.append(cs)
    return ConstraintSystem(classes)


def _parts(cs: ClassSystem, decls: list[InputProbDecl]) -> list[ClassSystem]:
    """The systems of the co-mention components of a class's declarations.

    Two members are in one component when a chain of declarations, each
    naming two of its links, joins them; a member no declaration names is in
    none.  Each component gets the system of its own declarations over its
    own members, in class order, unless it has more than
    `MAX_CONSTRAINT_BITS` members: such a component gets no system.
    """
    uf = _UnionFind()
    for decl in decls:
        for a in decl.atoms():
            uf.add(a)
            uf.union(decl.head, a)
    members: dict[Atom, list[Atom]] = {}
    for m in cs.members:
        if m in uf.parent:
            members.setdefault(uf.find(m), []).append(m)
    own: dict[Atom, list[InputProbDecl]] = {r: [] for r in members}
    for decl in decls:
        own[uf.find(decl.head)].append(decl)
    parts = []
    for r, ms in members.items():
        if len(ms) <= MAX_CONSTRAINT_BITS:
            parts.append(_class_system(cs.label, tuple(ms), own[r]))
    return parts


def _class_system(label: str, members: tuple[Atom, ...],
                  decls: list[InputProbDecl]) -> ClassSystem:
    """The rows of one class's declarations, plus the sum-to-one row.

    A conditional p::I | S. is the row P(I and S) - p * P(S) = 0.  The row
    of a conjunction is 1 on the assignments where every literal holds: the
    product of the literals' bit masks, a negated given's mask inverted.
    """
    dim = 1 << len(members)
    bit = {m: i for i, m in enumerate(members)}
    rows: list[np.ndarray] = [np.ones(dim)]
    vals: list[float] = [1.0]
    shown: list[tuple] = []
    marginals: dict[int, float] = {}
    for decl in decls:
        head = bit_row(dim, bit[decl.head])
        if decl.is_marginal:
            rows.append(head)
            vals.append(decl.prob)
            shown.append((head, None, decl.prob))
            marginals[bit[decl.head]] = decl.prob
        else:
            rhs = np.ones(dim)
            for lit in decl.givens:
                given = bit_row(dim, bit[lit.atom])
                rhs *= 1.0 - given if lit.negated else given
            lhs = head * rhs
            rows.append(lhs - decl.prob * rhs)
            vals.append(0.0)
            shown.append((lhs, rhs, decl.prob))
    return ClassSystem(label, members, np.vstack(rows), np.array(vals),
                       shown, marginals)


def check_feasible(system: ConstraintSystem) -> bool:
    """Whether every class polytope has a point.

    Classes are independent blocks, so feasibility decomposes.
    """
    return all(cs.feasible() for cs in system.classes)


def bit_row(dim: int, bit: int) -> np.ndarray:
    """0/1 row selecting the assignments where the member at bit holds."""
    return ((np.arange(dim) >> bit) & 1).astype(float)

