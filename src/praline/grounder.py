"""Grounding: build the derivation hypergraph of a program.

solve_standard evaluates the rules bottom-up over the skeleton model (every
input fact assumed present, negative literals ignored) and records one
hyperedge per ground rule firing.  The skeleton model contains every atom
derivable in any possible world, so the recorded graph covers all
derivations.  break_cycles unfolds recursive components into depth-indexed
copies so that downstream passes see an acyclic graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from praline.frontend import (
    Atom,
    Literal,
    NonStratifiedError,
    PralineError,
    Program,
    Rule,
    Term,
    is_var,
)


class UnsafeRuleError(PralineError):
    """A rule uses a variable outside the positive body."""


@dataclass(frozen=True)
class GroundRuleId:
    """Identity of one ground rule instance: rule index plus substitution.

    Synthetic carry edges introduced by break_cycles use rule_index -1.
    """

    rule_index: int
    subst: tuple[tuple[str, Term], ...]

    def __str__(self) -> str:
        if self.rule_index < 0:
            return f"carry[{self.subst[0][1]}]"
        binds = ",".join(f"{v}={t}" for v, t in self.subst)
        return f"r{self.rule_index}[{binds}]"


@dataclass(frozen=True)
class Hyperedge:
    head: Atom
    pos: tuple[Atom, ...]
    neg: tuple[Atom, ...]
    rule_id: GroundRuleId
    prob: float

    def bodies(self) -> Iterator[Atom]:
        yield from self.pos
        yield from self.neg


@dataclass
class DerivationGraph:
    program: Program
    nodes: list[Atom] = field(default_factory=list)
    edges: list[Hyperedge] = field(default_factory=list)
    in_edges: dict[Atom, list[int]] = field(default_factory=dict)
    input_facts: list[Atom] = field(default_factory=list)
    event_var: dict[GroundRuleId, int] = field(default_factory=dict)
    acyclic: bool = True
    strata: dict[str, int] = field(default_factory=dict)
    # synthetic leaf -> the input fact it stands for (see break_cycles)
    input_alias: dict[Atom, Atom] = field(default_factory=dict)

    def is_input(self, a: Atom) -> bool:
        return a in self._input_set

    def as_input(self, a: Atom) -> Optional[Atom]:
        """The input fact a node stands for, if it is an input or an alias."""
        if a in self._input_set:
            return a
        return self.input_alias.get(a)

    def __post_init__(self):
        self._input_set = set(self.input_facts)

    def rebuild_index(self):
        self._input_set = set(self.input_facts)
        self.in_edges = {}
        node_seen = dict.fromkeys(self.input_facts)
        for i, e in enumerate(self.edges):
            self.in_edges.setdefault(e.head, []).append(i)
            node_seen.setdefault(e.head, None)
            for b in e.bodies():
                node_seen.setdefault(b, None)
        self.nodes = list(node_seen)

    @property
    def derived_nodes(self) -> list[Atom]:
        return [n for n in self.nodes if n in self.in_edges]

    def event_count(self) -> int:
        return len(self.event_var)

    def topo_order(self) -> list[Atom]:
        """Topological order of the acyclic graph, inputs first."""
        indeg = {n: 0 for n in self.nodes}
        out: dict[Atom, list[Atom]] = {n: [] for n in self.nodes}
        for e in self.edges:
            for b in set(e.bodies()):
                out[b].append(e.head)
        for e in self.edges:
            indeg[e.head] += len(set(e.bodies()))
        order = [n for n in self.nodes if indeg[n] == 0]
        i = 0
        while i < len(order):
            n = order[i]
            i += 1
            for h in out[n]:
                indeg[h] -= 1
                if indeg[h] == 0:
                    order.append(h)
        if len(order) != len(self.nodes):
            raise PralineError("graph is cyclic; run break_cycles first")
        return order

    def describe(self) -> str:
        lines = [f"nodes: {len(self.nodes)}, hyperedges: {len(self.edges)}, "
                 f"events: {len(self.event_var)}, acyclic: {self.acyclic}"]
        for e in self.edges:
            parts = [str(a) for a in e.pos] + [f"\\+{a}" for a in e.neg]
            rid = self.event_var.get(e.rule_id)
            tag = f" [r{rid}={e.prob:g}]" if rid else (f" [p={e.prob:g}]" if e.prob != 1 else "")
            lines.append(f"  {e.head} <- {', '.join(parts) if parts else 'true'}{tag}")
        return "\n".join(lines)


def _match(pattern: Atom, ground: Atom, subst: dict[str, Term]) -> Optional[dict[str, Term]]:
    if pattern.functor != ground.functor or len(pattern.args) != len(ground.args):
        return None
    out = subst
    for p, g in zip(pattern.args, ground.args):
        if is_var(p):
            bound = out.get(p)
            if bound is None:
                if out is subst:
                    out = dict(subst)
                out[p] = g
            elif bound != g:
                return None
        elif p != g:
            return None
    return out if out is not subst else dict(subst)


def _apply(atom: Atom, subst: dict[str, Term]) -> Atom:
    if atom.is_ground:
        return atom
    return Atom(atom.functor, tuple(subst.get(a, a) if is_var(a) else a for a in atom.args))


def _rule_vars(atoms) -> set[str]:
    return {a for atom in atoms for a in atom.args if is_var(a)}


def check_safety(rule: Rule):
    pos_vars = _rule_vars(l.atom for l in rule.body if not l.negated)
    other = _rule_vars([rule.head]) | _rule_vars(l.atom for l in rule.body if l.negated)
    loose = other - pos_vars
    if loose:
        raise UnsafeRuleError(f"unsafe rule {rule}: variables {sorted(loose)} "
                              "do not occur in the positive body")


def stratify(program: Program) -> dict[str, int]:
    """Assign a stratum to every predicate; negation may not cross a cycle."""
    preds: set[str] = set()
    edges: dict[str, set[tuple[str, int]]] = {}
    for f in program.input_facts:
        preds.add(f.functor)
    for r in program.rules:
        preds.add(r.head.functor)
        for l in r.body:
            preds.add(l.atom.functor)
            sign = -1 if l.negated else 1
            edges.setdefault(r.head.functor, set()).add((l.atom.functor, sign))

    comp = _tarjan(sorted(preds), lambda p: [q for q, _ in edges.get(p, ())])
    comp_of = {}
    for i, c in enumerate(comp):
        for p in c:
            comp_of[p] = i
    for head, deps in edges.items():
        for dep, sign in deps:
            if sign < 0 and comp_of[head] == comp_of[dep]:
                raise NonStratifiedError(
                    f"negation on {dep} inside a recursive component of {head}")

    # strata: relax head >= dep (+1 across negation) to a fixed point
    strata = {p: 0 for p in preds}
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > len(preds) + 2:
            raise NonStratifiedError("stratification did not converge")
        for head, deps in edges.items():
            for dep, sign in deps:
                need = strata[dep] + (1 if sign < 0 else 0)
                if strata[head] < need:
                    strata[head] = need
                    changed = True
    return strata


def _tarjan(nodes, succ) -> list[list]:
    """Strongly connected components, iterative, in reverse topological order."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return sccs


class _Db:
    """Ground atoms indexed by functor/arity."""

    def __init__(self):
        self.by_pred: dict[tuple[str, int], list[Atom]] = {}
        # a dict, not a set: insertion order keeps grounding order, and the
        # graph it builds, the same under every hash seed
        self.all: dict[Atom, None] = {}

    def add(self, a: Atom) -> bool:
        if a in self.all:
            return False
        self.all[a] = None
        self.by_pred.setdefault((a.functor, len(a.args)), []).append(a)
        return True

    def candidates(self, pattern: Atom) -> list[Atom]:
        return self.by_pred.get((pattern.functor, len(pattern.args)), [])


def _join(literals: list[Atom], db: _Db, subst: dict[str, Term],
          pinned: Optional[tuple[int, Atom]] = None) -> Iterator[dict[str, Term]]:
    """All substitutions grounding the positive literals against db.

    pinned = (position, atom) forces one literal to match a specific atom,
    which is how the semi-naive delta is threaded through.
    """
    def rec(i: int, s: dict[str, Term]) -> Iterator[dict[str, Term]]:
        if i == len(literals):
            yield s
            return
        lit = literals[i]
        if pinned is not None and i == pinned[0]:
            cands = [pinned[1]]
        else:
            cands = db.candidates(lit)
        for g in cands:
            s2 = _match(_apply(lit, s), g, s)
            if s2 is not None:
                yield from rec(i + 1, s2)

    yield from rec(0, subst)


def solve_standard(program: Program) -> DerivationGraph:
    """Ground the program and record every rule firing as a hyperedge."""
    for r in program.rules:
        check_safety(r)
    strata = stratify(program)
    inputs = program.input_facts

    db = _Db()
    for f in inputs:
        db.add(f)

    n_strata = max(strata.values(), default=0) + 1
    rules_by_stratum: list[list[tuple[int, Rule]]] = [[] for _ in range(n_strata)]
    for i, r in enumerate(program.rules):
        rules_by_stratum[strata[r.head.functor]].append((i, r))

    # fixpoint per stratum, semi-naive: each round only joins through the
    # atoms discovered in the previous round, indexed like the database so
    # a literal only meets the delta atoms of its own predicate
    for stratum_rules in rules_by_stratum:
        delta = list(db.all)
        for _, rule in stratum_rules:
            if not any(not l.negated for l in rule.body):
                head = _apply(rule.head, {})
                if db.add(head):
                    delta.append(head)
        while delta:
            new = _Db()
            for d in delta:
                new.add(d)
            found: dict[Atom, None] = {}
            for _, rule in stratum_rules:
                pos = [l.atom for l in rule.body if not l.negated]
                if not pos:
                    continue
                for j in range(len(pos)):
                    for d in new.candidates(pos[j]):
                        for s in _join(pos, db, {}, pinned=(j, d)):
                            head = _apply(rule.head, s)
                            if head not in db.all:
                                found[head] = None
            delta = [a for a in found if db.add(a)]

    # enumeration pass: every firing over the final model, in rule order
    edges: dict[GroundRuleId, Hyperedge] = {}
    for i, rule in enumerate(program.rules):
        pos = [l.atom for l in rule.body if not l.negated]
        neg = [l.atom for l in rule.body if l.negated]
        for s in _join(pos, db, {}):
            head = _apply(rule.head, s)
            gpos = tuple(_apply(a, s) for a in pos)
            gneg = tuple(a2 for a in neg if (a2 := _apply(a, s)) in db.all)
            rid = GroundRuleId(i, tuple(sorted(s.items())))
            if rid not in edges:
                edges[rid] = Hyperedge(head, gpos, gneg, rid, rule.prob)

    g = DerivationGraph(program=program, edges=list(edges.values()),
                        input_facts=list(inputs), strata=strata)
    g.rebuild_index()
    _assign_events(g)
    g.acyclic = not _find_cycles(g)
    return g


def _assign_events(g: DerivationGraph):
    keys = sorted((e.rule_id for e in g.edges if e.prob < 1.0),
                  key=lambda rid: (rid.rule_index, rid.subst))
    g.event_var = {rid: i + 1 for i, rid in enumerate(keys)}


def _find_cycles(g: DerivationGraph) -> list[list[Atom]]:
    """Nontrivial SCCs of the atom-level graph, reverse topological order."""
    succ: dict[Atom, list[Atom]] = {n: [] for n in g.nodes}
    self_loop: set[Atom] = set()
    for e in g.edges:
        for b in e.bodies():
            succ[b].append(e.head)
            if b == e.head:
                self_loop.add(b)
    sccs = _tarjan(g.nodes, lambda n: succ[n])
    return [s for s in sccs if len(s) > 1 or s[0] in self_loop]


def _copy_name(a: Atom, k: int) -> Atom:
    return Atom(f"{a.functor}@{k}", a.args)


def _prune_false(edges: list[Hyperedge], input_facts: list[Atom],
                 aliases: dict[Atom, Atom]) -> list[Hyperedge]:
    """Drop edges that depend positively on a node no world can derive.

    Unfolding leaves such nodes behind: a component member whose every rule
    is recursive has no depth-0 derivation, so its copy there is false in
    every world.  Rules using a false node positively can never fire, and a
    negated false node is vacuously true.  Edges removed here never supported
    anyone's derivability, so a single fixpoint plus one sweep is enough.
    """
    derivable = set(input_facts) | set(aliases)
    changed = True
    while changed:
        changed = False
        for e in edges:
            if e.head not in derivable and all(b in derivable for b in e.pos):
                derivable.add(e.head)
                changed = True
    kept: list[Hyperedge] = []
    for e in edges:
        if any(b not in derivable for b in e.pos):
            continue
        if any(b not in derivable for b in e.neg):
            e = Hyperedge(e.head, e.pos,
                          tuple(b for b in e.neg if b in derivable),
                          e.rule_id, e.prob)
        kept.append(e)
    return kept


def break_cycles(g: DerivationGraph) -> DerivationGraph:
    """Unfold every recursive component into depth-indexed copies.

    A component of d nodes saturates any world's fixpoint within d rounds, so
    copies 0..d suffice: copy k derives from copy k-1 inside the component
    and from final nodes outside it.  The copy at depth d keeps the original
    atom name, so consumers outside the component are untouched.  All copies
    of one ground rule share its event variable; carry edges (copy k from
    copy k-1) are deterministic.
    """
    cycles = _find_cycles(g)
    if not cycles:
        g.acyclic = True
        return g

    in_cycle: dict[Atom, int] = {}
    for ci, scc in enumerate(cycles):
        for n in scc:
            in_cycle[n] = ci

    new_edges: list[Hyperedge] = []
    for e in g.edges:
        if e.head not in in_cycle:
            new_edges.append(e)

    aliases: dict[Atom, Atom] = {}
    for scc in cycles:
        scc_set = set(scc)
        d = len(scc)
        members = [n for n in g.nodes if n in scc_set]  # stable order
        for n in members:
            if g.is_input(n):
                # the fact may be true as an input in any world, which must
                # already count at unfolding depth 0
                leaf = Atom(f"{n.functor}@in", n.args)
                aliases[leaf] = n
                rid = GroundRuleId(-1, (("input", f"{n}@0"),))
                new_edges.append(Hyperedge(_copy_name(n, 0), (leaf,), (), rid, 1.0))
        for n in members:
            for ei in g.in_edges.get(n, ()):
                e = g.edges[ei]
                for b in e.neg:
                    if b in scc_set:
                        raise NonStratifiedError(
                            f"negation on {b} inside a recursive component")
                recursive = any(b in scc_set for b in e.pos)
                for k in range(d + 1):
                    if k == 0:
                        if recursive:
                            continue
                        head = _copy_name(n, 0)
                        pos = e.pos
                    else:
                        head = n if k == d else _copy_name(n, k)
                        pos = tuple(_copy_name(b, k - 1) if b in scc_set else b
                                    for b in e.pos)
                    new_edges.append(Hyperedge(head, pos, e.neg, e.rule_id, e.prob))
            for k in range(1, d + 1):
                head = n if k == d else _copy_name(n, k)
                prev = _copy_name(n, k - 1)
                rid = GroundRuleId(-1, (("carry", f"{n}@{k}"),))
                new_edges.append(Hyperedge(head, (prev,), (), rid, 1.0))

    all_aliases = {**g.input_alias, **aliases}
    new_edges = _prune_false(new_edges, g.input_facts, all_aliases)
    g2 = DerivationGraph(program=g.program, edges=new_edges,
                         input_facts=list(g.input_facts), strata=g.strata,
                         event_var=dict(g.event_var),
                         input_alias=all_aliases)
    g2.rebuild_index()
    g2.acyclic = not _find_cycles(g2)
    assert g2.acyclic, "unfolding left a cycle behind"
    return g2


def depends(g: DerivationGraph) -> tuple[dict[Atom, frozenset[Atom]], dict[Atom, frozenset[Atom]]]:
    """Input facts each node depends on, split by path polarity.

    Returns (dep_pos, dep_neg).  A fact appearing in both sets for a node has
    derivation paths of both signs to it.  Requires an acyclic graph.
    """
    dep_pos: dict[Atom, set[Atom]] = {}
    dep_neg: dict[Atom, set[Atom]] = {}
    for n in g.topo_order():
        p: set[Atom] = set()
        m: set[Atom] = set()
        base = g.as_input(n)
        if base is not None:
            p.add(base)
        for ei in g.in_edges.get(n, ()):
            e = g.edges[ei]
            for b in e.pos:
                p |= dep_pos[b]
                m |= dep_neg[b]
            for b in e.neg:
                p |= dep_neg[b]
                m |= dep_pos[b]
        dep_pos[n] = p
        dep_neg[n] = m
    return ({n: frozenset(s) for n, s in dep_pos.items()},
            {n: frozenset(s) for n, s in dep_neg.items()})


def polarity(dep_pos, dep_neg, node: Atom, fact: Atom) -> str:
    inp = fact in dep_pos.get(node, ())
    inn = fact in dep_neg.get(node, ())
    if inp and inn:
        return "both"
    if inp:
        return "pos"
    if inn:
        return "neg"
    return "none"
