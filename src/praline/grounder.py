"""Grounding: build the derivation hypergraph of a program.

solve_standard evaluates the rules bottom-up over the skeleton model (every
input fact assumed present, negative literals ignored) and records one
hyperedge per ground rule firing.  The skeleton model contains every atom
derivable in any possible world, so the recorded graph covers all
derivations.  The evaluation is semi-naive: each round joins only through
the atoms the previous round derived, and a per-stratum watch index, from
each predicate to the rules with a positive literal on it, limits a round
to the rules its delta can fire.  It is the only pass over the rules: every
firing over the final model is met in the round that derives the last of
its body atoms, and is recorded then.  The edges are sorted afterwards into
the order of a rule-by-rule join over the final model: by rule index, then
by the insertion ranks of the matched body atoms, literal by literal.  Each
ground atom is one shared instance, in the model and in every edge.
break_cycles unfolds recursive components into depth-indexed copies so
that downstream passes see an acyclic graph.

A `DerivationGraph` is complete when built and is never changed.  Its
components are searched for once, when `solve_standard` grounds a program
that `stratify` finds recursive.  The unfolded graph is checked by its
topological order, which raises on a cycle and is then kept for `depends`
and the approx pass.

`DerivationGraph.cone` slices a ground graph to the edges some outputs
reach backwards: everything their probabilities can read.  A strongly
connected component is either wholly inside the cone (one member reaches
an output, so every member does) or wholly outside it, so the cone keeps
the full graph's components and runs no second cycle search.  The event
numbering and the input facts stay the whole program's, so a slice names
each event by the same variable as the full graph, and the constraints
built from the declarations cover every fact whatever the slice reads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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
    """A ground derivation hypergraph, complete when built, never changed.

    The constructor indexes the edges into `nodes` and `in_edges`.  The
    nontrivial components come from the builder where it knows them (none
    for a non-recursive program or an unfolded graph, the kept ones for a
    cone); `components=None` makes the constructor search for them.
    """

    edges: list[Hyperedge]
    input_facts: list[Atom]
    event_var: dict[GroundRuleId, int]
    strata: dict[str, int]
    components: InitVar[Optional[list[list[Atom]]]]
    # synthetic leaf -> the input fact it stands for (see break_cycles)
    input_alias: dict[Atom, Atom] = field(default_factory=dict)
    nodes: list[Atom] = field(init=False)
    in_edges: dict[Atom, list[int]] = field(init=False)

    def is_input(self, a: Atom) -> bool:
        return a in self._input_set

    def as_input(self, a: Atom) -> Optional[Atom]:
        """The input fact a node stands for, if it is an input or an alias."""
        if a in self._input_set:
            return a
        return self.input_alias.get(a)

    def __post_init__(self, components):
        self._input_set = set(self.input_facts)
        self._topo: Optional[list[Atom]] = None
        self.in_edges = {}
        node_seen = dict.fromkeys(self.input_facts)
        for i, e in enumerate(self.edges):
            self.in_edges.setdefault(e.head, []).append(i)
            node_seen.setdefault(e.head, None)
            for b in e.bodies():
                node_seen.setdefault(b, None)
        self.nodes = list(node_seen)
        self._cycles = _find_cycles(self) if components is None else components

    @property
    def derived_nodes(self) -> list[Atom]:
        return [n for n in self.nodes if n in self.in_edges]

    def cycles(self) -> list[list[Atom]]:
        """Nontrivial strongly connected components of the atom graph."""
        return self._cycles

    @property
    def acyclic(self) -> bool:
        return not self._cycles

    def cone(self, outputs) -> DerivationGraph:
        """The subgraph of the edges that some output reaches backwards.

        A node's derivations are its in-edges and, recursively, those of
        their bodies, so the cone keeps everything an output can read.  The
        input facts and the event numbering stay the whole program's.  A
        component lies wholly inside the cone or wholly outside it, so the
        cone keeps the components already found, without a second search.
        Returns self when nothing is dropped.
        """
        seen = set(outputs)
        stack = list(seen)
        kept: list[int] = []
        while stack:
            for ei in self.in_edges.get(stack.pop(), ()):
                kept.append(ei)
                for b in self.edges[ei].bodies():
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
        if len(kept) == len(self.edges):
            return self
        return DerivationGraph(
            [self.edges[i] for i in sorted(kept)], self.input_facts,
            self.event_var, self.strata,
            [scc for scc in self._cycles if scc[0] in seen], self.input_alias)

    def topo_order(self) -> list[Atom]:
        """Topological order of the acyclic graph, inputs first.

        Computed once.  Callers share the list and must not change it.
        """
        if self._topo is not None:
            return self._topo
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
        self._topo = order
        return order


def _match(pattern: Atom, ground: Atom, subst: dict[str, Term]) -> Optional[dict[str, Term]]:
    """subst extended to make pattern equal ground, or None.

    subst is copied only when the match binds a variable, and returned
    itself otherwise, so callers must not change what it returns.
    """
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
    return out


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


def stratify(program: Program) -> tuple[dict[str, int], bool]:
    """Assign a stratum to every predicate; negation may not cross a cycle.

    Also says whether any predicate is recursive: without that, no ground
    atom can depend on itself either.
    """
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

    # strata: the least with head >= dep (+1 across negation).  A component
    # shares one stratum, as its inner edges are positive, and _tarjan lists
    # the components dependencies first, so one pass settles them all.
    strata: dict[str, int] = {}
    for i, c in enumerate(comp):
        level = max((strata[dep] + (1 if sign < 0 else 0)
                     for p in c for dep, sign in edges.get(p, ())
                     if comp_of[dep] != i), default=0)
        for p in c:
            strata[p] = level
    recursive = any(len(c) > 1 or (c[0], 1) in edges.get(c[0], ())
                    for c in comp)
    return strata, recursive


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
        # graph it builds, the same under every hash seed.  Each atom maps
        # to itself, so a lookup finds the one instance the graph shares.
        self.all: dict[Atom, Atom] = {}

    def add(self, a: Atom) -> bool:
        if a in self.all:
            return False
        self.all[a] = a
        self.by_pred.setdefault((a.functor, len(a.args)), []).append(a)
        return True

    def candidates(self, pattern: Atom) -> list[Atom]:
        return self.by_pred.get((pattern.functor, len(pattern.args)), [])


def _join(pos: list[Atom], k: int, s: dict[str, Term], db: _Db, pin: int,
          pinned: Atom, matched: list[Atom], out: list) -> None:
    """Append (substitution, matched atoms) for each grounding of pos[k:].

    pos[pin] matches only the atom pinned, which is how the semi-naive
    delta is threaded through; the others match atoms of db.  A literal
    that the bindings so far make ground is looked up, not matched against
    every atom of its predicate.
    """
    if k == len(pos):
        out.append((s, tuple(matched)))
        return
    if k == pin:
        lit, cands = pos[k], (pinned,)
    else:
        lit = _apply(pos[k], s)
        if lit.is_ground:
            g = db.all.get(lit)
            cands = () if g is None else (g,)
        else:
            cands = db.candidates(lit)
    for g in cands:
        s2 = _match(lit, g, s)
        if s2 is not None:
            matched.append(g)
            _join(pos, k + 1, s2, db, pin, pinned, matched, out)
            matched.pop()


def _fire(rule: Rule, index: int, pos: list[Atom], new: _Db, db: _Db,
          firings: dict, found: dict[Atom, Atom]):
    """Record rule's firings through the delta; collect their unknown heads.

    Each firing joins one positive literal against the delta atoms in new
    and the others against db, once for every literal position.  A firing
    met for the first time goes into firings, keyed by the rule's index and
    its matched atoms, with its substitution and its head.  The head is the
    instance db or found already holds, so the graph shares one per atom.
    """
    out: list = []
    for j in range(len(pos)):
        for d in new.candidates(pos[j]):
            _join(pos, 0, {}, db, j, d, [], out)
    for s, matched in out:
        key = (index, matched)
        if key in firings:
            continue
        head = _apply(rule.head, s)
        g = db.all.get(head)
        if g is None:
            g = found.setdefault(head, head)
        firings[key] = (s, g)


def _subst_order(rid: GroundRuleId):
    """Sort key of a ground rule: integer constants before names."""
    return rid.rule_index, tuple((v, isinstance(t, str), t)
                                 for v, t in rid.subst)


def solve_standard(program: Program) -> DerivationGraph:
    """Ground the program and record every rule firing as a hyperedge.

    One semi-naive pass computes the model and meets every firing over it;
    the first meeting of each is kept.  The edges are then put in the order
    of a join over the final model, rule by rule with each literal's
    candidates in insertion order: by rule index, then by the insertion
    ranks of the matched atoms.
    """
    for r in program.rules:
        check_safety(r)
    strata, recursive = stratify(program)
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
    # a literal only meets the delta atoms of its own predicate.  The watch
    # index maps a predicate to the rules with a positive literal on it, so
    # a round visits only the rules its delta can fire, in rule order.
    firings: dict[tuple[int, tuple[Atom, ...]], tuple[dict[str, Term], Atom]] = {}
    for stratum_rules in rules_by_stratum:
        bodies = [[l.atom for l in rule.body if not l.negated]
                  for _, rule in stratum_rules]
        watch: dict[tuple[str, int], list[int]] = {}
        for k, pos in enumerate(bodies):
            for a in pos:
                watch.setdefault((a.functor, len(a.args)), []).append(k)
        delta = list(db.all)
        for (i, rule), pos in zip(stratum_rules, bodies):
            if not pos:
                head = _apply(rule.head, {})
                if db.add(head):
                    delta.append(head)
                firings[(i, ())] = ({}, db.all[head])
        while delta:
            new = _Db()
            for d in delta:
                new.add(d)
            found: dict[Atom, Atom] = {}
            for k in sorted({k for key in new.by_pred
                             for k in watch.get(key, ())}):
                i, rule = stratum_rules[k]
                _fire(rule, i, bodies[k], new, db, firings, found)
            delta = [a for a in found if db.add(a)]

    rank = {a: n for n, a in enumerate(db.all)}
    edges: list[Hyperedge] = []
    for key in sorted(firings, key=lambda key: (key[0], [rank[a] for a in key[1]])):
        i, matched = key
        s, head = firings[key]
        rule = program.rules[i]
        gneg = tuple(g for l in rule.body if l.negated
                     if (g := db.all.get(_apply(l.atom, s))) is not None)
        edges.append(Hyperedge(head, matched, gneg,
                               GroundRuleId(i, tuple(sorted(s.items()))),
                               rule.prob))

    # one event variable per uncertain ground rule, in declaration order
    uncertain = sorted((e.rule_id for e in edges if e.prob < 1.0),
                       key=_subst_order)
    return DerivationGraph(edges, list(inputs),
                           {rid: i + 1 for i, rid in enumerate(uncertain)},
                           strata, None if recursive else [])


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
    cycles = g.cycles()
    if not cycles:
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
    g2 = DerivationGraph(new_edges, g.input_facts, g.event_var, g.strata, [],
                         all_aliases)
    try:
        g2.topo_order()
    except PralineError:
        raise PralineError("unfolding left a cycle behind") from None
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
