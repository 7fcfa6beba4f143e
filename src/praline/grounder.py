"""Grounding: build the derivation hypergraph of a program.

solve_standard evaluates the rules bottom-up over the skeleton model (every
input fact assumed present, negative literals ignored) and records one
hyperedge per ground rule firing that the queries demand.  The skeleton
model contains every atom derivable in any possible world, so the recorded
graph covers all derivations of every demanded atom.

Demand is a magic-sets rewrite (Bancilhon, Maier, Sagiv and Ullman, PODS
1986; Beeri and Ramakrishnan, J. Logic Programming 1991).  `_demand` finds
the argument positions that the program's `query` atoms bind, passed left
to right through the positive bodies.  A rule of a predicate demanded with
bound positions gets a guard literal on a magic atom, which holds the
values at those positions under a name with an `@`, so no parsed atom has
it.  Magic rules derive the guards, from the queries' constants down.  A
predicate met with nothing bound, or that no query reaches, keeps its rules
unguarded and is grounded in full.  Magic atoms are join guards only: they
are never a node, never in an edge, never in the key of a firing.  A
program whose queries bind no argument, or that has none, is grounded in
full.  Either way one fixpoint runs every rule, magic ones included: the
skeleton model ignores negation, so strata change no atom and no firing.
`stratify` only rejects negation through recursion and says whether the
program is recursive; the world oracle stratifies the program itself.

Each rule is evaluated through a `_Plan`, compiled once: variables become
slots, and each positive literal of a join order knows which of its
argument positions the literals before it bind.  A literal bound in full
is one lookup, a literal bound in part reads an index that the database
keeps per predicate and bound positions, and a rule whose literals are
all ground is a membership test.  The evaluation is semi-naive: each
round joins only through the atoms the previous round derived, the delta
literal first, and a watch index, from each predicate to the plans with
a positive literal on it, limits a round to the plans its delta can fire.
It is the only pass over the rules: every firing over the final model is
met in the round that derives the last of its body atoms, and is recorded
then.  The edges are sorted afterwards into the order of a rule-by-rule
join over the final model: by rule index, then by the insertion ranks of
the matched body atoms, literal by literal.  Each ground atom is one
shared instance, in the model and in every edge.  Each uncertain firing
flips one independent coin, and its edge carries that coin's event number
(`Hyperedge.event`, 0 for a certain rule), counted over the recorded
firings by rule index, then by the sorted substitution.
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
the full graph's components and runs no second cycle search.  A slice
keeps each edge whole, event number included, so it names each event by
the same variable as the full graph; the input facts stay the whole
program's, so the constraints built from the declarations cover every
fact whatever the slice reads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
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
class Hyperedge:
    """One ground rule firing: head <- pos, not neg.

    `event` numbers the independent coin an uncertain ground rule flips,
    from 1 up across the whole program; 0 marks a certain rule.  Unfolded
    copies of a firing keep its number, so they share one coin.
    """

    head: Atom
    pos: tuple[Atom, ...]
    neg: tuple[Atom, ...]
    prob: float
    event: int = 0

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
        input facts stay the whole program's, and each edge keeps its event
        number.  A component lies wholly inside the cone or wholly outside
        it, so the cone keeps the components already found, without a
        second search.
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


def stratify(program: Program) -> tuple[dict[str, int], bool]:
    """Assign a stratum to every predicate; negation may not cross a cycle.

    Also says whether any predicate is recursive: without that, no ground
    atom can depend on itself either.  The dependencies are kept in rule
    and body order, so a program with negation inside a cycle is told of
    the first such literal, on every run.
    """
    # each predicate's body predicates, in rule and body order
    deps: dict[str, list[str]] = {f.functor: [] for f in program.input_facts}
    negations: list[tuple[str, str]] = []
    for r in program.rules:
        head = r.head.functor
        ds = deps.get(head)
        if ds is None:
            ds = deps[head] = []
        for l in r.body:
            ds.append(l.atom.functor)
            if l.negated:
                negations.append((head, l.atom.functor))
    for ds in list(deps.values()):
        for dep in ds:
            if dep not in deps:
                deps[dep] = []

    comp = _tarjan(deps, deps.__getitem__)
    comp_of = {}
    for i, c in enumerate(comp):
        for p in c:
            comp_of[p] = i
    for head, dep in negations:
        if comp_of[head] == comp_of[dep]:
            raise NonStratifiedError(
                f"negation on {dep} inside a recursive component of {head}")

    # strata: the least with head >= dep (+1 across negation).  A component
    # shares one stratum, as its inner edges are positive, and _tarjan lists
    # the components dependencies first, so one pass settles them all.
    negated = set(negations)
    strata: dict[str, int] = {}
    for i, c in enumerate(comp):
        level = max((strata[dep] + ((p, dep) in negated)
                     for p in c for dep in deps[p] if comp_of[dep] != i),
                    default=0)
        for p in c:
            strata[p] = level
    recursive = any(len(c) > 1 or c[0] in deps[c[0]] for c in comp)
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


Pred = tuple[str, int]  # functor and arity


def _pred(a: Atom) -> Pred:
    return a.functor, len(a.args)


def _demand(program: Program) -> dict[Pred, tuple[int, ...]]:
    """The argument positions that the queries bind, per rule head.

    A query binds its constants.  A rule passes its head's bound positions
    on through its positive body, left to right: a literal's position is
    bound when it holds a constant or a variable that the head or an
    earlier literal binds.  A negated literal has all its arguments bound,
    since the positive body binds them.  A predicate that no query reaches,
    through the rule bodies, is grounded in full: it is met with nothing
    bound.  A predicate met in several ways keeps the positions bound in
    all of them, so the analysis runs until no predicate loses a position.
    Every predicate that heads a rule gets a tuple, empty when it is
    grounded in full.  Empty when no query binds a position of a rule head.
    Demand picks the atoms grounded, not the schedule: guarded or not,
    every rule runs in `solve_standard`'s one fixpoint.
    """
    if not any(q.args for q in program.queries):
        return {}
    rules_of: dict[Pred, list[Rule]] = {}
    for r in program.rules:
        rules_of.setdefault(_pred(r.head), []).append(r)
    reached: set[Pred] = set()
    stack = [_pred(q) for q in program.queries]
    while stack:
        pred = stack.pop()
        if pred in rules_of and pred not in reached:
            reached.add(pred)
            stack.extend(_pred(l.atom) for r in rules_of[pred] for l in r.body)
    bound: dict[Pred, set[int]] = {pred: set() for pred in rules_of
                                   if pred not in reached}
    work: list[Pred] = list(bound)

    def meet(a: Atom, known):
        pred = _pred(a)
        if pred not in rules_of:
            return
        have = {p for p, t in enumerate(a.args) if not is_var(t) or t in known}
        old = bound.get(pred)
        if old is None or not old <= have:
            bound[pred] = have if old is None else old & have
            work.append(pred)

    for q in program.queries:
        meet(q, ())
    while work:
        pred = work.pop()
        have = bound[pred]
        for r in rules_of[pred]:
            known = {r.head.args[p] for p in have}
            for l in r.body:
                if not l.negated:
                    meet(l.atom, known)
                    known |= set(l.atom.args)
            for l in r.body:
                if l.negated:
                    meet(l.atom, l.atom.args)
    if not any(bound.values()):
        return {}
    return {pred: tuple(sorted(have)) for pred, have in bound.items()}


def _magic_rules(program: Program, demand: dict[Pred, tuple[int, ...]]):
    """The guard of each rule, and the rules and seeds that derive guards.

    The magic atom of an atom on a predicate demanded with bound positions
    holds the atom's arguments at those positions, under a name with an
    `@`, which no parsed atom has.  A rule of such a predicate is guarded
    by its head's magic atom.  Each rule derives the magic atom of
    each positive literal from its guard and the literals before it, and
    that of each negated literal from its guard and its whole positive
    body; each query seeds its own.  Returns (guards, magic rules, seeds),
    guards aligned with program.rules and None for an unguarded rule.
    """
    def magic(a: Atom) -> Optional[Atom]:
        positions = demand.get(_pred(a))
        if not positions:
            return None
        return Atom(f"@{a.functor}/{len(a.args)}",
                    tuple(a.args[p] for p in positions))

    guards = [magic(r.head) for r in program.rules]
    derive: dict[tuple[Atom, tuple[Atom, ...]], None] = {}
    for r, guard in zip(program.rules, guards):
        body = [guard] if guard else []
        for l in r.body:
            if not l.negated:
                m = magic(l.atom)
                if m is not None and m not in body:
                    derive[m, tuple(body)] = None
                body.append(l.atom)
        for l in r.body:
            if l.negated and (m := magic(l.atom)) is not None:
                derive[m, tuple(body)] = None
    rules = [Rule(m, tuple(Literal(a) for a in body)) for m, body in derive]
    seeds = [m for q in program.queries if (m := magic(q)) is not None]
    return guards, rules, seeds


class _Db:
    """Ground atoms, stored for the join plans.

    `all` maps each atom to itself: a dict, not a set, so insertion order
    keeps grounding order, and the graph it builds, the same under every
    hash seed, and a lookup finds the one instance the graph shares.
    `rel` holds the atoms of each predicate that a join reads, given when
    the database is made, keyed by their argument tuples, in insertion
    order: a literal that its plan binds in full is one lookup there.
    `index` groups such a predicate's atoms by their values at some
    argument positions; it is built when a plan first asks for it and kept
    up to date as atoms are added.
    """

    def __init__(self, joined: set[Pred]):
        self.all: dict[Atom, Atom] = {}
        self.rel: dict[Pred, dict[tuple[Term, ...], Atom]] = {
            pred: {} for pred in joined}
        self.indexes: dict[Pred, dict[tuple[int, ...], dict]] = {}

    def add(self, a: Atom) -> bool:
        if a in self.all:
            return False
        self.all[a] = a
        if self.rel:
            pred = (a.functor, len(a.args))
            rel = self.rel.get(pred)
            if rel is not None:
                rel[a.args] = a
                for positions, groups in self.indexes.get(pred, {}).items():
                    groups.setdefault(tuple([a.args[p] for p in positions]),
                                      []).append(a)
        return True

    def index(self, pred: Pred, positions: tuple[int, ...]) -> dict:
        have = self.indexes.setdefault(pred, {})
        groups = have.get(positions)
        if groups is None:
            groups = have[positions] = {}
            for a in self.rel[pred].values():
                groups.setdefault(tuple([a.args[p] for p in positions]),
                                  []).append(a)
        return groups


class _Plan:
    """One rule compiled for the semi-naive joins.

    Variables become slots, numbered in order of first occurrence in the
    positive body; a guard, if any, is the first positive literal.  A rule
    whose positive literals are all ground keeps no join order: it fires
    when every one of them is in the database.  Any other rule compiles,
    on first use, one join order per positive literal: that literal first,
    matched against the round's delta, then the others in body order.
    Each step there knows which of its literal's positions the earlier
    steps bind: all of them make it a lookup in `_Db.rel`, some of them a
    lookup in a `_Db.index`, none a scan of the predicate.

    `index` is the rule's position in the program, or -1 for a rule that
    derives magic atoms: its firings make no edge.  The key of a firing is
    the rule index and the atoms its own positive literals matched, the
    guard left out.
    """

    __slots__ = ("index", "head", "prob", "neg", "pos", "first", "slot",
                 "ground", "orders")

    def __init__(self, rule: Rule, index: int, guard: Optional[Atom] = None):
        pos = tuple(l.atom for l in rule.body if not l.negated)
        self.neg = tuple(l.atom for l in rule.body if l.negated)
        self.slot: dict[str, int] = {}
        for a in pos:
            if not a.is_ground:
                for t in a.args:
                    if is_var(t):
                        self.slot.setdefault(t, len(self.slot))
        if not rule.head.is_ground or not all(a.is_ground for a in self.neg):
            loose = {t for a in (rule.head, *self.neg) for t in a.args
                     if is_var(t) and t not in self.slot}
            if loose:
                raise UnsafeRuleError(f"unsafe rule {rule}: variables "
                                      f"{sorted(loose)} do not occur in the "
                                      "positive body")
        self.index = index
        self.head = rule.head
        self.prob = rule.prob
        self.first = 0 if guard is None else 1
        self.pos = pos if guard is None else (guard, *pos)
        self.ground = not self.slot
        self.orders: Optional[dict[int, list[tuple]]] = \
            None if self.ground else {}

    def bind(self, a: Atom, slots: list) -> Atom:
        """a with its variables replaced by the slots' values."""
        if a.is_ground:
            return a
        return Atom(a.functor, tuple(slots[self.slot[t]] if is_var(t) else t
                                     for t in a.args))

    def _order(self, j: int, db: _Db) -> list[tuple]:
        """The steps of the join through the delta at positive literal j.

        A step is (literal, table, key, full, consts, assign, same): the
        literal's position, the table its candidates come from, how to
        build the key that selects them (None: every atom of the table),
        whether that key is the whole argument tuple, and the checks and
        bindings each candidate goes through: constants to compare (the
        delta step only), slots to set, slots to compare.
        """
        steps = []
        known: set[str] = set()
        for k in [j, *(k for k in range(len(self.pos)) if k != j)]:
            a = self.pos[k]
            key, consts, assign, same = [], [], [], []
            for p, t in enumerate(a.args):
                if not is_var(t):
                    if k == j:
                        consts.append((p, t))
                    else:
                        key.append((p, False, t))
                elif t in known:
                    key.append((p, True, self.slot[t]))
                elif any(u == t for u in a.args[:p]):
                    same.append((p, self.slot[t]))
                else:
                    assign.append((p, self.slot[t]))
            known.update(t for t in a.args if is_var(t))
            pred = _pred(a)
            full = len(key) == len(a.args)
            if k == j:
                table = None
            elif full or not key:
                table = db.rel[pred]
            else:
                table = db.index(pred, tuple(p for p, _, _ in key))
            parts = tuple((is_slot, v) for _, is_slot, v in key)
            steps.append((k, table, parts if key or full else None, full,
                          consts, assign, same))
        return steps

    def fire(self, new: dict[Pred, list[Atom]], db: _Db, firings: dict,
             found: dict[Atom, Atom]):
        """Record the firings through the delta; collect their new heads.

        A firing met for the first time goes into firings, keyed by the
        rule index and its matched atoms, with its slot values and its
        head.  The head is the instance db or found already holds, so the
        graph shares one per atom.  A magic rule only collects its heads.
        """
        if self.ground:
            matched = []
            for a in self.pos:
                g = db.all.get(a)
                if g is None:
                    return
                matched.append(g)
            self._emit((), matched, db, firings, found)
            return
        slots = [None] * len(self.slot)
        matched = [None] * len(self.pos)
        for j, a in enumerate(self.pos):
            cands = new.get(_pred(a))
            if cands:
                steps = self.orders.get(j)
                if steps is None:
                    steps = self.orders[j] = self._order(j, db)
                self._join(steps, 0, cands, slots, matched, db, firings,
                           found)

    def _join(self, steps, k, cands, slots, matched, db, firings, found):
        lit, _, _, _, consts, assign, same = steps[k]
        last = k + 1 == len(steps)
        if not last:
            _, table, parts, full, _, _, _ = steps[k + 1]
        for a in cands:
            args = a.args
            for p, c in consts:
                if args[p] != c:
                    break
            else:
                for p, s in assign:
                    slots[s] = args[p]
                for p, s in same:
                    if args[p] != slots[s]:
                        break
                else:
                    matched[lit] = a
                    if last:
                        self._emit(slots, matched, db, firings, found)
                        continue
                    if parts is None:
                        nxt = table.values()
                    else:
                        key = tuple([slots[v] if is_slot else v
                                     for is_slot, v in parts])
                        if full:
                            g = table.get(key)
                            nxt = () if g is None else (g,)
                        else:
                            nxt = table.get(key, ())
                    self._join(steps, k + 1, nxt, slots, matched, db,
                               firings, found)

    def _emit(self, slots, matched, db, firings, found):
        if self.index < 0:
            head = self.bind(self.head, slots)
            if head not in db.all:
                found.setdefault(head, head)
            return
        key = (self.index, tuple(matched[self.first:]))
        if key in firings:
            return
        head = self.bind(self.head, slots)
        g = db.all.get(head)
        if g is None:
            g = found.setdefault(head, head)
        firings[key] = (tuple(slots), g)


def _subst_order(index: int, s: dict[str, Term]):
    """Sort key of a ground rule: its rule index, then its substitution
    sorted by variable, integer constants before names."""
    return index, tuple((v, isinstance(t, str), t) for v, t in sorted(s.items()))


def solve_standard(program: Program) -> DerivationGraph:
    """Ground the program and record the demanded rule firings as hyperedges.

    One semi-naive pass computes the model and meets every firing over it;
    the first meeting of each is kept.  The edges are then put in the order
    of a join over the final model, rule by rule with each literal's
    candidates in insertion order: by rule index, then by the insertion
    ranks of the matched atoms.  Each uncertain firing gets its event
    number on its edge, counted in the order of `_subst_order`.

    Every rule runs in that fixpoint, whatever its stratum: a negated
    literal is only looked up in the final model, when the edges are built.
    When the queries bind arguments (`_demand`), the magic rules
    (`_magic_rules`) join the guarded ones; else the whole program runs.
    """
    demand = _demand(program)
    guards, magic, seeds = _magic_rules(program, demand) if demand else \
        ([None] * len(program.rules), [], [])
    plans = [_Plan(r, i, g)
             for i, (r, g) in enumerate(zip(program.rules, guards))]
    _, recursive = stratify(program)
    plans += [_Plan(r, -1) for r in magic]
    inputs = program.input_facts

    db = _Db({_pred(a) for plan in plans if not plan.ground
              for a in plan.pos})
    for f in [*inputs, *seeds]:
        db.add(f)

    # semi-naive: each round only joins through the atoms discovered in the
    # previous round, grouped by predicate so a literal only meets the
    # delta atoms of its own.  The watch index maps a predicate to the
    # plans with a positive literal on it, so a round visits only the plans
    # its delta can fire, in rule order.
    watch: dict[Pred, list[int]] = {}
    for k, plan in enumerate(plans):
        for a in plan.pos:
            watch.setdefault((a.functor, len(a.args)), []).append(k)
    firings: dict[tuple[int, tuple[Atom, ...]], tuple[tuple, Atom]] = {}
    delta = list(db.all)
    for plan in plans:
        if not plan.pos:
            head = plan.head
            if db.add(head):
                delta.append(head)
            if plan.index >= 0:
                firings[(plan.index, ())] = ((), db.all[head])
    while delta:
        new: dict[Pred, list[Atom]] = {}
        for d in delta:
            new.setdefault((d.functor, len(d.args)), []).append(d)
        found: dict[Atom, Atom] = {}
        for k in sorted({k for pred in new for k in watch.get(pred, ())}):
            plans[k].fire(new, db, firings, found)
        delta = [a for a in found if db.add(a)]

    # one event per uncertain ground rule, in declaration order
    def subst(key):
        plan = plans[key[0]]
        return dict(zip(plan.slot, firings[key][0]))

    uncertain = sorted((key for key in firings if plans[key[0]].prob < 1.0),
                       key=lambda key: _subst_order(key[0], subst(key)))
    event = {key: n for n, key in enumerate(uncertain, 1)}
    rank = {a: n for n, a in enumerate(db.all)}
    edges: list[Hyperedge] = []
    for key in sorted(firings, key=lambda key: (key[0], [rank[a] for a in key[1]])):
        slots, head = firings[key]
        plan = plans[key[0]]
        gneg = tuple(g for a in plan.neg
                     if (g := db.all.get(plan.bind(a, slots))) is not None)
        edges.append(Hyperedge(head, key[1], gneg, plan.prob,
                               event.get(key, 0)))
    return DerivationGraph(edges, list(inputs), None if recursive else [])


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
            e = replace(e, neg=tuple(b for b in e.neg if b in derivable))
        kept.append(e)
    return kept


def break_cycles(g: DerivationGraph) -> DerivationGraph:
    """Unfold every recursive component into depth-indexed copies.

    A component of d nodes saturates any world's fixpoint within d rounds, so
    copies 0..d suffice: copy k derives from copy k-1 inside the component
    and from final nodes outside it.  The copy at depth d keeps the original
    atom name, so consumers outside the component are untouched.  All copies
    of one ground rule keep its event number; carry edges (copy k from
    copy k-1) are certain.
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
                new_edges.append(Hyperedge(_copy_name(n, 0), (leaf,), (), 1.0))
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
                    new_edges.append(Hyperedge(head, pos, e.neg, e.prob, e.event))
            for k in range(1, d + 1):
                head = n if k == d else _copy_name(n, k)
                new_edges.append(Hyperedge(head, (_copy_name(n, k - 1),), (), 1.0))

    all_aliases = {**g.input_alias, **aliases}
    new_edges = _prune_false(new_edges, g.input_facts, all_aliases)
    g2 = DerivationGraph(new_edges, g.input_facts, [], all_aliases)
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
