"""Parser and program model for the praline input language.

The language is ProbLog-flavored:

    0.7 :: edge(5,7).                  marginal probability of an input fact
    0.8 :: edge(2,5) | edge(1,4).      conditional probability
    corr(edge(2,5), edge(2,6)).        declares facts as possibly correlated
    2 :: Class(edge(1,2)).             explicit correlation class assignment
    1 :: path(X,Y) :- edge(X,Y).       rule (probability may be omitted, then 1)
    path(X,Z) :- path(X,Y), edge(Y,Z).
    query(path(1,7)).

Negation is spelled ``\\+`` and is allowed in rule bodies and in the givens
of a conditional declaration.  Comments run from ``%`` to end of line.

The tokenizer makes one regex match per token, which also takes the
whitespace and comments before it, and keeps the tokens as three plain
lists: kinds, texts and start offsets.  A `line:col` is worked out from an
offset only for a `ParseError`.  One parse builds one `Atom` per distinct
functor and arguments, and every mention of that atom shares it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Union

Term = Union[str, int]  # lowercase constant / integer constant / uppercase variable


class PralineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PralineError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"parse error at {line}:{col}: {msg}" if line else msg)
        self.line = line
        self.col = col


class ProbabilityRangeError(PralineError):
    pass


class ConflictError(PralineError):
    pass


class NonStratifiedError(PralineError):
    pass


class ScaleError(PralineError):
    pass


class DimensionCapExceeded(PralineError):
    pass


class BudgetExceeded(PralineError):
    pass


class InfeasibleError(PralineError):
    """The declared input probabilities admit no joint distribution."""


def is_var(t: Term) -> bool:
    return isinstance(t, str) and (t[0].isupper() or t[0] == "_")


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to constants and variables.

    Atoms key every graph, memo and set of the pipeline, so the hash and
    groundness are computed once, in `__post_init__`.  They cannot go
    stale: an atom is frozen and its args are a tuple of strings and ints.
    The hash is the one the generated `__hash__` would give, so set and
    dict orders are the same as with it.
    """

    functor: str
    args: tuple[Term, ...] = ()
    _hash: int = field(init=False, compare=False, repr=False)
    is_ground: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.functor, self.args)))
        object.__setattr__(self, "is_ground",
                           not any(is_var(a) for a in self.args))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        return f"{self.functor}({','.join(str(a) for a in self.args)})"

    __repr__ = __str__


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return ("\\+" if self.negated else "") + str(self.atom)

    __repr__ = __str__


@dataclass
class Rule:
    head: Atom
    body: tuple[Literal, ...]
    prob: float = 1.0

    def __str__(self) -> str:
        body = ", ".join(str(l) for l in self.body)
        return f"{self.prob} :: {self.head} :- {body}."


@dataclass
class InputProbDecl:
    """``p :: I | S.``; an empty S means the marginal P(I) = p."""

    head: Atom
    givens: tuple[Literal, ...]
    prob: float

    @property
    def is_marginal(self) -> bool:
        return not self.givens

    def atoms(self) -> Iterable[Atom]:
        yield self.head
        for lit in self.givens:
            yield lit.atom

    def __str__(self) -> str:
        if self.is_marginal:
            return f"{self.prob} :: {self.head}."
        gs = ", ".join(str(l) for l in self.givens)
        return f"{self.prob} :: {self.head} | {gs}."


@dataclass
class CorrelationClass:
    """A set of input facts that may be statistically dependent.

    ``class_id`` is the user-declared id, or -1 for inferred classes.
    ``ordinal`` is the 1-based position in canonical order (order of first
    member declaration), used for display names V1, V2, ...
    Members keep declaration order; member k maps to bit k of the class's
    joint assignment bitvector.
    """

    class_id: int
    members: tuple[Atom, ...]
    ordinal: int = 0

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class Program:
    input_probs: list[InputProbDecl] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    corr_decls: list[tuple[Atom, ...]] = field(default_factory=list)
    class_decls: list[tuple[int, Atom]] = field(default_factory=list)
    queries: list[Atom] = field(default_factory=list)
    classes: list[CorrelationClass] = field(default_factory=list)
    fact_class: dict[Atom, tuple[int, int]] = field(default_factory=dict)
    # fact_class maps each input fact to (class position in self.classes, bit index)

    @property
    def input_facts(self) -> list[Atom]:
        """All declared input facts in first-appearance order."""
        seen: dict[Atom, None] = {}
        for d in self.input_probs:
            for a in d.atoms():
                seen.setdefault(a, None)
        for group in self.corr_decls:
            for a in group:
                seen.setdefault(a, None)
        for _, a in self.class_decls:
            seen.setdefault(a, None)
        return list(seen)


# One match per token: the whitespace and comments before it, then the
# token.  Every position matches, without backtracking (`bad` takes any
# other character, `eof` the end), so finditer walks the tokens back to back.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|%[^\n]*)*
    (?: (?P<num>\d+\.\d+|\.\d+|\d+)
      | (?P<name>[a-z][A-Za-z0-9_]*)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<op>::|:-|\\\+|[|,().])
      | (?P<eof>\Z)
      | (?P<bad>.) )
    """,
    re.VERBOSE,
)


class _Parser:
    """Recursive descent over the parallel token lists kinds, texts, starts.

    `parse_atom` returns the atom already built for the same functor and
    arguments, so a rule's body atom is the head atom of the rule that
    derives it.
    """

    def __init__(self, src: str):
        self.src = src
        kinds: list[str] = []
        texts: list[str] = []
        starts: list[int] = []
        for m in _TOKEN_RE.finditer(src):
            kind = m.lastgroup
            kinds.append(kind)
            texts.append(m[kind])
            starts.append(m.start(kind))
            if kind == "eof":
                break
        if "bad" in kinds:
            i = kinds.index("bad")
            raise ParseError(f"unexpected character {texts[i]!r}",
                             *self._line_col(starts[i]))
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.i = 0
        self.atoms: dict[tuple[str, tuple[Term, ...]], Atom] = {}

    def _line_col(self, pos: int) -> tuple[int, int]:
        return (self.src.count("\n", 0, pos) + 1,
                pos - self.src.rfind("\n", 0, pos))

    def error(self, msg: str, i: int) -> ParseError:
        """A ParseError at token i."""
        return ParseError(msg, *self._line_col(self.starts[i]))

    def peek(self) -> str:
        return self.texts[self.i]

    def expect(self, text: str):
        i = self.i
        if self.texts[i] != text:
            raise self.error(f"expected {text!r}, got {self.texts[i]!r}", i)
        self.i = i + 1

    def parse_program(self) -> Program:
        prog = Program()
        kinds = self.kinds
        while kinds[self.i] != "eof":
            self.parse_statement(prog)
        return prog

    def parse_statement(self, prog: Program):
        i = self.i
        kind = self.kinds[i]
        text = self.texts[i]
        if kind == "num":
            self.i += 1
            prob = float(text)
            self.expect("::")
            if not (0.0 <= prob <= 1.0) and self.peek() != "Class":
                raise ProbabilityRangeError(
                    f"probability {text} out of [0,1] at line "
                    f"{self._line_col(self.starts[i])[0]}"
                )
            self.parse_clause(prog, prob, i)
        elif kind == "name" and text == "corr":
            self.i += 1
            self.expect("(")
            atoms = [self.parse_atom()]
            while self.peek() == ",":
                self.i += 1
                atoms.append(self.parse_atom())
            self.expect(")")
            self.expect(".")
            self._require_ground(atoms, "corr declaration")
            prog.corr_decls.append(tuple(atoms))
        elif kind == "name" and text == "query":
            self.i += 1
            self.expect("(")
            atom = self.parse_atom()
            self.expect(")")
            self.expect(".")
            prog.queries.append(atom)
        elif kind == "name":
            self.parse_clause(prog, 1.0, i)
        else:
            raise self.error(f"unexpected token {text!r}", i)

    def parse_clause(self, prog: Program, prob: float, at: int):
        if self.kinds[self.i] == "var" and self.peek() == "Class":
            # explicit class assignment: k :: Class(fact).
            self.i += 1
            self.expect("(")
            atom = self.parse_atom()
            self.expect(")")
            self.expect(".")
            if prob != int(prob) or prob < 0:
                raise self.error(
                    f"class id must be a nonnegative integer, got {prob}", at)
            self._require_ground([atom], "class declaration")
            prog.class_decls.append((int(prob), atom))
            return
        head = self.parse_atom()
        nxt = self.peek()
        if nxt == ":-":
            self.i += 1
            body = self.parse_literals()
            self.expect(".")
            prog.rules.append(Rule(head, tuple(body), prob))
        elif nxt == "|":
            self.i += 1
            givens = self.parse_literals()
            self.expect(".")
            decl = InputProbDecl(head, tuple(givens), prob)
            self._require_ground(list(decl.atoms()), "probability declaration")
            prog.input_probs.append(decl)
        elif nxt == ".":
            self.i += 1
            decl = InputProbDecl(head, (), prob)
            self._require_ground([head], "probability declaration")
            prog.input_probs.append(decl)
        else:
            raise self.error(f"expected '.', '|' or ':-', got {nxt!r}", self.i)

    def parse_literals(self) -> list[Literal]:
        lits = [self.parse_literal()]
        while self.peek() == ",":
            self.i += 1
            lits.append(self.parse_literal())
        return lits

    def parse_literal(self) -> Literal:
        neg = False
        if self.peek() == "\\+":
            self.i += 1
            neg = True
        return Literal(self.parse_atom(), neg)

    def parse_atom(self) -> Atom:
        i = self.i
        kind = self.kinds[i]
        functor = self.texts[i]
        if kind != "name":
            if kind == "var":
                raise self.error(
                    f"atom cannot start with a variable: {functor!r}", i)
            raise self.error(f"expected an atom, got {functor!r}", i)
        self.i = i + 1
        if self.texts[i + 1] == "(":
            self.i = i + 2
            args = [self.parse_term()]
            while self.peek() == ",":
                self.i += 1
                args.append(self.parse_term())
            self.expect(")")
            key = (functor, tuple(args))
        else:
            key = (functor, ())
        atom = self.atoms.get(key)
        if atom is None:
            atom = self.atoms[key] = Atom(*key)
        return atom

    def parse_term(self) -> Term:
        i = self.i
        self.i = i + 1
        kind = self.kinds[i]
        text = self.texts[i]
        if kind == "num":
            if "." in text:
                raise self.error("float terms are not supported", i)
            return int(text)
        if kind == "name" or kind == "var":
            return text
        raise self.error(f"expected a term, got {text!r}", i)

    def _require_ground(self, atoms: list[Atom], what: str):
        for a in atoms:
            if not a.is_ground:
                raise ParseError(f"{what} must be ground, got {a}")


def parse(src: str) -> Program:
    """Parse source text and resolve correlation classes."""
    prog = _Parser(src).parse_program()
    return infer_correlation_classes(prog)


class _UnionFind:
    def __init__(self):
        self.parent: dict[Atom, Atom] = {}

    def add(self, x: Atom):
        self.parent.setdefault(x, x)

    def find(self, x: Atom) -> Atom:
        while self.parent[x] is not x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: Atom, y: Atom):
        rx, ry = self.find(x), self.find(y)
        if rx is not ry:
            self.parent[ry] = rx


def infer_correlation_classes(prog: Program) -> Program:
    """Partition the declared input facts into correlation classes.

    Facts referenced together in a conditional declaration or a corr(...)
    statement land in the same class (connected components of that relation).
    Explicit ``k :: Class(f)`` declarations name the class; facts sharing a
    declared id are unified.  A fact cannot be placed in two distinct declared
    classes, directly or through connectivity (ConflictError).  Everything
    else becomes a class with id -1.  Idempotent.
    """
    facts = prog.input_facts
    uf = _UnionFind()
    for f in facts:
        uf.add(f)
    for d in prog.input_probs:
        for a in d.atoms():
            uf.union(d.head, a)
    for group in prog.corr_decls:
        for a in group[1:]:
            uf.union(group[0], a)

    declared: dict[Atom, int] = {}
    by_id: dict[int, Atom] = {}
    for cid, a in prog.class_decls:
        if a in declared and declared[a] != cid:
            raise ConflictError(f"{a} placed in classes {declared[a]} and {cid}")
        declared[a] = cid
        if cid in by_id:
            uf.union(by_id[cid], a)
        else:
            by_id[cid] = a

    components: dict[Atom, list[Atom]] = {}
    for f in facts:  # keeps first-appearance order within each component
        components.setdefault(uf.find(f), []).append(f)

    classes: list[CorrelationClass] = []
    for members in components.values():
        ids = sorted({declared[m] for m in members if m in declared})
        if len(ids) > 1:
            raise ConflictError(
                f"facts {members} connect classes {ids} into one component"
            )
        cid = ids[0] if ids else -1
        classes.append(CorrelationClass(cid, tuple(members)))

    # canonical order: by first member declaration; ordinals are 1-based
    order = {f: i for i, f in enumerate(facts)}
    classes.sort(key=lambda c: order[c.members[0]])
    fact_class: dict[Atom, tuple[int, int]] = {}
    for pos, c in enumerate(classes):
        c.ordinal = pos + 1
        for bit, m in enumerate(c.members):
            fact_class[m] = (pos, bit)

    prog.classes = classes
    prog.fact_class = fact_class
    return prog


def format_bits(value: int, width: int) -> str:
    """Bitvector display string, member 0 leftmost ('110' = m0,m1 set)."""
    return "".join("1" if value >> k & 1 else "0" for k in range(width))


def parse_bits(s: str) -> int:
    return sum(1 << k for k, ch in enumerate(s) if ch == "1")
