import itertools
from collections import Counter
from dataclasses import replace

import pytest

import praline.grounder as grounder
from praline import Atom, NonStratifiedError, parse
from praline.approx import approx_bounds
from praline.cli import _pipeline, solve_source
from praline.grounder import (
    Hyperedge,
    UnsafeRuleError,
    break_cycles,
    depends,
    solve_standard,
)

from conftest import CHAIN as CYCLIC_CHAIN
from conftest import ROADS, SIXPACK, random_program_source
from oracles import reference_ground, substitute, unify


def ground(src):
    return solve_standard(parse(src))


def atoms(strs):
    from praline.frontend import _Parser

    return [_Parser(s).parse_atom() for s in strs]


def test_roads_graph(roads):
    g = solve_standard(roads)
    assert g.acyclic  # the path rules never revisit a node on these edges
    p17 = Atom("path", (1, 7))
    edges = [g.edges[i] for i in g.in_edges[p17]]
    bodies = {tuple(map(str, e.pos)) for e in edges}
    assert bodies == {("path(1,5)", "edge(5,7)"), ("path(1,6)", "edge(6,7)")}
    # six base-case firings, one per edge fact
    base = [e for e in g.edges if e.pos[0].functor == "edge"]
    assert len(base) == 6


def test_events_only_for_uncertain_rules(roads):
    g = solve_standard(roads)
    assert all(e.event == 0 for e in g.edges)  # every rule has probability 1
    g2 = ground("0.5::a. 0.9::b :- a. 1::c :- b.")
    assert [(str(e.head), e.event) for e in g2.edges] == [("b", 1), ("c", 0)]


def test_event_order_is_declaration_order():
    g = ground("0.5::a. 0.5::b. 0.9::x :- a. 0.8::y :- b. 0.7::z :- x, y.")
    assert {str(e.head): e.event for e in g.edges} == {"x": 1, "y": 2, "z": 3}


def test_event_numbering_puts_integers_before_names():
    # an argument that holds both kinds of constant must not compare an
    # int with a str; the integer's event comes first, whatever the order
    # of the edges
    g = ground("0.5::e(a). 0.5::e(1). 0.9::p(X) :- e(X). query(p(1)).")
    assert [(str(e.head), e.event) for e in g.edges] == \
        [("p(a)", 2), ("p(1)", 1)]


def test_duplicate_firings_are_one_event():
    # both body orders produce the same substitution set but distinct
    # substitutions, hence two distinct events
    g = ground("0.5::e(1,2). 0.5::e(2,1). 0.9::h :- e(X,Y), e(Y,X).")
    h_edges = [g.edges[i] for i in g.in_edges[Atom("h")]]
    assert len(h_edges) == 2
    assert {e.event for e in h_edges} == {1, 2}


def test_duplicate_certain_rules_are_two_equal_edges():
    # nothing names a certain rule, so its two copies are equal values;
    # the graph keeps both, and a disjunction of equal derivations is one
    src = "0.5::a. h :- a. h :- a. query(h)."
    g = ground(src)
    assert len(g.edges) == 2
    assert g.edges[0] == g.edges[1]
    for mode in ("exact", "approx", "delta"):
        assert solve_source(src, mode=mode).render() == "h: [0.5, 0.5]", mode


def test_underivable_negation_dropped():
    g = ground("0.5::a. 1::h :- a, \\+ghost.")
    e = g.edges[g.in_edges[Atom("h")][0]]
    assert e.neg == ()


def test_derivable_negation_kept():
    g = ground("0.5::a. 0.5::b. 1::x :- b. 1::h :- a, \\+x.")
    e = g.edges[g.in_edges[Atom("h")][0]]
    assert [str(n) for n in e.neg] == ["x"]


def test_unsafe_rule_rejected():
    with pytest.raises(UnsafeRuleError):
        ground("0.5::e(1,2). 1::h(X,Z) :- e(X,Y).")
    with pytest.raises(UnsafeRuleError):
        ground("0.5::e(1,2). 1::h(X) :- e(X,Y), \\+e(Y,Z).")


def test_nonstratified_rejected():
    with pytest.raises(NonStratifiedError):
        ground("0.5::a. 1::p :- a, \\+q. 1::q :- \\+p.")


def test_stratified_negation_layers():
    g = ground("0.5::a. 1::p :- a. 1::q :- \\+p. 1::r :- \\+q.")
    assert g.strata["p"] < g.strata["q"] < g.strata["r"]


def test_cycle_detection_and_unfolding():
    src = """
    0.5::e(1,2). 0.5::e(2,1). 0.5::e(2,3).
    1::r(X,Y) :- e(X,Y).
    1::r(X,Z) :- r(X,Y), r(Y,Z).
    query(r(1,3)).
    """
    g = ground(src)
    assert not g.acyclic  # r(1,2) and r(2,1) feed each other via r(1,1)/r(2,2)
    assert g.cycles() is g.cycles()
    g2 = break_cycles(g)
    assert g2.acyclic
    # original names survive as the final unfolding level
    for a in ("r(1,3)", "r(1,1)", "r(2,2)"):
        assert any(str(n) == a for n in g2.nodes)


def test_unfolded_copies_keep_their_event():
    g = ground(FAN)
    g2 = break_cycles(g)
    assert len(g2.edges) > len(g.edges)

    def rule_of(e):
        return e.head.functor.split("@")[0], e.head.args, e.prob

    # every copy of a firing carries its event; no edge gains one
    assert {e.event: rule_of(e) for e in g2.edges if e.event} == \
        {e.event: rule_of(e) for e in g.edges if e.event}


def test_pipeline_searches_for_cycles_once(monkeypatch):
    # grounding finds the components and unfolding reuses them; the unfolded
    # graph is checked by its topological order, not by another search
    calls = []
    find = grounder._find_cycles
    monkeypatch.setattr(grounder, "_find_cycles",
                        lambda g: calls.append(g) or find(g))
    work = _pipeline(parse(CYCLIC_CHAIN))[0].graph
    assert len(calls) == 1
    assert work.acyclic


def _source(n):
    """X of a path(X,Y) node or of one of its copies, else None."""
    return str(n.args[0]) if n.functor.split("@")[0] == "path" else None


def test_pipeline_reads_only_the_query_cone(monkeypatch):
    # CHAIN queries path(0,*) only: no later layer may see path(X,*), X != 0
    import praline.cli as cli
    grounded, unfolded = [], []
    ground_fn, unfold_fn = cli.solve_standard, cli.break_cycles
    monkeypatch.setattr(cli, "solve_standard",
                        lambda p: grounded.append(ground_fn(p)) or grounded[-1])
    monkeypatch.setattr(cli, "break_cycles",
                        lambda g: unfolded.append(g) or unfold_fn(g))
    env = _pipeline(parse(CYCLIC_CHAIN))[0]
    work = env.graph
    assert {_source(n) for n in work.nodes} == {None, "0"}
    (sliced,) = unfolded
    assert sliced.cycles()
    assert {_source(n) for scc in sliced.cycles() for n in scc} == {"0"}
    assert set(approx_bounds(env)) == set(work.nodes)
    # the grounder's own graph stays whole for its callers
    (full,) = grounded
    assert len(full.edges) == 168
    assert {_source(n) for scc in full.cycles() for n in scc} != {"0"}


def test_cone_is_self_when_every_edge_is_read(roads):
    g = solve_standard(roads)
    assert g.cone(g.derived_nodes) is g
    assert len(g.cone([Atom("path", (1, 7))]).edges) == 5


def test_break_cycles_noop_on_acyclic(roads):
    g = solve_standard(roads)
    assert break_cycles(g) is g


def test_self_loop_unfolds():
    g = ground("0.5::a. 1::p :- a. 1::p :- p.")
    assert not g.acyclic
    g2 = break_cycles(g)
    assert g2.acyclic
    assert Atom("p") in g2.in_edges


def test_depends_polarity():
    g = ground("0.5::a. 0.5::b. 1::x :- b. 1::h :- a, \\+x. 1::k :- h, b.")
    dp, dn = depends(g)
    a, b = Atom("a"), Atom("b")
    # h reads a through a positive path and b through a negation only
    assert a in dp[Atom("h")] and a not in dn[Atom("h")]
    assert b in dn[Atom("h")] and b not in dp[Atom("h")]
    # k reads b both ways; x never reads a
    assert b in dp[Atom("k")] and b in dn[Atom("k")]
    assert a not in dp[Atom("x")] and a not in dn[Atom("x")]


def test_depends_roads(roads):
    g = solve_standard(roads)
    dp, dn = depends(g)
    p17 = Atom("path", (1, 7))
    assert dn[p17] == frozenset()
    names = sorted(map(str, dp[p17]))
    assert names == ["edge(1,2)", "edge(2,5)", "edge(2,6)", "edge(5,7)", "edge(6,7)"]


def test_input_fact_in_cycle_gets_alias():
    # the input fact p is also derivable through a cycle with q
    g = ground("0.5::a. 0.5::p. 1::p :- q. 1::q :- p, a.")
    g2 = break_cycles(g)
    assert g2.acyclic
    assert any(base == Atom("p") for base in g2.input_alias.values())
    dp, _ = depends(g2)
    assert Atom("p") in dp[Atom("q")]


def test_topo_order(roads):
    g = solve_standard(roads)
    assert g.topo_order() is g.topo_order()
    order = {n: i for i, n in enumerate(g.topo_order())}
    for e in g.edges:
        for b in e.bodies():
            assert order[b] < order[e.head]


# A chain with a back link on every third step, so path/2 is recursive
# through cycles, and a transitive closure joining two recursive literals.
CHAIN = "".join(f"0.5::edge({i},{i + 1}).\n" for i in range(7)) + \
    "".join(f"0.5::edge({i + 1},{i - 1}).\n" for i in range(2, 7, 3)) + """\
0.9::path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y), edge(Y,Z).
query(path(0,7)).
"""
CLOSURE = """\
0.5::e(1,2). 0.5::e(2,1). 0.5::e(2,3). 0.5::e(3,4).
1::r(X,Y) :- e(X,Y).
1::r(X,Z) :- r(X,Y), r(Y,Z).
1::s(X) :- r(X,X), \\+e(X,3).
query(r(1,4)).
"""
# Each derivation needs the atom found in the round before at its second
# literal, so t(1)'s edge is met only by a join through that round's delta.
LAYERS = """\
0.5::e(1). 0.5::f(1).
1::p(X) :- f(X).
1::q(X) :- e(X), p(X).
1::t(X) :- e(X), q(X).
1::u(X) :- f(X), \\+t(X).
query(u(1)).
"""


def _firings(pos, model):
    for combo in itertools.product(model, repeat=len(pos)):
        s = {}
        for pattern, atom in zip(pos, combo):
            s = unify(pattern, atom, s)
            if s is None:
                break
        if s is not None:
            yield s


def naive_ground(program):
    """Model and hyperedges by naive evaluation: every rule, every round.

    The edges are a multiset, and carry no event numbers.
    """
    model = set(program.input_facts)
    while True:
        found = {substitute(r.head, s) for r in program.rules
                 for s in _firings([l.atom for l in r.body if not l.negated],
                                   model)}
        if found <= model:
            break
        model |= found
    edges = Counter()
    for r in program.rules:
        pos = [l.atom for l in r.body if not l.negated]
        neg = [l.atom for l in r.body if l.negated]
        # a ground rule's substitution is one firing, however many ways
        # its body atoms are met
        firings = {tuple(sorted(s.items())): s for s in _firings(pos, model)}
        for s in firings.values():
            edges[Hyperedge(
                substitute(r.head, s), tuple(substitute(a, s) for a in pos),
                tuple(n for a in neg if (n := substitute(a, s)) in model),
                r.prob)] += 1
    return model, edges


def _assert_matches_naive(src):
    program = parse(src)
    g = solve_standard(program)
    model, edges = naive_ground(program)
    assert set(g.nodes) == model
    assert Counter(replace(e, event=0) for e in g.edges) == edges


@pytest.mark.parametrize("src", [ROADS, CHAIN, CLOSURE, LAYERS],
                         ids=["roads", "chain", "closure", "layers"])
def test_semi_naive_matches_naive_fixpoint(src):
    _assert_matches_naive(src)


@pytest.mark.parametrize("seed", range(30))
def test_semi_naive_matches_naive_fixpoint_random(seed):
    _assert_matches_naive(random_program_source(seed))


# Recursive through r/2, with negation, and several candidates for every
# literal, met in an order that differs from the atoms' insertion ranks.
FAN = """\
0.5::e(1,2). 0.5::e(1,3). 0.5::e(2,3). 0.5::e(3,1). 0.5::e(3,4). 0.5::e(2,4).
0.5::b(2). 0.5::b(4).
0.8::r(X,Y) :- e(X,Y).
0.9::r(X,Z) :- e(X,Y), r(Y,Z).
0.7::r(X,Z) :- r(X,Y), r(Y,Z), \\+b(Y).
0.6::s(X,Y) :- r(X,Y), e(Y,X), \\+r(Y,Y).
query(s(1,3)).
"""


def _assert_matches_reference(src):
    # the one-pass grounder sorts its edges into the order the two-pass
    # one enumerates them in; everything built from the edges follows
    program = parse(src)
    got, want = solve_standard(program), reference_ground(program)
    assert got.edges == want.edges  # events included
    assert got.nodes == want.nodes
    assert got.cycles() == want.cycles()


@pytest.mark.parametrize(
    "src", [ROADS, SIXPACK, CYCLIC_CHAIN, CHAIN, CLOSURE, LAYERS, FAN],
    ids=["roads", "sixpack", "cyclic_chain", "chain", "closure", "layers",
         "fan"])
def test_edges_match_reference_grounder(src):
    _assert_matches_reference(src)


@pytest.mark.parametrize("seed", range(200))
def test_edges_match_reference_grounder_random(seed):
    _assert_matches_reference(random_program_source(seed))


def test_graph_shares_one_instance_per_atom():
    g = ground(FAN)
    node = {n: n for n in g.nodes}
    assert all(a is node[a] for e in g.edges for a in (e.head, *e.bodies()))
