"""Ground-truth reference engines: possible-worlds enumeration.

A world fixes every ground input fact and flips one independent biased coin
per uncertain ground rule.  Enumerating all worlds and summing the weights
of those that derive a fact gives its probability under one concrete joint
distribution, which makes this the oracle everything faster is tested
against.  Not on the production inference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from praline.constraints import ConstraintSystem
from praline.corrtypes import CorrEnv
from praline.frontend import Atom, InfeasibleError, Program, ScaleError
from praline.grounder import DerivationGraph, stratify
from praline.kernels import fixpoint_table, world_weights
from praline.optimizer import optimize_exact
from praline.symexpr import gen_objective

MAX_WORLD_BITS = 24
CHUNK_BITS = 16


@dataclass
class WorldSpace:
    """Encoded world enumeration problem: bit layout plus flat edge arrays."""

    graph: DerivationGraph
    n_fact_bits: int
    n_events: int
    node_index: dict[Atom, int]
    cls_off: np.ndarray
    cls_bits: np.ndarray
    dist_off: np.ndarray
    ev_prob: np.ndarray
    enc: dict = field(default_factory=dict)

    @property
    def n_bits(self) -> int:
        return self.n_fact_bits + self.n_events

    @property
    def n_worlds(self) -> int:
        return 1 << self.n_bits


def build_world_space(program: Program, graph: DerivationGraph) -> WorldSpace:
    """The world enumeration of a program's ground graph, cyclic or unfolded.

    Edges are grouped by their head predicate's stratum in
    `stratify(program)`, an unfolded copy `p@k` by that of `p`, so each
    stratum reaches its fixpoint before a negation reads it.
    """
    strata, _ = stratify(program)
    fact_bit = {}
    cls_off = [0]
    cls_bits = []
    dist_off = [0]
    offset = 0
    for cls in program.classes:
        for k, member in enumerate(cls.members):
            fact_bit[member] = offset + k
            cls_bits.append(offset + k)
        offset += len(cls.members)
        cls_off.append(len(cls_bits))
        dist_off.append(dist_off[-1] + (1 << len(cls.members)))

    # one bit per event the edges carry, in event order: the identity on
    # a whole graph, and only the events a sliced graph reads on its cone
    edge_prob = {e.event: e.prob for e in graph.edges if e.event}
    events = sorted(edge_prob)
    ev_slot = {var: k for k, var in enumerate(events)}
    n_events = len(events)
    ev_prob = np.array([edge_prob[var] for var in events])

    n_bits = offset + n_events
    if n_bits > MAX_WORLD_BITS:
        raise ScaleError(
            f"{n_bits} fact+event bits exceed the {MAX_WORLD_BITS}-bit "
            "world enumeration cap")

    node_index = {n: i for i, n in enumerate(graph.nodes)}
    input_bit = np.full(len(graph.nodes), -1, dtype=np.int64)
    for n, i in node_index.items():
        base = graph.as_input(n)
        if base is not None:
            input_bit[i] = fact_bit[base]

    def stratum(e) -> int:
        return strata.get(e.head.functor.split("@")[0], 0)

    order = sorted(range(len(graph.edges)),
                   key=lambda i: (stratum(graph.edges[i]), i))
    n_strata = max((stratum(e) for e in graph.edges), default=0) + 1
    head = np.zeros(len(order), dtype=np.int64)
    ev_bit = np.full(len(order), -1, dtype=np.int64)
    body_off = [0]
    body_node = []
    body_sign = []
    strat_edges = [0] * (n_strata + 1)
    for pos, i in enumerate(order):
        e = graph.edges[i]
        head[pos] = node_index[e.head]
        if e.event:
            ev_bit[pos] = offset + ev_slot[e.event]
        for a in e.pos:
            body_node.append(node_index[a])
            body_sign.append(1)
        for a in e.neg:
            body_node.append(node_index[a])
            body_sign.append(0)
        body_off.append(len(body_node))
        strat_edges[stratum(e) + 1] = pos + 1
    for s in range(1, n_strata + 1):
        strat_edges[s] = max(strat_edges[s], strat_edges[s - 1])

    enc = {
        "input_bit": input_bit,
        "head": head,
        "ev_bit": ev_bit,
        "body_off": np.array(body_off, dtype=np.int64),
        "body_node": np.array(body_node, dtype=np.int64),
        "body_sign": np.array(body_sign, dtype=np.uint8),
        "strat_off": np.array(strat_edges, dtype=np.int64),
    }
    return WorldSpace(graph, offset, n_events, node_index,
                      np.array(cls_off, dtype=np.int64),
                      np.array(cls_bits, dtype=np.int64),
                      np.array(dist_off, dtype=np.int64),
                      ev_prob, enc)


def _chunks(ws: WorldSpace):
    step = 1 << CHUNK_BITS
    for lo in range(0, ws.n_worlds, step):
        yield np.arange(lo, min(lo + step, ws.n_worlds), dtype=np.int64)


def _world_sums(ws: WorldSpace, mus: list[list[np.ndarray]], width: int,
                columns) -> np.ndarray:
    """Per distribution, the weighted sum over all worlds of the `width`
    columns that `columns` reads off each chunk's fixpoint table.

    The deterministic skeleton is evaluated once per world and reweighted
    for every distribution; shape (len(mus), width).
    """
    flats = [np.concatenate([np.asarray(d, dtype=np.float64) for d in mu])
             if len(mu) else np.zeros(1) for mu in mus]
    out = np.zeros((len(mus), width))
    e = ws.enc
    for ids in _chunks(ws):
        val = fixpoint_table(ids, len(ws.graph.nodes), e["input_bit"],
                             e["head"], e["ev_bit"], e["body_off"],
                             e["body_node"], e["body_sign"], e["strat_off"])
        sel = columns(val).astype(np.float64)
        for mi, flat in enumerate(flats):
            w = world_weights(ids, ws.cls_off, ws.cls_bits, ws.dist_off,
                              flat, ws.ev_prob, ws.n_fact_bits)
            out[mi] += w @ sel
    return out


def world_probs(targets: list[Atom], mus: list[list[np.ndarray]],
                ws: WorldSpace) -> np.ndarray:
    """P(target) for each sampled distribution; shape (len(mus), len(targets))."""
    cols = np.array([ws.node_index[t] for t in targets], dtype=np.int64)
    return _world_sums(ws, mus, len(targets), lambda val: val[:, cols])


def world_prob(target: Atom, mu: list[np.ndarray], ws: WorldSpace) -> float:
    return float(world_probs([target], [mu], ws)[0, 0])


def pair_probs(a: Atom, b: Atom, mus: list[list[np.ndarray]],
               ws: WorldSpace) -> np.ndarray:
    """Columns P(a), P(b), P(a and b) per distribution; shape (len(mus), 3)."""
    ia, ib = ws.node_index[a], ws.node_index[b]
    return _world_sums(ws, mus, 3, lambda val: np.stack(
        [val[:, ia], val[:, ib], val[:, ia] & val[:, ib]], axis=1))


def sample_feasible_mu(system: ConstraintSystem, rng: np.random.Generator,
                       count: int) -> list[list[np.ndarray]]:
    """Random feasible per-class distributions: vertex picks and mixtures."""
    sources = []
    for cs in system.classes:
        verts = cs.vertices()
        if verts is None:
            point = cs.feasible_point()
            if point is None:
                raise InfeasibleError("No solution")
            sources.append(("point", point))
        else:
            sources.append(("verts", verts))
    mus = []
    for k in range(count):
        mu = []
        for kind, v in sources:
            if kind == "point":
                mu.append(v)
            elif len(v) == 1:
                mu.append(v[0])
            elif k % 4 == 3:
                mu.append(v[rng.integers(len(v))])
            else:
                mu.append(rng.dirichlet(np.ones(len(v))) @ v)
        mus.append(mu)
    return mus


def exact_interval_oracle(output: Atom, env: CorrEnv) -> tuple[float, float]:
    """Exact probability bounds for one output via full vertex search.

    env is a feasible program's pipeline (`cli._pipeline`), grounded and
    unfolded once for all its outputs.
    """
    if output not in env.graph.nodes:
        return 0.0, 0.0  # underivable: false in every world
    obj = gen_objective(env.graph, env.ctx, output)
    res = optimize_exact(obj, env.system)
    return res.lo, res.hi
