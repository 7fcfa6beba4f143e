"""Seeded program generators for the pipeline benchmark.

Every workload is a list of `Case`s: a program source, the modes to solve it
in, and what the output check needs to know about it.  The engine never sees
the seed, only the generated files.  Nothing here imports praline: programs
are built and screened for feasibility with plain numpy and scipy, so a
change to the engine cannot change the inputs it is measured on.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog

MODES = ("approx", "exact", "delta")

# The road network of the docs: two probe paths from node 1 to node 7, with
# three correlated edges around node 2.
ROADS = """\
% input facts
0.7::edge(5,7).
0.6::edge(1,2).
0.8::edge(6,7).
0.6::edge(2,5).
0.6::edge(1,4).
0.6::edge(2,6).
% correlations
0.8::edge(2,5)|edge(1,4).
0.83::edge(2,6)|edge(1,4).
% reachability
1::path(X,Y) :- edge(X,Y).
1::path(X,Z) :- path(X,Y), edge(Y,Z).
query(path(1,7)).
query(path(1,5)).
query(path(1,6)).
"""

# Hand-derived bounds on path(1,7): P = 0.54 - 0.336*q with
# q = P(edge(2,5), edge(2,6)) in [0.378, 0.582].  The delta golden is the
# paper's bracketing at delta 0.05.
ROADS_EXACT = (0.344448, 0.412992)
ROADS_APPROX = (0.288, 0.467424)
ROADS_DELTA_05 = (0.338, 0.417424)

# Six rules over one two-fact class pinned to a point by its declarations:
# P(e) = 0.35*0.1 + 0.1728*0.2 + (0.035 + 0.1728)*0.3 in every mode.
SIXPACK = """\
0.5::i1.
0.4::i2.
0.6::i2|i1.
0.9::a :- i1.
0.8::b :- a.
0.7::c :- \\+a, i2.
0.6::d :- b, a.
0.5::e :- c.
0.4::e :- d.
query(e).
"""
SIXPACK_E = 0.1319

# Conflicting conditionals: no joint distribution satisfies them.
CONFLICT = """\
0.5::i1.
0.3::i2.
0.6::i1|i2.
0.7::i1|\\+i2.
1::out :- i1.
query(out).
"""

# Fresh-interpreter set-up probe: one rule, one query, P(q) = 0.5.
SETUP_PROGRAM = "0.5::a.\nq :- a.\nquery(q).\n"


@dataclass
class Case:
    """One program and how the benchmark solves and checks it."""

    name: str
    source: str
    modes: tuple = MODES
    delta: float = 0.01
    infeasible: bool = False
    # atom -> (lo, hi) the interval must equal, per mode
    golden: dict = field(default_factory=dict)
    # sample P(q) under feasible distributions and check containment
    oracle: bool = False
    # expected number of derived nodes, checked against the grounder
    derived_nodes: Optional[int] = None
    # the interval must carry this flag (e.g. soundness_only)
    must_flag: Optional[str] = None


# --------------------------------------------------------------------------
# scale: the 5000-node layered program of acceptance criterion 9
# --------------------------------------------------------------------------

def layered_source(width=200, depth=25, class_size=14, extra=6):
    lines = []
    names = [f"f{i}" for i in range(class_size)]
    lines += [f"0.5::{n}." for n in names]
    lines.append("corr(" + ", ".join(names) + ").")
    others = [f"g{i}" for i in range(extra)]
    lines += [f"0.{55 + i:02d}::{n}." for i, n in enumerate(others)]
    prev = names + others
    for layer in range(depth):
        cur = []
        for j in range(width):
            a = prev[j % len(prev)]
            b = prev[(3 * j + 7) % len(prev)]
            head = f"n{layer}_{j}"
            prob = "0.9" if j % 5 == 0 else "1"
            lines.append(f"{prob}::{head} :- {a}, {b}.")
            cur.append(head)
        prev = cur
    lines.append(f"query(n{depth - 1}_0).")
    return "\n".join(lines) + "\n"


def scale_cases(seed):
    """The criterion-9 program, solved in delta mode.  No random part."""
    del seed
    return [Case("scale", layered_source(), modes=("delta",),
                 derived_nodes=200 * 25, must_flag="soundness_only")]


# --------------------------------------------------------------------------
# feasibility screen shared by the seeded generators
# --------------------------------------------------------------------------

def _class_feasible(size, margs, conds):
    """Whether the rounded declarations of one class admit a joint.

    margs: {bit: p}; conds: [(bit_true, bit_given, given_neg, p)].  Solved
    directly over the 2^size joint, independently of the engine.
    """
    dim = 1 << size
    idx = np.arange(dim)
    rows, rhs = [np.ones(dim)], [1.0]
    for bit, p in margs.items():
        rows.append(((idx >> bit) & 1).astype(float))
        rhs.append(p)
    for bt, bg, neg, p in conds:
        given = ((idx >> bg) & 1) != (1 if neg else 0)
        both = given & (((idx >> bt) & 1) == 1)
        rows.append(both.astype(float) - p * given.astype(float))
        rhs.append(0.0)
    res = linprog(np.zeros(dim), A_eq=np.array(rows), b_eq=np.array(rhs),
                  bounds=(0, 1), method="highs")
    return res.status == 0


def _marg(dist, bit):
    return float(sum(p for w, p in enumerate(dist) if w >> bit & 1))


def _cond(dist, bit_true, bit_given, given_neg):
    num = den = 0.0
    for w, p in enumerate(dist):
        if bool(w >> bit_given & 1) != given_neg:
            den += p
            if w >> bit_true & 1:
                num += p
    return num, den


# --------------------------------------------------------------------------
# recursive: a cyclic reachability chain with correlated edge classes
# --------------------------------------------------------------------------

CHAIN_NODES = 16
CHAIN_BACK_EVERY = 4
CHAIN_CLASS = 3
CHAIN_QUERIES = (4, 8, 12, 15)
# concentration of the seeded joints: near-uniform, so seeds move the
# numbers without changing how hard the program is
CHAIN_ALPHA = 100.0
CHAIN_VARIANTS = 2


def chain_edges():
    """Forward links i -> i+1, plus a back link on every 4th one."""
    edges = []
    for i in range(CHAIN_NODES - 1):
        edges.append((i, i + 1))
        if i % CHAIN_BACK_EVERY == CHAIN_BACK_EVERY - 1:
            edges.append((i + 1, i - 1))
    return edges


def recursive_source(rng):
    """The fixed chain, with declarations read off seeded Dirichlet joints.

    The seed sets the distributions only; the structure never changes.
    Returns None when 6-digit rounding made a class infeasible.
    """
    edges = chain_edges()
    lines = []
    for start in range(0, len(edges), CHAIN_CLASS):
        members = [f"edge({a},{b})" for a, b in edges[start:start + CHAIN_CLASS]]
        size = len(members)
        dist = rng.dirichlet(np.full(1 << size, CHAIN_ALPHA))
        margs = {}
        for bit, name in enumerate(members):
            margs[bit] = round(_marg(dist, bit), 6)
            lines.append(f"{margs[bit]:.6f}::{name}.")
        conds = []
        if size > 1:
            lines.append(f"corr({','.join(members)}).")
            num, den = _cond(dist, 1, 0, False)
            p = round(num / den, 6)
            conds.append((1, 0, False, p))
            lines.append(f"{p:.6f}::{members[1]}|{members[0]}.")
        if not _class_feasible(size, margs, conds):
            return None
    lines.append("0.9::path(X,Y) :- edge(X,Y).")
    lines.append("path(X,Z) :- path(X,Y), edge(Y,Z).")
    lines += [f"query(path(0,{q}))." for q in CHAIN_QUERIES]
    return "\n".join(lines) + "\n"


def recursive_cases(seed):
    cases = []
    for v in range(CHAIN_VARIANTS):
        for attempt in range(20):
            src = recursive_source(np.random.default_rng([seed, v, attempt]))
            if src is not None:
                break
        else:
            raise RuntimeError(f"no feasible chain for seed {seed}")
        cases.append(Case(f"chain{v}", src))
    return cases


# --------------------------------------------------------------------------
# small_batch: many small random programs plus the fixed examples
# --------------------------------------------------------------------------

# Program structures come from this fixed seed; the workload seed draws only
# the distributions and rule probabilities.  A few structures cost 50-100x
# the median delta solve, so letting the seed pick structures would let it
# pick how many of those a run contains.
STRUCTURE_SEED = 20250815


def random_source(shape, value):
    """A small layered program over 1-3 correlated classes.

    shape draws the structure (classes, which facts are declared, rules,
    queries); value draws each class joint and rule probability.  Every
    declaration is read off the joints, so only 6-digit rounding can make a
    program infeasible; such a draw returns None.  Negation only points to
    lower layers, and some programs carry a positive recursive pair.
    """
    lines = []
    n_classes = int(shape.integers(1, 4))
    fact_names = []
    classes = []
    for _ in range(n_classes):
        size = int(shape.integers(1, 4))
        members = [f"i{len(fact_names) + k}" for k in range(size)]
        fact_names.extend(members)
        classes.append((members, value.dirichlet(np.ones(1 << size))))

    for members, dist in classes:
        margs, conds = {}, []
        for b, name in enumerate(members):
            if len(members) == 1 or shape.random() < 0.75:
                margs[b] = round(_marg(dist, b), 6)
                lines.append(f"{margs[b]:.6f}::{name}.")
        if len(members) > 1:
            lines.append(f"corr({','.join(members)}).")
            if shape.random() < 0.4:
                i, j = shape.choice(len(members), 2, replace=False)
                neg = shape.random() < 0.3
                num, den = _cond(dist, int(i), int(j), neg)
                if den >= 0.05:
                    p = round(num / den, 6)
                    conds.append((int(i), int(j), neg, p))
                    giv = f"\\+{members[j]}" if neg else members[j]
                    lines.append(f"{p:.6f}::{members[i]}|{giv}.")
        if not _class_feasible(len(members), margs, conds):
            return None

    derived = []
    layer_of = {}
    n_rules = int(shape.integers(1, 8))
    for _ in range(n_rules):
        if derived and shape.random() < 0.3:
            head = str(shape.choice(derived))
        else:
            head = f"d{len(derived)}"
            derived.append(head)
            layer_of[head] = len(layer_of)
        pool = fact_names + [d for d in derived
                             if layer_of[d] < layer_of[head]]
        n_body = int(shape.integers(1, min(3, len(pool)) + 1))
        body = [str(b) for b in shape.choice(pool, n_body, replace=False)]
        lits = [b if k == 0 or shape.random() >= 0.2 else f"\\+{b}"
                for k, b in enumerate(body)]
        if shape.random() < 0.5:
            lines.append(f"{head} :- {', '.join(lits)}.")
        else:
            p = round(float(value.uniform(0.5, 0.99)), 2)
            lines.append(f"{p}::{head} :- {', '.join(lits)}.")

    if shape.random() < 0.15:
        base = str(shape.choice(fact_names))
        other = str(shape.choice(fact_names))
        lines.append(f"rb :- {base}.")
        lines.append("ra :- rb.")
        p = round(float(value.uniform(0.5, 0.99)), 2)
        lines.append(f"{p}::rb :- ra, {other}.")
        derived.extend(["ra", "rb"])

    n_q = int(shape.integers(1, min(2, len(derived)) + 1))
    for q in shape.choice(derived, n_q, replace=False):
        lines.append(f"query({q}).")
    return "\n".join(lines) + "\n"


def random_case_source(seed, k):
    """Program k of the batch: fixed structure, values drawn from seed."""
    for attempt in range(20):
        src = random_source(np.random.default_rng([STRUCTURE_SEED, k]),
                            np.random.default_rng([seed, k, attempt]))
        if src is not None:
            return src
    raise RuntimeError(f"no feasible program {k} for seed {seed}")


def small_batch_cases(seed, count=200):
    cases = [
        Case("roads", ROADS, golden={
            "exact": {"path(1,7)": ROADS_EXACT},
            "approx": {"path(1,7)": ROADS_APPROX}}),
        Case("roads_d05", ROADS, modes=("delta",), delta=0.05,
             golden={"delta": {"path(1,7)": ROADS_DELTA_05}}),
        Case("sixpack", SIXPACK, golden={
            m: {"e": (SIXPACK_E, SIXPACK_E)} for m in MODES}),
        Case("conflict", CONFLICT, infeasible=True),
    ]
    cases += [Case(f"rand{k}", random_case_source(seed, k), oracle=True)
              for k in range(count)]
    return cases


WORKLOADS = {
    "scale": scale_cases,
    "recursive": recursive_cases,
    "small_batch": small_batch_cases,
}
