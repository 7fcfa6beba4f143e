import numpy as np
import pytest

# The road-network example used throughout the docs: two probe paths from
# node 1 to node 7, with three correlated edges around node 2.
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

# Known ground truth for ROADS, derived by hand and cross-checked against
# world enumeration in test_oracle.py: P(path(1,7)) = 0.54 - 0.336*q with
# q = P(edge(2,5) and edge(2,6)) ranging over [0.378, 0.582].
ROADS_EXACT = (0.344448, 0.412992)
ROADS_APPROX = (0.288, 0.467424)
ROADS_DELTA_05 = (0.338, 0.417424)

# A small six-rule program over one two-fact class; its symbolic expressions
# are frozen as goldens in test_symexpr.py.  The class distribution is pinned
# to a point by its three declarations, so P(e) is a single value:
# 0.35*0.1 + 0.1728*0.2 + (0.035 + 0.1728)*0.3
SIXPACK_E = 0.1319
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

# a 16-node chain with back edges, in six 3-fact classes: it unfolds cycles
CHAIN = """\
0.522430::edge(0,1).
0.487043::edge(1,2).
0.459282::edge(2,3).
corr(edge(0,1),edge(1,2),edge(2,3)).
0.501532::edge(1,2)|edge(0,1).
0.488732::edge(3,4).
0.485248::edge(4,2).
0.497908::edge(4,5).
corr(edge(3,4),edge(4,2),edge(4,5)).
0.482649::edge(4,2)|edge(3,4).
0.534698::edge(5,6).
0.510378::edge(6,7).
0.510809::edge(7,8).
corr(edge(5,6),edge(6,7),edge(7,8)).
0.508104::edge(6,7)|edge(5,6).
0.487249::edge(8,6).
0.491435::edge(8,9).
0.498007::edge(9,10).
corr(edge(8,6),edge(8,9),edge(9,10)).
0.517413::edge(8,9)|edge(8,6).
0.513742::edge(10,11).
0.471314::edge(11,12).
0.498087::edge(12,10).
corr(edge(10,11),edge(11,12),edge(12,10)).
0.459869::edge(11,12)|edge(10,11).
0.515307::edge(12,13).
0.502552::edge(13,14).
0.497556::edge(14,15).
corr(edge(12,13),edge(13,14),edge(14,15)).
0.518717::edge(13,14)|edge(12,13).
0.9::path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y), edge(Y,Z).
query(path(0,4)).
query(path(0,8)).
query(path(0,12)).
query(path(0,15)).
"""

# Conflicting conditional declarations; no joint distribution satisfies them.
CONFLICT = """\
0.5::i1.
0.3::i2.
0.6::i1|i2.
0.7::i1|\\+i2.
1::out :- i1.
query(out).
"""


@pytest.fixture
def roads():
    from praline import parse

    return parse(ROADS)


@pytest.fixture
def sixpack():
    from praline import parse

    return parse(SIXPACK)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _gen_source(rng, singleton_only):
    lines = []
    n_classes = int(rng.integers(1, 5 if singleton_only else 4))
    fact_names = []
    classes = []
    for _ in range(n_classes):
        size = 1 if singleton_only else int(rng.integers(1, 4))
        members = [f"i{len(fact_names) + k}" for k in range(size)]
        fact_names.extend(members)
        dist = rng.dirichlet(np.ones(1 << size))
        classes.append((members, dist))

    def marg(dist, bit):
        return sum(p for w, p in enumerate(dist) if w >> bit & 1)

    def cond(dist, bit_true, bit_given, given_neg):
        num = den = 0.0
        for w, p in enumerate(dist):
            if bool(w >> bit_given & 1) != given_neg:
                den += p
                if w >> bit_true & 1:
                    num += p
        return num, den

    for members, dist in classes:
        for b, name in enumerate(members):
            if len(members) == 1 or rng.random() < 0.75:
                lines.append(f"{marg(dist, b):.6f}::{name}.")
        if len(members) > 1:
            lines.append(f"corr({','.join(members)}).")
            if rng.random() < 0.4:
                i, j = rng.choice(len(members), 2, replace=False)
                neg = rng.random() < 0.3
                num, den = cond(dist, int(i), int(j), neg)
                if den >= 0.05:
                    giv = f"\\+{members[j]}" if neg else members[j]
                    lines.append(f"{num / den:.6f}::{members[i]}|{giv}.")

    derived = []
    layer_of = {}
    # leave room for the 3-line recursive pair so programs stay <= 10 rules
    n_rules = int(rng.integers(1, 11 if singleton_only else 8))
    for _ in range(n_rules):
        if derived and rng.random() < 0.3:
            head = str(rng.choice(derived))
        else:
            head = f"d{len(derived)}"
            derived.append(head)
            layer_of[head] = len(layer_of)
        pool = fact_names + [d for d in derived
                             if layer_of[d] < layer_of[head]]
        n_body = int(rng.integers(1, min(3, len(pool)) + 1))
        body = [str(b) for b in rng.choice(pool, n_body, replace=False)]
        lits = [b if k == 0 or rng.random() >= 0.2 else f"\\+{b}"
                for k, b in enumerate(body)]
        if rng.random() < 0.5:
            lines.append(f"{head} :- {', '.join(lits)}.")
        else:
            p = round(float(rng.uniform(0.5, 0.99)), 2)
            lines.append(f"{p}::{head} :- {', '.join(lits)}.")

    if not singleton_only and rng.random() < 0.15:
        base = str(rng.choice(fact_names))
        other = str(rng.choice(fact_names))
        lines.append(f"rb :- {base}.")
        lines.append("ra :- rb.")
        p = round(float(rng.uniform(0.5, 0.99)), 2)
        lines.append(f"{p}::rb :- ra, {other}.")
        derived.extend(["ra", "rb"])

    n_q = int(rng.integers(1, min(2, len(derived)) + 1))
    for q in rng.choice(derived, n_q, replace=False):
        lines.append(f"query({q}).")
    return "\n".join(lines) + "\n"


def random_program_source(seed, singleton_only=False):
    """A small random program that is feasible by construction.

    Class distributions are drawn first and every declared value is read off
    them, so the constraint system has a witness up to declaration rounding;
    the rare rounding conflict is resampled deterministically.  Rules form
    layers (negation only points downward) with an occasional positive-only
    recursive pair, and every program carries at least one query.
    """
    from praline import parse
    from praline.constraints import check_feasible, gen_constraints
    from praline.grounder import break_cycles, solve_standard
    from praline.symexpr import context_from_program

    for attempt in range(20):
        rng = np.random.default_rng([seed, attempt])
        src = _gen_source(rng, singleton_only)
        program = parse(src)
        graph = solve_standard(program)
        work = graph if graph.acyclic else break_cycles(graph)
        ctx = context_from_program(program, work)
        if check_feasible(gen_constraints(program, ctx)):
            return src
    raise AssertionError(f"no feasible program for seed {seed}")


def layered_source(width=200, depth=25, class_size=14, extra=6):
    """The criterion-9 program: `depth` layers of `width` rules each."""
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
