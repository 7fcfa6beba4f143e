"""Hot numeric kernels, vectorized with numpy.

Two workloads dominate runtime: solving many small linear systems during
vertex enumeration, and evaluating the least model over every world during
oracle runs.  Each kernel works on whole batches of supports or worlds at
once.
"""

from __future__ import annotations

import numpy as np

# read only by perfbench/run.py, which reports the kernel lane it measured
HAS_NUMBA = False


def active_lane() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# support solving: for each column subset S of A, solve A[:, S] y = b
# ---------------------------------------------------------------------------

# supports solved per batched SVD
SVD_CHUNK = 2048


def solve_supports(a, b, combos):
    """Solve A[:, S] y = b for every row S of combos.

    Returns (ys, ok) where ok marks subsets whose columns are linearly
    independent; rows with ok False carry no meaningful solution.  Residual
    and sign checks are left to the caller.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    combos = np.ascontiguousarray(combos, dtype=np.int64)
    if combos.size == 0:
        r = combos.shape[1] if combos.ndim == 2 else 0
        return np.zeros((0, r)), np.zeros(0, dtype=bool)
    n, r = combos.shape
    ys = np.zeros((n, r))
    ok = np.zeros(n, dtype=bool)
    for lo in range(0, n, SVD_CHUNK):
        hi = min(lo + SVD_CHUNK, n)
        cols = np.moveaxis(a[:, combos[lo:hi]], 0, 1)  # (c, m, r)
        u, s, vt = np.linalg.svd(cols, full_matrices=False)
        good = s[:, -1] > 1e-10 * np.maximum(s[:, 0], 1.0)
        safe = np.where(s > 0, s, 1.0)
        ub = np.einsum("cmk,m->ck", u, b)
        ys[lo:hi] = np.einsum("ckr,ck->cr", vt, ub / safe)
        ok[lo:hi] = good
    return ys, ok


# ---------------------------------------------------------------------------
# world-space fixpoint: least model of the ground program in every world
# ---------------------------------------------------------------------------

def fixpoint_table(ids, n_nodes, input_bit, head, ev_bit,
                   body_off, body_node, body_sign, strat_off):
    """Boolean table (n_worlds, n_nodes) of the least model per world.

    Edges are grouped by stratum; within a stratum firing repeats to a
    fixpoint, so cyclic positive dependencies are fine.  A negative body
    literal refers to a node settled in an earlier stratum.
    """
    ids = np.asarray(ids, dtype=np.int64)
    w = ids.shape[0]
    val = np.zeros((w, n_nodes), dtype=bool)
    for j in range(n_nodes):
        if input_bit[j] >= 0:
            val[:, j] = ((ids >> input_bit[j]) & 1) != 0
    for s in range(len(strat_off) - 1):
        changed = True
        while changed:
            changed = False
            for e in range(strat_off[s], strat_off[s + 1]):
                if ev_bit[e] >= 0:
                    fire = ((ids >> ev_bit[e]) & 1) != 0
                else:
                    fire = np.ones(w, dtype=bool)
                for t in range(body_off[e], body_off[e + 1]):
                    v = val[:, body_node[t]]
                    fire = fire & v if body_sign[t] else fire & ~v
                new = fire & ~val[:, head[e]]
                if new.any():
                    val[:, head[e]] |= new
                    changed = True
    return val


# ---------------------------------------------------------------------------
# world weights: P(world) under a product of class distributions and events
# ---------------------------------------------------------------------------

def world_weights(ids, cls_off, cls_bits, dist_off, dist_flat,
                  ev_prob, ev_base):
    ids = np.asarray(ids, dtype=np.int64)
    w = np.ones(ids.shape[0])
    for c in range(len(cls_off) - 1):
        idx = np.zeros(ids.shape[0], dtype=np.int64)
        for k, t in enumerate(range(cls_off[c], cls_off[c + 1])):
            idx |= ((ids >> cls_bits[t]) & 1) << k
        w *= dist_flat[dist_off[c] + idx]
    for j in range(len(ev_prob)):
        on = ((ids >> (ev_base + j)) & 1) != 0
        w *= np.where(on, ev_prob[j], 1.0 - ev_prob[j])
    return w
